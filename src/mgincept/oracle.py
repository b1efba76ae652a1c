"""Brute-force oracles that certify solver results on small instances.

Everything here is exponential or grid-based and gated behind hard size
guards; oracles certify the algorithms on small instances, never the
production solve path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .inception import exploit_fixed_fake
from .model import MarkovGame, MarkovPolicy
from .stage import StageSolveError, _as_finite_matrix

ENUM_GUARD = 4096
VERTEX_MAX_DIM = 6
VERTEX_INCLUDE_TOL = 1e-9
VERTEX_DEDUP_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Simplex grid resolution (step in (0, 0.5]) and dimension guard."""

    step: float
    max_dim: int = 4

    def __post_init__(self):
        if not (0.0 < self.step <= 0.5):
            raise ValueError(f"grid step must be in (0, 0.5], got {self.step!r}")
        if self.max_dim < 1:
            raise ValueError("max_dim must be >= 1")

    @property
    def resolution(self) -> int:
        # smallest N with 1/N <= step, so the grid is at least as fine as requested
        return max(1, int(math.ceil(1.0 / self.step - 1e-9)))


def _compositions(dim: int, total: int) -> np.ndarray:
    """All nonnegative integer vectors of length dim summing to total."""
    if dim == 1:
        return np.array([[total]], dtype=float)
    if dim == 2:
        k = np.arange(total + 1, dtype=float)
        return np.column_stack([k, total - k])
    blocks = []
    for first in range(total + 1):
        rest = _compositions(dim - 1, total - first)
        head = np.full((rest.shape[0], 1), float(first))
        blocks.append(np.hstack([head, rest]))
    return np.vstack(blocks)


def simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All points of the simplex with coordinates k/resolution, shape (count, dim)."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return _compositions(dim, resolution) / resolution


def grid_victim_value(a_prime, spec: GridSpec) -> float:
    """Grid maximum over victim mixes of the worst believed payoff column.

    Within L * step of the true optimum, L being the largest column range.
    """
    a_prime = np.asarray(a_prime, dtype=float)
    n = a_prime.shape[0]
    if n > spec.max_dim:
        raise ValueError(f"grid oracle gated to n <= {spec.max_dim}, got {n}")
    grid = simplex_grid(n, spec.resolution)
    return float((grid @ a_prime).min(axis=1).max())


def victim_br_vertices(a_prime, z_star: float) -> list:
    """All vertices of the victim's best-response polytope, deduplicated.

    The polytope is {x in simplex(n) | x'A'e_j >= z* for all j}.  Vertices
    are enumerated by brute force over active constraint subsets; this is
    oracle machinery and is gated to n <= VERTEX_MAX_DIM.
    """
    a_prime = _as_finite_matrix(a_prime, "a_prime")
    n, K = a_prime.shape
    if n > VERTEX_MAX_DIM:
        raise ValueError(f"vertex enumeration gated to n <= {VERTEX_MAX_DIM}, got n = {n}")
    # candidate active rows: x_i = 0 (first n) and x'A'e_j = z* (next K)
    C = np.vstack([np.eye(n), a_prime.T])
    r = np.concatenate([np.zeros(n), np.full(K, float(z_star))])
    found: list = []
    for combo in itertools.combinations(range(n + K), n - 1):
        M = np.vstack([np.ones((1, n)), C[list(combo)]])
        rhs = np.concatenate([[1.0], r[list(combo)]])
        if np.linalg.matrix_rank(M) < n:
            continue
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -VERTEX_INCLUDE_TOL):
            continue
        if np.any(a_prime.T @ x < z_star - VERTEX_INCLUDE_TOL):
            continue
        if not any(np.max(np.abs(x - y)) <= VERTEX_DEDUP_TOL for y in found):
            found.append(x)
    if not found:
        raise StageSolveError("empty best-response polytope; z_star is not optimal")
    return found


def grid_attacker_value(a_prime, b, z_star: float, spec: GridSpec) -> float:
    """Grid maximum over attacker mixes of the worst best-response payoff.

    The inner minimization over the victim's best-response polytope is exact
    (a linear function attains its minimum at a vertex); only the outer
    maximization is discretized.
    """
    a_prime = np.asarray(a_prime, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = b.shape
    if n > spec.max_dim or m > spec.max_dim:
        raise ValueError(f"grid oracle gated to n, m <= {spec.max_dim}")
    verts = np.stack(victim_br_vertices(a_prime, z_star))
    payoff = verts @ b  # (num_vertices, m)
    grid = simplex_grid(m, spec.resolution)
    return float((grid @ payoff.T).min(axis=1).max())


def enumerate_deterministic_policies(g: MarkovGame, player: int = 2):
    """Yield every deterministic policy of a player exactly once.

    Lexicographic over (step, state) cells with step most significant; the
    first policy plays action 0 everywhere.  Gated to at most 4096 policies.
    """
    k = g.m if player == 2 else g.n
    cells = g.horizon * g.num_states
    count = k ** cells
    if count > ENUM_GUARD:
        raise ValueError(f"enumeration of {count} policies exceeds guard {ENUM_GUARD}")
    for assignment in itertools.product(range(k), repeat=cells):
        actions = np.array(assignment, dtype=int).reshape(g.horizon, g.num_states)
        yield MarkovPolicy.deterministic(player, actions, k)


def brute_force_inception(g: MarkovGame) -> tuple:
    """Exhaustively optimal fake policy: argmax over all deterministic fakes
    of the attacker's exploited value.  Lowest-lexicographic winner on ties.

    Returns (policy, value).
    """
    best_policy = None
    best_value = -np.inf
    for candidate in enumerate_deterministic_policies(g, player=2):
        value = exploit_fixed_fake(g, candidate).v2_root
        if value > best_value:
            best_value = value
            best_policy = candidate
    return best_policy, float(best_value)


def random_game(rng: np.random.Generator, horizon: int, num_states: int,
                n: int, m: int, reward_scale: float = 1.0) -> MarkovGame:
    """A seeded random game: uniform rewards, normalized-uniform transitions."""
    rewards = rng.uniform(-reward_scale, reward_scale, (2, horizon, num_states, n, m))
    transitions = rng.uniform(0.1, 1.0, (horizon, num_states, n, m, num_states))
    transitions /= transitions.sum(axis=-1, keepdims=True)
    mu = rng.uniform(0.1, 1.0, num_states)
    mu /= mu.sum()
    return MarkovGame(horizon, num_states, n, m, mu, rewards, transitions)


def random_mix_rows(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """K random stage mixes (rows of a belief's stage matrix)."""
    rows = rng.uniform(0.05, 1.0, (k, m))
    return rows / rows.sum(axis=1, keepdims=True)


def random_belief(rng: np.random.Generator, g: MarkovGame, k: int):
    """A random finitely generated belief compatible with a game."""
    from .model import BeliefSet

    bases = []
    for _ in range(k):
        entries = rng.uniform(0.05, 1.0, (g.horizon, g.num_states, g.m))
        entries /= entries.sum(axis=2, keepdims=True)
        bases.append(MarkovPolicy(2, entries))
    return BeliefSet(tuple(bases))
