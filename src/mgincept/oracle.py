"""Brute-force oracles that certify solver results on small instances.

Everything here is exponential or grid-based and gated behind hard size
guards, and none of it solves an LP of its own; oracles certify the
algorithms on small instances, never the production solve path.

The exhaustive fake-policy search shares work across suffixes: fixing a
fake policy's layers h+1..H-1 fixes the value vectors entering layer h, so
the greedy search's backward pass (`inception._suffix_pass`), keeping every
row, solves each layer's stages once per distinct suffix and every choice at
layer h reuses them.
It performs exactly the arithmetic of exploiting each fake policy on its own,
so its values are bit-identical to `inception.exploit_fixed_fake`'s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .inception import _suffix_pass
from .model import BeliefSet, MarkovGame, MarkovPolicy, require_valid
from .solver import _check_budget
from .stage import StageSolveError

ENUM_GUARD = 4096
GRID_MAX_DIM = 4
_GRID_MAX_POINTS = 1_000_000  # 32 MB of float64 points at GRID_MAX_DIM
VERTEX_MAX_DIM = 6
VERTEX_INCLUDE_TOL = 1e-9
VERTEX_DEDUP_TOL = 1e-8


@dataclass(frozen=True)
class GridSpec:
    """Simplex grid resolution: step in (0, 0.5]."""

    step: float

    def __post_init__(self):
        if not (0.0 < self.step <= 0.5):
            raise ValueError(f"grid step must be in (0, 0.5], got {self.step!r}")

    @property
    def resolution(self) -> int:
        # smallest N with 1/N <= step, so the grid is at least as fine as requested
        return max(1, int(math.ceil(1.0 / self.step - 1e-9)))


def _check_grid_points(dim: int, spec: GridSpec) -> None:
    """Refuse, before it is built, a simplex grid of dim coordinates at
    spec with more than _GRID_MAX_POINTS points, C(resolution + dim - 1,
    dim - 1); the ValueError names the count and a coarser step that fits."""
    points = math.comb(spec.resolution + dim - 1, dim - 1)
    if points <= _GRID_MAX_POINTS:
        return
    fits, too_many = 1, spec.resolution  # the largest resolution that fits, by bisection
    while too_many - fits > 1:
        mid = (fits + too_many) // 2
        if math.comb(mid + dim - 1, dim - 1) <= _GRID_MAX_POINTS:
            fits = mid
        else:
            too_many = mid
    # 1 / fits rounded up to two significant digits: its resolution is at most fits
    unit = 10.0 ** (math.floor(math.log10(1.0 / fits)) - 1)
    coarser = math.ceil(1.0 / fits / unit) * unit
    raise ValueError(f"a grid over {dim} actions at step {spec.step:g} has {points} points, "
                     f"above the limit of {_GRID_MAX_POINTS}; use a step of {coarser:.2g} "
                     "or coarser")


def simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """All points of the simplex with coordinates k/resolution, shape (count, dim),
    in lexicographic order of their coordinates."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    points = np.array([[resolution]])
    for _ in range(dim - 1):
        # each point once per value k = 0 .. r of its next coordinate, r
        # being its last part, which splits into k and r - k
        counts = points[:, -1] + 1
        points = np.repeat(points, counts, axis=0)
        k = np.arange(len(points)) - np.repeat(np.cumsum(counts) - counts, counts)
        points = np.column_stack([points[:, :-1], k, points[:, -1] - k])
    return points / resolution


def grid_victim_value(a_prime, spec: GridSpec) -> float:
    """Grid maximum over victim mixes of the worst believed payoff column.

    Within L * step of the true optimum, L being the largest column range.
    """
    a_prime = np.asarray(a_prime, dtype=float)
    n = a_prime.shape[0]
    if n > GRID_MAX_DIM:
        raise ValueError(f"grid oracle gated to n <= {GRID_MAX_DIM}, got {n}")
    _check_grid_points(n, spec)
    grid = simplex_grid(n, spec.resolution)
    return float((grid @ a_prime).min(axis=1).max())


def _as_finite_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


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


def _check_enum_guard(g: MarkovGame) -> None:
    count = g.m ** (g.horizon * g.num_states)
    if count > ENUM_GUARD:
        raise ValueError(f"enumeration of {count} policies exceeds guard {ENUM_GUARD}")


def brute_force_inception(g: MarkovGame) -> tuple:
    """Exhaustively optimal fake policy: argmax over all deterministic fakes
    of the attacker's exploited value.  Lowest-lexicographic winner on ties:
    policies are ordered by their (step, state) actions, step most
    significant.

    `inception._suffix_pass`, keeping every row: the m^S choices at layer h
    expand the B suffix rows to index choice * B + suffix (state 0 most
    significant), which is that order, and a failing stage solve
    is raised as "step h, stage suffix * S + s: ...".
    Every value is bit-identical to `exploit_fixed_fake` on that policy.

    Returns (policy, value).
    """
    H, S, m = g.horizon, g.num_states, g.m
    _check_enum_guard(g)
    require_valid(g)
    _check_budget(g, 1)  # the size guard of exploiting one fake policy
    # choices[c, s]: the action at state s of the layer's c-th joint choice
    choices = np.indices((m,) * S).reshape(S, -1).T

    def keep(h, z, v2):
        pick = (slice(None), np.arange(z.shape[0])[:, None], np.arange(S), choices[:, None, :])
        return np.stack([z, v2])[pick].reshape(2, -1, S)

    v = _suffix_pass(g, keep)
    roots = np.vecdot(v[1], g.mu)  # one float64 dot per policy, as ValueTables.root
    best = int(np.argmax(roots))  # first maximum: lowest-lexicographic policy
    actions = np.reshape(np.unravel_index(best, (m,) * (H * S)), (H, S))
    return MarkovPolicy.deterministic(2, actions, m), float(roots[best])


def random_game(rng: np.random.Generator, horizon: int, num_states: int,
                n: int, m: int, reward_scale: float = 1.0) -> MarkovGame:
    """A seeded random game: uniform rewards, normalized-uniform transitions."""
    rewards = rng.uniform(-reward_scale, reward_scale, (2, horizon, num_states, n, m))
    transitions = rng.uniform(0.1, 1.0, (horizon, num_states, n, m, num_states))
    transitions /= transitions.sum(axis=-1, keepdims=True)
    mu = rng.uniform(0.1, 1.0, num_states)
    mu /= mu.sum()
    return MarkovGame(horizon, num_states, n, m, mu, rewards, transitions)


def random_belief(rng: np.random.Generator, g: MarkovGame, k: int):
    """A random finitely generated belief compatible with a game."""
    bases = []
    for _ in range(k):
        entries = rng.uniform(0.05, 1.0, (g.horizon, g.num_states, g.m))
        entries /= entries.sum(axis=2, keepdims=True)
        bases.append(MarkovPolicy(2, entries))
    return BeliefSet(tuple(bases))
