"""Stage-game solvers for one normal-form game under a finitely generated belief.

The victim's worst-case best response against K believed attacker mixes is a
small LP over (x, z); the attacker's best response against the victim's
best-response polytope is the dualized LP over (y, w, alpha).  Composing the
two gives the per-stage solve used by the backward-induction passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, LpStatus, solve_lp

MAX_BELIEF_POLICIES = 64


class StageSolveError(RuntimeError):
    """An internally inconsistent stage solve (e.g. a non-optimal LP status)."""


@dataclass(frozen=True)
class StageBR:
    """Outcome of one stage solve.

    y_star is one optimal attacker mix (any optimal vertex; recorded as
    returned by the deterministic solver), z_star the victim's worst-case
    value, v2_star the attacker's worst-case value z* . sum(w*) - alpha*.
    """

    y_star: np.ndarray
    z_star: float
    v2_star: float
    w_star: np.ndarray
    alpha_star: float


def _as_finite_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def victim_br_lp(a_prime) -> tuple:
    """Solve the victim's best-response LP for the stacked payoff matrix.

    a_prime is n x K with column j the victim's payoff vector against the
    j-th believed attacker mix.  Returns (x_star, z_star).
    """
    a_prime = _as_finite_matrix(a_prime, "a_prime")
    n, K = a_prime.shape
    # variables (x, z): z - x'A'e_j <= 0 for every j, sum(x) = 1, z free
    prog = LinearProgram(
        objective=np.append(np.zeros(n), 1.0),
        a_ub=np.hstack([-a_prime.T, np.ones((K, 1))]),
        b_ub=np.zeros(K),
        a_eq=np.append(np.ones(n), 0.0)[None, :],
        b_eq=np.ones(1),
        free=np.arange(n + 1) == n,
    )
    sol = solve_lp(prog)
    if sol.status != LpStatus.OPTIMAL:  # the feasible region is a nonempty polytope
        raise StageSolveError(f"victim best-response LP returned {sol.status}")
    return sol.v[:n], float(sol.value)


def attacker_br_lp(z_star: float, a_prime, b) -> StageBR:
    """Solve the attacker's dual best-response LP given the victim's optimum.

    z_star must be the optimal value of victim_br_lp on the same a_prime;
    anything else can make this LP unbounded, which is reported as an
    internal inconsistency.
    """
    a_prime = _as_finite_matrix(a_prime, "a_prime")
    b = _as_finite_matrix(b, "b")
    n, K = a_prime.shape
    if b.shape[0] != n:
        raise ValueError(f"b has {b.shape[0]} rows, expected {n}")
    m = b.shape[1]
    # variables (y, w, alpha): -(By)_i + (A'w)_i - alpha <= 0 for every i,
    # sum(y) = 1, alpha free
    prog = LinearProgram(
        objective=np.concatenate([np.zeros(m), np.full(K, z_star), [-1.0]]),
        a_ub=np.hstack([-b, a_prime, -np.ones((n, 1))]),
        b_ub=np.zeros(n),
        a_eq=np.append(np.ones(m), np.zeros(K + 1))[None, :],
        b_eq=np.ones(1),
        free=np.arange(m + K + 1) == m + K,
    )
    sol = solve_lp(prog)
    if sol.status != LpStatus.OPTIMAL:
        raise StageSolveError(
            f"attacker best-response LP returned {sol.status}; "
            "z_star is not the victim optimum for this a_prime"
        )
    y = sol.v[:m]
    w = sol.v[m:m + K]
    alpha = float(sol.v[-1])
    return StageBR(
        y_star=y,
        z_star=float(z_star),
        v2_star=float(z_star * w.sum() - alpha),
        w_star=w,
        alpha_star=alpha,
    )


def nf_attacker_best_response(pi_rows, a, b, *, k_cap: int = MAX_BELIEF_POLICIES) -> StageBR:
    """Attacker best response in one normal-form game against belief rows.

    pi_rows is K x m with each row a believed attacker mix; a and b are the
    victim / attacker payoff matrices.  Chains the two LPs: stack A' = A P',
    solve the victim LP for z*, then the attacker LP.
    """
    pi_rows = _as_finite_matrix(pi_rows, "pi_rows")
    a = _as_finite_matrix(a, "a")
    b = _as_finite_matrix(b, "b")
    K, m = pi_rows.shape
    if K > k_cap:
        raise ValueError(f"belief size {K} exceeds cap {k_cap}")
    if a.shape != b.shape or a.shape[1] != m:
        raise ValueError(
            f"shape mismatch: a {a.shape}, b {b.shape}, pi_rows {pi_rows.shape}"
        )
    sums = pi_rows.sum(axis=1)
    if np.any(pi_rows < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("pi_rows rows must be distributions")
    a_prime = a @ pi_rows.T
    _, z_star = victim_br_lp(a_prime)
    return attacker_br_lp(z_star, a_prime, b)
