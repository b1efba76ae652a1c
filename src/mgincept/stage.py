"""Stage-game solvers for one normal-form game under a finitely generated belief.

The victim's worst-case best response against K believed attacker mixes is a
small LP over (x, z); the attacker's best response against the victim's
best-response polytope is the dualized LP over (y, w, alpha).  Composing the
two gives the stage solve of a K > 1 belief.  A singleton belief needs no
victim LP: the victim's value is the column maximum.  `singleton_stage_solves`
solves a whole layer of singleton stages, several believed columns each: a
cell whose best reply is one row in closed form (max and argmax), a cell tied
exactly at the maximum by the attacker LP alone, at that exact maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    value, v2_star the attacker's worst-case value z* . sum(w*) - alpha*
    (equal up to rounding when the closed form, not the LP, produced it).
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
    j-th believed attacker mix.  Returns (x_star, z_star).  Trusts its input
    to be finite.
    """
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

    z_star must be the victim's optimal value for the same a_prime (from
    victim_br_lp, or the column maximum when K = 1); a value above it makes
    this LP unbounded, which is reported as an internal inconsistency.
    Trusts its inputs to be finite, b with a_prime's rows.
    """
    n, K = a_prime.shape
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


def _lp_chain(a_prime, b) -> StageBR:
    """The stage solve of a K > 1 belief: the victim LP for z*, then the
    attacker LP.  Trusts its inputs to be finite, b with a_prime's rows."""
    _, z_star = victim_br_lp(a_prime)
    return attacker_br_lp(z_star, a_prime, b)


def nf_attacker_best_response(pi_rows, a, b) -> StageBR:
    """Attacker best response in one normal-form game against belief rows.

    pi_rows is K x m with each row a believed attacker mix; a and b are the
    victim / attacker payoff matrices.  Stacks A' = A P' and, for K > 1,
    chains the two LPs: the victim LP for z*, then the attacker LP.

    A singleton belief (K = 1) goes through `singleton_stage_solves`, whose
    z* is max A' exactly.  When one row i* attains it, the victim's only
    best reply is i*, the attacker plays the lowest-index k* maximizing
    b[i*, k], v2* = b[i*, k*] exactly, and (w*, alpha*) is a dual
    certificate for attacker_br_lp's program.  Rows tied exactly (==) at the
    maximum get the attacker LP's maximin over them.
    """
    pi_rows = _as_finite_matrix(pi_rows, "pi_rows")
    a = _as_finite_matrix(a, "a")
    b = _as_finite_matrix(b, "b")
    K, m = pi_rows.shape
    if K > MAX_BELIEF_POLICIES:
        raise ValueError(f"belief size {K} exceeds cap {MAX_BELIEF_POLICIES}")
    if a.shape != b.shape or a.shape[1] != m:
        raise ValueError(
            f"shape mismatch: a {a.shape}, b {b.shape}, pi_rows {pi_rows.shape}"
        )
    sums = pi_rows.sum(axis=1)
    if np.any(pi_rows < 0) or np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("pi_rows rows must be distributions")
    a_prime = a @ pi_rows.T
    if K > 1:
        return _lp_chain(a_prime, b)
    col = a_prime[:, 0]
    cell = singleton_stage_solves(col[None, None], b[None])
    if cell.tied[0, 0]:
        return cell.tied_brs[0]
    i_star, k_star = int(cell.i_star[0, 0]), int(cell.k_star[0, 0])
    z_star, v2_star = cell.z[0, 0], cell.v2[0, 0]
    # w* is the least dual weight that keeps every other row i feasible in
    # attacker_br_lp's program: col_i w - alpha <= b[i, k*] with
    # alpha = z* w - v2*, i.e. w >= (v2* - b[i, k*]) / (z* - col_i)
    others = np.arange(col.size) != i_star
    ratios = (v2_star - b[others, k_star]) / (z_star - col[others])
    w = float(ratios.max(initial=0.0))
    return StageBR(
        y_star=np.eye(m)[k_star],
        z_star=float(z_star),
        v2_star=float(v2_star),
        w_star=np.array([w]),
        alpha_star=float(z_star * w - v2_star),
    )


class SingletonSolves(NamedTuple):
    """Solves of P singleton stages x J cells, one (P, J) entry each.

    z is the victim's value (the column maximum), i_star its lowest-index
    best reply row and v2 the attacker's value.  tied marks the cells whose
    maximum more than one row attains exactly (==); tied_brs holds their
    attacker LP solves, in np.nonzero(tied) order.  k_star, the attacker's
    lowest-index best action against row i_star, is the attacker's stage
    policy of the untied cells only.
    """

    z: np.ndarray
    i_star: np.ndarray
    k_star: np.ndarray
    v2: np.ndarray
    tied: np.ndarray
    tied_brs: tuple


def singleton_stage_solves(cols, b) -> SingletonSolves:
    """Solve J singleton cells of P stages at once: cols[p, j] (P x J x n) is
    the victim's payoffs against the j-th believed attacker mix of stage p,
    and b (P x n x m) the attacker's payoffs of stage p, shared by its cells.

    A cell with a unique best reply row i* is solved by max and argmax
    alone, v2 = b[p, i*, k*].  A tied cell needs the maximin over its tied
    rows: attacker_br_lp at z = max cols[p, j], the exact victim value.
    Trusts its inputs to be finite.
    """
    p = np.arange(cols.shape[0])[:, None]
    j = np.arange(cols.shape[1])
    i_star = cols.argmax(axis=2)  # lowest index on ties
    z = cols[p, j, i_star]
    tied = np.count_nonzero(cols == z[..., None], axis=2) > 1
    k_star = b.argmax(axis=2)[p, i_star]  # lowest index on ties, per reply row
    v2 = b[p, i_star, k_star]
    tied_brs = []
    for c in zip(*np.nonzero(tied)):
        br = attacker_br_lp(z[c], cols[c][:, None], b[c[0]])
        v2[c] = br.v2_star
        tied_brs.append(br)
    return SingletonSolves(z, i_star, k_star, v2, tied, tuple(tied_brs))
