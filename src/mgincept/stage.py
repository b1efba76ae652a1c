"""Stage-game solvers for one normal-form game under a finitely generated belief.

The victim's worst-case best response against K believed attacker mixes is a
small maximin LP over (x, z); the attacker's best response against the
victim's best-response polytope is the dualized LP over (y, w, alpha), and
the two chained solve a K > 1 belief.  Both LPs take a leading stage axis:
the P stages of a layer share one shape, so `lp.solve_lp` solves them as one
lockstep batch (split at `lp.BATCH_ELEMENTS` tableau elements), with results
bit-identical to solving the stages one by one.  A failure names the stage
(its index p along that axis) and the LP.  A singleton belief needs neither
LP: the victim's value is the column maximum, its best replies the rows
attaining it (==).  `singleton_stage_solves` solves a layer of such stages
from their (P, n, J) believed columns, the layout of Q1 itself (J = m pure
actions) and of Q1 @ mixes; its docstring states the tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lp import LinearProgram, LpError, LpStatus, batch_slices, solve_lp

MAX_BELIEF_POLICIES = 64


class StageSolveError(RuntimeError):
    """An internally inconsistent stage solve (e.g. a non-optimal LP status)."""


@dataclass(frozen=True)
class StageBR:
    """Outcome of one stage solve, or of P stage solves with a leading stage
    axis on every field (from `attacker_br_lp` and `_lp_chain`).

    y_star is one optimal attacker mix (any optimal vertex; recorded as
    returned by the deterministic solver), z_star the victim's worst-case
    value, v2_star the attacker's worst-case value z* . sum(w*) - alpha*
    (equal up to rounding when the singleton solve produced it).
    """

    y_star: np.ndarray
    z_star: float | np.ndarray
    v2_star: float | np.ndarray
    w_star: np.ndarray
    alpha_star: float | np.ndarray


def _as_finite_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _solve_stages(count: int, rows: int, cols: int, program, lp_name: str,
                  hint: str = "") -> list:
    """Solve `count` stage LPs of one shape (`rows` constraints over `cols`
    variables) in lockstep batches; program(sl) builds the LinearProgram of
    stages sl.  Returns their solutions.  Raises for the lowest failing
    stage, naming it and the LP, with its index as the error's `stage`:
    StageSolveError for a non-optimal status, LpError for the engine's own
    failures.  No batch past it is solved."""
    sols = []
    for sl in batch_slices(count, rows, cols):
        for sol in solve_lp(program(sl)):
            p = len(sols)
            if isinstance(sol, LpError):
                failure = LpError(f"stage {p}: {lp_name}: {sol}")
            elif sol.status != LpStatus.OPTIMAL:
                failure = StageSolveError(f"stage {p}: {lp_name} returned {sol.status}{hint}")
            else:
                sols.append(sol)
                continue
            failure.stage = p
            raise failure
    return sols


def victim_br_lp(cols) -> tuple:
    """Solve the maximin LPs max_x min_j (x'A'_p)_j of P matrix games at once.

    cols is P x n x K: stage p's victim payoffs against K believed attacker
    mixes, or the attacker's payoffs on a tied singleton cell's rows,
    transposed.  Returns (x_star (P, n), z_star (P,)).  Raises for the
    lowest stage whose LP fails, naming it.  Trusts its input to be finite.
    """
    P, n, K = cols.shape

    def program(sl):
        B = cols[sl].shape[0]
        # variables (x, z): z - x'A'e_j <= 0 for every j, sum(x) = 1, z free
        return LinearProgram(
            objective=np.tile(np.append(np.zeros(n), 1.0), (B, 1)),
            a_ub=np.concatenate([-cols[sl].transpose(0, 2, 1), np.ones((B, K, 1))], axis=2),
            b_ub=np.zeros((B, K)),
            a_eq=np.tile(np.append(np.ones(n), 0.0), (B, 1, 1)),
            b_eq=np.ones((B, 1)),
            free=np.arange(n + 1) == n,
        )

    sols = _solve_stages(P, K + 1, n + 1, program, "victim best-response LP")
    return (np.array([sol.v[:n] for sol in sols]).reshape(P, n),
            np.array([sol.value for sol in sols]))


def attacker_br_lp(z_star, cols, b) -> StageBR:
    """Solve the attacker's dual best-response LPs of P stages of a K > 1 belief.

    cols (P x n x K) and b (P x n x m) are the stages' believed columns and
    attacker payoffs, z_star (P,) victim_br_lp's optimal values for the same
    cols; a value above one makes that LP unbounded, which is reported as an
    internal inconsistency naming the lowest such stage.  Returns a StageBR
    whose fields have a leading stage axis.  Trusts its inputs to be finite.
    """
    z_star = np.asarray(z_star, dtype=float)
    P, n, K = cols.shape
    m = b.shape[2]

    def program(sl):
        B = cols[sl].shape[0]
        # variables (y, w, alpha): -(By)_i + (A'w)_i - alpha <= 0 for every i,
        # sum(y) = 1, alpha free
        return LinearProgram(
            objective=np.concatenate([np.zeros((B, m)), np.repeat(z_star[sl, None], K, axis=1),
                                      np.full((B, 1), -1.0)], axis=1),
            a_ub=np.concatenate([-b[sl], cols[sl], -np.ones((B, n, 1))], axis=2),
            b_ub=np.zeros((B, n)),
            a_eq=np.tile(np.append(np.ones(m), np.zeros(K + 1)), (B, 1, 1)),
            b_eq=np.ones((B, 1)),
            free=np.arange(m + K + 1) == m + K,
        )

    v = [sol.v for sol in _solve_stages(P, n + 1, m + K + 1, program, "attacker best-response LP",
                                        "; z_star is not the victim optimum for this a_prime")]
    alpha = [float(x[-1]) for x in v]
    return StageBR(
        y_star=np.array([x[:m] for x in v]).reshape(P, m),
        z_star=z_star,
        v2_star=np.array([z * x[m:m + K].sum() - a for z, x, a in zip(z_star, v, alpha)]),
        w_star=np.array([x[m:m + K] for x in v]).reshape(P, K),
        alpha_star=np.array(alpha),
    )


def _lp_chain(cols, b) -> StageBR:
    """The stage solves of a K > 1 belief for P stages at once: the victim
    LPs for z*, then the attacker LPs; cols is P x n x K, b P x n x m.

    Returns a StageBR whose fields have a leading stage axis.  Raises what
    solving the stages one by one raises first: the lowest failing stage,
    and there the victim LP before the attacker LP.  Trusts its inputs to
    be finite.
    """
    try:
        _, z_star = victim_br_lp(cols)
    except (StageSolveError, LpError) as err:
        failure = err
    else:
        return attacker_br_lp(z_star, cols, b)
    # the stages before the failing victim LP, whose attacker LPs come first
    # (their victim LPs solve again to the same bits: a stage's solve does
    # not depend on its batch)
    _lp_chain(cols[:failure.stage], b[:failure.stage])
    raise failure


def nf_attacker_best_response(pi_rows, a, b) -> StageBR:
    """Attacker best response in one normal-form game against belief rows.

    pi_rows is K x m with each row a believed attacker mix; a and b are the
    victim / attacker payoff matrices.  Stacks A' = A P' and, for K > 1,
    chains the two LPs: the victim LP for z*, then the attacker LP.

    A singleton belief (K = 1) goes through `singleton_stage_solves`, whose
    z* is max A' exactly.  When one row i* attains it, the attacker plays
    the lowest-index k* maximizing b[i*, k] and v2* = b[i*, k*] exactly;
    rows tied exactly (==) at the maximum get the maximin over exactly
    them.  Either way (w*, alpha*) is a dual certificate for
    attacker_br_lp's program.
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
        br = _lp_chain(a_prime[None], b[None])
        return StageBR(br.y_star[0], float(br.z_star[0]), float(br.v2_star[0]),
                       br.w_star[0], float(br.alpha_star[0]))
    col = a_prime[:, 0]
    cell = singleton_stage_solves(a_prime[None], b[None])
    y = cell.tied_y[0] if cell.tied[0, 0] else np.eye(m)[cell.k_star[0, 0]]
    z_star, v2_star = cell.z[0, 0], cell.v2[0, 0]
    # w* is the least dual weight that keeps every row i below the maximum
    # feasible in attacker_br_lp's program: col_i w - alpha <= (b y*)_i with
    # alpha = z* w - v2*, i.e. w >= (v2* - (b y*)_i) / (z* - col_i)
    below = col < z_star
    ratios = (v2_star - (b @ y)[below]) / (z_star - col[below])
    w = float(ratios.max(initial=0.0))
    return StageBR(
        y_star=y,
        z_star=float(z_star),
        v2_star=float(v2_star),
        w_star=np.array([w]),
        alpha_star=float(z_star * w - v2_star),
    )


class SingletonSolves(NamedTuple):
    """Solves of P singleton stages x J cells, one (P, J) entry each.

    z is the victim's value (the column maximum) and v2 the attacker's
    value.  tied marks the cells whose maximum more than one row attains
    exactly (==); tied_y holds their attacker mixes, in np.nonzero(tied)
    order.  k_star, the attacker's lowest-index best action against the
    lowest-index best reply row, is the attacker's stage policy of the
    untied cells only.
    """

    z: np.ndarray
    k_star: np.ndarray
    v2: np.ndarray
    tied: np.ndarray
    tied_y: tuple


def singleton_stage_solves(cols, b) -> SingletonSolves:
    """Solve J singleton cells of P stages at once: cols[p, :, j] (cols is
    P x n x J) is the victim's payoffs against the j-th believed attacker
    mix of stage p, and b (P x n x m) the attacker's payoffs of stage p,
    shared by its cells.  Q1 (P x n x m) itself is the columns of the m pure
    attacker actions, and Q1 @ mixes those of a belief's mixes.

    The tie rule: a cell with a unique best reply row i* is solved by max
    and argmax alone, v2 = b[p, i*, k*].  A tied cell's victim may play any
    row attaining z = max cols[p, :, j] exactly (==), so v2 is the maximin
    over exactly those rows, victim_br_lp(b[p][cols[p, :, j] == z].T), and
    cells of a stage with the same tie set get bitwise equal values.
    Trusts finite inputs.
    """
    p = np.arange(cols.shape[0])[:, None]
    j = np.arange(cols.shape[2])
    i_star = cols.argmax(axis=1)  # lowest index on ties
    z = cols[p, i_star, j]
    tied = np.count_nonzero(cols == z[:, None], axis=1) > 1
    k_star = b.argmax(axis=2)[p, i_star]  # lowest index on ties, per reply row
    v2 = b[p, i_star, k_star]
    tied_y = []
    for c in zip(*np.nonzero(tied)):
        y, v2_tied = victim_br_lp(b[c[0]][cols[c[0], :, c[1]] == z[c]].T[None])
        tied_y.append(y[0])
        v2[c] = v2_tied[0]
    return SingletonSolves(z, k_star, v2, tied, tuple(tied_y))
