"""Stage-game solvers for one normal-form game under a finitely generated belief.

`belief_stage_solves` is the one solve of a backward-induction layer: P
stages, each with its victim's payoffs against K believed attacker mixes
(the (P, n, K) believed columns) and its attacker's payoffs.  Every
attacker mix it returns is a distribution: LP vertices are snapped onto the
simplex (`clean_mix`) where they are made.

The victim's worst-case best response against K > 1 believed mixes is a
small maximin LP over (x, z).  The attacker maximizes its payoff over the
victim's maximin mixes X*: where that LP's optimum x* is unique (the
engine's `LpBatch.unique`), X* = {x*} and the attacker's best response is
a closed form, its best pure reply to x*; elsewhere it is the dualized LP
over (y, w, alpha).  Chained, they solve a K > 1 belief (`_lp_chain`).  Each
LP solves its stage's payoffs mapped affinely onto [0, 1] (`_to_unit`), so
its pivots and uniqueness flag do not depend on the reward scale, and is
written at its player's best pure strategy: that strategy's weight is
eliminated (it holds the rest of the mass) and the value is shifted by its
guarantee, so every right-hand side is >= 0, the canonical form of
`mgincept.lp`, the simplex starts feasible at the pure security strategy,
and x, z, y and alpha are mapped back afterwards (see victim_br_lp and
attacker_br_lp).  The best pure strategy is a boolean mask over each
stage's rows, False at that row alone (`_at_best_pure`), and the victim
LP's column j0 one over its columns: a mask gathers the other rows, the
other columns and their rooms in order, a whole layer in one index, and
the LP's mixes are scattered back through the same mask, x[mask] = v, the
rest of the mass on the best pure strategy.  The uniqueness flag that
picks the closed form is counted off the final cost row: exactly q
reduced costs below -PIVOT_TOL (`lp.LpBatch.unique`).  Both LPs take a
leading stage axis: the P stages of a layer share one shape, so each LP
writes the whole layer's started tableaux in place, into one `lp.tableaux`
stack, and hands them to the engine's one entry, `lp.solve_tableaux`,
which solves them as one lockstep batch (split at `lp.BATCH_ELEMENTS`
tableau elements), with results bit-identical to solving the stages one by
one.  The LPs return their outcomes as status arrays, and a layer's solve
raises once, for the lowest failing stage (its index p along that axis),
naming the LP; there the victim LP comes before the attacker LP, the order
of solving the stages one by one.  A singleton belief needs neither LP:
the victim's value is the column maximum, its best replies the rows
attaining it (==).  `singleton_stage_solves` solves a layer of such stages
from their (P, n, J) believed columns, the layout of Q1 itself (J = m pure
actions) and of Q1 @ mixes; its docstring states the tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lp import LpError, LpStatus, solve_tableaux, tableaux

MAX_BELIEF_POLICIES = 64
_OPTIMAL, _STALLED = LpStatus.OPTIMAL.value, LpStatus.STALLED.value
_VICTIM_LP, _ATTACKER_LP = "victim best-response LP", "attacker best-response LP"


class StageSolveError(RuntimeError):
    """An internally inconsistent stage solve (e.g. a non-optimal LP status)."""


@dataclass(frozen=True, eq=False)
class StageBR:
    """Outcome of the P stage solves of a layer, with a leading stage axis
    on every field (from `belief_stage_solves`).

    y_star is one optimal attacker mix, always a distribution: a pure
    action from a closed form, or an LP vertex of the deterministic solver
    snapped onto the simplex (`clean_mix`).  z_star is the victim's
    worst-case value and v2_star the attacker's worst-case value.
    """

    y_star: np.ndarray
    z_star: np.ndarray
    v2_star: np.ndarray


def clean_mix(y: np.ndarray) -> np.ndarray:
    """Snap LP-produced mixes, along the last axis, onto the simplex (clip
    tiny negatives, rescale).

    Solver output satisfies the simplex constraints to ~1e-12 but policy
    construction validates exactly; the snap changes entries by at most the
    solver's own rounding error, and each row's bits do not depend on its
    batch.
    """
    y = np.clip(np.asarray(y, dtype=float), 0.0, None)
    total = y.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("mix has no positive mass")
    return y / total


def _stage_error(p: int, lp_name: str, status: int) -> RuntimeError:
    """The error of stage p, whose LP lp_name ended with the status value
    status, not OPTIMAL: LpError for the pivot limit (STALLED), and
    StageSolveError for an outcome the stage solve cannot use."""
    if status == _STALLED:
        return LpError(f"stage {p}: {lp_name}: pivot limit exceeded; simplex did not converge")
    hint = "; z_star is not the victim optimum for this a_prime" if lp_name == _ATTACKER_LP else ""
    return StageSolveError(f"stage {p}: {lp_name} returned {LpStatus(int(status))}{hint}")


def _to_unit(a) -> tuple:
    """Maps each of the P stages of a (P x R x C) affinely onto [0, 1].

    Returns ((a - lo) / span, lo, span), where lo (P,) is a stage's least
    entry and span (P,) its range, a range of 0 read as 1.  Both stage LPs
    solve their payoffs in these units, so a stage's pivots, tolerances and
    uniqueness flag do not depend on the reward scale.
    """
    flat = a.reshape(a.shape[0], -1)
    lo = flat.min(axis=1)
    span = flat.max(axis=1) - lo
    span[span == 0.0] = 1.0
    return (a - lo[:, None, None]) / span[:, None, None], lo, span


def _at_best_pure(payoffs) -> tuple:
    """P matrix games payoffs (P x R x C), whose row player maximizes,
    rewritten at each game's best pure row r0 = argmax_r min_c payoffs[p, r, c]
    (lowest index on ties), whose guarantee is g = min_c payoffs[p, r0, c].

    Returns (others, gain, room): others (P, R) is the row mask, False at
    r0 alone, gain (P, C, R - 1) the other rows' payoffs in order minus row
    r0's, payoffs[p, others[p], c] - payoffs[p, r0, c], per column c, and
    room (P, C) row r0's payoffs minus g, all >= 0.  Mixes over the other
    rows, v (P x R - 1), map back to full mixes x (P x R) by x[others] = v
    and x[~others] = 1 - sum(v): row r0 holds the rest of the mass.
    """
    P, R, C = payoffs.shape
    others = np.arange(R) != payoffs.min(axis=2).argmax(axis=1)[:, None]
    base = payoffs[~others]
    gain = (payoffs[others].reshape(P, R - 1, C) - base[:, None]).transpose(0, 2, 1)
    return others, gain, base - base.min(axis=1, keepdims=True)


def victim_br_lp(cols) -> tuple:
    """Solve the maximin LPs max_x min_j (x'A'_p)_j of P matrix games at once.

    cols is P x n x K: stage p's victim payoffs A'_p against K believed
    attacker mixes, or the attacker's payoffs on a tied singleton cell's
    rows, transposed.  Returns (x_star (P, n), z_star (P,), unique (P,),
    status (P,)), where unique[p] is the engine's flag that x_star[p] is
    the only maximin mix (`lp.LpBatch.unique`) and status[p] the LpStatus
    value of stage p's LP; x_star and z_star are NaN where it is not
    OPTIMAL.  Trusts its input to be finite.

    Each LP is solved on A' mapped onto [0, 1] (`_to_unit`), an exact
    reparametrisation: the maximin mixes are the same, and the value maps
    back through the stage's span.  It is written at the best pure row
    r0 = argmax_i min_j A'[i, j], its guarantee c = min_j A'[r0, j] and
    the lowest column j0 with A'[r0, j0] = c.  The variables are the other
    rows' weights x_i (i != r0), x_r0 = 1 - sum_{i != r0} x_i, so column j
    pays c + room_j + gain_j x, with room_j = A'[r0, j] - c >= 0 and
    gain_j = (A'[i, j] - A'[r0, j])_{i != r0}; and t >= 0, by which z
    falls short of column j0's payoff: z = c + gain_j0 x - t.  Then

        max gain_j0 x - t  s.t.  (gain_j0 - gain_j) x - t <= room_j  for every j != j0,
                                 sum_{i != r0} x_i <= 1.

    Every right-hand side is >= 0, so the LP starts feasible at x = e_r0,
    z = c.  Eliminating z through column j0 saves the degenerate pivot
    that would enter it there.  A stage whose best pure row is optimal ends
    at x = e_r0, t = 0 after degenerate pivots only (often none) and gets
    z* = c exactly, with c read off the unmapped A'.  x and z = c + span *
    (gain_j0 x - t) are mapped back.

    The program is written straight into its started tableau from
    `lp.tableaux`, (P, K + 1, n + K + 1): the K - 1 rows j != j0 in order,
    then the sum row, over the columns x, t, one slack per row and the
    right-hand side, and the cost row, then handed to `lp.solve_tableaux`.
    """
    P, n, K = cols.shape
    unit, _, span = _to_unit(cols)
    others, gain, room = _at_best_pure(unit)
    rest = np.arange(K) != room.argmin(axis=1)[:, None]  # False at j0, the lowest room 0
    T = tableaux(P, K, n)
    T[:, -1, :n - 1] = gain[~rest]
    T[:, -1, n - 1] = -1.0
    np.subtract(T[:, -1:, :n - 1], gain[rest].reshape(P, K - 1, n - 1),
                out=T[:, :K - 1, :n - 1])
    T[:, :K - 1, n - 1] = -1.0
    T[:, K - 1, :n - 1] = 1.0
    T[:, :K - 1, -1] = room[rest].reshape(P, K - 1)
    T[:, K - 1, -1] = 1.0
    sols = solve_tableaux(T)
    v = sols.v[:, :-1]
    x = np.empty((P, n))
    x[others], x[~others] = v.ravel(), 1.0 - v.sum(axis=1)
    return x, cols[~others].min(axis=1) + span * sols.value, sols.unique, sols.status


def attacker_br_lp(z_star, cols, b) -> tuple:
    """Solve the attacker's dual best-response LPs of P stages of a K > 1 belief.

    cols (P x n x K) and b (P x n x m) are the stages' believed columns and
    attacker payoffs, z_star (P,) the victim's optimal values for the same
    cols; a value above one makes that LP unbounded.  Returns
    (y_star (P, m), v2_star (P,), status (P,)), status[p] the LpStatus
    value of stage p's LP; y_star and v2_star are NaN where it is not
    OPTIMAL.  Trusts its inputs to be finite.
    The LP is solved on cols and z_star mapped onto [0, 1] by cols' map and
    on b mapped by its own (`_to_unit`), an exact reparametrisation.

    The program over (y, w, alpha), alpha free, is

        max z* sum(w) - alpha  s.t.  -(B y)_i + (A' w)_i - alpha <= 0 for every i,
                                     sum(y) = 1,

    with value v2* = z* sum(w*) - alpha*.  It is solved from the attacker's
    best pure action k0 = argmax_k min_i B[i, k] and its guarantee
    d = min_i B[i, k0]: the variables are y_k (k != k0), w and
    alpha' = alpha + d, y_k0 = 1 - sum_{k != k0} y_k, so row i reads
    -sum_{k != k0} y_k (B[i, k] - B[i, k0]) + (A' w)_i - alpha' <= B[i, k0] - d
    and the new row sum_{k != k0} y_k <= 1 replaces the equality.  Every
    right-hand side is >= 0, so the LP starts feasible at y = e_k0, w = 0,
    alpha = -d (value d).  The free alpha' is the difference of two columns
    >= 0, alpha's and its negation (signed zeros included), the last column
    of the program.  y is mapped back, and v2* = d + span * (z* sum(w*) -
    alpha'*), with d read off the unmapped B.

    It is written straight into its `lp.tableaux` stack, (P, n + 2,
    m + K + 1 + n + 2): the rows i, the sum row and the cost row over y, w,
    alpha', its negation, the slacks and the right-hand side.
    """
    z_star = np.asarray(z_star, dtype=float)
    P, n, K = cols.shape
    m = b.shape[2]
    unit_cols, lo, span = _to_unit(cols)
    z_unit = (z_star - lo) / span
    unit_b, _, span_b = _to_unit(b)
    others, gain, room = _at_best_pure(unit_b.transpose(0, 2, 1))
    T = tableaux(P, n + 1, m + K + 1)
    np.negative(gain, out=T[:, :n, :m - 1])
    T[:, :n, m - 1:m + K - 1] = unit_cols
    T[:, :n, m + K - 1] = -1.0
    T[:, :n, m + K] = 1.0
    T[:, n, :m - 1] = 1.0
    T[:, n, m + K] = -0.0  # the negation of alpha's 0.0
    T[:, :n, -1] = room
    T[:, n, -1] = 1.0
    T[:, -1, m - 1:m + K - 1] = z_unit[:, None]
    T[:, -1, m + K - 1] = -1.0
    T[:, -1, m + K] = 1.0
    status, v, _, _ = solve_tableaux(T)
    y = np.empty((P, m))
    y[others], y[~others] = v[:, :m - 1].ravel(), 1.0 - v[:, :m - 1].sum(axis=1)
    d = b.transpose(0, 2, 1)[~others].min(axis=1)
    return y, d + span_b * (z_unit * v[:, m - 1:-2].sum(axis=1) - (v[:, -2] - v[:, -1])), status


def _lp_chain(cols, b) -> StageBR:
    """The stage solves of a K > 1 belief for P stages at once; cols is
    P x n x K, b P x n x m.  First the victim LPs, for x* and z*.

    The attacker maximizes over the victim's maximin mixes X*.  Where the
    victim LP's optimum is unique, X* = {x*} and the attacker's LP has a
    closed form: y* = e_k*, k* the lowest-index argmax of x*'B, and
    v2* = (x*'B)_k*, summed over the rows i in order, so each stage's bits
    do not depend on its batch.  Only the other stages go to the attacker
    LPs, as one batch, with z* := min_j (x*'A')_j, a value x* attains, so
    their best-reply polytopes are not empty by rounding.  These fallback
    stages are those whose victim LP is OPTIMAL but not unique; a failed
    victim LP leaves its stage NaN, which no LP is given.  The attacker
    LPs' vertices are snapped onto the simplex (`clean_mix`).

    Returns a StageBR whose fields have a leading stage axis.  Raises what
    solving the stages one by one raises first: the lowest failing stage,
    and there the victim LP before the attacker LP.  Trusts its inputs to
    be finite.
    """
    x, z_star, unique, victim = victim_br_lp(cols)
    payoff = _row_mix(x, b)  # x*'B
    p, k_star = np.arange(payoff.shape[0]), payoff.argmax(axis=1)
    y_star = np.zeros(payoff.shape)
    y_star[p, k_star] = 1.0
    v2_star = payoff[p, k_star]
    if unique.all():  # unique implies OPTIMAL (`lp.LpBatch`)
        return StageBR(y_star=y_star, z_star=z_star, v2_star=v2_star)
    status = np.full((victim.size, 2), _OPTIMAL, dtype=np.int8)  # each stage's victim LP, attacker LP
    status[:, 0] = victim
    rest = np.flatnonzero(~unique & (victim == _OPTIMAL))
    if rest.size:
        y_rest, v2_star[rest], status[rest, 1] = attacker_br_lp(
            _row_mix(x[rest], cols[rest]).min(axis=1), cols[rest], b[rest])
    failed = np.flatnonzero(status != _OPTIMAL)
    if failed.size:
        p, lp = divmod(int(failed[0]), 2)
        raise _stage_error(p, (_VICTIM_LP, _ATTACKER_LP)[lp], status[p, lp])
    if rest.size:
        y_star[rest] = clean_mix(y_rest)
    return StageBR(y_star=y_star, z_star=z_star, v2_star=v2_star)


def _row_mix(x, a) -> np.ndarray:
    """x[p]'a[p] for every stage p (x is P x R, a P x R x C), summed over
    the rows in order (a running sum, one add per row), so each stage's
    bits do not depend on its batch."""
    return np.add.accumulate(x[:, :, None] * a, axis=1)[:, -1]


def belief_stage_solves(cols, b) -> StageBR:
    """The stage solves of one layer: P stages against a belief of K
    policies, cols (P x n x K) their believed columns and b (P x n x m)
    their attacker payoffs.

    K > 1 goes to `_lp_chain`.  K = 1 goes to `singleton_stage_solves`:
    z* is the column maximum exactly, and y* the pure action k* against
    the unique best reply row, or at a tied stage the maximin LP's mix over
    the tied rows, snapped onto the simplex (`clean_mix`).  Returns a
    StageBR with a leading stage axis.  A failure names the lowest failing
    stage and the LP.  Trusts its inputs to be finite.
    """
    if cols.shape[2] > 1:
        return _lp_chain(cols, b)
    cells = singleton_stage_solves(cols, b)
    y_star = np.eye(b.shape[2])[cells.k_star[:, 0]]
    if cells.tied_y.size:
        y_star[cells.tied[:, 0]] = clean_mix(cells.tied_y)
    return StageBR(y_star=y_star, z_star=cells.z[:, 0], v2_star=cells.v2[:, 0])


class SingletonSolves(NamedTuple):
    """Solves of P singleton stages x J cells, one (P, J) entry each.

    z is the victim's value (the column maximum) and v2 the attacker's
    value.  tied marks the cells whose maximum more than one row attains
    exactly (==); tied_y (T, m) holds their attacker mixes, in
    np.nonzero(tied) order.  k_star, the attacker's lowest-index best action
    against the lowest-index best reply row, is the attacker's stage policy
    of the untied cells only.
    """

    z: np.ndarray
    k_star: np.ndarray
    v2: np.ndarray
    tied: np.ndarray
    tied_y: np.ndarray


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
    cells of a stage with the same tie set get bitwise equal values.  The
    tied cells with the same number of tied rows are solved as one
    victim_br_lp batch, each cell's bits its own, and a layer with no tied
    cell runs none.  A failing maximin LP names the stage p of the lowest
    failing cell in np.nonzero(tied) order, as solving the cells one by one
    does.  Trusts finite inputs.
    """
    p = np.arange(cols.shape[0])[:, None]
    j = np.arange(cols.shape[2])
    i_star = cols.argmax(axis=1)  # lowest index on ties
    z = cols[p, i_star, j]
    best = cols == z[:, None]
    ties = best.sum(axis=1)
    tied = ties > 1
    k_star = b.argmax(axis=2)[p, i_star]  # lowest index on ties, per reply row
    v2 = b[p, i_star, k_star]
    if not tied.any():
        return SingletonSolves(z, k_star, v2, tied, np.empty((0, b.shape[2])))
    # one maximin LP batch per tie size; each cell's bits are its own
    cells = np.nonzero(tied)
    sizes = ties[cells]
    tied_y = np.empty((sizes.size, b.shape[2]))
    status = np.empty(sizes.size, dtype=np.int8)
    for size in np.unique(sizes):
        at = np.flatnonzero(sizes == size)
        ps, js = cells[0][at], cells[1][at]
        rows = best[ps, :, js].nonzero()[1].reshape(at.size, size)  # ascending, per cell
        tied_y[at], v2[ps, js], _, status[at] = victim_br_lp(
            b[ps[:, None], rows].transpose(0, 2, 1))
    failed = np.flatnonzero(status != _OPTIMAL)
    if failed.size:
        raise _stage_error(int(cells[0][failed[0]]), _VICTIM_LP, status[failed[0]])
    return SingletonSolves(z, k_star, v2, tied, tied_y)
