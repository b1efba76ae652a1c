"""The scalar one-phase simplex that `mgincept.lp`'s lockstep engine replaced.

One program, one tableau, one pivot at a time: the reference the batched
engine must match bit for bit (tests/test_lp.py).  It takes the engine's
start, the slack basis under the cost row [c | 0 | 0], and its pricing:
the largest reduced cost enters (Dantzig) for the first `_BLAND_AFTER`
pivots, the lowest improving index (Bland) after them.
`solve_one` takes one program's arrays and returns its own record,
`Outcome`; `solve_batch` solves a `LinearProgram` batch member by member,
and `solve_started` a stack of started tableaux (the input of
`mgincept.lp._solve_started`).
The tolerances, the pivot limit and the switch step come from the package.
"""

from typing import NamedTuple

import numpy as np

from mgincept import lp as engine
from mgincept.lp import PIVOT_TOL, LpBatch, LpStatus


class Outcome(NamedTuple):
    """One program's outcome; v, value and a True unique only on OPTIMAL."""

    status: LpStatus
    v: np.ndarray | None = None
    value: float | None = None
    unique: bool = False


def pivot(T, basis, row, col):
    pivot_row = T[row] / T[row, col]
    T -= np.outer(T[:, col], pivot_row)
    T[row] = pivot_row
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def run(T, basis):
    """Pivot to optimality; returns the LpStatus."""
    rows = T.shape[0] - 1
    for step in range(engine.MAX_PIVOTS):  # read at call time, as the engine does
        cost = T[-1, :-1]
        if step < engine._BLAND_AFTER:
            entering = int(cost.argmax())
        else:
            entering = int((cost > PIVOT_TOL).argmax())
        if not cost[entering] > PIVOT_TOL:
            return LpStatus.OPTIMAL
        col = T[:rows, entering]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return LpStatus.UNBOUNDED
        ratios = T[eligible, -1] / col[eligible]
        best = ratios.min()
        ties = eligible[ratios <= best + 1e-15]
        leaving = ties[basis[ties].argmin()]
        pivot(T, basis, int(leaving), entering)
    return LpStatus.STALLED


def start(c, A, b):
    """Returns (T, basis): T is [A | I | b] over the cost row [c | 0 | 0],
    and every row starts on its slack."""
    rows, q = A.shape
    T = np.zeros((rows + 1, q + rows + 1))
    T[:rows, :q] = A
    T[:rows, q:-1] = np.eye(rows)
    T[:rows, -1] = b
    T[-1, :q] = c
    return T, q + np.arange(rows)


def finish(T, basis, c) -> Outcome:
    """The outcome of one started tableau T with its basis, pivoted here to
    the end; c is its objective."""
    rows, q = basis.size, c.size
    status = run(T, basis)
    if status != LpStatus.OPTIMAL:
        return Outcome(status)
    x = np.zeros(q + rows)
    x[basis] = T[:-1, -1]
    v = x[:q].copy()
    nonbasic = np.ones(q + rows, dtype=bool)
    nonbasic[basis] = False
    unique = bool((T[-1, :-1][nonbasic] < -PIVOT_TOL).all())
    return Outcome(LpStatus.OPTIMAL, v=v, value=float((c * v).sum()), unique=unique)


def solve_one(c, A, b) -> Outcome:
    """The outcome of max c'v s.t. A v <= b, v >= 0, one program."""
    return finish(*start(c, A, b), np.asarray(c, dtype=float))


def _record(outcomes, q):
    """The batch record (`mgincept.lp.LpBatch`) of one Outcome per member."""
    B = len(outcomes)
    status = np.empty(B, dtype=np.int8)
    v, value, unique = np.full((B, q), np.nan), np.full(B, np.nan), np.zeros(B, dtype=bool)
    for i, sol in enumerate(outcomes):
        status[i] = sol.status.value
        if sol.status == LpStatus.OPTIMAL:
            v[i], value[i], unique[i] = sol.v, sol.value, sol.unique
    return LpBatch(status, v, value, unique)


def solve_batch(lp):
    """The batch record of a batched program, every member solved alone."""
    return _record([solve_one(lp.objective[i], lp.a_ub[i], lp.b_ub[i])
                    for i in range(lp.objective.shape[0])], lp.objective.shape[1])


def solve_started(T, basis):
    """The batch record of a stack of started tableaux, the input of
    `mgincept.lp._solve_started`, every member pivoted alone on a copy."""
    q = T.shape[2] - basis.shape[1] - 1
    return _record([finish(T[i].copy(), basis[i].copy(), T[i, -1, :q].copy())
                    for i in range(T.shape[0])], q)
