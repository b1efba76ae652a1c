"""The scalar one-phase simplex that `mgincept.lp`'s lockstep engine replaced.

One program, one tableau, one pivot at a time: the reference the batched
engine must match bit for bit (tests/test_lp.py).  It takes the engine's
start, the slack basis under the cost row [c | 0 | 0], and its pricing:
the largest reduced cost enters (Dantzig) for the first `_BLAND_AFTER`
pivots, the lowest improving index (Bland) after them.
Takes an unbatched `LinearProgram`; `LpError`, the tolerances, the pivot
limit and the switch step come from the package.
"""

import numpy as np

from mgincept import lp as engine
from mgincept.lp import PIVOT_TOL, LinearProgram, LpBatch, LpError, LpSolution, LpStatus


def pivot(T, basis, row, col):
    pivot_row = T[row] / T[row, col]
    T -= np.outer(T[:, col], pivot_row)
    T[row] = pivot_row
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def run(T, basis):
    """Pivot to optimality: 'optimal' or 'unbounded'."""
    rows = T.shape[0] - 1
    for step in range(engine.MAX_PIVOTS):  # read at call time, as the engine does
        cost = T[-1, :-1]
        if step < engine._BLAND_AFTER:
            entering = int(cost.argmax())
        else:
            entering = int((cost > PIVOT_TOL).argmax())
        if not cost[entering] > PIVOT_TOL:
            return "optimal"
        col = T[:rows, entering]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return "unbounded"
        ratios = T[eligible, -1] / col[eligible]
        best = ratios.min()
        ties = eligible[ratios <= best + 1e-15]
        leaving = ties[basis[ties].argmin()]
        pivot(T, basis, int(leaving), entering)
    raise LpError("pivot limit exceeded; simplex did not converge")


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


def solve_lp(lp):
    rows, q = lp.a_ub.shape
    T, basis = start(lp.objective, lp.a_ub, lp.b_ub)
    if run(T, basis) == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    x = np.zeros(q + rows)
    x[basis] = T[:-1, -1]
    v = x[:q].copy()
    nonbasic = np.ones(q + rows, dtype=bool)
    nonbasic[basis] = False
    unique = bool((T[-1, :-1][nonbasic] < -PIVOT_TOL).all())
    return LpSolution(LpStatus.OPTIMAL, v=v, value=float((lp.objective * v).sum()), unique=unique)


def solve_batch(lp):
    """The batch record (`mgincept.lp.LpBatch`) of a batched program, every
    member solved alone."""
    B, q = lp.objective.shape
    status = np.full(B, LpStatus.STALLED.value, dtype=np.int8)
    v, value, unique = np.full((B, q), np.nan), np.full(B, np.nan), np.zeros(B, dtype=bool)
    for i in range(B):
        try:
            sol = solve_lp(LinearProgram(lp.objective[i], lp.a_ub[i], lp.b_ub[i]))
        except LpError:
            continue
        status[i] = sol.status.value
        if sol.status == LpStatus.OPTIMAL:
            v[i], value[i], unique[i] = sol.v, sol.value, sol.unique
    return LpBatch(status, v, value, unique)
