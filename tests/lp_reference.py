"""The scalar one-phase simplex that `mgincept.lp`'s lockstep engine replaced.

One program, one tableau, one pivot at a time: the reference the batched
engine must match bit for bit (tests/test_lp.py).  Takes an unbatched
`LinearProgram`; `LpError`, the tolerances and the pivot limit come from
the package.
"""

import numpy as np

from mgincept import lp as engine
from mgincept.lp import PIVOT_TOL, LpError, LpSolution, LpStatus


def standardize(lp):
    """Rewrite as max c'x, Ax = b, x >= 0 (one slack per row); returns (A, b, c, pos, neg)."""
    width = lp.free + 1
    ends = width.cumsum()
    pos = ends - width
    neg = np.where(lp.free, ends - 1, -1)
    r = lp.b_ub.size
    structural = int(ends[-1])
    rows = np.concatenate([lp.objective[None], lp.a_ub])
    S = np.zeros((rows.shape[0], structural + r))
    S[:, pos] = rows
    S[:, neg[lp.free]] = -rows[:, lp.free]
    k = np.arange(r)
    S[k + 1, structural + k] = 1.0
    return S[1:], lp.b_ub, S[0], pos, neg


def pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def run(T, basis, allowed):
    """Pivot to optimality over columns < allowed: 'optimal' or 'unbounded'."""
    rows = T.shape[0] - 1
    for _ in range(engine.MAX_PIVOTS):  # read at call time, as the engine does
        improving = T[-1, :allowed] > PIVOT_TOL
        entering = int(improving.argmax())
        if not improving[entering]:
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


def price_out(T, basis, c_full):
    rows = T.shape[0] - 1
    T[-1, :-1] = c_full
    T[-1, -1] = 0.0
    for r in range(rows):
        cb = c_full[basis[r]]
        if cb != 0.0:
            T[-1] -= cb * T[r]


def start(A, b):
    """Returns (T, basis): each row starts on its lowest-index +1 unit column."""
    rows, q = A.shape
    unit = (A == 1.0) & (np.count_nonzero(A, axis=0) == 1)
    T = np.zeros((rows + 1, q + 1))
    T[:rows, :q] = A
    T[:rows, -1] = b
    return T, unit.argmax(axis=1)


def solve_lp(lp):
    A, b, c, pos, neg = standardize(lp)
    T, basis = start(A, b)
    price_out(T, basis, c)
    if run(T, basis, A.shape[1]) == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    x = np.zeros(T.shape[1])
    x[basis] = T[:-1, -1]
    v = x[pos] - x[neg]
    return LpSolution(LpStatus.OPTIMAL, v=v, value=float(lp.objective @ v))
