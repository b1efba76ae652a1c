"""The scalar two-phase simplex that `mgincept.lp`'s lockstep engine replaced.

One program, one tableau, one pivot at a time: the reference the batched
engine must match bit for bit (tests/test_lp.py).  Takes an unbatched
`LinearProgram`; `LpError`, the tolerances and the pivot limit come from
the package.
"""

import numpy as np

from mgincept import lp as engine
from mgincept.lp import FEAS_TOL, PIVOT_TOL, LpError, LpSolution, LpStatus


def standardize(lp):
    """Rewrite as max c'x, Ax = b, x >= 0 with b >= 0; returns (A, b, c, pos, neg)."""
    width = lp.free + 1
    ends = width.cumsum()
    pos = ends - width
    neg = np.where(lp.free, ends - 1, -1)
    r = lp.b_ub.size
    structural = int(ends[-1])
    rows = np.concatenate([lp.objective[None], lp.a_ub, lp.a_eq])
    S = np.zeros((rows.shape[0], structural + r))
    S[:, pos] = rows
    S[:, neg[lp.free]] = -rows[:, lp.free]
    k = np.arange(r)
    S[k + 1, structural + k] = 1.0
    A, c = S[1:], S[0]
    b = np.concatenate([lp.b_ub, lp.b_eq])
    flip = b < 0
    if flip.any():
        A[flip] *= -1.0
        b[flip] *= -1.0
    return A, b, c, pos, neg


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


def drive_out_artificials(T, basis, q):
    for r in (basis >= q).nonzero()[0]:
        j = int(np.argmax(np.abs(T[r, :q])))
        if abs(T[r, j]) > PIVOT_TOL:
            pivot(T, basis, int(r), j)


def phase1(A, b):
    """Returns (T, basis, q, feasible), starting from the slack basis."""
    rows, q = A.shape
    unit = (A == 1.0) & (np.count_nonzero(A, axis=0) == 1)
    need = (~unit.any(axis=1)).nonzero()[0]
    artificial = q + np.arange(need.size)
    T = np.zeros((rows + 1, q + need.size + 1))
    T[:rows, :q] = A
    T[need, artificial] = 1.0
    T[:rows, -1] = b
    basis = unit.argmax(axis=1)
    basis[need] = artificial
    c1 = np.zeros(q + need.size)
    c1[q:] = -1.0
    price_out(T, basis, c1)
    if run(T, basis, q) != "optimal":
        raise LpError("phase 1 reported unbounded")
    feasible = -T[-1, -1] >= -FEAS_TOL
    if feasible:
        drive_out_artificials(T, basis, q)
    return T, basis, q, feasible


def solve_lp(lp):
    A, b, c, pos, neg = standardize(lp)
    T, basis, q, feasible = phase1(A, b)
    if not feasible:
        return LpSolution(LpStatus.INFEASIBLE)
    c_full = np.zeros(T.shape[1] - 1)
    c_full[:q] = c
    price_out(T, basis, c_full)
    if run(T, basis, q) == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    x = np.zeros(T.shape[1])
    x[basis] = T[:-1, -1]
    v = x[pos] - x[neg]
    return LpSolution(LpStatus.OPTIMAL, v=v, value=float(lp.objective @ v))
