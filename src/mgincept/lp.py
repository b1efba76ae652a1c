"""Self-contained dense linear-program solver.

A `LinearProgram` is given in matrix form: maximize c'v subject to
A_ub v <= b_ub and A_eq v = b_eq, with v >= 0 except where the boolean mask
`free` is set.  The engine is a two-phase tableau simplex with Bland's
anti-cycling rule, which makes the solver fully deterministic: identical
inputs produce identical outputs, pivot for pivot.  Free variables are
handled by splitting v = p - q with p, q >= 0; inequalities get one slack
variable each.  Phase 1 starts from the slack basis: each row with a +1
unit column (a slack, or a structural column) starts with it basic, and
only the other rows (equalities, and inequalities flipped for a negative
right-hand side) get an artificial variable; phase 1 maximizes minus the
artificials' sum.

All the programs in this package have at most a few dozen variables, so a
dense tableau is both simpler and faster than anything sparse.  Comparisons
use absolute tolerances (pivot 1e-10, feasibility 1e-9), so the solver is
not scale-invariant: rewards scaled far from unit size can make it misjudge
pivots and feasibility (ROADMAP open item 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
MAX_PIVOTS = 20000


class LpError(RuntimeError):
    """Internal solver failure (malformed input or pivot-limit blowout)."""


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max objective'v  s.t.  a_ub v <= b_ub,  a_eq v = b_eq,  v >= 0 off `free`.

    Shapes: objective (q,), a_ub (r, q), b_ub (r,), a_eq (e, q), b_eq (e,)
    and the boolean mask free (q,); r and e may be 0.
    """

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    free: np.ndarray

    def __post_init__(self):
        for name in ("objective", "a_ub", "b_ub", "a_eq", "b_eq"):
            a = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(a).all():
                raise LpError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, a)
        object.__setattr__(self, "free", np.asarray(self.free, dtype=bool))
        q = self.objective.size
        if q < 1 or self.objective.shape != (q,) or self.free.shape != (q,):
            raise LpError(f"objective {self.objective.shape} and free {self.free.shape} "
                          "must both have shape (q,) with q >= 1")
        for a, b in ((self.a_ub, self.b_ub), (self.a_eq, self.b_eq)):
            if a.ndim != 2 or a.shape[1] != q or b.shape != a.shape[:1]:
                raise LpError(f"constraints {a.shape} and bounds {b.shape} do not "
                              f"have shapes (rows, {q}) and (rows,)")


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    v: np.ndarray | None = None
    value: float | None = None


def _standardize(lp: LinearProgram):
    """Rewrite as max c'x, Ax = b, x >= 0 with b >= 0.

    Returns (A, b, c, pos, neg): variable i of lp is x[pos[i]] - x[neg[i]].
    A free variable's neg[i] = pos[i] + 1 is its own column; a bounded one's
    neg[i] = -1 reads the zero that _extract pads x with.
    """
    width = lp.free + 1  # standard columns per variable
    ends = width.cumsum()
    pos = ends - width
    neg = np.where(lp.free, ends - 1, -1)
    r = lp.b_ub.size
    structural = int(ends[-1])
    rows = np.concatenate([lp.objective[None], lp.a_ub, lp.a_eq])  # cost row first
    S = np.zeros((rows.shape[0], structural + r))
    S[:, pos] = rows
    S[:, neg[lp.free]] = -rows[:, lp.free]
    k = np.arange(r)
    S[k + 1, structural + k] = 1.0  # one slack per inequality row
    A, c = S[1:], S[0]
    b = np.concatenate([lp.b_ub, lp.b_eq])
    flip = b < 0
    if flip.any():
        A[flip] *= -1.0
        b[flip] *= -1.0
    return A, b, c, pos, neg


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run(T: np.ndarray, basis: np.ndarray, allowed: int):
    """Pivot to optimality over columns < allowed.  Returns 'optimal' or 'unbounded'."""
    rows = T.shape[0] - 1
    for _ in range(MAX_PIVOTS):
        improving = T[-1, :allowed] > PIVOT_TOL
        entering = int(improving.argmax())  # Bland: lowest improving index
        if not improving[entering]:
            return "optimal"
        col = T[:rows, entering]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return "unbounded"
        ratios = T[eligible, -1] / col[eligible]
        best = ratios.min()
        ties = eligible[ratios <= best + 1e-15]
        leaving = ties[basis[ties].argmin()]  # Bland: lowest basis index
        _pivot(T, basis, int(leaving), entering)
    raise LpError("pivot limit exceeded; simplex did not converge")


def _price_out(T: np.ndarray, basis: np.ndarray, c_full: np.ndarray) -> None:
    """Set the cost row to reduced costs of c_full; bottom-right becomes -objective."""
    rows = T.shape[0] - 1
    T[-1, :-1] = c_full
    T[-1, -1] = 0.0
    for r in range(rows):
        cb = c_full[basis[r]]
        if cb != 0.0:
            T[-1] -= cb * T[r]


def _drive_out_artificials(T: np.ndarray, basis: np.ndarray, q: int) -> None:
    """Pivot basic artificials (all at ~0 after a feasible phase 1) onto
    structural columns so their rows constrain phase 2.  Rows with no
    structural entries are redundant and stay inert."""
    for r in (basis >= q).nonzero()[0]:
        j = int(np.argmax(np.abs(T[r, :q])))
        if abs(T[r, j]) > PIVOT_TOL:
            _pivot(T, basis, int(r), j)


def _phase1(A: np.ndarray, b: np.ndarray):
    """Returns (T, basis, q, feasible) with artificial columns appended.

    Phase 1 starts from the slack basis: a column of A that is a +1 unit
    vector is a feasible basic variable of its row (b >= 0), the lowest-index
    one where a row has several.  Only the rows without one (equality rows,
    and inequality rows flipped for a negative right-hand side) get an
    artificial column.
    """
    rows, q = A.shape
    unit = (A == 1.0) & (np.count_nonzero(A, axis=0) == 1)
    need = (~unit.any(axis=1)).nonzero()[0]
    artificial = q + np.arange(need.size)
    T = np.zeros((rows + 1, q + need.size + 1))
    T[:rows, :q] = A
    T[need, artificial] = 1.0
    T[:rows, -1] = b
    basis = unit.argmax(axis=1)  # lowest-index unit column of each row
    basis[need] = artificial
    c1 = np.zeros(q + need.size)
    c1[q:] = -1.0
    _price_out(T, basis, c1)
    status = _run(T, basis, q)
    # unreachable in exact arithmetic; still reached through round-off at
    # reward scales far from 1 (CHANGES.md FOUND, ROADMAP open item 2)
    if status != "optimal":
        raise LpError("phase 1 reported unbounded")
    feasible = -T[-1, -1] >= -FEAS_TOL
    if feasible:
        _drive_out_artificials(T, basis, q)
    return T, basis, q, feasible


def _extract(T: np.ndarray, basis: np.ndarray, pos: np.ndarray,
             neg: np.ndarray) -> np.ndarray:
    x = np.zeros(T.shape[1])  # x[-1] is never basic: the zero that neg = -1 reads
    x[basis] = T[:-1, -1]
    return x[pos] - x[neg]


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a linear program deterministically.

    On OPTIMAL, `v` is a vertex of the feasible region and `value` equals
    objective'v.  On degenerate optima any optimal vertex may be returned;
    callers must depend only on the value and feasibility.
    """
    A, b, c, pos, neg = _standardize(lp)
    T, basis, q, feasible = _phase1(A, b)
    if not feasible:
        return LpSolution(LpStatus.INFEASIBLE)
    c_full = np.zeros(T.shape[1] - 1)
    c_full[:q] = c
    _price_out(T, basis, c_full)
    status = _run(T, basis, q)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    v = _extract(T, basis, pos, neg)
    return LpSolution(LpStatus.OPTIMAL, v=v, value=float(lp.objective @ v))

