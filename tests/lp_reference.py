"""References for `mgincept.lp`: a program writer and the scalar simplex.

The program writer: a `LinearProgram` holds a batch of programs as
objective, constraint and bound arrays, with their shape, finiteness and
sign checks; `_start` writes it into the started tableaux, one entry at a
time by array, that the engine's writers (`mgincept.stage`,
`mgincept.oracle`) must reproduce bit for bit; and `solve_lp` hands them to
the engine's one entry, `mgincept.lp.solve_tableaux`.

The scalar one-phase simplex that the lockstep engine replaced: one
program, one tableau, one pivot at a time, the reference the batched engine
must match bit for bit (tests/test_lp.py).  It takes the engine's start,
the slack basis under the cost row [c | 0 | 0], and its pricing: the
largest reduced cost enters (Dantzig) for the first `_BLAND_AFTER` pivots,
the lowest improving index (Bland) after them.  `solve_one` takes one
program's arrays and returns its own record, `Outcome`, and
`solve_started` a stack of started tableaux (the input of
`mgincept.lp.solve_tableaux`).
The tolerances, the pivot limit and the switch step come from the package.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mgincept import lp as engine
from mgincept.lp import PIVOT_TOL, LpBatch, LpError, LpStatus


@dataclass(frozen=True)
class LinearProgram:
    """B programs max objective'v  s.t.  a_ub v <= b_ub,  v >= 0,  b_ub >= 0.

    Shapes: objective (B, q), a_ub (B, r, q) and b_ub (B, r); r may be 0.
    A single program is a batch of one.
    """

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self):
        for name in ("objective", "a_ub", "b_ub"):
            a = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(a).all():
                raise LpError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, a)
        if self.objective.ndim != 2 or self.objective.shape[1] < 1:
            raise LpError(f"objective {self.objective.shape} must have shape (B, q) "
                          "with q >= 1")
        (B, q), a, b = self.objective.shape, self.a_ub, self.b_ub
        if a.ndim != 3 or a.shape[0] != B or a.shape[2] != q or b.shape != a.shape[:2]:
            raise LpError(f"constraints {a.shape} and bounds {b.shape} do not "
                          f"have shapes ({B}, rows, {q}) and ({B}, rows)")
        if (b < 0).any():
            raise LpError("b_ub has negative entries; v = 0 must be feasible")


def _start(c, a, b):
    """The (B, rows + 1, q + rows + 1) tableau stack [A | I | b] of
    A v + s = b over the cost row [c | 0 | 0], and its slack basis, feasible
    at v = 0 since b >= 0."""
    B, rows, q = a.shape
    T = np.zeros((B, rows + 1, q + rows + 1))
    T[:, :rows, :q] = a
    k = np.arange(rows)
    T[:, k, q + k] = 1.0  # one slack per row
    T[:, :rows, -1] = b
    T[:, -1, :q] = c
    return T, np.tile(q + k, (B, 1))


def solve_lp(lp: LinearProgram) -> LpBatch:
    """The engine's outcomes of a batch of programs: its started tableaux
    (`_start`) solved by `mgincept.lp.solve_tableaux`."""
    return engine.solve_tableaux(_start(lp.objective, lp.a_ub, lp.b_ub)[0])


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


def solve_started(T):
    """The batch record of a stack of started tableaux, the input of
    `mgincept.lp.solve_tableaux`, every member pivoted alone on a copy from
    its slack basis."""
    rows = T.shape[1] - 1
    q = T.shape[2] - rows - 1
    return _record([finish(T[i].copy(), np.arange(q, q + rows), T[i, -1, :q].copy())
                    for i in range(T.shape[0])], q)
