"""Self-contained dense linear-program solver that solves batches in lockstep.

A `LinearProgram` is given in canonical form: maximize c'v subject to
A v <= b and v >= 0, with b >= 0.  Its arrays may carry one leading batch
axis: B programs of one shape, solved together.  Since b >= 0, v = 0 is
feasible and the engine is a one-phase tableau simplex from the slack
basis: each row gets one slack variable, basic at b (Chvatal, Linear
Programming, 1983), so every basic cost is zero and the starting cost row
is [c | 0 | 0] as written, with no pricing out.  A caller with a free
variable writes it as a column and its negation (see
`mgincept.stage.attacker_br_lp`); the stage LPs of `mgincept.stage` are
written at a best pure strategy to take this form.

Pricing.  For its first _BLAND_AFTER pivots a program's entering column is
the largest reduced cost above PIVOT_TOL, the lowest index among equal ones
(Dantzig's rule); after them it is the lowest index whose reduced cost is
above PIVOT_TOL (Bland's rule, Bland 1977), which cannot cycle, so a
degenerate cycle under Dantzig's rule ends there.  The leaving row is the
least ratio over the eligible rows, the lowest basis index among ties.
The solver is fully deterministic: identical inputs produce identical
outputs, pivot for pivot.

Unique optima.  An OPTIMAL solution is flagged `unique` when every nonbasic
entry of its final cost row is below -PIVOT_TOL: moving any nonbasic
variable off zero then loses value (Mangasarian, "Uniqueness of solution in
linear programming", 1979).  The flag reads the final tableau only.

Lockstep batches.  The B tableaux are one (B, rows, cols) stack, and every
step pivots each unfinished member once, so step s is every live member's
s-th pivot and the switch of pricing rule falls on each member's own pivot
count.  A member that is optimal or unbounded, or hits the pivot limit,
leaves the stack (the stack is compacted), so finished members are never
updated through a mask.  `solve_lp` splits a batch into runs of at most
BATCH_ELEMENTS tableau elements (at least one program each), which bounds
the stack's memory, and returns the batch's outcomes as one `LpBatch` of
arrays: status, v, value and the uniqueness flag, one entry per program.

Why a member's results do not depend on its batch: every tableau entry is
computed by the same floating-point operations, in the same order, as in a
program solved alone.  A pivot does one division per pivot-row entry and
one product and difference per entry, and no column feeds into another.
The starting cost row is each member's own [c | 0 | 0], signed zeros
included.  Ratios are kept only where the column entry is eligible, a
solution's value is the same sum of objective * v over its own
contiguous row, and its uniqueness flag reads its own cost row.  Each
member's outcome is its own: a member that hits the pivot limit is
reported STALLED in the batch, and solving one unbatched program raises
its `LpError`.

All the programs in this package have at most a few dozen variables, so a
dense tableau is both simpler and faster than anything sparse.  Pivots are
judged by an absolute tolerance (1e-10), so the solver itself is not
scale-invariant; the stage LPs map each stage's payoffs onto [0, 1] before
they are solved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000
_BLAND_AFTER = 50  # lockstep steps of Dantzig's rule before Bland's takes over
BATCH_ELEMENTS = 1 << 18  # tableau elements of one lockstep run (2 MiB)


class LpError(RuntimeError):
    """Internal solver failure (malformed input or pivot-limit blowout)."""


class LpStatus(enum.Enum):
    """A solve's outcome.  STALLED (the pivot limit) is only ever reported
    in a batch's status array; a lone solve raises LpError instead."""

    OPTIMAL = 0
    UNBOUNDED = 1
    STALLED = 2


_OPTIMAL, _UNBOUNDED, _STALLED = (s.value for s in LpStatus)


@dataclass(frozen=True)
class LinearProgram:
    """max objective'v  s.t.  a_ub v <= b_ub,  v >= 0,  b_ub >= 0.

    Shapes: objective (q,), a_ub (r, q) and b_ub (r,); r may be 0.  A batch
    of B programs puts a leading axis of length B on all three:
    objective (B, q), a_ub (B, r, q) and b_ub (B, r).
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
        q = self.objective.shape[-1] if self.objective.ndim else 0
        batch = self.objective.shape[:-1]
        if q < 1 or len(batch) > 1:
            raise LpError(f"objective {self.objective.shape} must have shape ([B,] q) "
                          "with q >= 1")
        a, b = self.a_ub, self.b_ub
        if (a.ndim != len(batch) + 2 or a.shape[:-2] != batch or a.shape[-1] != q
                or b.shape != a.shape[:-1]):
            raise LpError(f"constraints {a.shape} and bounds {b.shape} do not "
                          f"have shapes ({'B, ' * len(batch)}rows, {q}) and "
                          f"({'B, ' * len(batch)}rows,)")
        if (b < 0).any():
            raise LpError("b_ub has negative entries; v = 0 must be feasible")


@dataclass(frozen=True)
class LpSolution:
    """A solve's outcome; `v`, `value` and a True `unique` (see the module
    docstring) only on OPTIMAL."""

    status: LpStatus
    v: np.ndarray | None = None
    value: float | None = None
    unique: bool = False


class LpBatch(NamedTuple):
    """The outcomes of a batch of B programs with q variables, as arrays:
    status (B,) holds LpStatus values, and v (B, q), value (B,) and
    unique (B,) are an LpSolution's fields where the status is OPTIMAL
    (elsewhere v and value are NaN and unique is False)."""

    status: np.ndarray
    v: np.ndarray
    value: np.ndarray
    unique: np.ndarray

    def solution(self, k: int) -> LpSolution:
        """Member k's outcome as a lone solve gives it: its LpSolution, or
        the LpError of the pivot limit, raised."""
        status = LpStatus(int(self.status[k]))
        if status == LpStatus.STALLED:
            raise LpError("pivot limit exceeded; simplex did not converge")
        if status == LpStatus.UNBOUNDED:
            return LpSolution(status)
        return LpSolution(status, v=self.v[k], value=float(self.value[k]),
                          unique=bool(self.unique[k]))


def _start(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The (B, rows + 1, q + rows + 1) tableau stack [A | I | b] of
    A v + s = b over the cost row [c | 0 | 0], and its slack basis, feasible
    at v = 0 since b >= 0.  With every basic cost zero, the cost row holds
    the reduced costs as it is."""
    B, rows, q = a.shape
    T = np.zeros((B, rows + 1, q + rows + 1))
    T[:, :rows, :q] = a
    k = np.arange(rows)
    T[:, k, q + k] = 1.0  # one slack per row
    T[:, :rows, -1] = b
    T[:, -1, :q] = c
    return T, np.tile(q + k, (B, 1))


def _pivot(T: np.ndarray, basis: np.ndarray, row: np.ndarray, col: np.ndarray,
           column: np.ndarray) -> None:
    """Pivot every member k of the stack T on (row[k], col[k]); column[k] is
    a copy of T[k, :, col[k]], cost row included.

    The pivot row is divided once, used for the update and written back
    over the updated row.  The pivot column needs no writes of its own: the
    pivot entry divides to exactly 1.0, and every other entry x becomes
    x - x * 1.0 = +0.0.
    """
    k = np.arange(T.shape[0])
    pivot_row = T[k, row] / column[k, row][:, None]
    T -= column[:, :, None] * pivot_row[:, None, :]
    T[k, row] = pivot_row
    basis[k, row] = col


def _run(T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Pivot every member to optimality, in lockstep.

    Returns each member's LpStatus value: OPTIMAL, UNBOUNDED or STALLED
    (the pivot limit).  Finished members leave the working stack t and are
    written back to T.  Step s pivots every live member for its s-th time,
    so the switch from Dantzig's to Bland's entering rule after
    _BLAND_AFTER steps is each member's own.
    """
    rows = T.shape[1] - 1
    outcome = np.full(T.shape[0], _STALLED, dtype=np.int8)
    live = k = np.arange(T.shape[0])
    t, tb = T, basis
    for step in range(MAX_PIVOTS):
        cost = t[:, -1, :-1]
        # Dantzig: the largest reduced cost; Bland: the lowest improving index
        entering = (cost if step < _BLAND_AFTER else cost > PIVOT_TOL).argmax(axis=1)
        column = t[k, :, entering]
        eligible = column[:, :rows] > PIVOT_TOL
        improves = column[:, -1] > PIVOT_TOL
        go = improves & eligible.any(axis=1)
        if not go.all():
            done, keep = (~go).nonzero()[0], go.nonzero()[0]
            ids = live.take(done)
            outcome[ids] = np.where(improves.take(done), _UNBOUNDED, _OPTIMAL)
            T[ids] = t.take(done, axis=0)
            basis[ids] = tb.take(done, axis=0)
            if keep.size == 0:
                return outcome
            live, t, tb = live.take(keep), t.take(keep, axis=0), tb.take(keep, axis=0)
            k = np.arange(keep.size)
            entering, column, eligible = (entering.take(keep), column.take(keep, axis=0),
                                          eligible.take(keep, axis=0))
        # the rows that are not eligible hold inf, above every finite least ratio
        ratios = np.full(eligible.shape, np.inf)
        np.divide(t[:, :rows, -1], column[:, :rows], out=ratios, where=eligible)
        ties = ratios <= ratios.min(axis=1, keepdims=True) + 1e-15
        leaving = np.where(ties, tb, t.shape[2]).argmin(axis=1)  # Bland: lowest basis index
        _pivot(t, tb, leaving, entering, column)
    T[live] = t
    basis[live] = tb
    return outcome


def solve_lp(lp: LinearProgram) -> LpSolution | LpBatch:
    """Solve a linear program, or a batch of them in lockstep, deterministically.

    An unbatched program gives its LpSolution, and raises LpError where the
    engine fails on it.  A batch gives one LpBatch of arrays, whose status
    reports the pivot limit as STALLED, so that the caller picks which
    failure to report.  The batch is solved in runs of at most
    BATCH_ELEMENTS tableau elements (at least one program each).

    On OPTIMAL, `v` is a vertex of the feasible region, `value` equals
    sum(objective * v) and `unique` flags an optimum that no other point
    attains.  Where it is not unique any optimal vertex may be returned;
    callers must then depend only on the value and feasibility.
    """
    c, a, b = (x if lp.objective.ndim == 2 else x[None]
               for x in (lp.objective, lp.a_ub, lp.b_ub))
    count, rows, q = a.shape
    step = max(1, BATCH_ELEMENTS // ((rows + 1) * (q + rows + 1)))
    status = np.empty(count, dtype=np.int8)
    x = np.zeros((count, q + rows))
    unique = np.empty(count, dtype=bool)
    for i in range(0, count, step):
        T, basis = _start(c[i:i + step], a[i:i + step], b[i:i + step])
        B = T.shape[0]
        status[i:i + B] = _run(T, basis)
        members = np.arange(B)[:, None]
        x[i + members, basis] = T[:, :-1, -1]
        basic = np.zeros((B, q + rows), dtype=bool)
        basic[members, basis] = True
        unique[i:i + B] = ((T[:, -1, :-1] < -PIVOT_TOL) | basic).all(axis=1)
    # C order: each row is contiguous, as a lone program's v, whose
    # strides decide how the sum objective * v rounds
    v = np.ascontiguousarray(x[:, :q])
    optimal = status == _OPTIMAL
    v[~optimal] = np.nan
    batch = LpBatch(status, v, (c * v).sum(axis=1), unique & optimal)
    return batch if lp.objective.ndim == 2 else batch.solution(0)
