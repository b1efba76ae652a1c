"""Self-contained dense linear-program solver that solves batches in lockstep.

Every program is in canonical form: maximize c'v subject to A v <= b and
v >= 0, with b >= 0, written by its caller straight into a started
tableau [A | I | b ; c | 0 | 0], one per program, B programs of one shape
in one (B, rows + 1, q + rows + 1) stack.  `tableaux` hands out the stack
with its slack identity, and refuses one of more than MAX_STACK_BYTES
before allocating it; the caller fills A, b and c.  Since b >= 0, v = 0
is feasible and the engine is a one-phase tableau simplex from the slack
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
linear programming", 1979).  Every basic column's entry there is +-0 (see
`_pivot`), so the flag is a count: exactly q of the cost row's q + rows
entries are below -PIVOT_TOL.  The flag reads the final tableau only.

Lockstep batches.  The B tableaux are one (B, rows, cols) stack, and every
step pivots each unfinished member once, so step s is every live member's
s-th pivot and the switch of pricing rule falls on each member's own pivot
count.  A member that is optimal or unbounded, or hits the pivot limit,
leaves the stack (the stack is compacted), so finished members are never
updated through a mask.  The engine has one entry, `solve_tableaux`: it
checks a stack of started tableaux (every entry finite, every right-hand
side >= 0), starts each on its slack basis, solves them in runs of at most
BATCH_ELEMENTS tableau elements (at least one program each), and reads the
batch's outcomes off the final tableaux as one `LpBatch` of arrays:
status, v, value and the uniqueness flag, one entry per program.

Why a member's results do not depend on its batch: every tableau entry is
computed by the same floating-point operations, in the same order, as in a
batch of one.  A pivot does one division per pivot-row entry and
one product and difference per entry, and no column feeds into another.
The starting cost row is each member's own [c | 0 | 0], signed zeros
included.  Ratios are kept only where the column entry is eligible, a
solution's value is the same sum of objective * v over its own
contiguous row, and its uniqueness flag reads its own cost row.  Each
member's outcome is its own: a member that hits the pivot limit is
reported STALLED, like any other status, and the caller decides which
failure to raise.

All the programs in this package have at most a few dozen variables, so a
dense tableau is both simpler and faster than anything sparse.  Pivots are
judged by an absolute tolerance (1e-10), so the solver itself is not
scale-invariant; the stage LPs map each stage's payoffs onto [0, 1] before
they are solved.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000
_BLAND_AFTER = 50  # lockstep steps of Dantzig's rule before Bland's takes over
BATCH_ELEMENTS = 1 << 18  # tableau elements of one lockstep run (2 MiB)
# the largest stack `tableaux` allocates, in bytes (256 MiB); the stage LPs
# of the tests and benchmarks stay below 1 MiB
MAX_STACK_BYTES = 1 << 28


class LpError(RuntimeError):
    """Malformed input to the solver, a stack too large to allocate, or a
    program its caller reports as stalled at the pivot limit."""


class LpStatus(enum.Enum):
    """One program's outcome in a batch's status array; STALLED is the
    pivot limit."""

    OPTIMAL = 0
    UNBOUNDED = 1
    STALLED = 2


_OPTIMAL, _STALLED = LpStatus.OPTIMAL.value, LpStatus.STALLED.value


class LpBatch(NamedTuple):
    """The outcomes of a batch of B programs with q variables, as arrays:
    status (B,) holds LpStatus values, and v (B, q), value (B,) and
    unique (B,) hold, where the status is OPTIMAL, a vertex optimum, its
    value and whether it is the only optimum (see the module docstring);
    elsewhere v and value are NaN and unique is False."""

    status: np.ndarray
    v: np.ndarray
    value: np.ndarray
    unique: np.ndarray


def tableaux(B: int, rows: int, q: int) -> np.ndarray:
    """A zeroed stack of B started tableaux of programs with q variables and
    rows constraints, (B, rows + 1, q + rows + 1), with each row's slack
    written: row r holds 1.0 at column q + r.  The caller writes A into
    [:, :rows, :q], b into [:, :rows, -1] and c into [:, -1, :q].  Raises
    LpError, before allocating, for a stack of more than MAX_STACK_BYTES."""
    shape = (B, rows + 1, q + rows + 1)
    nbytes = 8 * B * (rows + 1) * (q + rows + 1)
    if nbytes > MAX_STACK_BYTES:
        raise LpError(f"LP stack {shape} needs {nbytes} bytes, above the limit of "
                      f"{MAX_STACK_BYTES}")
    T = np.zeros(shape)
    stride = q + rows + 2  # flat step from one row's slack to the next
    T.reshape(B, (rows + 1) * (q + rows + 1))[:, q:rows * stride:stride] = 1.0
    return T


def _pivot(T: np.ndarray, basis: np.ndarray, row: np.ndarray, col: np.ndarray,
           column: np.ndarray) -> None:
    """Pivot every member k of the stack T on (row[k], col[k]); column[k] is
    a copy of T[k, :, col[k]], cost row included.

    The pivot row is divided once, used for the update and written back
    over the updated row.  The pivot column needs no writes of its own: the
    pivot entry divides to exactly 1.0, and every other entry x becomes
    x - x * 1.0 = +0.0.  A column that stays basic keeps its unit column and
    its reduced cost of +-0: its pivot-row entry is +-0, so each of its
    entries y becomes y - x * (+-0), which is y again up to the sign of a
    zero.
    """
    k = np.arange(T.shape[0])
    pivot_row = T[k, row] / column[k, row, None]
    T -= column[:, :, None] * pivot_row[:, None, :]
    T[k, row] = pivot_row
    basis[k, row] = col


def _run(T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Pivot every member to optimality, in lockstep.

    Returns each member's LpStatus value: OPTIMAL, UNBOUNDED or STALLED
    (the pivot limit).  Finished members leave the working stack t and are
    written back to T (until the first member leaves, t is T itself).  Step
    s pivots every live member for its s-th time, so the switch from
    Dantzig's to Bland's entering rule after _BLAND_AFTER steps is each
    member's own.
    """
    rows, width = T.shape[1] - 1, T.shape[2]
    outcome = np.full(T.shape[0], _STALLED, dtype=np.int8)
    live = k = np.arange(T.shape[0])
    t, tb = T, basis
    cost, rhs = t[:, -1, :-1], t[:, :rows, -1]  # views, kept until t is compacted
    for step in range(MAX_PIVOTS):
        # Dantzig: the largest reduced cost; Bland: the lowest improving index
        entering = (cost if step < _BLAND_AFTER else cost > PIVOT_TOL).argmax(axis=1)
        column = t[k, :, entering]
        positive = column > PIVOT_TOL
        eligible = positive[:, :rows]
        go = positive[:, -1] & eligible.any(axis=1)
        keep = go.nonzero()[0]
        if keep.size < go.size:
            done = (~go).nonzero()[0]
            ids = live.take(done)
            # an improving column with no eligible row is UNBOUNDED (value 1), else
            # the member is OPTIMAL (value 0)
            outcome[ids] = positive[done, -1]
            if t is not T:
                T[ids] = t.take(done, axis=0)
                basis[ids] = tb.take(done, axis=0)
            if keep.size == 0:
                return outcome
            live, t, tb = live.take(keep), t.take(keep, axis=0), tb.take(keep, axis=0)
            k = k[:keep.size]
            cost, rhs = t[:, -1, :-1], t[:, :rows, -1]
            entering, column, eligible = (entering.take(keep), column.take(keep, axis=0),
                                          eligible.take(keep, axis=0))
        # the rows that are not eligible hold inf, above every finite least ratio
        ratios = np.empty(eligible.shape)
        ratios.fill(np.inf)
        np.divide(rhs, column[:, :rows], out=ratios, where=eligible)
        ties = ratios <= ratios.min(axis=1, keepdims=True) + 1e-15
        leaving = np.where(ties, tb, width).argmin(axis=1)  # Bland: lowest basis index
        _pivot(t, tb, leaving, entering, column)
    T[live] = t
    basis[live] = tb
    return outcome


def solve_tableaux(T: np.ndarray) -> LpBatch:
    """Solve a stack of started tableaux in lockstep, deterministically.

    T (B, rows + 1, q + rows + 1), from `tableaux`, holds each program's
    [A | I | b] over its cost row [c | 0 | 0].  Raises LpError unless every
    entry is finite and every right-hand side b is >= 0.  Each program
    starts on its slack basis, and T is pivoted in place, in runs of at most
    BATCH_ELEMENTS tableau elements (at least one program each).

    Returns one LpBatch of arrays, whose status reports the pivot limit as
    STALLED, so that the caller picks which failure to report.  On OPTIMAL,
    `v` is a vertex of the feasible region, `value` equals sum(c * v) and
    `unique` flags an optimum that no other point attains.  Where it is not
    unique any optimal vertex may be returned; callers must then depend
    only on the value and feasibility.
    """
    if not np.isfinite(T).all():
        raise LpError("tableau contains non-finite entries")
    if (T[:, :-1, -1] < 0.0).any():
        raise LpError("a right-hand side is negative; v = 0 must be feasible")
    count, height, width = T.shape
    rows, q = height - 1, width - height
    basis = np.empty((count, rows), dtype=np.intp)
    basis[:] = np.arange(q, q + rows)
    c = T[:, -1, :q].copy()
    step = max(1, BATCH_ELEMENTS // (height * width))
    status = np.empty(count, dtype=np.int8)
    for i in range(0, count, step):
        status[i:i + step] = _run(T[i:i + step], basis[i:i + step])
    x = np.zeros((count, q + rows))
    x[np.arange(count)[:, None], basis] = T[:, :-1, -1]
    # every basic column's reduced cost is +-0 (see _pivot), so the q nonbasic
    # ones are all below -PIVOT_TOL exactly when q entries are
    unique = (T[:, -1, :-1] < -PIVOT_TOL).sum(axis=1) == q
    v = x[:, :q]
    optimal = status == _OPTIMAL
    v[~optimal] = np.nan
    # c * v is a new C-order array: each member's row is contiguous, so its
    # sum rounds as in a batch of one
    return LpBatch(status, v, (c * v).sum(axis=1), unique & optimal)
