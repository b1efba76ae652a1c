import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_reference
from conftest import pure_stage_policy, single_step_game, stage_solve
from lp_reference import LinearProgram, _start, solve_lp
import mgincept as mg
from mgincept import lp, stage
from mgincept.lp import LpError, LpStatus

FEAS_TOL = 1e-9  # the largest constraint residual a solution may show


def residuals(lp, v, free=()):
    """Worst constraint violation of v (0 when strictly feasible) in the
    batch of one lp, with the variables in free unbounded below."""
    bounded = np.ones(v.size, dtype=bool)
    bounded[list(free)] = False
    return max(float(np.max(lp.a_ub[0] @ v - lp.b_ub[0], initial=0.0)),
               float(np.max(-v[bounded], initial=0.0)))


def split_free(objective, a_ub, free):
    """Write each variable v_i, i in free, as p_i - n_i with p_i, n_i >= 0:
    its column followed by the column's negation (signed zeros included),
    on the last axis of a single or batched objective and a_ub.

    Returns the split objective and a_ub and fold(x), the original
    variables of a split solution x.
    """
    mask = np.zeros(np.shape(objective)[-1], dtype=bool)
    mask[list(free)] = True
    cols = np.repeat(np.arange(mask.size), mask + 1)
    neg = np.append(False, cols[1:] == cols[:-1])
    sign = np.where(neg, -1.0, 1.0)

    def fold(x):
        v = x[..., ~neg].copy()
        v[..., mask] -= x[..., neg]
        return v

    return (np.asarray(objective, float)[..., cols] * sign,
            np.asarray(a_ub, float)[..., cols] * sign, fold)


def simplex_max(objective, a_ub=(), b_ub=()):
    """One program, as a batch of one."""
    n = len(objective)
    return LinearProgram(np.asarray(objective, float)[None], np.reshape(a_ub, (1, -1, n)),
                         np.reshape(b_ub, (1, -1)))


def _outcome(batch, i=0):
    """Member i of a batch record, as the scalar reference's record."""
    status = LpStatus(int(batch.status[i]))
    if status != LpStatus.OPTIMAL:
        return lp_reference.Outcome(status)
    return lp_reference.Outcome(status, batch.v[i], float(batch.value[i]), bool(batch.unique[i]))


def solve_one(prog):
    """The outcome of a batch of one."""
    assert prog.objective.shape[0] == 1
    return _outcome(solve_lp(prog))


def test_pick_best_column_on_simplex():
    # max z s.t. z <= x2, x1 + x2 <= 1, x >= 0, z free  ->  value 1 at x = (0, 1)
    c, a_ub, fold = split_free([0.0, 0.0, 1.0], [[0.0, -1.0, 1.0], [1.0, 1.0, 0.0]], (2,))
    sol = solve_one(simplex_max(c, a_ub=a_ub, b_ub=[0.0, 1.0]))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(fold(sol.v), [0.0, 1.0, 1.0], atol=1e-9)


def test_zero_objective_over_simplex():
    prog = simplex_max([0.0, 0.0], a_ub=[np.ones(2)], b_ub=[1.0])
    sol = solve_one(prog)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == 0.0
    assert residuals(prog, sol.v) <= FEAS_TOL


def test_unbounded_ray_detected():
    sol = solve_lp(simplex_max([1.0]))
    assert sol.status.tolist() == [LpStatus.UNBOUNDED.value]
    assert np.isnan(sol.v).all() and np.isnan(sol.value).all()


def test_feasible_point_no_constraints():
    c, a_ub, fold = split_free([0.0, 0.0], np.zeros((0, 2)), (1,))
    sol = solve_one(simplex_max(c, a_ub=a_ub))
    assert sol.status == LpStatus.OPTIMAL
    assert np.allclose(fold(sol.v), 0.0)


def _attacker_dual_program(z_star, a_prime, b):
    """The dual best-response program at the attacker's best pure action
    k0, as stage.attacker_br_lp writes it, built from raw arrays for the
    test: variables y_k (k != k0), w and alpha' = alpha + d, where d is
    k0's guarantee, and alpha' split into two columns.  Returns the
    program, the actions k != k0 and d."""
    n, K = a_prime.shape
    m = b.shape[1]
    k0 = int(b.min(axis=0).argmax())
    d = b[:, k0].min()
    others = np.delete(np.arange(m), k0)
    c, a_ub, _ = split_free(
        np.concatenate([np.zeros(m - 1), z_star * np.ones(K), [-1.0]]),
        np.vstack([np.hstack([b[:, [k0]] - b[:, others], a_prime, -np.ones((n, 1))]),
                   np.concatenate([np.ones(m - 1), np.zeros(K + 1)])]),
        (m - 1 + K,))
    return simplex_max(c, a_ub=a_ub, b_ub=np.append(b[:, k0] - d, 1.0)), others, d


def test_feasible_point_for_dual_best_response_program(decoy_game):
    # with belief column 0, first-strategy-plus-zero-duals is always feasible:
    # y = e_1, w = 0, alpha = max_i |(B e_1)_i|, here with y's weight off k0
    # and alpha shifted by k0's guarantee
    b = np.asarray(decoy_game.rewards[1, 0, 0])
    a = np.asarray(decoy_game.rewards[0, 0, 0])
    a_prime = a @ np.array([[1.0, 0.0]]).T
    prog, others, d = _attacker_dual_program(1.0, a_prime, b)
    hand = np.concatenate([np.eye(2)[0, others], [0.0], [np.abs(b[:, 0]).max() + d, 0.0]])
    assert residuals(prog, hand) <= 1e-12
    # a zero objective turns the solve into a pure feasibility query
    found = solve_one(dataclasses.replace(prog, objective=np.zeros_like(prog.objective)))
    assert found.status == LpStatus.OPTIMAL
    assert residuals(prog, found.v) <= FEAS_TOL


def _bounded_random_program(rng, n_vars, n_rows):
    """Feasible (origin) and bounded (box rows) by construction."""
    g_rows = rng.uniform(-1.0, 1.0, (n_rows, n_vars))
    h = rng.uniform(0.5, 1.5, n_rows)
    c = rng.uniform(-1.0, 1.0, n_vars)
    return simplex_max(c, a_ub=np.vstack([g_rows, np.eye(n_vars)]),
                       b_ub=np.append(h, np.full(n_vars, 2.0)))


def _vertex_oracle_value(prog, free=()):
    """Brute-force LP oracle: best objective over all basic feasible points
    of the batch of one prog, with the variables in free unbounded below.

    Enumerates every square subsystem of active constraints (inequalities
    treated as equalities plus variable bounds), keeps feasible solutions.
    """
    n = prog.objective.size
    bounded = np.ones(n, dtype=bool)
    bounded[list(free)] = False
    # -x_i <= 0 for each bounded variable, active means x_i = 0
    rows = np.vstack([prog.a_ub[0], -np.eye(n)[bounded]])
    rhs_all = np.append(prog.b_ub[0], np.zeros(bounded.sum()))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        mat, rhs = rows[list(combo)], rhs_all[list(combo)]
        if np.linalg.matrix_rank(mat) < n:
            continue
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if residuals(prog, x, free) <= 1e-9:
            value = float(prog.objective[0] @ x)
            best = value if best is None else max(best, value)
    return best


def test_matches_vertex_enumeration_oracle_on_random_programs():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n_vars = int(rng.integers(1, 4))
        n_rows = int(rng.integers(1, 5))
        prog = _bounded_random_program(rng, n_vars, n_rows)
        sol = solve_one(prog)
        assert sol.status == LpStatus.OPTIMAL
        oracle = _vertex_oracle_value(prog)
        assert oracle is not None
        assert sol.value == pytest.approx(oracle, abs=1e-8)
        assert residuals(prog, sol.v) <= FEAS_TOL
        assert sol.value == pytest.approx(float(prog.objective[0] @ sol.v), abs=1e-9)


def test_strong_duality_on_random_programs():
    # primal: max c'x, Gx <= h, x >= 0 with box rows x <= 2 last in G; dual:
    # min h'y, G'y >= c, y >= 0.  y0 = (0, max(c, 0)) is dual feasible, so
    # the dual is solved as max -h'u over free u = y - y0, with rows
    # -G'u <= G'y0 - c and -u <= y0, all right-hand sides >= 0, and
    # min h'y = h'y0 - max(-h'u).  Bounded + feasible by design.
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_vars = int(rng.integers(1, 4))
        n_rows = int(rng.integers(1, 4))
        prog = _bounded_random_program(rng, n_vars, n_rows)
        g, h, c0 = prog.a_ub[0], prog.b_ub[0], prog.objective[0]
        rows = h.size
        y0 = np.append(np.zeros(n_rows), np.maximum(c0, 0.0))
        c, a_ub, fold = split_free(-h, np.vstack([-g.T, -np.eye(rows)]), range(rows))
        dual = simplex_max(c, a_ub=a_ub, b_ub=np.append(g.T @ y0 - c0, y0))
        psol = solve_one(prog)
        dsol = solve_one(dual)
        assert psol.status == LpStatus.OPTIMAL and dsol.status == LpStatus.OPTIMAL
        assert psol.value == pytest.approx(h @ y0 - dsol.value, abs=1e-8)
        assert len(dsol.v) == 2 * rows
        assert dsol.value == pytest.approx(float(-h @ fold(dsol.v)), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_value_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    prog = _bounded_random_program(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)))
    base = solve_one(prog)
    order = rng.permutation(prog.b_ub.size)
    shuffled = dataclasses.replace(prog, a_ub=prog.a_ub[:, order], b_ub=prog.b_ub[:, order])
    again = solve_one(shuffled)
    assert again.status == base.status == LpStatus.OPTIMAL
    assert again.value == pytest.approx(base.value, abs=1e-9)


def test_uniqueness_flag_reads_the_final_cost_row():
    # True only when every nonbasic reduced cost is below -PIVOT_TOL: a
    # strict vertex optimum; not an objective parallel to a face, nor one
    # within the tolerance of parallel, nor a zero objective, nor an
    # unbounded program.  The flag is the scalar engine's and does not
    # depend on the batch or on the member's place in it
    c = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0 - 1e-11], [0.0, 0.0], [1.0, 1.0]]
    a_ub = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]],
            [[1.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 0.0]]]
    b_ub = [[1.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.5]]
    batch = LinearProgram(np.array(c), np.array(a_ub), np.array(b_ub))
    want = [True, False, False, False, False]
    assert solve_lp(batch).unique.tolist() == want
    reversed_batch = LinearProgram(*(np.array(x)[::-1] for x in (c, a_ub, b_ub)))
    assert solve_lp(reversed_batch).unique.tolist() == want[::-1]
    for i, flag in enumerate(want):
        member = _member(batch, i)
        assert solve_one(member).unique == _reference(member).unique == flag
    ray = solve_lp(simplex_max([1.0]))
    assert ray.status.tolist() == [LpStatus.UNBOUNDED.value] and not ray.unique.any()


def _elementwise_standard_form(prog):
    """Reference for _start: the tableau [A | I | b] of a batch of one over
    the cost row [c | 0 | 0], built one entry at a time, and the slack
    basis."""
    r, n = prog.a_ub.shape[1:]
    T = np.zeros((r + 1, n + r + 1))
    for k in range(r):
        for j in range(n):
            T[k, j] = prog.a_ub[0, k, j]
        T[k, n + k] = 1.0
        T[k, -1] = prog.b_ub[0, k]
    for j in range(n):
        T[r, j] = prog.objective[0, j]
    return T, np.arange(n, n + r)


def test_standard_form_is_bit_identical_to_elementwise_reference():
    rng = np.random.default_rng(11)
    negative_zeros = 0
    for _ in range(50):
        n, r = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        # rounded entries put exact zeros (and so signed zeros, in the
        # cost row too) and +1 unit columns in the tableau
        prog = simplex_max(rng.uniform(-1, 1, n).round(),
                           a_ub=rng.uniform(-1, 1, (r, n)).round(rng.integers(0, 2)),
                           b_ub=rng.uniform(0, 1, r))
        T, basis = _start(prog.objective, prog.a_ub, prog.b_ub)
        want_T, want_basis = _elementwise_standard_form(prog)
        assert T.shape == (1, *want_T.shape) and T.tobytes() == want_T.tobytes()
        assert basis.tolist() == [want_basis.tolist()]
        # the engine's stack, with the program's A, b and c written into it
        stack = lp.tableaux(1, r, n)
        stack[0, :r, :n], stack[0, :r, -1], stack[0, -1, :n] = (
            prog.a_ub[0], prog.b_ub[0], prog.objective[0])
        assert stack.tobytes() == want_T.tobytes()
        negative_zeros += np.signbit(T[0, -1, :n][prog.objective[0] == 0.0]).sum()
    assert negative_zeros > 0


def test_deterministic_repeat_solves():
    rng = np.random.default_rng(5)
    prog = _bounded_random_program(rng, 3, 4)
    a = solve_one(prog)
    b = solve_one(prog)
    assert a.value == b.value
    assert np.array_equal(a.v, b.v)


def test_malformed_input_rejected():
    good = dict(objective=[[1.0, 2.0]], a_ub=np.ones((1, 1, 2)), b_ub=[[1.0]])
    LinearProgram(**good)
    for bad in (
        dict(objective=[[]]),
        dict(objective=[[[1.0, 2.0]]]),
        dict(objective=[[1.0, 2.0], [3.0, 4.0]]),
        dict(objective=[[np.nan, 1.0]]),
        dict(a_ub=np.ones((1, 1, 3))),
        dict(a_ub=np.ones((1, 2))),
        dict(a_ub=np.ones((2, 1, 2))),
        dict(b_ub=[[1.0, 2.0]]),
        dict(b_ub=[[]]),
        dict(b_ub=[1.0]),
        dict(a_ub=[[[np.nan, 0.0]]]),
        dict(a_ub=[[[np.inf, 0.0]]]),
        dict(b_ub=[[np.inf]]),
        dict(b_ub=[[np.nan]]),
    ):
        with pytest.raises(LpError):
            LinearProgram(**{**good, **bad})


def test_unbatched_program_is_rejected():
    # a single program is a batch of one: without the batch axis it is refused
    with pytest.raises(LpError, match=r"must have shape \(B, q\)"):
        LinearProgram([1.0, 2.0], np.ones((1, 2)), [1.0])
    LinearProgram([[1.0, 2.0]], np.ones((1, 1, 2)), [[1.0]])


def test_negative_right_hand_side_rejected():
    # v = 0 must be feasible: a row with b < 0, in a batch of one or in one
    # member of a larger batch, is refused before any tableau is built
    with pytest.raises(LpError, match="negative"):
        simplex_max([1.0, 0.0], a_ub=[[1.0, 1.0], [-1.0, 0.0]], b_ub=[1.0, -1e-300])
    with pytest.raises(LpError, match="negative"):
        LinearProgram(np.ones((2, 1)), np.ones((2, 1, 1)), [[1.0], [-1.0]])
    LinearProgram(np.ones((2, 1)), np.ones((2, 1, 1)), [[1.0], [-0.0]])


def test_entry_rejects_non_finite_entries_and_negative_right_hand_sides():
    # the engine's one entry checks the tableaux it is handed: a non-finite
    # entry anywhere (constraint, right-hand side, cost row) or a negative
    # right-hand side in any member is refused before any pivot; -0.0 is not
    # negative
    good = lp.tableaux(2, 1, 2)
    good[:, 0, :2], good[:, 0, -1], good[:, -1, :2] = 1.0, 1.0, [1.0, 2.0]
    lp.solve_tableaux(good.copy())
    for at, bad in (((0, 0, 0), np.nan), ((1, 0, 1), np.inf), ((0, 0, -1), np.inf),
                    ((1, 0, -1), np.nan), ((0, -1, 0), np.nan), ((1, -1, 1), -np.inf)):
        T = good.copy()
        T[at] = bad
        with pytest.raises(LpError, match="non-finite"):
            lp.solve_tableaux(T)
    for at, bad in (((0, 0, -1), -1e-300), ((1, 0, -1), -1.0)):
        T = good.copy()
        T[at] = bad
        with pytest.raises(LpError, match="negative"):
            lp.solve_tableaux(T)
    T = good.copy()
    T[1, 0, -1] = -0.0
    assert lp.solve_tableaux(T).status.tolist() == [LpStatus.OPTIMAL.value] * 2


def test_tableaux_refuses_a_stack_above_the_byte_limit(monkeypatch):
    # a (1, 2, 3) stack is 48 bytes and a (1, 2, 4) one 64
    monkeypatch.setattr(lp, "MAX_STACK_BYTES", 48)
    assert lp.tableaux(1, 1, 1).shape == (1, 2, 3)
    with pytest.raises(LpError, match=re.escape(
            "LP stack (1, 2, 4) needs 64 bytes, above the limit of 48")):
        lp.tableaux(1, 1, 2)


# a one-step, one-state 20000 x 2 game whose victim rows all tie: each tied
# singleton cell's maximin LP over the 20000 rows is a (20001, 20003)
# tableau, 3.2 GB, and policy_inception writes one per fake action
TIED_ROWS = 20000


@pytest.mark.parametrize("solve, stack", [
    (mg.policy_inception, (2, TIED_ROWS + 1, TIED_ROWS + 3)),
    (lambda g: mg.markov_attacker_best_response(
        g, mg.BeliefSet((pure_stage_policy(2, 0, 2),))), (1, TIED_ROWS + 1, TIED_ROWS + 3))],
    ids=["policy_inception", "K=1"])
def test_a_stack_too_large_to_hold_is_refused_before_it_is_allocated(solve, stack):
    g = single_step_game(np.zeros((TIED_ROWS, 2)), np.ones((TIED_ROWS, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(LpError, match=re.escape(
                f"step 0, LP stack {stack} needs {8 * np.prod(stack)} bytes, above the limit of "
                f"{lp.MAX_STACK_BYTES}")):
            solve(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def _counted_runs(monkeypatch):
    """Record the batch size of every simplex run from here on."""
    real, runs = lp._run, []

    def counted(T, basis):
        runs.append(T.shape[0])
        return real(T, basis)

    monkeypatch.setattr(lp, "_run", counted)
    return runs


def _first_basis(monkeypatch, prog):
    """Solve prog, returning the basis the simplex starts from and the
    solution."""
    real, starts = lp._run, []

    def recorded(T, basis):
        starts.append(basis[0].copy())
        return real(T, basis)

    monkeypatch.setattr(lp, "_run", recorded)
    sol = solve_one(prog)
    return starts[0], sol


def test_structural_unit_columns_do_not_start_their_rows(monkeypatch):
    # x0's column is e_0 and x2's is e_1, yet every row starts on its slack
    # (columns 3 and 4), under the cost row [c | 0 | 0] as written
    prog = simplex_max([1.0, 1.0, 0.0], a_ub=[[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]],
                       b_ub=[2.0, 1.0])
    start, sol = _first_basis(monkeypatch, prog)
    assert start.tolist() == [3, 4]
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(_vertex_oracle_value(prog), abs=1e-12)
    assert np.allclose(sol.v, [3.0, 1.0, 0.0])


def test_matches_oracle_with_free_variables():
    # rows through a positive anchor with small random slack, and box rows
    # -2 <= v <= 2 that bound the free variables
    rng = np.random.default_rng(41)
    for _ in range(60):
        n_vars = int(rng.integers(2, 4))
        anchor = rng.uniform(0.1, 1.5, n_vars)
        g_rows = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), n_vars))
        h = np.maximum(g_rows @ anchor + rng.uniform(0.0, 0.3, g_rows.shape[0]), 0.0)
        free = np.flatnonzero(rng.uniform(size=n_vars) < 0.3)
        prog = simplex_max(rng.uniform(-1.0, 1.0, n_vars),
                           a_ub=np.vstack([g_rows, np.eye(n_vars), -np.eye(n_vars)]),
                           b_ub=np.concatenate([h, np.full(2 * n_vars, 2.0)]))
        c, a_ub, fold = split_free(prog.objective, prog.a_ub, free)
        sol = solve_one(LinearProgram(c, a_ub, prog.b_ub))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.value == pytest.approx(_vertex_oracle_value(prog, free), abs=1e-8)
        assert residuals(prog, fold(sol.v), free) <= FEAS_TOL


def test_stage_lps_start_feasible_without_artificials(monkeypatch):
    # both stage LPs are written at their best pure strategy: every
    # right-hand side is >= 0, so each starts at a feasible basis, the
    # slack basis, and is solved by one simplex run.  Each LP hands its
    # started tableau to the engine's one entry.  A unique victim optimum
    # needs no attacker LP; with victim rows 0 and 1 equal and above the
    # others it is a segment, and the attacker LP runs too
    tableaux, bases = [], []
    runs = _counted_runs(monkeypatch)
    real_run = lp._run

    def started(T):
        tableaux.append(T.copy())
        return lp.solve_tableaux(T)

    def run(T, basis):
        bases.append(basis.copy())
        return real_run(T, basis)

    monkeypatch.setattr(stage, "solve_tableaux", started)
    monkeypatch.setattr(lp, "_run", run)
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1.0, 1.0, (2, 5, 4))
    pi_rows = rng.dirichlet(np.ones(4), 3)
    stage_solve(pi_rows, a, b)
    assert len(tableaux) == 1 and runs == [1]  # victim_br_lp alone
    a[:2] = a.max(axis=0) + 0.5
    stage_solve(pi_rows, a, b)
    assert len(tableaux) == 3  # then victim_br_lp and attacker_br_lp
    assert runs == [1, 1, 1]  # one run of one member each
    for T, basis in zip(tableaux, bases, strict=True):
        assert np.all(T[:, :-1, -1] >= 0.0)
        rows = basis.shape[1]
        assert basis.tolist() == [list(range(T.shape[2] - rows - 1, T.shape[2] - 1))]


# ---- the lockstep engine against the scalar reference (tests/lp_reference.py)

def _reference(prog):
    """The scalar engine's outcome of a batch of one."""
    return lp_reference.solve_one(prog.objective[0], prog.a_ub[0], prog.b_ub[0])


def _same_bits(got, want):
    """Bitwise equality of two outcomes: the same status, uniqueness flag,
    v and value bytes."""
    if got.status != want.status:
        return False
    if want.v is None:
        return got.v is None and got.value is None and not got.unique
    return (got.v.tobytes() == want.v.tobytes() and got.unique == want.unique
            and np.float64(got.value).tobytes() == np.float64(want.value).tobytes())


def _member(prog, i):
    """Member i of a batch, as a batch of one."""
    return LinearProgram(prog.objective[i:i + 1], prog.a_ub[i:i + 1], prog.b_ub[i:i + 1])


def _mixed_batch(rng, size):
    """`size` programs of one random shape: rounded entries (exact zeros and
    ties), right-hand sides >= 0 (some zero), free variables split into
    two columns, and a structural +1 unit column in some members, which
    does not start its row: every row starts on its slack."""
    n, r = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    free = np.flatnonzero(rng.uniform(size=n) < 0.3)
    digits = int(rng.integers(0, 3))
    a_ub = rng.uniform(-1, 1, (size, r, n)).round(1)
    unit = rng.uniform(size=size) < 0.4
    a_ub[unit, :, 0] = 0.0
    a_ub[unit, 0, 0] = 1.0
    c, a_ub, _ = split_free(rng.uniform(-1, 1, (size, n)).round(digits), a_ub, free)
    return LinearProgram(c, a_ub, rng.uniform(0, 1.5, (size, r)).round(1))


def test_batches_are_bitwise_the_scalar_engine():
    rng = np.random.default_rng(17)
    statuses, flags = set(), set()
    for _ in range(150):
        size = int(rng.integers(1, 12))
        prog = _mixed_batch(rng, size)
        got = solve_lp(prog)
        assert got.status.shape == (size,)
        for i in range(size):
            want = _reference(_member(prog, i))
            assert _same_bits(_outcome(got, i), want)
            statuses.add(want.status)
            flags.add(want.unique)
    assert statuses == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED} and flags == {True, False}


def test_basic_reduced_costs_are_signed_zeros_and_unique_counts_them(monkeypatch):
    # on random stacks with unbounded and, at a pivot limit of 3, stalled
    # members, solved in one run or split into runs of 1 or 3 members: every
    # basic column's final reduced cost is +-0, and `unique` is the
    # definition read through the final basis, OPTIMAL with every nonbasic
    # reduced cost below -PIVOT_TOL
    bases = []
    real = lp._run

    def recorded(T, basis):
        bases.append(basis)  # a view, final once the solve returns
        return real(T, basis)

    monkeypatch.setattr(lp, "_run", recorded)
    default = lp.BATCH_ELEMENTS
    rng = np.random.default_rng(24)
    outcomes, flags, splits = set(), set(), set()
    for trial in range(90):
        size = int(rng.integers(1, 12))
        prog = _mixed_batch(rng, size)
        T, _ = _start(prog.objective, prog.a_ub, prog.b_ub)
        per_run = (None, 1, 3)[trial % 3]
        monkeypatch.setattr(lp, "MAX_PIVOTS", 3 if trial % 2 else 20000)
        monkeypatch.setattr(lp, "BATCH_ELEMENTS", per_run * T[0].size if per_run else default)
        bases.clear()
        got = lp.solve_tableaux(T)
        splits.add(len(bases))
        basis = np.concatenate(bases)
        cost = T[:, -1, :-1]
        assert (np.take_along_axis(cost, basis, axis=1) == 0.0).all()
        nonbasic = np.ones(cost.shape, dtype=bool)
        np.put_along_axis(nonbasic, basis, False, axis=1)
        want = ((got.status == LpStatus.OPTIMAL.value)
                & ((cost < -lp.PIVOT_TOL) | ~nonbasic).all(axis=1))
        assert got.unique.tolist() == want.tolist()
        outcomes.update(LpStatus(int(code)) for code in got.status)
        flags.update(got.unique.tolist())
    assert outcomes == set(LpStatus) and flags == {True, False} and max(splits) > 1


def test_engine_failures_stay_with_their_member(monkeypatch):
    # at a pivot limit of 3 the members that need more pivots are STALLED
    # alone, as in the scalar engine and in a batch of one
    monkeypatch.setattr(lp, "MAX_PIVOTS", 3)
    rng = np.random.default_rng(19)
    failed = solved = 0
    for _ in range(60):
        prog = _mixed_batch(rng, 8)
        got = solve_lp(prog)
        for i in range(8):
            want = _reference(_member(prog, i))
            assert _same_bits(_outcome(got, i), want)
            assert _same_bits(solve_one(_member(prog, i)), want)
            failed += want.status == LpStatus.STALLED
            solved += want.status != LpStatus.STALLED
    assert failed > 0 and solved > 0


def test_solve_lp_splits_a_batch_at_the_element_bound(monkeypatch):
    # with room for 1 and for 3 tableaux, a mixed batch is solved in that
    # many runs, to the bytes of the whole batch and of the scalar engine,
    # pivot-limit and unbounded members included
    monkeypatch.setattr(lp, "MAX_PIVOTS", 3)
    runs = _counted_runs(monkeypatch)
    default = lp.BATCH_ELEMENTS
    rng = np.random.default_rng(22)
    outcomes = set()
    for _ in range(40):
        size = int(rng.integers(1, 12))
        prog = _mixed_batch(rng, size)
        monkeypatch.setattr(lp, "BATCH_ELEMENTS", default)
        whole = solve_lp(prog)
        rows, q = prog.a_ub.shape[1:]
        for per_run in (1, 3):
            monkeypatch.setattr(lp, "BATCH_ELEMENTS", per_run * (rows + 1) * (q + rows + 1))
            runs.clear()
            got = solve_lp(prog)
            assert runs == [min(per_run, size - i) for i in range(0, size, per_run)]
            for field in ("status", "v", "value", "unique"):
                assert getattr(got, field).tobytes() == getattr(whole, field).tobytes()
            for i in range(size):
                assert _same_bits(_outcome(got, i), _reference(_member(prog, i)))
            outcomes.update(LpStatus(int(code)) for code in got.status)
    assert outcomes == set(LpStatus)


def test_a_batch_split_at_the_element_bound_keeps_every_bit(monkeypatch):
    # a layer of stage LPs split into batches of 3 stages (and of 1): the
    # victim values and uniqueness flags, the attacker solves and the
    # first-failure rule do not depend on where the split falls.  Both
    # LPs' started tableaux are split by the engine entry they are handed
    # to.  Victim rows 0 and
    # 1 are equal and above the others at stages 1, 2, 4 and 6, whose victim
    # optima are segments, so those four go to the attacker LP
    rng = np.random.default_rng(20)
    cols = rng.uniform(-1, 1, (7, 4, 3))
    b = rng.uniform(-1, 1, (7, 4, 5))
    tied = [1, 2, 4, 6]
    cols[tied, :2] = cols[tied].max(axis=1)[:, None] + 0.5
    whole = stage.victim_br_lp(cols), stage._lp_chain(cols, b)
    assert np.flatnonzero(~whole[0][2]).tolist() == tied
    runs = _counted_runs(monkeypatch)
    for stages_per_batch in (3, 1):
        # the victim LP's tableau: K = 3 rows over n = 4 columns and a
        # slack per row; the attacker LP's, of n + 1 = 5 rows over
        # m + K + 1 = 9 columns, is nearly three times as large and runs alone
        size = (3 + 1) * (4 + 3 + 1)
        monkeypatch.setattr(lp, "BATCH_ELEMENTS", stages_per_batch * size)
        runs.clear()
        victim, br = stage.victim_br_lp(cols), stage._lp_chain(cols, b)
        victim_runs = [min(stages_per_batch, 7 - i) for i in range(0, 7, stages_per_batch)]
        assert runs == victim_runs * 2 + [1] * len(tied)
        for got, want in zip(victim, whole[0], strict=True):
            assert got.tobytes() == want.tobytes()
        for field in ("y_star", "z_star", "v2_star"):
            assert getattr(br, field).tobytes() == getattr(whole[1], field).tobytes()
        # z above the victim optimum at stages 3 and 5 empties their
        # best-reply polytopes: those two, and only those, are UNBOUNDED,
        # across the split
        high = whole[0][1].copy()
        high[[3, 5]] += 1.0
        status = stage.attacker_br_lp(high, cols, b)[2]
        assert np.flatnonzero(status != LpStatus.OPTIMAL.value).tolist() == [3, 5]
        assert (status[[3, 5]] == LpStatus.UNBOUNDED.value).all()


def test_batch_record_fields_match_lone_solves(monkeypatch):
    # the arrays of a batch record hold, member by member, what a batch of
    # one gives: its status value, and on OPTIMAL its v, value and
    # uniqueness flag bit for bit; an unbounded or stalled member has NaN
    # v and value and no flag
    monkeypatch.setattr(lp, "MAX_PIVOTS", 3)
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(60):
        size = int(rng.integers(1, 9))
        prog = _mixed_batch(rng, size)
        got = solve_lp(prog)
        q = prog.objective.shape[1]
        assert isinstance(got, lp.LpBatch)
        assert got.status.dtype == np.int8 and got.unique.dtype == bool
        assert (got.status.shape, got.v.shape, got.value.shape, got.unique.shape) == (
            (size,), (size, q), (size,), (size,))
        for i in range(size):
            lone = solve_one(_member(prog, i))
            assert LpStatus(int(got.status[i])) == lone.status
            seen.add(lone.status)
            if lone.status == LpStatus.OPTIMAL:
                assert got.v[i].tobytes() == lone.v.tobytes()
                assert got.value[i].tobytes() == np.float64(lone.value).tobytes()
                assert got.unique[i] == lone.unique
            else:
                assert np.isnan(got.v[i]).all() and np.isnan(got.value[i])
                assert not got.unique[i]
    assert seen == set(LpStatus)


# Chvatal's cycling example (Linear Programming, 1983, ch. 3): with the
# largest reduced cost entering and the lowest basis index leaving, the
# simplex pivots through six degenerate bases back to the first.  Its
# optimum is 1 at v = (1, 0, 1, 0).
CYCLING = simplex_max([10.0, -57.0, -9.0, -24.0],
                      a_ub=[[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]],
                      b_ub=[0.0, 0.0, 1.0])


def test_dantzig_pricing_alone_cycles_on_the_degenerate_program(monkeypatch):
    monkeypatch.setattr(lp, "MAX_PIVOTS", 300)
    monkeypatch.setattr(lp, "_BLAND_AFTER", 300)
    assert solve_lp(CYCLING).status.tolist() == [LpStatus.STALLED.value]


@pytest.mark.parametrize("switch", (0, 1, None), ids=("bland-from-0", "bland-from-1", "default"))
def test_bland_fallback_ends_the_cycle(monkeypatch, switch):
    # Bland's rule from step 0, from step 1 and from the default step: the
    # optimum, the scalar reference's bits, and those of the program solved
    # in a batch whose other members finish first
    if switch is not None:
        monkeypatch.setattr(lp, "_BLAND_AFTER", switch)
    sol = solve_one(CYCLING)
    assert sol.status == LpStatus.OPTIMAL and sol.value == 1.0
    assert sol.v.tolist() == [1.0, 0.0, 1.0, 0.0]
    assert _same_bits(sol, _reference(CYCLING))
    easy = dataclasses.replace(CYCLING, objective=np.array([[1.0, 0.0, 0.0, 0.0]]))
    batch = LinearProgram(*(np.concatenate([getattr(p, f) for p in (easy, CYCLING, easy, CYCLING)])
                            for f in ("objective", "a_ub", "b_ub")))
    got = solve_lp(batch)
    for i in (1, 3):
        assert _same_bits(_outcome(got, i), sol)
    scipy_optimize = pytest.importorskip("scipy.optimize")
    highs = scipy_optimize.linprog(-CYCLING.objective[0], A_ub=CYCLING.a_ub[0],
                                   b_ub=CYCLING.b_ub[0], method="highs")
    assert highs.status == 0 and sol.value == pytest.approx(-highs.fun, abs=1e-12)
