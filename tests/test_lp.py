import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgincept.lp import (
    FEAS_TOL,
    LinearProgram,
    LpError,
    LpStatus,
    _standardize,
    feasible_point,
    residuals,
    solve_lp,
)


def simplex_max(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), free=()):
    n = len(objective)
    mask = np.zeros(n, dtype=bool)
    mask[list(free)] = True
    return LinearProgram(np.asarray(objective, float), np.reshape(a_ub, (-1, n)), b_ub,
                         np.reshape(a_eq, (-1, n)), b_eq, mask)


def test_pick_best_column_on_simplex():
    # max z s.t. z <= x2, x1 + x2 = 1, x >= 0  ->  value 1 at x = (0, 1)
    prog = simplex_max(
        [0.0, 0.0, 1.0],
        a_ub=[[0.0, -1.0, 1.0]], b_ub=[0.0],
        a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0],
        free=(2,),
    )
    sol = solve_lp(prog)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(sol.v[:2], [0.0, 1.0], atol=1e-9)


def test_zero_objective_over_simplex():
    prog = simplex_max([0.0, 0.0], a_eq=[np.ones(2)], b_eq=[1.0])
    sol = solve_lp(prog)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == 0.0
    assert residuals(prog, sol.v) <= FEAS_TOL


def test_unbounded_ray_detected():
    sol = solve_lp(simplex_max([1.0]))
    assert sol.status == LpStatus.UNBOUNDED
    assert sol.v is None


def test_infeasible_equalities():
    prog = simplex_max([0.0], a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0])
    assert solve_lp(prog).status == LpStatus.INFEASIBLE
    assert feasible_point(prog) is None


def test_feasible_point_no_constraints():
    prog = simplex_max([0.0, 0.0], free=(1,))
    point = feasible_point(prog)
    assert point is not None
    assert np.allclose(point, 0.0)


def _attacker_dual_program(z_star, a_prime, b):
    """The dual best-response program, built from raw arrays for the test."""
    n, K = a_prime.shape
    m = b.shape[1]
    return simplex_max(
        np.concatenate([np.zeros(m), z_star * np.ones(K), [-1.0]]),
        a_ub=np.hstack([-b, a_prime, -np.ones((n, 1))]), b_ub=np.zeros(n),
        a_eq=[np.concatenate([np.ones(m), np.zeros(K), [0.0]])], b_eq=[1.0],
        free=(m + K,),
    )


def test_feasible_point_for_dual_best_response_program(decoy_game):
    # with belief column 0, first-strategy-plus-zero-duals is always feasible:
    # y = e_1, w = 0, alpha = max_i |(B e_1)_i|
    b = np.asarray(decoy_game.rewards[1, 0, 0])
    a = np.asarray(decoy_game.rewards[0, 0, 0])
    a_prime = a @ np.array([[1.0, 0.0]]).T
    prog = _attacker_dual_program(1.0, a_prime, b)
    hand = np.concatenate([[1.0, 0.0], [0.0], [np.abs(b[:, 0]).max()]])
    assert residuals(prog, hand) <= 1e-12
    found = feasible_point(prog)
    assert found is not None
    assert residuals(prog, found) <= FEAS_TOL


def _bounded_random_program(rng, n_vars, n_rows):
    """Feasible (origin) and bounded (box rows) by construction."""
    g_rows = rng.uniform(-1.0, 1.0, (n_rows, n_vars))
    h = rng.uniform(0.5, 1.5, n_rows)
    c = rng.uniform(-1.0, 1.0, n_vars)
    return simplex_max(c, a_ub=np.vstack([g_rows, np.eye(n_vars)]),
                       b_ub=np.append(h, np.full(n_vars, 2.0)))


def _vertex_oracle_value(prog):
    """Brute-force LP oracle: best objective over all basic feasible points.

    Enumerates every square subsystem of active constraints (inequalities
    treated as equalities plus variable bounds), keeps feasible solutions.
    """
    n = prog.objective.size
    # -x_i <= 0 for each bounded variable, active means x_i = 0
    rows = np.vstack([prog.a_ub, -np.eye(n)[~prog.free]])
    rhs_all = np.append(prog.b_ub, np.zeros(n - prog.free.sum()))
    best = None
    need = n - prog.b_eq.size
    for combo in itertools.combinations(range(len(rows)), need):
        mat = np.vstack([rows[list(combo)], prog.a_eq])
        rhs = np.append(rhs_all[list(combo)], prog.b_eq)
        if mat.shape[0] != n or np.linalg.matrix_rank(mat) < n:
            continue
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if residuals(prog, x) <= 1e-9:
            value = float(prog.objective @ x)
            best = value if best is None else max(best, value)
    return best


def test_matches_vertex_enumeration_oracle_on_random_programs():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n_vars = int(rng.integers(1, 4))
        n_rows = int(rng.integers(1, 5))
        prog = _bounded_random_program(rng, n_vars, n_rows)
        sol = solve_lp(prog)
        assert sol.status == LpStatus.OPTIMAL
        oracle = _vertex_oracle_value(prog)
        assert oracle is not None
        assert sol.value == pytest.approx(oracle, abs=1e-8)
        assert residuals(prog, sol.v) <= FEAS_TOL
        assert sol.value == pytest.approx(float(prog.objective @ sol.v), abs=1e-9)


def test_strong_duality_on_random_programs():
    # primal: max c'x, Gx <= h, x >= 0; dual: min h'y, G'y >= c, y >= 0,
    # solved as max -h'y with flipped rows.  Bounded + feasible by design.
    rng = np.random.default_rng(7)
    for _ in range(40):
        n_vars = int(rng.integers(1, 4))
        n_rows = int(rng.integers(1, 4))
        prog = _bounded_random_program(rng, n_vars, n_rows)
        rows = prog.b_ub.size
        dual = simplex_max(-prog.b_ub, a_ub=-prog.a_ub.T, b_ub=-prog.objective)
        psol = solve_lp(prog)
        dsol = solve_lp(dual)
        assert psol.status == LpStatus.OPTIMAL and dsol.status == LpStatus.OPTIMAL
        assert psol.value == pytest.approx(-dsol.value, abs=1e-8)
        assert len(dsol.v) == rows


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_value_invariant_under_row_permutation(seed):
    rng = np.random.default_rng(seed)
    prog = _bounded_random_program(rng, int(rng.integers(1, 4)), int(rng.integers(2, 6)))
    base = solve_lp(prog)
    order = rng.permutation(prog.b_ub.size)
    shuffled = dataclasses.replace(prog, a_ub=prog.a_ub[order], b_ub=prog.b_ub[order])
    again = solve_lp(shuffled)
    assert again.status == base.status == LpStatus.OPTIMAL
    assert again.value == pytest.approx(base.value, abs=1e-9)


def _elementwise_standard_form(prog):
    """Reference for _standardize: the same (A, b, c) built one entry at a time."""
    cols = []
    for i, free in enumerate(prog.free):
        cols += [(i, 1.0), (i, -1.0)] if free else [(i, 1.0)]
    r = prog.b_ub.size
    M = np.vstack([prog.a_ub, prog.a_eq])
    b = np.append(prog.b_ub, prog.b_eq)
    A = np.zeros((b.size, len(cols) + r))
    c = np.zeros(len(cols) + r)
    for j, (i, sign) in enumerate(cols):
        c[j] = sign * prog.objective[i]
        for k in range(b.size):
            A[k, j] = sign * M[k, i]
    for k in range(r):
        A[k, len(cols) + k] = 1.0
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0
    return A, b, c


def test_standard_form_is_bit_identical_to_elementwise_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, r, e = int(rng.integers(1, 5)), int(rng.integers(0, 4)), int(rng.integers(0, 3))
        # rounded entries put exact zeros (and so signed zeros) in the tableau
        prog = simplex_max(rng.uniform(-1, 1, n).round(), a_ub=rng.uniform(-1, 1, (r, n)).round(1),
                           b_ub=rng.uniform(-1, 1, r), a_eq=rng.uniform(-1, 1, (e, n)).round(1),
                           b_eq=rng.uniform(-1, 1, e), free=np.flatnonzero(rng.uniform(size=n) < 0.5))
        got = _standardize(prog)[:3]
        for x, y in zip(got, _elementwise_standard_form(prog)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_deterministic_repeat_solves():
    rng = np.random.default_rng(5)
    prog = _bounded_random_program(rng, 3, 4)
    a = solve_lp(prog)
    b = solve_lp(prog)
    assert a.value == b.value
    assert np.array_equal(a.v, b.v)


def test_stuck_artificial_rows_still_constrain_phase_two():
    # all-nonpositive equality rows leave their phase-1 artificial basic at
    # zero; the row must still bound the objective (regression: this used to
    # be misreported as unbounded)
    prog = simplex_max([1.0, 0.0], a_eq=[[-1.0, -1.0]], b_eq=[0.0])
    sol = solve_lp(prog)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.v, 0.0)
    dup = simplex_max([1.0, 0.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
    sol = solve_lp(dup)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_matches_oracle_with_equality_constraints():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n_vars = int(rng.integers(2, 4))
        prog_base = _bounded_random_program(rng, n_vars, int(rng.integers(1, 4)))
        anchor = rng.uniform(0.1, 1.0, n_vars)
        row = rng.uniform(-1.0, 1.0, n_vars)
        prog = dataclasses.replace(
            prog_base,
            b_ub=np.maximum(prog_base.b_ub, prog_base.a_ub @ anchor + 0.1),
            a_eq=row[None, :], b_eq=[row @ anchor],
        )
        sol = solve_lp(prog)
        assert sol.status == LpStatus.OPTIMAL
        oracle = _vertex_oracle_value(prog)
        assert oracle is not None
        assert sol.value == pytest.approx(oracle, abs=1e-8)
        assert residuals(prog, sol.v) <= FEAS_TOL


def test_malformed_input_rejected():
    good = dict(objective=[1.0, 2.0], a_ub=np.ones((1, 2)), b_ub=[1.0],
                a_eq=np.ones((1, 2)), b_eq=[1.0], free=[False, True])
    LinearProgram(**good)
    for bad in (
        dict(objective=[]),
        dict(objective=[[1.0, 2.0]]),
        dict(objective=[np.nan, 1.0]),
        dict(a_ub=np.ones((1, 3))),
        dict(a_ub=np.ones(2)),
        dict(b_ub=[1.0, 2.0]),
        dict(b_eq=[]),
        dict(a_eq=[[np.nan, 0.0]]),
        dict(a_eq=[[np.inf, 0.0]]),
        dict(b_ub=[np.inf]),
        dict(b_ub=[np.nan]),
        dict(free=[True]),
    ):
        with pytest.raises(LpError):
            LinearProgram(**{**good, **bad})
