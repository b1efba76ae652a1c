import dataclasses
import sys

import numpy as np
import pytest

import mgincept as mg
from conftest import integer_reward_game, stage_solve, watch_tied_cells
from lp_reference import LinearProgram, _start
from mgincept import inception, lp, oracle, solver, stage
from mgincept.oracle import (GridSpec, brute_force_inception, grid_victim_value, simplex_grid,
                             victim_br_vertices)
from mgincept.stage import StageSolveError, attacker_br_lp, victim_br_lp

MATCHING = np.array([[0.0, 1.0], [1.0, 0.0]])
DECOY = np.array([[5.0, 0.0], [0.0, 0.0]])


def test_victim_br_single_column_cases():
    (x,), (z,), _, _ = victim_br_lp(np.array([[[0.0], [1.0]]]))
    assert z == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(x, [0.0, 1.0], atol=1e-9)
    (x,), (z,), _, _ = victim_br_lp(np.array([[[1.0], [0.0]]]))
    assert z == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(x, [1.0, 0.0], atol=1e-9)


def test_victim_br_zero_matrix():
    _, (z,), _, _ = victim_br_lp(np.zeros((1, 3, 2)))
    assert z == pytest.approx(0.0, abs=1e-9)


def _unit(a):
    """One stage's payoffs a mapped affinely onto [0, 1], as the stage LPs
    solve them, with the least entry and the range (a range of 0 read as 1)."""
    lo = a.min()
    span = (a.max() - lo) or 1.0
    return (a - lo) / span, lo, span


def _victim_program(cols):
    """The program documented in victim_br_lp, built stage by stage as
    objective, a_ub and b_ub arrays: the reference for the tableau
    victim_br_lp writes."""
    P, n, K = cols.shape
    objective, a_ub, b_ub = np.empty((P, n)), np.empty((P, K, n)), np.empty((P, K))
    for p in range(P):
        a = _unit(cols[p])[0]
        r0 = int(a.min(axis=1).argmax())
        room = a[r0] - a[r0].min()
        j0 = int(np.flatnonzero(room == 0.0)[0])
        gain = a[[i for i in range(n) if i != r0]] - a[r0]  # (n - 1, K)
        objective[p] = np.append(gain[:, j0], -1.0)
        for row, j in enumerate(j for j in range(K) if j != j0):
            a_ub[p, row] = np.append(gain[:, j0] - gain[:, j], -1.0)
            b_ub[p, row] = room[j]
        a_ub[p, -1] = np.append(np.ones(n - 1), 0.0)
        b_ub[p, -1] = 1.0
    return LinearProgram(objective, a_ub, b_ub)


def _handed_tableaux(monkeypatch, module, writer):
    """Record, for every call of the LP writer module.writer, its arguments
    followed by a copy of the started tableau it hands to the engine."""
    handed = []  # [*args, T] per call
    real_writer, real_entry = getattr(module, writer), module.solve_tableaux

    def recorded(*args):
        handed.append(list(args))
        return real_writer(*args)

    def entry(T):
        if sys._getframe(1).f_code.co_name == writer:
            handed[-1].append(T.copy())
        return real_entry(T)

    monkeypatch.setattr(module, writer, recorded)
    monkeypatch.setattr(module, "solve_tableaux", entry)
    return handed


def test_victim_tableau_is_bitwise_the_started_program(monkeypatch):
    # the tableau victim_br_lp hands to the engine is `_start` of its
    # program written as arrays, every bit, signed zeros included: on
    # uniform and integer payoffs (exact ties in the best pure row and
    # column), one victim action (no mix weight), one believed column (the
    # sum row alone), and the tied singleton cells' batches of the
    # fake-policy search, one per tie size
    handed = _handed_tableaux(monkeypatch, stage, "victim_br_lp")
    rng = np.random.default_rng(91)
    for trial in range(60):
        shape = rng.integers(1, 6, 3)
        cols = rng.uniform(-1.0, 1.0, shape)
        stage.victim_br_lp(cols if trial % 2 else cols.round())
    tie_sizes = set()
    for seed in range(5):
        before = len(handed)
        mg.policy_inception(integer_reward_game(seed))
        tie_sizes |= {cols.shape[2] for cols, *_ in handed[before:]}
    assert tie_sizes == {2, 3}
    assert any(cols.shape[1] == 1 for cols, *_ in handed)  # one victim action
    assert any(cols.shape[2] == 1 for cols, *_ in handed)  # one believed column
    for cols, T in handed:
        want_T, _ = _start(*dataclasses.astuple(_victim_program(cols)))
        assert T.shape == want_T.shape and T.tobytes() == want_T.tobytes()


def _attacker_program(z_star, cols, b):
    """The program documented in attacker_br_lp, built stage by stage as
    objective, a_ub and b_ub arrays, alpha' split into a column and its
    negation: the reference for the tableau attacker_br_lp writes."""
    P, n, K = cols.shape
    m = b.shape[2]
    objective, a_ub, b_ub = [], [], []
    for p in range(P):
        unit_cols, lo, span = _unit(cols[p])
        z = (z_star[p] - lo) / span
        unit_b = _unit(b[p])[0]
        k0 = int(unit_b.min(axis=0).argmax())
        gain = unit_b[:, [k for k in range(m) if k != k0]] - unit_b[:, [k0]]  # (n, m - 1)
        objective.append(np.concatenate([np.zeros(m - 1), np.full(K, z), [-1.0, 1.0]]))
        a_ub.append(np.vstack([
            np.hstack([-gain, unit_cols, np.full((n, 1), -1.0), np.ones((n, 1))]),
            np.concatenate([np.ones(m - 1), np.zeros(K + 1), [-0.0]])]))
        b_ub.append(np.append(unit_b[:, k0] - unit_b[:, k0].min(), 1.0))
    return LinearProgram(*map(np.array, (objective, a_ub, b_ub)))


def test_attacker_tableau_is_bitwise_the_started_program(monkeypatch):
    # the tableau attacker_br_lp hands to the engine is `_start` of its
    # program written as arrays, every bit, signed zeros included (the
    # negated gain block, and the sum row's -0.0 under alpha's negation):
    # on the integer-reward games against the secure belief and a K = 3
    # belief, whose tied victim optima send stages to the attacker LP
    handed = _handed_tableaux(monkeypatch, stage, "attacker_br_lp")
    for seed in range(8):
        g = integer_reward_game(seed)
        for belief in (solver.secure_belief(g), oracle.random_belief(
                np.random.default_rng(seed + 1000), g, 3)):
            solver.markov_attacker_best_response(g, belief)
    assert len(handed) >= 8
    negative_zeros = 0
    for z_star, cols, b, T in handed:
        want_T, _ = _start(*dataclasses.astuple(_attacker_program(z_star, cols, b)))
        assert T.shape == want_T.shape and T.tobytes() == want_T.tobytes()
        negative_zeros += np.signbit(T[T == 0.0]).sum()
    assert negative_zeros > 0


def _index_victim(cols):
    """victim_br_lp's outputs by per-stage index gathers: the reference
    program solved by the engine, the other rows' weights placed by index,
    the rest of the mass at r0, and z mapped back through r0's guarantee."""
    sols = lp.solve_tableaux(_start(*dataclasses.astuple(_victim_program(cols)))[0])
    P, n, _ = cols.shape
    x, z = np.empty((P, n)), np.empty(P)
    for p in range(P):
        a, _, span = _unit(cols[p])
        r0 = int(a.min(axis=1).argmax())
        x[p, [i for i in range(n) if i != r0]] = sols.v[p, :-1]
        x[p, r0] = 1.0 - sols.v[p, :-1].sum()
        z[p] = cols[p, r0].min() + span * sols.value[p]
    return x, z, sols.unique, sols.status


def _index_attacker(z_star, cols, b):
    """attacker_br_lp's outputs by per-stage index gathers, as _index_victim
    for the attacker's program over (y, w, alpha')."""
    sols = lp.solve_tableaux(_start(*dataclasses.astuple(_attacker_program(z_star, cols, b)))[0])
    P, m = b.shape[0], b.shape[2]
    y, v2 = np.empty((P, m)), np.empty(P)
    for p in range(P):
        _, lo, span = _unit(cols[p])
        unit_b, _, span_b = _unit(b[p])
        k0 = int(unit_b.min(axis=0).argmax())
        v = sols.v[p]
        y[p, [k for k in range(m) if k != k0]] = v[:m - 1]
        y[p, k0] = 1.0 - v[:m - 1].sum()
        z = (z_star[p] - lo) / span
        v2[p] = b[p, :, k0].min() + span_b * (z * v[m - 1:-2].sum() - (v[-2] - v[-1]))
    return y, v2, sols.status


@pytest.mark.parametrize("n, K", [(1, 3), (4, 2), (1, 2)], ids=["n=1", "K=2", "n=1-K=2"])
def test_victim_masks_are_bitwise_the_index_gathers(n, K):
    # one victim action (no mix weight: x = e_r0 from the sum row alone)
    # and two believed columns (one row j != j0), on real and on rounded
    # payoffs with exact ties in the best pure row and column
    rng = np.random.default_rng(94)
    for cols in (rng.uniform(-1.0, 1.0, (12, n, K)), rng.uniform(-2.0, 2.0, (12, n, K)).round()):
        got, want = victim_br_lp(cols), _index_victim(cols)
        for field, other in zip(got, want, strict=True):
            assert field.tobytes() == other.tobytes()
    assert n > 1 or (got[0] == 1.0).all()


@pytest.mark.parametrize("n, K", [(3, 2), (1, 3), (4, 4)])
def test_attacker_masks_with_two_actions_are_bitwise_the_index_gathers(n, K):
    # m = 2: one attacker weight y_k, k != k0, whose best pure action
    # holds the rest of the mass, at the victim's optimal values
    rng = np.random.default_rng(95)
    for rounded in (False, True):
        cols, b = rng.uniform(-1.0, 1.0, (12, n, K)), rng.uniform(-2.0, 2.0, (12, n, 2))
        if rounded:
            cols, b = cols.round(), b.round()
        z = victim_br_lp(cols)[1]
        got, want = attacker_br_lp(z, cols, b), _index_attacker(z, cols, b)
        for field, other in zip(got, want, strict=True):
            assert field.tobytes() == other.tobytes()


def test_victim_br_full_matching_game():
    # both pure columns believed: unique optimum is the even mix at 0.5,
    # cross-checked against the grid oracle
    (x,), (z,), _, _ = victim_br_lp(MATCHING[None])
    assert z == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    grid = grid_victim_value(MATCHING, GridSpec(step=1e-3))
    assert abs(z - grid) <= 1.0 * 1e-3 + 1e-9


def test_attacker_br_decoy_columns():
    # belief pins the victim to its matching response; the attacker collects
    # 5 only when the victim was baited to row 0
    a_prime = MATCHING @ np.array([[1.0, 0.0]]).T
    _, (v2,), _ = attacker_br_lp([1.0], a_prime[None], DECOY[None])
    assert v2 == pytest.approx(0.0, abs=1e-9)
    a_prime = MATCHING @ np.array([[0.0, 1.0]]).T
    (y,), (v2,), _ = attacker_br_lp([1.0], a_prime[None], DECOY[None])
    assert v2 == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(y, [1.0, 0.0], atol=1e-9)


def test_attacker_br_zero_payoffs():
    a_prime = np.array([[0.2], [0.8]])
    _, z, _, _ = victim_br_lp(a_prime[None])
    (y,), (v2,), _ = attacker_br_lp(z, a_prime[None], np.zeros((1, 2, 3)))
    assert v2 == pytest.approx(0.0, abs=1e-9)
    assert abs(y.sum() - 1.0) <= 1e-9


def test_attacker_br_flags_inconsistent_victim_value():
    # a z* above the victim's optimum empties the best-response polytope and
    # the dual program diverges: the stage's status is UNBOUNDED
    a_prime = MATCHING @ np.array([[1.0, 0.0]]).T
    y, v2, status = attacker_br_lp([2.0], a_prime[None], DECOY[None])
    assert status.tolist() == [stage.LpStatus.UNBOUNDED.value]
    assert np.isnan(y).all() and np.isnan(v2).all()


def test_attacker_lp_splits_alpha_into_a_column_and_its_negation(monkeypatch):
    # the free alpha' = alpha+ - alpha-: the program's last column is the
    # bitwise negation of alpha's, signed zeros included (the sum row's 0.0
    # becomes -0.0), in the constraints and in the objective, read off the
    # started tableau the LP hands to the engine
    rng = np.random.default_rng(88)
    cols, b = rng.uniform(-1.0, 1.0, (2, 4, 3, 3))
    _, z, _, _ = victim_br_lp(cols)
    handed = _handed_tableaux(monkeypatch, stage, "attacker_br_lp")
    _, v2, _ = stage.attacker_br_lp(z, cols, b)
    ((*_, T),) = handed
    q = 3 + 3 + 1
    a_ub, objective = T[:, :-1, :q], T[:, -1, :q]
    assert a_ub.shape == (4, 3 + 1, q)
    for a in (a_ub, objective[:, None]):
        alpha, last = a[..., -2], a[..., -1]
        assert np.array_equal(np.abs(last), np.abs(alpha))
        assert np.array_equal(np.signbit(last), ~np.signbit(alpha))
    assert np.signbit(a_ub[:, -1, -1]).all() and (a_ub[:, -1, -1] == 0.0).all()
    assert v2.shape == (4,)


def test_best_response_chain_composes_both_solves():
    br = stage_solve(np.array([[1.0, 0.0]]), MATCHING, DECOY)
    assert (br.z_star, br.v2_star) == (pytest.approx(1.0, abs=1e-9),
                                       pytest.approx(0.0, abs=1e-9))
    br = stage_solve(np.array([[0.0, 1.0]]), MATCHING, DECOY)
    assert br.v2_star == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(br.y_star, [1.0, 0.0], atol=1e-9)
    br = stage_solve(np.array([[0.3, 0.7]]), np.zeros((2, 2)), np.zeros((2, 2)))
    assert (br.z_star, br.v2_star) == (0.0, 0.0)


def test_vertices_unique_best_response():
    verts = victim_br_vertices(np.array([[0.0], [1.0]]), 1.0)
    assert len(verts) == 1
    assert np.allclose(verts[0], [0.0, 1.0], atol=1e-9)


def test_vertices_whole_simplex_when_column_constant():
    verts = victim_br_vertices(np.array([[0.5], [0.5]]), 0.5)
    got = sorted(tuple(np.round(v, 9)) for v in verts)
    assert got == [(0.0, 1.0), (1.0, 0.0)]


def test_vertices_single_mixed_point():
    verts = victim_br_vertices(MATCHING, 0.5)
    assert len(verts) == 1
    assert np.allclose(verts[0], [0.5, 0.5], atol=1e-9)


def test_vertices_dimension_guard():
    with pytest.raises(ValueError):
        victim_br_vertices(np.zeros((7, 1)), 0.0)


def _random_stage(rng, n, m, k):
    rows = rng.uniform(0.05, 1.0, (k, m))
    rows /= rows.sum(axis=1, keepdims=True)
    a = rng.uniform(-1.0, 1.0, (n, m))
    b = rng.uniform(-1.0, 1.0, (n, m))
    return rows, a, b


def test_duality_consistency_on_random_stages():
    # the dual value must equal the worst vertex of the victim polytope
    # against the returned attacker mix
    rng = np.random.default_rng(81)
    for _ in range(50):
        n, m, k = (int(rng.integers(1, 4)) for _ in range(3))
        rows, a, b = _random_stage(rng, n, m, k)
        br = stage_solve(rows, a, b)
        verts = victim_br_vertices(a @ rows.T, br.z_star)
        inner = min(float(v @ b @ br.y_star) for v in verts)
        assert inner == pytest.approx(br.v2_star, abs=1e-7)
        assert abs(br.y_star.sum() - 1.0) <= 1e-9
        assert np.all(br.y_star >= -1e-9)


def test_vertices_satisfy_value_floor_on_random_stages():
    rng = np.random.default_rng(82)
    for _ in range(50):
        n, m, k = (int(rng.integers(1, 4)) for _ in range(3))
        rows, a, _ = _random_stage(rng, n, m, k)
        a_prime = a @ rows.T
        _, (z,), _, _ = victim_br_lp(a_prime[None])
        for v in victim_br_vertices(a_prime, z):
            assert float((a_prime.T @ v).min()) >= z - 1e-8


def test_smaller_beliefs_never_hurt_the_victim():
    # dropping believed columns removes constraints, so the value can only rise
    rng = np.random.default_rng(83)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k_full = int(rng.integers(2, 5))
        a_full = rng.uniform(-1.0, 1.0, (n, k_full))
        k_sub = int(rng.integers(1, k_full))
        _, (z_sub,), _, _ = victim_br_lp(a_full[None, :, :k_sub])
        _, (z_full,), _, _ = victim_br_lp(a_full[None])
        assert z_sub >= z_full - 1e-9


def test_attacker_beats_own_security_value():
    # exploiting the belief is at least as good as playing blind maximin,
    # whose value we bound from below with a grid
    rng = np.random.default_rng(84)
    spec = GridSpec(step=1e-2)
    for _ in range(15):
        n, m, k = (int(rng.integers(1, 4)) for _ in range(3))
        rows, a, b = _random_stage(rng, n, m, k)
        br = stage_solve(rows, a, b)
        grid = simplex_grid(m, spec.resolution)
        security = float((grid @ b.T).min(axis=1).max())
        assert br.v2_star >= security - 1e-7


def test_singleton_closed_form_matches_lp_chain(monkeypatch):
    # a singleton belief with one best reply row is solved without any LP,
    # and one whose integer column ties exactly by the maximin LP over its
    # tied rows alone; the LP chain on the same stage is the reference
    rng = np.random.default_rng(85)
    maximins = watch_tied_cells(monkeypatch)
    tied = 0
    for trial in range(300):
        n, m = (int(rng.integers(1, 7)) for _ in range(2))
        rows, a, b = _random_stage(rng, n, m, 1)
        if trial % 3:
            rows = np.eye(m)[[rng.integers(m)]]
        if trial % 3 == 2:
            a, b = (rng.integers(-2, 3, (n, m)).astype(float) for _ in range(2))
        col = a @ rows[0]
        ties = np.count_nonzero(col == col.max()) > 1
        before = len(maximins)
        br = stage_solve(rows, a, b)
        assert len(maximins) - before == ties
        tied += ties
        _, z, _, _ = victim_br_lp(col[None, :, None])
        _, (ref_v2,), _ = attacker_br_lp(z, col[None, :, None], b[None])
        scale = max(1.0, np.abs(a).max(), np.abs(b).max())
        assert abs(br.z_star - z[0]) <= 1e-9 * scale
        assert abs(br.v2_star - ref_v2) <= 1e-9 * scale
        # a dual certificate: w* is the least dual weight that keeps every
        # row i below the maximum feasible in attacker_br_lp's program,
        # col_i w - alpha <= (b y*)_i with alpha = z* w - v2*, that is
        # w >= (v2* - (b y*)_i) / (z* - col_i); (y*, w*, alpha*) is then
        # feasible, with residuals relative to the largest term
        y = br.y_star
        below = col < br.z_star
        w = float(((br.v2_star - (b @ y)[below]) / (br.z_star - col[below])).max(initial=0.0))
        alpha = br.z_star * w - br.v2_star
        if not ties:
            assert np.array_equal(y, np.eye(m)[np.argmax(y)])
        assert np.all(y >= -1e-12) and abs(y.sum() - 1.0) <= 1e-12 and w >= 0.0
        terms = max(scale, np.abs(col).max() * w, abs(alpha))
        assert np.all(col * w - alpha - b @ y <= 1e-12 * terms)
        assert abs(br.z_star * w - alpha - br.v2_star) <= 1e-12 * terms
    assert tied > 0


def test_singleton_exact_row_tie_keeps_the_lp_maximin():
    # rows 0 and 1 both best-reply to fake column 0; the victim may pick
    # either, so the attacker can guarantee only the even split
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([[5.0, 0.0], [0.0, 5.0]])
    br = stage_solve(np.array([[1.0, 0.0]]), a, b)
    assert br.z_star == pytest.approx(1.0, abs=1e-9)
    assert br.v2_star == pytest.approx(2.5, abs=1e-9)
    assert np.allclose(br.y_star, [0.5, 0.5], atol=1e-9)


def test_row_one_ulp_below_a_tie_is_no_best_reply():
    # rows 0 and 1 attain the believed column's maximum exactly and row 2 is
    # 1 ulp below it: the victim never plays row 2, so the attacker's value
    # is the maximin over rows 0 and 1 alone, not row 2's -6
    linprog = pytest.importorskip("scipy.optimize").linprog
    a = np.array([[2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [np.nextafter(2.0, 0.0), 3.0, 0.0]])
    b = np.array([[3.0, -1.0, 0.5], [-2.0, 4.0, 1.0], [-6.0, -6.0, -6.0]])
    br = stage_solve(np.array([[1.0, 0.0, 0.0]]), a, b)
    # HiGHS on the exact tie: maximize v subject to v <= (b y)_i, i = 0, 1
    ref = linprog(np.append(np.zeros(3), -1.0), A_ub=np.hstack([-b[:2], np.ones((2, 1))]),
                  b_ub=np.zeros(2), A_eq=[[1.0, 1.0, 1.0, 0.0]], b_eq=[1.0],
                  bounds=[(0, None)] * 3 + [(None, None)], method="highs")
    assert ref.status == 0
    assert br.z_star == 2.0
    assert abs(br.v2_star - -ref.fun) <= 1e-12 * np.abs(b).max()
    assert np.all(b[:2] @ br.y_star >= br.v2_star - 1e-12 * np.abs(b).max())


def test_tied_singleton_cells_run_no_attacker_lp(monkeypatch):
    # a singleton stage's victim value is its column maximum and its best
    # replies the rows attaining it: the searches and the solver settle
    # tied cells with one maximin LP over exactly the tied rows and never
    # run the attacker LP
    tied = watch_tied_cells(monkeypatch, inception)
    for seed in range(20):
        g = integer_reward_game(seed)
        fake = mg.policy_inception(g).pi2_dagger
        report = mg.markov_attacker_best_response(g, mg.BeliefSet((fake,)))
        hh, ss = np.indices((g.horizon, g.num_states))
        believed = report.q.values[0][hh, ss, :, np.argmax(fake.entries, axis=2)]
        assert report.v.values[0, :-1].tobytes() == believed.max(axis=2).tobytes()
        for size in ((3, 2, 2, 2), (2, 2, 3, 3)):
            brute_force_inception(integer_reward_game(seed, *size))
    assert tied


def test_singleton_stage_solves_match_per_cell_solves(monkeypatch):
    # one layer of S stages with m believed columns each: cell (s, j) is the
    # pure fake action j at state s, believed column q1[s][:, j], against a
    # loop of per-cell stage solves; duplicated rows and integer payoffs
    # force exact best-reply ties, which the layer solve settles with the
    # maximin LP over exactly the tied rows
    watch_tied_cells(monkeypatch)
    rng = np.random.default_rng(86)
    tied = unique = 0
    for trial in range(100):
        S, n, m = (int(rng.integers(1, 5)) for _ in range(3))
        if trial % 2:
            q1 = rng.integers(-2, 3, (S, n, m)).astype(float)
        else:
            q1 = rng.uniform(-1.0, 1.0, (S, n, m))
            if n > 1:
                q1[::2, 1] = q1[::2, 0]
        q2 = rng.uniform(-1.0, 1.0, (S, n, m))
        cells = stage.singleton_stage_solves(q1, q2)
        tied_y = dict(zip(zip(*np.nonzero(cells.tied)), cells.tied_y))
        for s in range(S):
            for j in range(m):
                col = q1[s][:, j]
                br = stage_solve(np.eye(m)[j:j + 1], q1[s], q2[s])
                assert cells.z[s, j].tobytes() == col.max().tobytes()
                assert cells.z[s, j].tobytes() == np.float64(br.z_star).tobytes()
                assert cells.v2[s, j].tobytes() == np.float64(br.v2_star).tobytes()
                assert cells.tied[s, j] == (np.count_nonzero(col == col.max()) > 1)
                if cells.tied[s, j]:
                    tied += 1
                    (y,), (v2,), _, _ = victim_br_lp(q2[s][col == col.max()].T[None])
                    assert np.array_equal(tied_y.pop((s, j)), br.y_star)
                    assert np.array_equal(y, br.y_star)
                    assert cells.v2[s, j].tobytes() == np.float64(v2).tobytes()
                    continue
                unique += 1
                assert np.array_equal(np.eye(m)[cells.k_star[s, j]], br.y_star)
                assert cells.k_star[s, j] == np.argmax(q2[s][np.argmax(col)])
        assert not tied_y
    assert tied > 0 and unique > 0


def test_tied_cells_batched_by_tie_size_are_bitwise_the_per_cell_solves():
    # singleton_stage_solves solves its tied cells in one victim_br_lp batch
    # per number of tied rows; each cell's mix and value are those of its
    # own victim_br_lp call, bit for bit, on every layer of integer-reward
    # games (J = m pure fake actions per stage), some of whose layers tie
    # cells on 2 rows and on 3
    mixed = 0
    for seed in range(20):
        g = integer_reward_game(seed)
        fake = mg.BeliefSet((mg.policy_inception(g).pi2_dagger,))
        q1, q2 = mg.markov_attacker_best_response(g, fake).q.values
        for h in range(g.horizon):
            cells = stage.singleton_stage_solves(q1[h], q2[h])
            sizes = set()
            for (s, j), y in zip(zip(*np.nonzero(cells.tied)), cells.tied_y, strict=True):
                rows = q1[h, s, :, j] == cells.z[s, j]
                sizes.add(int(rows.sum()))
                (want_y,), (want_v2,), _, _ = victim_br_lp(q2[h, s][rows].T[None])
                assert y.tobytes() == want_y.tobytes()
                assert cells.v2[s, j].tobytes() == want_v2.tobytes()
            mixed += len(sizes) > 1
    assert mixed > 0


def _tied_victim_rows(cols, stages):
    """cols with victim rows 0 and 1 equal, and above every other row, at
    the given stages: their victim LPs have a segment of optima, so the
    attacker LP solves them."""
    cols = cols.copy()
    cols[stages, :2] = cols[stages].max(axis=1)[:, None] + 0.5
    return cols


def _stalling(real, at=None):
    """The engine entry real, reporting STALLED, the pivot limit, for the
    members at[writer] of every batch the LP writer named writer hands it
    (every member of every batch for None).  A marked member reads as the
    engine reports any member that is not OPTIMAL: not unique, with NaN v
    and value."""
    def solve(T):
        out = real(T)
        if at is None:
            members = slice(None)
        else:
            writer = sys._getframe(1).f_code.co_name
            members = [p for p in at.get(writer, ()) if p < out.status.size]
        status, v, value, unique = (a.copy() for a in out)
        status[members] = stage.LpStatus.STALLED.value
        v[members] = value[members] = np.nan
        unique[members] = False
        return lp.LpBatch(status, v, value, unique)

    return solve


def _injected_failures(monkeypatch, victim_at, attacker_at):
    """Make the engine fail the members victim_at of every victim LP batch
    and attacker_at of every attacker LP batch, each with the pivot limit:
    their status is STALLED.  The one entry, `stage.solve_tableaux`, tells
    the batches apart by the writer that hands them over."""
    monkeypatch.setattr(stage, "solve_tableaux", _stalling(
        stage.solve_tableaux, {"victim_br_lp": victim_at, "attacker_br_lp": attacker_at}))


def test_lp_chain_reports_the_first_failure_stage_by_stage(monkeypatch):
    # every stage's victim optimum is a segment, so every stage runs the
    # attacker LP, and a member's index in its batch is its stage.  The
    # engine fails the victim LP of stage 5 and the attacker LP of stage 3
    # (and of 6, past the victim failure): stage by stage, stage 3's
    # attacker LP fails first; with the two swapped, stage 3's victim LP;
    # a victim LP failing at stage 0 leaves no stage before it to solve
    rng = np.random.default_rng(87)
    cols, b = rng.uniform(-1.0, 1.0, (2, 8, 3, 3))
    cols = _tied_victim_rows(cols, np.arange(8))
    assert not victim_br_lp(cols)[2].any()
    for victim_at, attacker_at, message in (((5,), (3, 6), "stage 3: attacker"),
                                             ((3,), (5,), "stage 3: victim"),
                                             ((0,), (3,), "stage 0: victim")):
        _injected_failures(monkeypatch, victim_at, attacker_at)
        with pytest.raises(stage.LpError, match=f"^{message} best-response LP: pivot limit"):
            stage._lp_chain(cols, b)


def test_solver_names_a_victim_lp_failing_at_stage_0(monkeypatch):
    # a K = 3 belief whose last layer's victim LP fails at stage 0
    g = integer_reward_game(5)
    belief = oracle.random_belief(np.random.default_rng(5), g, 3)
    _injected_failures(monkeypatch, (0,), ())
    with pytest.raises(stage.LpError,
                       match="^step 2, stage 0: victim best-response LP: pivot limit"):
        solver.markov_attacker_best_response(g, belief)


def _stall_every_lp(monkeypatch):
    """Make the engine report every stage LP STALLED (the pivot limit)."""
    monkeypatch.setattr(stage, "solve_tableaux", _stalling(stage.solve_tableaux))


@pytest.mark.parametrize("failing, message", [((2,), "stage 1"), ((3,), "stage 0"),
                                              ((2, 3), "stage 0")])
def test_the_lowest_failing_tied_cell_is_raised_across_tie_sizes(monkeypatch, failing, message):
    # stage 0's cell ties on 3 rows and stage 1's on 2, so they are solved
    # in two victim LP batches, 2 rows first; the engine fails the batches
    # of the tie sizes failing, and the error names the lowest failing
    # stage, as solving the cells one by one in order does
    cols = np.array([[[1.0], [1.0], [1.0]], [[1.0], [1.0], [0.0]]])
    b = np.random.default_rng(92).uniform(-1.0, 1.0, (2, 3, 4))
    real = stage.solve_tableaux

    def solve(T):
        out = real(T)
        if T.shape[1] - 1 in failing:  # one row per tied row
            return out._replace(status=np.full(out.status.size, stage.LpStatus.STALLED.value))
        return out

    monkeypatch.setattr(stage, "solve_tableaux", solve)
    with pytest.raises(stage.LpError, match=f"^{message}: victim best-response LP: pivot limit"):
        stage.singleton_stage_solves(cols, b)


def test_solver_names_the_stage_of_a_failing_tied_singleton_cell(monkeypatch):
    # a singleton belief whose every LP fails: its first tied cell, at
    # (h=2, s=2), is named by its own stage, not by its place in a batch
    g = integer_reward_game(5)
    fake = mg.BeliefSet((mg.policy_inception(g).pi2_dagger,))
    _stall_every_lp(monkeypatch)
    with pytest.raises(stage.LpError, match="^step 2, stage 2: victim best-response LP"):
        solver.markov_attacker_best_response(g, fake)


def test_policy_inception_names_the_step_of_a_failing_tied_cell(monkeypatch):
    # every LP fails: the first tied cell of the last layer, at state 0
    _stall_every_lp(monkeypatch)
    with pytest.raises(stage.LpError, match="^step 2, stage 0: victim best-response LP: "
                                            "pivot limit"):
        mg.policy_inception(integer_reward_game(5))


@pytest.mark.parametrize("seed, message", [(5, "step 1, stage 0"), (0, "step 0, stage 8")])
def test_brute_force_inception_names_the_step_of_a_failing_tied_cell(monkeypatch, seed,
                                                                      message):
    # every LP fails: the first tied cell is named by its step and its
    # stage suffix * S + s; on game 0 the last layer has no tied cell and
    # the first is at state 0 after suffix 4 (S = 2)
    _stall_every_lp(monkeypatch)
    with pytest.raises(stage.LpError, match=f"^{message}: victim best-response LP: pivot limit"):
        brute_force_inception(integer_reward_game(seed, 2, 2, 3, 3))


def test_mixed_layer_failure_names_the_stage_in_the_layer(monkeypatch):
    # stages 1, 4 and 6 fall back to the attacker LP, the others take the
    # closed form; member 1 of the attacker batch is stage 4, and the error
    # names stage 4, below a victim failure at stage 5 and above one at 3
    rng = np.random.default_rng(90)
    cols, b = rng.uniform(-1.0, 1.0, (2, 8, 3, 3))
    cols = _tied_victim_rows(cols, [1, 4, 6])
    assert np.flatnonzero(~victim_br_lp(cols)[2]).tolist() == [1, 4, 6]
    for victim_at, message in (((), "stage 4: attacker"), ((5,), "stage 4: attacker"),
                               ((3,), "stage 3: victim")):
        _injected_failures(monkeypatch, victim_at, (1,))
        pattern = f"^{message} best-response LP: pivot limit"
        with pytest.raises(stage.LpError, match=pattern):
            stage._lp_chain(cols, b)
    # a z* the victim cannot reach fails the fallback stage by its index
    # in the layer, with the StageSolveError of the attacker LP
    monkeypatch.undo()
    real = stage.attacker_br_lp
    monkeypatch.setattr(stage, "attacker_br_lp", lambda z, c, bb: real(z + 1.0, c, bb))
    with pytest.raises(StageSolveError, match="^stage 1: attacker best-response LP returned "
                                              "LpStatus.UNBOUNDED"):
        stage._lp_chain(cols, b)


def test_lp_chain_takes_the_closed_form_where_the_victim_optimum_is_unique(monkeypatch):
    # unique stages get y* = e_k*, k* the lowest-index argmax of x*'B, and
    # v2* = (x*'B)_k*, within rounding of the attacker LP's value and with
    # the same bits in any batch; only the other stages reach the attacker
    # LP, as one batch, to the bits of that LP on exactly those stages
    rng = np.random.default_rng(89)
    cols = rng.uniform(-1.0, 1.0, (8, 4, 3))
    b = rng.uniform(-1.0, 1.0, (8, 4, 5))
    b[2, :, 1] = b[2, :, 3] = b[2].max(axis=1) + 0.1  # a tie in x*'B: the lower index wins
    cols = _tied_victim_rows(cols, [1, 4, 6])
    x, z, unique, _ = victim_br_lp(cols)
    assert np.flatnonzero(~unique).tolist() == [1, 4, 6]
    batches = []
    real = stage.attacker_br_lp

    def recorded(z_star, c, bb):
        batches.append(c)
        return real(z_star, c, bb)

    monkeypatch.setattr(stage, "attacker_br_lp", recorded)
    br = stage._lp_chain(cols, b)
    (fallback,) = batches
    assert fallback.tobytes() == cols[[1, 4, 6]].tobytes()
    ref_y, ref_v2, _ = real(z[[1, 4, 6]], cols[[1, 4, 6]], b[[1, 4, 6]])
    assert br.y_star[[1, 4, 6]].tobytes() == ref_y.tobytes()
    assert br.v2_star[[1, 4, 6]].tobytes() == ref_v2.tobytes()
    assert br.z_star.tobytes() == z.tobytes()
    assert np.array_equal(br.y_star[2], np.eye(5)[1])
    _, lp_v2, _ = real(z, cols, b)
    for p in np.flatnonzero(unique):
        payoff = x[p] @ b[p]
        k = int(np.flatnonzero(payoff == payoff.max())[0])
        assert np.array_equal(br.y_star[p], np.eye(5)[k])
        assert abs(br.v2_star[p] - payoff[k]) <= 1e-14
        assert abs(br.v2_star[p] - lp_v2[p]) <= 1e-12
        alone = stage._lp_chain(cols[p:p + 1], b[p:p + 1])
        assert alone.v2_star.tobytes() == br.v2_star[p:p + 1].tobytes()
