import numpy as np
import pytest

import mgincept as mg
from conftest import integer_reward_game
from mgincept import stage
from mgincept.oracle import (GridSpec, brute_force_inception, grid_victim_value, simplex_grid,
                             victim_br_vertices)
from mgincept.stage import (
    StageSolveError,
    attacker_br_lp,
    nf_attacker_best_response,
    singleton_stage_solves,
    victim_br_lp,
)

MATCHING = np.array([[0.0, 1.0], [1.0, 0.0]])
DECOY = np.array([[5.0, 0.0], [0.0, 0.0]])


def test_victim_br_single_column_cases():
    x, z = victim_br_lp(np.array([[0.0], [1.0]]))
    assert z == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(x, [0.0, 1.0], atol=1e-9)
    x, z = victim_br_lp(np.array([[1.0], [0.0]]))
    assert z == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(x, [1.0, 0.0], atol=1e-9)


def test_victim_br_zero_matrix():
    _, z = victim_br_lp(np.zeros((3, 2)))
    assert z == pytest.approx(0.0, abs=1e-9)


def test_victim_br_full_matching_game():
    # both pure columns believed: unique optimum is the even mix at 0.5,
    # cross-checked against the grid oracle
    x, z = victim_br_lp(MATCHING)
    assert z == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)
    grid = grid_victim_value(MATCHING, GridSpec(step=1e-3))
    assert abs(z - grid) <= 1.0 * 1e-3 + 1e-9


def test_victim_br_rejects_nonfinite():
    with pytest.raises(ValueError):
        nf_attacker_best_response(np.array([[1.0, 0.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
                                  DECOY)


def test_attacker_br_decoy_columns():
    # belief pins the victim to its matching response; the attacker collects
    # 5 only when the victim was baited to row 0
    a_prime = MATCHING @ np.array([[1.0, 0.0]]).T
    br = attacker_br_lp(1.0, a_prime, DECOY)
    assert br.v2_star == pytest.approx(0.0, abs=1e-9)
    a_prime = MATCHING @ np.array([[0.0, 1.0]]).T
    br = attacker_br_lp(1.0, a_prime, DECOY)
    assert br.v2_star == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(br.y_star, [1.0, 0.0], atol=1e-9)
    assert np.all(br.w_star >= -1e-12)


def test_attacker_br_zero_payoffs():
    a_prime = np.array([[0.2], [0.8]])
    _, z = victim_br_lp(a_prime)
    br = attacker_br_lp(z, a_prime, np.zeros((2, 3)))
    assert br.v2_star == pytest.approx(0.0, abs=1e-9)
    assert abs(br.y_star.sum() - 1.0) <= 1e-9


def test_attacker_br_flags_inconsistent_victim_value():
    # a z* above the victim's optimum empties the best-response polytope and
    # the dual program diverges
    a_prime = MATCHING @ np.array([[1.0, 0.0]]).T
    with pytest.raises(StageSolveError):
        attacker_br_lp(2.0, a_prime, DECOY)


def test_best_response_chain_composes_both_solves():
    br = nf_attacker_best_response(np.array([[1.0, 0.0]]), MATCHING, DECOY)
    assert (br.z_star, br.v2_star) == (pytest.approx(1.0, abs=1e-9),
                                       pytest.approx(0.0, abs=1e-9))
    br = nf_attacker_best_response(np.array([[0.0, 1.0]]), MATCHING, DECOY)
    assert br.v2_star == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(br.y_star, [1.0, 0.0], atol=1e-9)
    br = nf_attacker_best_response(np.array([[0.3, 0.7]]), np.zeros((2, 2)),
                                   np.zeros((2, 2)))
    assert (br.z_star, br.v2_star) == (0.0, 0.0)


def test_best_response_validates_rows_and_cap():
    with pytest.raises(ValueError):
        nf_attacker_best_response(np.array([[0.5, 0.4]]), MATCHING, DECOY)
    rows = np.tile([1.0, 0.0], (65, 1))
    with pytest.raises(ValueError):
        nf_attacker_best_response(rows, MATCHING, DECOY)


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
        br = nf_attacker_best_response(rows, a, b)
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
        _, z = victim_br_lp(a_prime)
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
        _, z_sub = victim_br_lp(a_full[:, :k_sub])
        _, z_full = victim_br_lp(a_full)
        assert z_sub >= z_full - 1e-9


def test_attacker_beats_own_security_value():
    # exploiting the belief is at least as good as playing blind maximin,
    # whose value we bound from below with a grid
    rng = np.random.default_rng(84)
    spec = GridSpec(step=1e-2)
    for _ in range(15):
        n, m, k = (int(rng.integers(1, 4)) for _ in range(3))
        rows, a, b = _random_stage(rng, n, m, k)
        br = nf_attacker_best_response(rows, a, b)
        grid = simplex_grid(m, spec.resolution)
        security = float((grid @ b.T).min(axis=1).max())
        assert br.v2_star >= security - 1e-7


def test_singleton_closed_form_matches_lp_chain(monkeypatch):
    # a singleton belief with one best reply row is solved without any LP;
    # the LP chain on the same stage is the reference
    rng = np.random.default_rng(85)

    def no_lp(*args):
        raise AssertionError("closed-form stage ran an LP")

    monkeypatch.setattr(stage, "victim_br_lp", no_lp)
    monkeypatch.setattr(stage, "attacker_br_lp", no_lp)
    for trial in range(200):
        n, m = (int(rng.integers(1, 7)) for _ in range(2))
        rows, a, b = _random_stage(rng, n, m, 1)
        if trial % 2:
            rows = np.eye(m)[[rng.integers(m)]]
        br = nf_attacker_best_response(rows, a, b)
        col = a @ rows[0]
        _, z = victim_br_lp(col[:, None])
        ref = attacker_br_lp(z, col[:, None], b)
        scale = max(1.0, np.abs(a).max(), np.abs(b).max())
        assert abs(br.z_star - z) <= 1e-9 * scale
        assert abs(br.v2_star - ref.v2_star) <= 1e-9 * scale
        # (y*, w*, alpha*) is feasible for attacker_br_lp's program, whose
        # row i reads col_i w - alpha <= (b y)_i; residuals are relative to
        # the largest term
        y, w, alpha = br.y_star, br.w_star[0], br.alpha_star
        assert np.array_equal(y, np.eye(m)[np.argmax(y)]) and w >= 0.0
        terms = max(scale, np.abs(col).max() * w, abs(alpha))
        assert np.all(col * w - alpha - b @ y <= 1e-12 * terms)
        assert abs(br.z_star * w - alpha - br.v2_star) <= 1e-12 * terms


def test_singleton_exact_row_tie_keeps_the_lp_maximin():
    # rows 0 and 1 both best-reply to fake column 0; the victim may pick
    # either, so the attacker can guarantee only the even split
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([[5.0, 0.0], [0.0, 5.0]])
    br = nf_attacker_best_response(np.array([[1.0, 0.0]]), a, b)
    assert br.z_star == pytest.approx(1.0, abs=1e-9)
    assert br.v2_star == pytest.approx(2.5, abs=1e-9)
    assert np.allclose(br.y_star, [0.5, 0.5], atol=1e-9)


def test_tied_singleton_cells_run_no_victim_lp(monkeypatch):
    # a singleton stage's victim value is its column maximum: the searches
    # and the solver settle tied cells with the attacker LP at that exact
    # maximum, and never run the victim LP
    real = stage.attacker_br_lp
    tied = []

    def no_lp(*args):
        raise AssertionError("singleton stage ran the victim LP")

    def checked(z_star, a_prime, b):
        tied.append(z_star)
        assert np.float64(z_star).tobytes() == a_prime.max().tobytes()
        return real(z_star, a_prime, b)

    monkeypatch.setattr(stage, "victim_br_lp", no_lp)
    monkeypatch.setattr(stage, "attacker_br_lp", checked)
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


def test_singleton_stage_solves_match_per_cell_solves():
    # one layer of S stages with m believed columns each: cell (s, j) is the
    # pure fake action j at state s, believed column q1[s][:, j], against a
    # loop of per-cell stage solves; duplicated rows and integer payoffs
    # force exact best-reply ties, which the layer solve settles with the
    # attacker LP at the exact column maximum
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
        cells = singleton_stage_solves(q1.transpose(0, 2, 1), q2)
        tied_brs = dict(zip(zip(*np.nonzero(cells.tied)), cells.tied_brs))
        for s in range(S):
            for j in range(m):
                col = q1[s][:, j]
                br = nf_attacker_best_response(np.eye(m)[j:j + 1], q1[s], q2[s])
                assert cells.z[s, j].tobytes() == col.max().tobytes()
                assert cells.z[s, j].tobytes() == np.float64(br.z_star).tobytes()
                assert cells.v2[s, j].tobytes() == np.float64(br.v2_star).tobytes()
                assert cells.tied[s, j] == (np.count_nonzero(col == col.max()) > 1)
                if cells.tied[s, j]:
                    tied += 1
                    assert np.array_equal(tied_brs.pop((s, j)).y_star, br.y_star)
                    continue
                unique += 1
                assert np.array_equal(np.eye(m)[cells.k_star[s, j]], br.y_star)
                assert cells.i_star[s, j] == np.argmax(col)
        assert not tied_brs
    assert tied > 0 and unique > 0
