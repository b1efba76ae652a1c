import itertools

import numpy as np
import pytest

import mgincept as mg
from conftest import chain_game, integer_reward_game, pure_stage_policy, random_policy
from mgincept.oracle import (GridSpec, belief_membership, grid_attacker_value, grid_victim_value,
                             random_belief, random_game, victim_br_vertices)
from mgincept import solver
from mgincept.solver import STAGE_BUDGET, q_from_v
from mgincept.model import stage_mix_matrix
from mgincept.stage import MAX_BELIEF_POLICIES, nf_attacker_best_response


def test_q_terminal_layer_equals_stage_rewards():
    g = chain_game(seed=1, horizon=2, states=2)
    for player in (1, 2):
        q = q_from_v(g, player, g.horizon - 1, np.zeros(2))
        assert np.array_equal(q, g.rewards[player - 1, g.horizon - 1])


def test_q_constant_continuation_shifts_everything():
    g = chain_game(seed=2, horizon=2, states=2)
    c = 3.25
    q = q_from_v(g, 1, 0, np.full(2, c))
    assert np.allclose(q, g.rewards[0, 0] + c, atol=1e-12)


def test_q_matches_dense_recomputation():
    g = chain_game(seed=3, horizon=2, states=2, n=3, m=2)
    rng = np.random.default_rng(4)
    v_next = rng.uniform(-2.0, 2.0, 2)
    q = q_from_v(g, 2, 1, v_next)
    for s in range(2):
        for a1 in range(3):
            for a2 in range(2):
                direct = g.rewards[1, 1, s, a1, a2] + sum(
                    g.transitions[1, s, a1, a2, t] * v_next[t] for t in range(2)
                )
                assert abs(q[s, a1, a2] - direct) <= 1e-12


def test_q_rejects_bad_inputs():
    g = chain_game(seed=5)
    with pytest.raises(ValueError):
        q_from_v(g, 1, 0, np.zeros(3))
    with pytest.raises(ValueError):
        q_from_v(g, 1, 5, np.zeros(2))
    with pytest.raises(ValueError):
        q_from_v(g, 3, 0, np.zeros(2))


def test_single_step_reduces_to_stage_solve(decoy_game, decoy_beliefs):
    report = mg.markov_attacker_best_response(decoy_game, decoy_beliefs[1])
    assert report.v2_root == pytest.approx(5.0, abs=1e-9)
    assert report.v1_root == pytest.approx(1.0, abs=1e-9)
    report = mg.markov_attacker_best_response(decoy_game, decoy_beliefs[0])
    assert report.v2_root == pytest.approx(0.0, abs=1e-9)


def test_secure_zero_sum_matches_maximin(decoy_game):
    a = decoy_game.rewards[0]
    g = mg.MarkovGame(1, 1, 2, 2, [1.0], np.stack([a, -a]), decoy_game.transitions)
    report = mg.markov_attacker_best_response(g, mg.secure_belief(g))
    assert report.v1_root == pytest.approx(0.5, abs=1e-9)
    assert report.v2_root == pytest.approx(-0.5, abs=1e-9)
    spec = GridSpec(step=1e-3)
    grid = grid_victim_value(np.array(a[0, 0]), spec)
    assert abs(report.v1_root - grid) <= 1e-2


def test_secure_belief_spans_every_policy():
    g = chain_game(seed=6, horizon=2, states=2, n=2, m=3)
    belief = mg.secure_belief(g)
    assert belief.size == 3
    for j, base in enumerate(belief.base):
        assert base.is_deterministic
        assert all(base.action_at(h, s) == j for h in range(2) for s in range(2))
    rng = np.random.default_rng(7)
    assert belief_membership(belief, random_policy(rng, 2, 2, 2, 3))
    single = mg.secure_belief(chain_game(seed=6, horizon=1, states=1, n=2, m=1))
    assert single.size == 1


def test_values_reproducible_and_terminal_zero():
    g = chain_game(seed=8, horizon=3, states=2)
    rng = np.random.default_rng(9)
    belief = random_belief(rng, g, 2)
    a = mg.markov_attacker_best_response(g, belief)
    b = mg.markov_attacker_best_response(g, belief)
    assert np.array_equal(a.v.values, b.v.values)
    assert np.all(a.v.values[:, -1] == 0.0)


def test_stage_resolve_consistency_from_stored_q():
    # re-solving each stage game from the stored payoff tables must
    # reproduce the recorded values
    g = chain_game(seed=10, horizon=3, states=2)
    rng = np.random.default_rng(11)
    belief = random_belief(rng, g, 2)
    report = mg.markov_attacker_best_response(g, belief)
    for h in range(g.horizon):
        for s in range(g.num_states):
            rows = mg.stage_mix_matrix(belief, h, s)
            br = mg.nf_attacker_best_response(rows, report.q.stage(1, h, s),
                                              report.q.stage(2, h, s))
            assert br.z_star == pytest.approx(report.v.values[0, h, s], abs=1e-9)
            assert br.v2_star == pytest.approx(report.v.values[1, h, s], abs=1e-9)


def test_stage_values_match_grid_oracle_per_stage():
    g = chain_game(seed=12, horizon=2, states=2)
    rng = np.random.default_rng(13)
    belief = random_belief(rng, g, 2)
    report = mg.markov_attacker_best_response(g, belief)
    spec = GridSpec(step=1e-3)
    for h in range(g.horizon):
        for s in range(g.num_states):
            rows = mg.stage_mix_matrix(belief, h, s)
            a_prime = report.q.stage(1, h, s) @ rows.T
            assert abs(report.v.values[0, h, s]
                       - grid_victim_value(a_prime, spec)) <= 1e-2
            assert abs(report.v.values[1, h, s]
                       - grid_attacker_value(a_prime, report.q.stage(2, h, s),
                                             report.v.values[0, h, s], spec)) <= 1e-2


def test_attacker_guarantee_holds_against_every_vertex_policy():
    # whatever stagewise best-response vertices the victim mixes over, the
    # returned attacker policy collects at least its promised value
    g = chain_game(seed=14, horizon=2, states=2)
    rng = np.random.default_rng(15)
    belief = random_belief(rng, g, 2)
    report = mg.markov_attacker_best_response(g, belief)
    per_stage_vertices = {}
    for h in range(g.horizon):
        for s in range(g.num_states):
            rows = mg.stage_mix_matrix(belief, h, s)
            a_prime = report.q.stage(1, h, s) @ rows.T
            per_stage_vertices[h, s] = victim_br_vertices(
                a_prime, report.v.values[0, h, s])
    cells = sorted(per_stage_vertices)
    for choice in itertools.product(*(range(len(per_stage_vertices[c])) for c in cells)):
        entries = np.zeros((g.horizon, g.num_states, g.n))
        for (h, s), pick in zip(cells, choice):
            entries[h, s] = np.clip(per_stage_vertices[h, s][pick], 0.0, None)
            entries[h, s] /= entries[h, s].sum()
        victim = mg.MarkovPolicy(1, entries)
        _, v2 = mg.evaluate_policy(g, victim, report.pi2_star).root(g.mu)
        assert v2 >= report.v2_root - 1e-6


def test_singleton_belief_matches_value_iteration_oracle():
    # against a fixed attacker policy the victim side is a plain MDP; an
    # independent value-iteration pass must agree with the stage LPs
    g = chain_game(seed=16, horizon=3, states=3, n=2, m=2)
    rng = np.random.default_rng(17)
    fixed = random_policy(rng, 2, 3, 3, 2)
    report = mg.markov_attacker_best_response(g, mg.BeliefSet((fixed,)))
    v = np.zeros(3)
    for h in range(g.horizon - 1, -1, -1):
        nxt = np.zeros(3)
        for s in range(3):
            best = -np.inf
            for a1 in range(g.n):
                val = 0.0
                for a2 in range(g.m):
                    val += fixed.entries[h, s, a2] * (
                        g.rewards[0, h, s, a1, a2]
                        + g.transitions[h, s, a1, a2] @ v
                    )
                best = max(best, val)
            nxt[s] = best
        v = nxt
        assert np.allclose(report.v.values[0, h], v, atol=1e-9)


def _per_stage_best_response(g, belief):
    """Reference backward pass: one stage solve per (h, s)."""
    H, S = g.horizon, g.num_states
    values = np.zeros((2, H + 1, S))
    pi2 = np.zeros((H, S, g.m))
    for h in range(H - 1, -1, -1):
        q1 = q_from_v(g, 1, h, values[0, h + 1])
        q2 = q_from_v(g, 2, h, values[1, h + 1])
        for s in range(S):
            br = nf_attacker_best_response(stage_mix_matrix(belief, h, s), q1[s], q2[s])
            values[:, h, s] = br.z_star, br.v2_star
            pi2[h, s] = solver.clean_mix(br.y_star)
    return values, pi2


def test_singleton_belief_layers_match_per_stage_reference(monkeypatch):
    # the solver forms a layer's believed columns at once and solves a
    # singleton belief a layer at a time; mixed beliefs check the batched
    # columns, pure ones on integer rewards tie often and take the attacker
    # LP; K = 3 and secure beliefs check the columns the LP chain gets
    real = solver.singleton_stage_solves
    tied = []

    def counted(cols, b):
        cells = real(cols, b)
        tied.extend(cells.tied_brs)
        return cells

    monkeypatch.setattr(solver, "singleton_stage_solves", counted)
    for seed in range(30):
        rng = np.random.default_rng(seed + 300)
        games = (random_game(np.random.default_rng(seed), 3, 5, 4, 4),
                 integer_reward_game(seed))
        for g in games:
            pure = mg.MarkovPolicy.deterministic(
                2, rng.integers(0, g.m, (g.horizon, g.num_states)), g.m)
            for belief in (random_belief(rng, g, 1), mg.BeliefSet((pure,)),
                           random_belief(rng, g, 3), mg.secure_belief(g)):
                values, pi2 = _per_stage_best_response(g, belief)
                report = mg.markov_attacker_best_response(g, belief)
                assert report.v.values.tobytes() == values.tobytes()
                assert report.pi2_star.entries.tobytes() == pi2.tobytes()
    assert tied


def test_overflowing_stage_payoffs_are_rejected():
    # finite rewards whose continuation sum overflows: the closed-form layer
    # solves trust their payoffs to be finite, so q_from_v must refuse them
    rewards = np.zeros((2, 2, 1, 2, 2))
    rewards[0, :, 0] = [[1e308, 1e308], [0.0, -1.0]]
    g = mg.MarkovGame(2, 1, 2, 2, [1.0], rewards, np.ones((2, 1, 2, 2, 1)))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="overflow"):
            mg.policy_inception(g)
        with pytest.raises(ValueError, match="overflow"):
            mg.markov_attacker_best_response(g, mg.BeliefSet((pure_stage_policy(2, 0, 2, 2),)))


def test_budget_and_dimension_guards():
    # H = S = m = 1 with n one past the budget: cheap to build, and a unique
    # best row keeps even an unguarded solve in closed form
    n = STAGE_BUDGET + 1
    rewards = np.zeros((2, 1, 1, n, 1))
    rewards[0, 0, 0, :, 0] = np.arange(n)
    wide = mg.MarkovGame(1, 1, n, 1, [1.0], rewards, np.ones((1, 1, n, 1, 1)))
    with pytest.raises(ValueError, match="solve budget"):
        mg.markov_attacker_best_response(wide, mg.secure_belief(wide))
    g = chain_game(seed=18)
    rng = np.random.default_rng(19)
    wrong = random_belief(rng, chain_game(seed=18, states=3), 2)
    with pytest.raises(ValueError):
        mg.markov_attacker_best_response(g, wrong)


def test_belief_size_cap_checked_before_any_stage_solve(monkeypatch):
    g = chain_game(seed=21)
    belief = random_belief(np.random.default_rng(22), g, MAX_BELIEF_POLICIES + 1)

    def no_stage_solve(*args):
        raise AssertionError("stage solve reached")

    monkeypatch.setattr(solver, "singleton_stage_solves", no_stage_solve)
    monkeypatch.setattr(solver, "_lp_chain", no_stage_solve)
    with pytest.raises(ValueError, match="exceeds cap"):
        mg.markov_attacker_best_response(g, belief)


def test_invalid_game_rejected_up_front():
    g = chain_game(seed=20)
    broken = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, [0.4, 0.4],
                           g.rewards, g.transitions)
    with pytest.raises(mg.InvalidGameError):
        mg.markov_attacker_best_response(broken, mg.secure_belief(broken))
