import itertools

import numpy as np
import pytest

import mgincept as mg
from conftest import chain_game, pure_stage_policy, random_policy
from mgincept.oracle import (GridSpec, grid_attacker_value, grid_victim_value, random_belief,
                             victim_br_vertices)
from mgincept.solver import q_from_v


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
    assert mg.belief_membership(belief, random_policy(rng, 2, 2, 2, 3))
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


def test_budget_and_dimension_guards():
    g = chain_game(seed=18)
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError):
        mg.markov_attacker_best_response(g, random_belief(rng, g, 2), budget=3)
    wrong = random_belief(rng, chain_game(seed=18, states=3), 2)
    with pytest.raises(ValueError):
        mg.markov_attacker_best_response(g, wrong)


def test_invalid_game_rejected_up_front():
    g = chain_game(seed=20)
    broken = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, [0.4, 0.4],
                           g.rewards, g.transitions)
    with pytest.raises(mg.InvalidGameError):
        mg.markov_attacker_best_response(broken, mg.secure_belief(broken))
