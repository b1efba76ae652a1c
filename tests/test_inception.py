import re
import tracemalloc

import numpy as np
import pytest

import mgincept as mg
from conftest import (
    chain_game,
    continuation_tradeoff_game,
    integer_reward_game,
    pure_stage_policy,
    single_step_game,
    stage_solve,
    watch_tied_cells,
)
from mgincept import inception
from mgincept.oracle import brute_force_inception, random_game
from mgincept.solver import q_from_v


def test_decoy_game_prefers_the_baiting_column(decoy_game):
    result = mg.policy_inception(decoy_game)
    assert result.pi2_dagger.action_at(0, 0) == 1
    assert result.v2_root == pytest.approx(5.0, abs=1e-9)
    assert result.v1_root == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(result.candidate_values[0, 0], [0.0, 5.0], atol=1e-9)
    assert result.v_hat.values[1, 0, 0] == result.candidate_values[0, 0].max()


def test_indifferent_attacker_breaks_ties_low(decoy_game):
    g = mg.MarkovGame(1, 1, 2, 2, [1.0],
                      np.stack([decoy_game.rewards[0], np.zeros((1, 1, 2, 2))]),
                      decoy_game.transitions)
    result = mg.policy_inception(g)
    assert result.pi2_dagger.action_at(0, 0) == 0
    assert result.v2_root == 0.0


def test_matches_enumeration_on_pinned_random_games():
    # seeds where the stagewise pass is exhaustively optimal (cross-checked
    # both directions; see the companion test for where it is not)
    for seed in (0, 1, 2, 3, 4, 5):
        g = chain_game(seed=seed, horizon=2, states=2)
        greedy = mg.policy_inception(g)
        policy, value = brute_force_inception(g)
        assert greedy.v2_root == pytest.approx(value, abs=1e-8)


def test_greedy_value_is_always_realizable_never_above_enumeration():
    # the backward pass returns the value of an actual fake policy, so the
    # enumeration maximum can never be smaller
    for seed in range(30):
        g = chain_game(seed=seed, horizon=2, states=2)
        greedy = mg.policy_inception(g).v2_root
        _, value = brute_force_inception(g)
        assert greedy <= value + 1e-8


def test_stagewise_choice_can_be_dominated_by_continuation_tradeoff():
    g = continuation_tradeoff_game()
    greedy = mg.policy_inception(g)
    policy, value = brute_force_inception(g)
    assert greedy.v2_root == pytest.approx(5.0, abs=1e-9)
    assert value == pytest.approx(100.0, abs=1e-9)
    assert policy.action_at(1, 2) == 1
    # the enumerated winner is itself reproducible through the exploit path
    assert mg.exploit_fixed_fake(g, policy).v2_root == pytest.approx(value, abs=1e-9)


def test_reward_design_single_step_coefficient(decoy_game):
    pol = pure_stage_policy(2, 1, 2)
    fake = mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=0.5), decoy_game)
    assert fake.shape == (1, 1, 2, 2)
    assert np.array_equal(fake[0, 0], [[0.0, 0.5], [0.0, 0.5]])


def test_reward_design_two_step_coefficients():
    g = chain_game(seed=21, horizon=2, states=2)
    pol = mg.MarkovPolicy.deterministic(2, [[0, 1], [1, 0]], 2)
    fake = mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=1.0), g)
    assert fake[0, 0, 0, 0] == 3.0 and fake[0, 0, 0, 1] == 0.0
    assert fake[1, 0, 0, 1] == 1.0 and fake[1, 0, 0, 0] == 0.0


def test_reward_design_rejects_degenerate_inputs(decoy_game):
    with pytest.raises(ValueError):
        mg.InceptionConfig(iota=0.0)
    with pytest.raises(ValueError):
        mg.InceptionConfig(iota=-1.0)
    mixed = mg.MarkovPolicy(2, [[[0.5, 0.5]]])
    with pytest.raises(ValueError):
        mg.design_dominant_rewards(mixed, mg.InceptionConfig(iota=1.0), decoy_game)


def test_designed_rewards_pass_dominance_check_on_random_triples():
    rng = np.random.default_rng(22)
    for trial in range(30):
        h = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        g = random_game(rng, h, s, n, m)
        actions = rng.integers(0, m, (h, s))
        pol = mg.MarkovPolicy.deterministic(2, actions, m)
        iota = float(rng.choice([0.1, 1.0, 10.0]))
        fake = mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=iota), g)
        ok, witness = mg.check_iota_dominance(g.with_attacker_rewards(fake), pol, iota)
        assert ok, f"trial {trial}: witness {witness}"


def test_dominance_check_fails_without_any_gap(decoy_game):
    g = decoy_game.with_attacker_rewards(np.zeros((1, 1, 2, 2)))
    ok, witness = mg.check_iota_dominance(g, pure_stage_policy(2, 0, 2), 0.5)
    assert not ok
    assert witness == (0, 0, 0, 1)  # scan starts at the last step


def test_dominance_check_exact_gap_boundary():
    # column 0 beats column 1 by exactly iota in every row
    iota = 0.75
    fake = np.array([[[[iota, 0.0], [2.0 + iota, 2.0]]]])
    g = chain_game(seed=23, horizon=1, states=1).with_attacker_rewards(fake)
    pol = pure_stage_policy(2, 0, 2)
    ok, _ = mg.check_iota_dominance(g, pol, iota)
    assert ok
    ok, witness = mg.check_iota_dominance(g, pol, iota + 1e-6)
    assert not ok and witness is not None


def test_dominance_check_on_decoy_fake_rewards(decoy_game):
    # the classic bait: advertise column 1 sweetened by a small margin
    eps = 0.1
    fake = np.array([[[[5.0, 5.0 + eps], [0.0, eps]]]])
    g = decoy_game.with_attacker_rewards(fake)
    pol = pure_stage_policy(2, 1, 2)
    ok, _ = mg.check_iota_dominance(g, pol, eps)
    assert ok
    ok, _ = mg.check_iota_dominance(g, pol, 2 * eps)
    assert not ok


def test_dominance_accounts_for_continuation_gap():
    # deviating once steers play into a state whose remaining fake rewards
    # are huge, so a flat one-step bonus cannot certify dominance; the
    # designed growing bonuses do
    iota = 1.0
    horizon, states, n, m = 2, 2, 1, 2
    transitions = np.zeros((horizon, states, n, m, states))
    transitions[:, :, :, :, 0] = 1.0
    transitions[0, 0, 0, 1] = [0.0, 1.0]  # deviation at the start reaches state 1
    g = mg.MarkovGame(horizon, states, n, m, [1.0, 0.0],
                      np.zeros((2, horizon, states, n, m)), transitions)
    pol = mg.MarkovPolicy.deterministic(2, [[0, 0], [0, 0]], m)
    lure = np.zeros((horizon, states, n, m))
    lure[:, :, :, 0] = iota       # flat bonus on the followed column
    lure[1, 1, :, 0] = 10.0       # but state 1's last step is worth far more
    ok, witness = mg.check_iota_dominance(g.with_attacker_rewards(lure), pol, iota)
    assert not ok and witness == (0, 0, 0, 1)
    designed = mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=iota), g)
    ok, _ = mg.check_iota_dominance(g.with_attacker_rewards(designed), pol, iota)
    assert ok


def test_recover_dominant_policy_round_trips(decoy_game):
    g = chain_game(seed=25, horizon=2, states=2)
    pol = mg.MarkovPolicy.deterministic(2, [[1, 0], [0, 1]], 2)
    fake = mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=0.5), g)
    recovered = mg.recover_dominant_policy(g.with_attacker_rewards(fake), 0.5)
    assert recovered is not None
    assert np.array_equal(recovered.entries, pol.entries)
    assert mg.recover_dominant_policy(
        decoy_game.with_attacker_rewards(np.zeros((1, 1, 2, 2))), 0.5) is None


def test_exploit_fixed_fake_reproduces_decoy_outcomes(decoy_game):
    assert mg.exploit_fixed_fake(
        decoy_game, pure_stage_policy(2, 1, 2)).v2_root == pytest.approx(5.0, abs=1e-9)
    assert mg.exploit_fixed_fake(
        decoy_game, pure_stage_policy(2, 0, 2)).v2_root == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        mg.exploit_fixed_fake(decoy_game, mg.MarkovPolicy(2, [[[0.5, 0.5]]]))
    with pytest.raises(ValueError, match=re.escape(
            "policy shape (1, 1, 3) does not match game (1, 1, 2)")):
        mg.exploit_fixed_fake(decoy_game, pure_stage_policy(2, 1, 3))


def test_a_boolean_iota_is_rejected(decoy_game):
    # True would otherwise act as iota = 1
    pol = pure_stage_policy(2, 1, 2)
    for iota in (True, np.True_):
        with pytest.raises(ValueError, match="iota must be strictly positive"):
            mg.InceptionConfig(iota=iota)
        with pytest.raises(ValueError, match="iota must be finite and nonnegative"):
            mg.check_iota_dominance(decoy_game, pol, iota)
        with pytest.raises(ValueError, match="iota must be finite and nonnegative"):
            mg.recover_dominant_policy(decoy_game, iota)


def test_exploiting_the_chosen_fake_recovers_the_advertised_value():
    for seed in (26, 27, 28):
        g = chain_game(seed=seed, horizon=2, states=2)
        result = mg.policy_inception(g)
        replay = mg.exploit_fixed_fake(g, result.pi2_dagger)
        assert replay.v2_root == pytest.approx(result.v2_root, abs=1e-9)
        assert replay.v1_root == pytest.approx(result.v1_root, abs=1e-9)


def test_fake_choice_is_invariant_under_positive_scaling():
    # the maximizing fake-action sets are scale-free; on instances whose
    # maximizers are strict at every stage (exact candidate ties can resolve
    # either way once rounding enters) the whole returned policy and its
    # scaled values must match
    for seed in (4, 22):  # pinned: strict argmax gap > 1e-6 at every (h, s)
        g = chain_game(seed=seed, horizon=2, states=2)
        base = mg.policy_inception(g)
        gaps = [np.sort(base.candidate_values[h, s])[-2:]
                for h in range(2) for s in range(2)]
        assert all(top - second > 1e-6 for second, top in gaps)
        for c in (0.5, 2.0, 10.0):
            scaled_game = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu,
                                        c * g.rewards, g.transitions)
            scaled = mg.policy_inception(scaled_game)
            assert np.array_equal(scaled.pi2_dagger.entries, base.pi2_dagger.entries)
            assert np.allclose(scaled.candidate_values, c * base.candidate_values,
                               atol=1e-9 * max(1.0, c))


def test_attacker_value_ties_break_to_lowest_index():
    # fake actions that steer the victim to the same reply row tie exactly;
    # values within 1e-9 of the best must be bitwise equal to it and the
    # pick must be the first of them
    tied = 0
    for seed in range(50):
        result = mg.policy_inception(random_game(np.random.default_rng(seed), 3, 4, 3, 3))
        for h in range(3):
            for s in range(4):
                cand = result.candidate_values[h, s]
                near = np.flatnonzero(cand >= cand.max() - 1e-9)
                tied += near.size > 1
                assert np.all(cand[near] == cand.max()), (seed, h, s, cand)
                assert result.pi2_dagger.action_at(h, s) == near[0], (seed, h, s, cand)
    assert tied > 0


@pytest.mark.parametrize("seed", [63, 85, 109, 132])
def test_inception_and_exploit_agree_on_former_stage_solve_faults(seed):
    # games whose LP-based candidate solves raised or lost ~1e-7
    g = random_game(np.random.default_rng(seed), 5, 10, 4, 4)
    result = mg.policy_inception(g)
    replay = mg.exploit_fixed_fake(g, result.pi2_dagger)
    assert replay.v2_root == pytest.approx(result.v2_root, abs=1e-9)


def test_last_step_candidate_is_the_best_reply_row_maximum():
    # game 63, (h=4, s=0, j=0): the victim's best reply to fake column 0 is
    # unique by only 1.5e-6, and the candidate is that row's best payoff
    g = random_game(np.random.default_rng(63), 5, 10, 4, 4)
    q1, q2 = g.rewards[0, 4, 0], g.rewards[1, 4, 0]
    i_star = int(np.argmax(q1[:, 0]))
    candidate = mg.policy_inception(g).candidate_values[4, 0, 0]
    assert candidate == pytest.approx(q2[i_star].max(), abs=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inception_completes_on_larger_random_games(seed):
    g = random_game(np.random.default_rng(seed), 10, 20, 6, 6)
    result = mg.policy_inception(g)
    replay = mg.exploit_fixed_fake(g, result.pi2_dagger)
    assert replay.v2_root == pytest.approx(result.v2_root, abs=1e-9)


def _per_cell_inception(g):
    """Reference search: one stage solve per (h, s, fake action j)."""
    H, S, m = g.horizon, g.num_states, g.m
    values = np.zeros((2, H + 1, S))
    candidates = np.zeros((H, S, m))
    actions = np.zeros((H, S), dtype=int)
    for h in range(H - 1, -1, -1):
        q1, q2 = q_from_v(g, h, values[:, h + 1])
        for s in range(S):
            v1 = np.zeros(m)
            for j in range(m):
                br = stage_solve(np.eye(m)[j:j + 1], q1[s], q2[s])
                v1[j], candidates[h, s, j] = br.z_star, br.v2_star
            actions[h, s] = j_star = int(np.argmax(candidates[h, s]))
            values[:, h, s] = v1[j_star], candidates[h, s, j_star]
    return actions, values, candidates


def test_search_matches_per_cell_reference(monkeypatch):
    # the search solves a layer at a time; integer rewards tie often, and the
    # search must settle the tied cells with the maximin LP over exactly the
    # tied rows, never the attacker LP
    maximins = watch_tied_cells(monkeypatch, inception)
    tied = 0
    for seed in range(30):
        for g in (random_game(np.random.default_rng(seed), 3, 5, 4, 4),
                  integer_reward_game(seed)):
            actions, values, candidates = _per_cell_inception(g)
            before = len(maximins)
            result = mg.policy_inception(g)
            tied += len(maximins) - before
            assert np.array_equal(np.argmax(result.pi2_dagger.entries, axis=2), actions)
            assert result.v_hat.values.tobytes() == values.tobytes()
            assert result.candidate_values.tobytes() == candidates.tobytes()
    assert tied


def test_tied_cell_candidate_is_exact_and_lowest_index_wins():
    # (h=2, s=0): fake action 0 ties the victim's rows 1 and 2, whose
    # maximin is exactly 1; fake actions 1 and 2 steer it to row 1 alone,
    # worth max q2[1] = 1.  All three candidates are equal, so the pick is 0
    g = integer_reward_game(48, 3, 4, 3, 3)
    result = mg.policy_inception(g)
    assert result.candidate_values[2, 0].tobytes() == np.ones(3).tobytes()
    assert result.pi2_dagger.action_at(2, 0) == 0


@pytest.mark.parametrize("size, seed, cell", [((3, 4, 3, 3), 69, (2, 1)),
                                              ((3, 4, 3, 3), 75, (2, 1)),
                                              ((2, 2, 3, 3), 43, (1, 0))])
def test_tied_cell_at_a_pure_rows_guarantee_is_exact(size, seed, cell):
    # a tied cell whose maximin is a pure attacker action's guarantee (here
    # 1.0) ends at that action after degenerate pivots only, if any, so its
    # value is that guarantee exactly: it equals the untied candidates it
    # ties with bit for bit and the lowest index wins
    result = mg.policy_inception(integer_reward_game(seed, *size))
    cand = result.candidate_values[cell]
    near = np.flatnonzero(cand >= cand.max() - 1e-9)
    assert near.size > 1 and np.all(cand[near] == cand.max())
    assert result.pi2_dagger.action_at(*cell) == near[0]


def _loop_check_iota_dominance(g, pi2, iota):
    """Reference dominance check, one (h, s, a1, a2) at a time.  A follow
    beaten by deviate + iota minus the step's rounding allowance is a
    violation: 2 (H - h) (S + 1) eps times the sum of the largest |r2| over
    the steps from h on."""
    H, S, n, m = g.horizon, g.num_states, g.n, g.m
    r2 = g.rewards[1]
    low, high = np.zeros(S), np.zeros(S)
    scale = 0.0
    for h in range(H - 1, -1, -1):
        cont_low = g.transitions[h] @ low
        deviate = r2[h] + g.transitions[h] @ high
        scale += max(abs(r) for r in r2[h].ravel())
        slack = 2 * (H - h) * (S + 1) * np.finfo(float).eps * scale
        new_low = np.zeros(S)
        for s in range(S):
            j = pi2.action_at(h, s)
            follow = r2[h, s, :, j] + cont_low[s, :, j]
            for a1 in range(n):
                for a2 in range(m):
                    if a2 != j and follow[a1] < deviate[s, a1, a2] + iota - slack:
                        return False, (h, s, a1, a2)
            new_low[s] = follow.min()
        low, high = new_low, deviate.max(axis=(1, 2))
    return True, None


def _loop_recover_dominant_policy(g, iota):
    actions = np.zeros((g.horizon, g.num_states), dtype=int)
    for h in range(g.horizon):
        for s in range(g.num_states):
            actions[h, s] = int(np.argmax(g.rewards[1, h, s].min(axis=0)))
    candidate = mg.MarkovPolicy.deterministic(2, actions, g.m)
    return candidate if _loop_check_iota_dominance(g, candidate, iota)[0] else None


def test_dominance_check_and_recovery_match_loop_reference():
    rng = np.random.default_rng(30)
    outcomes = []
    for trial in range(60):
        H, S, n, m = (int(rng.integers(1, 4)) for _ in range(4))
        g = random_game(rng, H, S, n, m)
        pol = mg.MarkovPolicy.deterministic(2, rng.integers(0, m, (H, S)), m)
        designed = g.with_attacker_rewards(
            mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=1.0), g))
        for game in (g, designed):
            for iota in (0.0, 1e-3, 1.0):
                got = mg.check_iota_dominance(game, pol, iota)
                assert got == _loop_check_iota_dominance(game, pol, iota), (trial, iota)
                recovered = mg.recover_dominant_policy(game, iota)
                want = _loop_recover_dominant_policy(game, iota)
                assert (recovered is None) == (want is None)
                if want is not None:
                    assert np.array_equal(recovered.entries, want.entries)
                outcomes.append((got[0], want is not None))
    assert {ok for ok, _ in outcomes} == {True, False}
    assert {found for _, found in outcomes} == {True, False}


SCALES = 10.0 ** np.arange(-12, 13, 2)


def _outcomes_across_scales(g, pol, iota):
    """The check's (ok, witness) and the recovered policy on g with its
    rewards scaled by c, at iota scaled by c, one set entry per outcome."""
    outcomes = set()
    for c in SCALES:
        game = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu, c * g.rewards,
                             g.transitions)
        recovered = mg.recover_dominant_policy(game, c * iota)
        outcomes.add((mg.check_iota_dominance(game, pol, c * iota),
                      None if recovered is None else recovered.entries.tobytes()))
    return outcomes


def test_dominance_verdicts_do_not_depend_on_reward_units():
    # an absolute rounding allowance of 1e-9 accepted every one of these
    # policies once rewards and iota were scaled below 1e-10; the allowance
    # now scales with the rewards, so no outcome moves from 1e-12 to 1e12
    for seed in range(200):
        g = random_game(np.random.default_rng(seed), 3, 3, 2, 2)
        pol = mg.MarkovPolicy.deterministic(
            2, np.random.default_rng(seed + 500).integers(0, 2, (3, 3)), 2)
        (((ok, _), _),) = _outcomes_across_scales(g, pol, 0.1)
        assert not ok, seed
        designed = g.with_attacker_rewards(
            mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=0.1), g))
        assert _outcomes_across_scales(designed, pol, 0.1) == {
            ((True, None), pol.entries.tobytes())}, seed


def test_dominance_verdicts_on_the_incept_pool_do_not_depend_on_reward_units():
    # the incept benchmark's games: the fake policy is refused on the true
    # rewards and certified, and read back, on the designed ones, at every scale
    for seed in range(200):
        g = random_game(np.random.default_rng(seed), 5, 10, 4, 4)
        pol = mg.policy_inception(g).pi2_dagger
        (((ok, _), _),) = _outcomes_across_scales(g, pol, 1.0)
        assert not ok, seed
        designed = g.with_attacker_rewards(
            mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=1.0), g))
        assert _outcomes_across_scales(designed, pol, 1.0) == {
            ((True, None), pol.entries.tobytes())}, seed


def test_dominance_check_rejects_policies_of_another_shape():
    g = random_game(np.random.default_rng(0), 2, 2, 2, 2)
    pol = mg.MarkovPolicy.deterministic(2, np.zeros((2, 2), dtype=int), 2)
    fake = g.with_attacker_rewards(
        mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=1.0), g))
    assert mg.check_iota_dominance(fake, pol, 1.0) == (True, None)
    for wrong, shape in ((mg.MarkovPolicy.deterministic(2, np.zeros((3, 5), dtype=int), 2),
                          (3, 5, 2)),
                         (mg.MarkovPolicy.deterministic(2, np.zeros((2, 2), dtype=int), 3),
                          (2, 2, 3))):
        with pytest.raises(ValueError, match=re.escape(
                f"policy shape {shape} does not match game (2, 2, 2)")):
            mg.check_iota_dominance(fake, wrong, 1.0)


def test_dominance_check_rejects_inputs_it_cannot_certify():
    # every comparison with NaN is false and every one against -inf true, so
    # these inputs would otherwise pass as dominant
    g = random_game(np.random.default_rng(0), 5, 10, 4, 4)
    fake = mg.policy_inception(g).pi2_dagger
    assert mg.check_iota_dominance(g, fake, 1.0)[0] is False
    assert mg.check_iota_dominance(g, fake, 0.0)[0] is False
    for iota in (np.nan, -np.inf, np.inf, -1e-3):
        with pytest.raises(ValueError, match="iota must be finite and nonnegative"):
            mg.check_iota_dominance(g, fake, iota)
    with pytest.raises(ValueError, match="iota must be finite and nonnegative"):
        mg.recover_dominant_policy(g, np.nan)
    nan_rewards = g.with_attacker_rewards(np.full(g.rewards[1].shape, np.nan))
    with pytest.raises(ValueError, match="rewards or transitions contain non-finite"):
        mg.check_iota_dominance(nan_rewards, fake, 1.0)
    with pytest.raises(ValueError, match="rewards or transitions contain non-finite"):
        mg.recover_dominant_policy(nan_rewards, 1.0)
    transitions = np.array(g.transitions)
    transitions[2, 3, 0, 1, 4] = np.inf
    bad_moves = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu, g.rewards, transitions)
    with pytest.raises(ValueError, match="rewards or transitions contain non-finite"):
        mg.check_iota_dominance(bad_moves, fake, 1.0)


def _fresh(g):
    """A new game with g's arrays, so nothing worked out on g is reused."""
    return mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu, g.rewards, g.transitions)


def test_each_fake_game_keeps_its_own_optimistic_table():
    # two fake games built from one base game: each is checked against its
    # own rewards, whichever is checked first and however often
    g = random_game(np.random.default_rng(0), 3, 4, 3, 3)
    pol = mg.policy_inception(g).pi2_dagger
    designed = g.with_attacker_rewards(
        mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=1.0), g))
    flat = g.with_attacker_rewards(np.zeros(g.rewards[1].shape))
    for _ in range(2):
        assert mg.check_iota_dominance(flat, pol, 1.0) == _loop_check_iota_dominance(flat, pol, 1.0)
        assert mg.check_iota_dominance(flat, pol, 1.0)[0] is False
        assert mg.check_iota_dominance(designed, pol, 1.0) == (True, None)
        assert mg.recover_dominant_policy(flat, 1.0) is None
        assert np.array_equal(mg.recover_dominant_policy(designed, 1.0).entries, pol.entries)
    assert mg.check_iota_dominance(g, pol, 1.0) == mg.check_iota_dominance(_fresh(g), pol, 1.0)
    tables = [game._optimistic_deviations for game in (g, designed, flat)]
    assert not any(a.flags.writeable for table in tables for a in table)
    assert not np.array_equal(tables[1][0], tables[2][0])


def test_recovery_before_the_check_matches_fresh_calls():
    # recovery fills the game's table first; the check that follows on the
    # same game, at any iota, gives what a check on a fresh copy gives
    outcomes = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_game(rng, 3, 3, 2, 3)
        pol = mg.MarkovPolicy.deterministic(2, rng.integers(0, 3, (3, 3)), 3)
        fake = mg.design_dominant_rewards(pol, mg.InceptionConfig(iota=1.0), g)
        game = g.with_attacker_rewards(fake + rng.uniform(-0.6, 0.6, fake.shape))
        for iota in (0.0, 0.1, 1.0):
            recovered = mg.recover_dominant_policy(game, iota)
            got = mg.check_iota_dominance(game, pol, iota)
            assert got == mg.check_iota_dominance(_fresh(game), pol, iota), (seed, iota)
            fresh = mg.recover_dominant_policy(_fresh(game), iota)
            assert (recovered is None) == (fresh is None), (seed, iota)
            if fresh is not None:
                assert np.array_equal(recovered.entries, fresh.entries)
            outcomes.add((got[0], recovered is not None))
    assert {ok for ok, _ in outcomes} == {found for _, found in outcomes} == {True, False}


def test_a_game_that_cannot_be_certified_raises_on_every_call():
    # the refusal is raised where the table is worked out, so it is never
    # kept in place of one: every later check or recovery raises again
    g = random_game(np.random.default_rng(0), 2, 2, 2, 2)
    pol = mg.MarkovPolicy.deterministic(2, np.zeros((2, 2), dtype=int), 2)
    rewards = np.array(g.rewards[1])
    rewards[0, 1, 0, 1] = np.nan
    bad = g.with_attacker_rewards(rewards)
    for call in (lambda: mg.check_iota_dominance(bad, pol, 1.0),
                 lambda: mg.recover_dominant_policy(bad, 1.0)) * 2:
        with pytest.raises(ValueError, match="^player-2 rewards or transitions contain "
                                             "non-finite entries$"):
            call()
    assert "_optimistic_deviations" not in vars(bad)


def test_fake_searches_store_each_stage_payoff_once():
    # one state, one step, 4096 fake actions: 32 KB of payoffs per player;
    # a copy of the attacker's matrix per candidate action would be 128 MB
    g = single_step_game(np.zeros((1, 4096)), np.zeros((1, 4096)))
    for search in (mg.policy_inception, brute_force_inception):
        tracemalloc.start()
        try:
            search(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (search.__name__, peak)


@pytest.mark.parametrize("size", [(2, 2, 3, 3), (3, 2, 2, 2), (2, 3, 2, 2)],
                         ids=["H2S2-3x3", "H3S2-2x2", "H2S3-2x2"])
def test_suffix_rows_keep_their_own_values_whatever_rows_are_dropped(size):
    # a search that prunes suffix rows relies on each row's values being
    # those of its own fake policy: drop a random half of the enumerated
    # rows at every layer, carry each row's action digits alongside, and
    # exploit every surviving policy on its own
    H, S, _, m = size
    choices = np.indices((m,) * S).reshape(S, -1).T  # (m^S, S) joint choices
    states = np.arange(S)
    for seed in range(10):
        g = integer_reward_game(seed, *size)
        rng = np.random.default_rng(seed)
        digits = np.zeros((1, 0, S), dtype=int)  # row r plays digits[r, t] at step h + t

        def keep(h, z, v2):
            nonlocal digits
            rows = z.shape[0] * len(choices)
            kept = np.sort(rng.permutation(rows)[:rows // 2])
            b, c = np.divmod(kept, len(choices))
            digits = np.concatenate([choices[c][:, None], digits[b]], axis=1)
            pick = (b[:, None], states, choices[c])
            return np.array([z[pick], v2[pick]])

        v = inception._suffix_pass(g, keep)
        assert digits.shape == (v.shape[1], H, S) and v.shape[1] > 0
        for r, actions in enumerate(digits):
            report = mg.exploit_fixed_fake(g, mg.MarkovPolicy.deterministic(2, actions, m))
            assert report.v.values[:, 0].tobytes() == v[:, r].tobytes(), (seed, actions)
