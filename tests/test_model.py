import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgincept as mg
from conftest import chain_game, pure_stage_policy, random_policy, single_step_game


def test_validate_accepts_well_formed_game(decoy_game):
    report = mg.validate_game(decoy_game)
    assert report.ok
    assert len(report) == 0


def test_validate_flags_bad_transition_row(decoy_game):
    transitions = np.array(decoy_game.transitions)
    transitions[0, 0, 1, 0] = [0.9]
    g = mg.MarkovGame(1, 1, 2, 2, decoy_game.mu, decoy_game.rewards, transitions)
    report = mg.validate_game(g)
    assert not report.ok
    [violation] = list(report)
    assert violation.code == "transition-sum"
    assert violation.coords == (("h", 0), ("s", 0), ("a1", 1), ("a2", 0))


def test_validate_flags_nan_reward(decoy_game):
    rewards = np.array(decoy_game.rewards)
    rewards[1, 0, 0, 0, 1] = np.nan
    g = mg.MarkovGame(1, 1, 2, 2, decoy_game.mu, rewards, decoy_game.transitions)
    report = mg.validate_game(g)
    assert any(v.code == "reward-nonfinite" for v in report)
    [v] = [v for v in report if v.code == "reward-nonfinite"]
    assert v.coords == (("player", 2), ("h", 0), ("s", 0), ("a1", 0), ("a2", 1))


def test_validate_flags_bad_mu(decoy_game):
    g = mg.MarkovGame(1, 1, 2, 2, [0.7], decoy_game.rewards, decoy_game.transitions)
    assert any(v.code == "mu-sum" for v in mg.validate_game(g))


def test_construction_rejects_shape_mismatch(decoy_game):
    with pytest.raises(ValueError):
        mg.MarkovGame(2, 1, 2, 2, decoy_game.mu, decoy_game.rewards,
                      decoy_game.transitions)


def test_policy_rejects_a_non_integer_player():
    for player in (True, False, 1.0, 2.0, "2", None):
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            mg.MarkovPolicy(player, [[[1.0, 0.0]]])
    # a numpy integer is a player, stored as int so that policy files can hold it
    assert type(mg.MarkovPolicy(np.int64(2), [[[1.0, 0.0]]]).player) is int


def test_policy_rejects_bad_distribution():
    with pytest.raises(ValueError):
        mg.MarkovPolicy(1, [[[0.5, 0.6]]])
    with pytest.raises(ValueError):
        mg.MarkovPolicy(1, [[[1.2, -0.2]]])


def test_policy_determinism_flag():
    assert pure_stage_policy(2, 1, 2).is_deterministic
    assert not mg.MarkovPolicy(2, [[[0.5, 0.5]]]).is_deterministic
    assert pure_stage_policy(2, 1, 3).action_at(0, 0) == 1


def test_determinism_is_worked_out_once_per_policy():
    pol = mg.MarkovPolicy.deterministic(2, [[0, 2], [1, 0]], 3)
    assert "is_deterministic" not in vars(pol)
    assert [pol.action_at(h, s) for h in range(2) for s in range(2)] == [0, 2, 1, 0]
    assert vars(pol)["is_deterministic"] is True
    mixed = mg.MarkovPolicy(2, [[[0.5, 0.5]]])
    for _ in range(2):
        with pytest.raises(ValueError):
            mixed.action_at(0, 0)
    assert vars(mixed)["is_deterministic"] is False


def _scattered(actions, k):
    """A deterministic policy's entries written by a meshgrid scatter."""
    H, S = actions.shape
    entries = np.zeros((H, S, k))
    hh, ss = np.meshgrid(np.arange(H), np.arange(S), indexing="ij")
    entries[hh, ss, actions] = 1.0
    return entries


def test_deterministic_entries_equal_the_scatter_construction_bitwise():
    rng = np.random.default_rng(8)
    for _ in range(30):
        H, S, k = (int(x) for x in rng.integers(1, 6, 3))
        actions = rng.integers(0, k, (H, S))
        for given in (actions, actions.astype(float), actions.tolist()):
            pol = mg.MarkovPolicy.deterministic(2, given, k)
            assert pol.entries.tobytes() == _scattered(actions, k).tobytes()


def test_deterministic_rejects_fractional_and_boolean_indices():
    # neither is truncated or cast to an action: [[1.7, 0.2]] used to give
    # actions [[1, 0]], and booleans actions 1 and 0
    for actions in ([[1.7, 0.2]], [[1.0, 0.5]], [[np.nan, 0.0]], [[True, False]],
                    np.zeros((2, 2), dtype=bool), [["1", "0"]]):
        with pytest.raises(ValueError, match="integers"):
            mg.MarkovPolicy.deterministic(2, actions, 2)
    with pytest.raises(ValueError, match="out of range"):
        mg.MarkovPolicy.deterministic(2, [[np.inf, 0.0]], 2)


def test_evaluate_decoy_game_pure_profiles(decoy_game):
    down = pure_stage_policy(1, 1, 2)
    left = pure_stage_policy(2, 0, 2)
    tables = mg.evaluate_policy(decoy_game, down, left)
    assert tables.root(decoy_game.mu) == (1.0, 0.0)
    up = pure_stage_policy(1, 0, 2)
    assert mg.evaluate_policy(decoy_game, up, left).root(decoy_game.mu) == (0.0, 5.0)


def test_evaluate_zero_rewards_gives_zero_values():
    g = mg.MarkovGame(2, 2, 2, 3, [0.5, 0.5], np.zeros((2, 2, 2, 2, 3)),
                      np.full((2, 2, 2, 3, 2), 0.5))
    rng = np.random.default_rng(1)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 3)
    assert np.all(mg.evaluate_policy(g, p1, p2).values == 0.0)


def test_evaluate_terminal_layer_and_bound():
    g = chain_game(seed=3, horizon=3, states=2)
    rng = np.random.default_rng(5)
    p1 = random_policy(rng, 1, 3, 2, 2)
    p2 = random_policy(rng, 2, 3, 2, 2)
    tables = mg.evaluate_policy(g, p1, p2)
    assert np.all(tables.values[:, -1, :] == 0.0)
    rmax = np.abs(g.rewards).max()
    for h in range(g.horizon + 1):
        bound = (g.horizon - h) * rmax + 1e-12
        assert np.all(np.abs(tables.values[:, h, :]) <= bound)


def _mc_estimate(g, p1, p2, episodes, seed):
    """Hand-rolled Monte Carlo evaluator on the stdlib RNG, independent of
    the package's simulator."""
    rnd = random.Random(seed)

    def draw(weights):
        u = rnd.random()
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    totals = np.zeros((episodes, 2))
    for e in range(episodes):
        s = draw(g.mu)
        for h in range(g.horizon):
            a1 = draw(p1.entries[h, s])
            a2 = draw(p2.entries[h, s])
            totals[e, 0] += g.rewards[0, h, s, a1, a2]
            totals[e, 1] += g.rewards[1, h, s, a1, a2]
            s = draw(g.transitions[h, s, a1, a2])
    mean = totals.mean(axis=0)
    se = totals.std(axis=0, ddof=1) / math.sqrt(episodes)
    return mean, se


def test_evaluate_matches_monte_carlo_oracle():
    g = chain_game(seed=11, horizon=2, states=2)
    rng = np.random.default_rng(12)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    exact = mg.evaluate_policy(g, p1, p2).root(g.mu)
    mean, se = _mc_estimate(g, p1, p2, episodes=100_000, seed=99)
    for i in range(2):
        assert abs(mean[i] - exact[i]) <= 3.0 * se[i]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), exponent=st.integers(-3, 4))
def test_evaluate_is_exactly_homogeneous_in_power_of_two_scales(seed, exponent):
    # scaling by powers of two is lossless in binary floating point, so the
    # per-stage bilinearity shows up as bit-exact value scaling
    g = chain_game(seed=seed)
    rng = np.random.default_rng(seed + 1)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    c = 2.0 ** exponent
    scaled = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu,
                           c * g.rewards, g.transitions)
    base = mg.evaluate_policy(g, p1, p2).values
    assert np.array_equal(mg.evaluate_policy(scaled, p1, p2).values, c * base)


def test_belief_mixes_examples(decoy_beliefs, decoy_game):
    # mixes[h, s] is the m x K matrix of the bases' stage mixes, one column each
    assert np.array_equal(decoy_beliefs[0].mixes[0, 0].T, [[1.0, 0.0]])
    secure = mg.secure_belief(decoy_game)
    assert np.array_equal(secure.mixes[0, 0].T, np.eye(2))
    uniform = mg.MarkovPolicy(2, [[[0.5, 0.5]]])
    both = mg.BeliefSet((uniform, uniform))
    assert np.array_equal(both.mixes[0, 0].T, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(IndexError):
        secure.mixes[1, 0]
    assert secure.mixes.shape == (1, 1, 2, 2) and secure.mixes is secure.mixes
    with pytest.raises(ValueError):
        secure.mixes[0, 0, 0, 0] = 0.5


def test_value_tables_reject_nonzero_terminal_layer():
    with pytest.raises(ValueError):
        mg.ValueTables(np.ones((2, 2, 1)))


def test_game_arrays_are_immutable(decoy_game):
    with pytest.raises(ValueError):
        decoy_game.rewards[0, 0, 0, 0, 0] = 3.0
    with pytest.raises(ValueError):
        decoy_game.mu[0] = 0.5
