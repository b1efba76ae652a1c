import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgincept as mg
from mgincept.model import PROB_TOL, _check_distribution
from mgincept.oracle import random_game
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


def _masked_transition_messages(g):
    """The transition rows' messages from the masked row sums, the reference
    for the check's plain row sums."""
    out = []
    rows = g.transitions.reshape(-1, g.num_states)
    finite = np.isfinite(rows).all(axis=1)
    sums = np.where(finite, rows.sum(axis=1, where=np.isfinite(rows)), np.nan)
    bad_rows = ~finite | (rows < 0).any(axis=1) | (np.abs(sums - 1.0) > PROB_TOL)
    for flat in np.nonzero(bad_rows)[0][:64]:
        h, s, a1, a2 = np.unravel_index(flat, (g.horizon, g.num_states, g.n, g.m))
        coords = (("h", int(h)), ("s", int(s)), ("a1", int(a1)), ("a2", int(a2)))
        _check_distribution(g.transitions[h, s, a1, a2], "transition", coords, out)
    return [str(v) for v in out]


@pytest.mark.parametrize("entries, count", [
    ({}, 0),
    ({0: np.nan}, 2),
    ({3: np.inf}, 2),
    ({5: -np.inf}, 2),
    ({3: np.inf, 5: -np.inf}, 2),           # a nan plain sum
    ({1: -0.25, 2: 0.25}, 2),
    ({0: 0.9e-12}, 0),
    ({0: -0.9e-12}, 0),
    ({0: 1.1e-12}, 2),
    ({0: -1.1e-12}, 2),
    ({0: 1e308, 1: 1e308}, 2),              # finite entries whose sum overflows
], ids=["valid", "nan", "+inf", "-inf", "+inf-inf", "negative", "sum+0.9e-12", "sum-0.9e-12",
        "sum+1.1e-12", "sum-1.1e-12", "overflow"])
def test_validation_plain_sums_match_the_masked_sums(entries, count):
    # the entries are added to two rows of a game whose transition rows are
    # 20-state distributions: (h=1, s=4, a1=2, a2=0) and (h=0, s=19, a1=0, a2=1)
    g = chain_game(seed=93, horizon=2, states=20, n=3, m=2)
    transitions = np.random.default_rng(92).uniform(0.05, 1.0, g.transitions.shape)
    transitions /= transitions.sum(axis=-1, keepdims=True)
    for row in ((1, 4, 2, 0), (0, 19, 0, 1)):
        for j, x in entries.items():
            transitions[row + (j,)] += x
    g = mg.MarkovGame(2, 20, 3, 2, g.mu, g.rewards, transitions)
    with np.errstate(over="ignore"):        # both sums of the overflow rows are inf
        messages = mg.validate_game(g).messages()
        assert messages == _masked_transition_messages(g)
    assert len(messages) == count


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 15, 16, 17, 20, 33, 127, 128, 129, 300])
def test_plain_row_sums_equal_the_masked_sums_bitwise(k):
    # widths around numpy's pairwise-summation blocks of 8 and 128
    rng = np.random.default_rng(k)
    w = rng.uniform(0.0, 1.0, (200, k))
    w[rng.random(w.shape) < 0.3] = 0.0
    rows = w / np.maximum(w.sum(axis=1, keepdims=True), 1e-300)
    assert rows.sum(axis=1).tobytes() == rows.sum(axis=1, where=np.isfinite(rows)).tobytes()


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
            # built without the constructor's copy and checks: the entries
            # are still the policy's own read-only array, and they pass the
            # checks that were skipped
            assert not pol.entries.flags.writeable
            assert not np.shares_memory(pol.entries, np.asarray(given))
            checked = mg.MarkovPolicy(2, pol.entries)
            assert checked.entries.tobytes() == pol.entries.tobytes()


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
    with pytest.raises(ValueError):
        decoy_game.transitions[0, 0, 0, 0, 0] = 0.5


def _one_step_game(**change):
    """A one-step, one-state 2x2 game, with the constructor arguments change
    in place of its own."""
    args = dict(horizon=1, num_states=1, n=2, m=2, mu=[1.0], rewards=np.zeros((2, 1, 1, 2, 2)),
                transitions=np.ones((1, 1, 2, 2, 1)))
    return mg.MarkovGame(**{**args, **change})


@pytest.mark.parametrize("build, message", [
    (lambda: _one_step_game(horizon=0), "horizon must be a positive integer, got 0"),
    (lambda: _one_step_game(horizon=True), "horizon must be a positive integer, got True"),
    (lambda: _one_step_game(mu=[0.5, 0.5]), "mu has shape (2,), expected (1,)"),
    (lambda: _one_step_game(rewards=np.zeros((1, 1, 1, 2, 2))),
     "rewards have shape (1, 1, 1, 2, 2), expected (2, 1, 1, 2, 2)"),
    (lambda: _one_step_game(transitions=np.ones((1, 1, 2, 2, 2))),
     "transitions have shape (1, 1, 2, 2, 2), expected (1, 1, 2, 2, 1)"),
    (lambda: mg.MarkovPolicy(2, [[1.0, 0.0]]), "policy entries must be (H, S, k), got (1, 2)"),
    (lambda: mg.MarkovPolicy(2, [[[np.nan, 1.0]]]), "policy entries must be finite"),
    (lambda: mg.MarkovPolicy.deterministic(2, [0, 1], 2),
     "actions must be an (H, S) integer array"),
    (lambda: mg.BeliefSet(()), "belief set needs at least one base policy"),
    (lambda: mg.BeliefSet((pure_stage_policy(1, 0, 2),)),
     "belief base policies must be attacker (player 2) policies"),
    (lambda: mg.BeliefSet((pure_stage_policy(2, 0, 2), pure_stage_policy(2, 0, 3))),
     "belief base policies must share (H, S, m) dimensions"),
    (lambda: mg.ValueTables(np.zeros((2, 1, 1))), "value tables must be (2, H+1, S), got (2, 1, 1)"),
    (lambda: mg.evaluate_policy(_one_step_game(), pure_stage_policy(2, 0, 2),
                                pure_stage_policy(2, 0, 2)),
     "expected a player-1 policy, got player 2"),
    (lambda: mg.markov_attacker_best_response(_one_step_game(),
                                              mg.BeliefSet((pure_stage_policy(2, 0, 3),))),
     "policy shape (1, 1, 3) does not match game (1, 1, 2)"),
], ids=["horizon-0", "horizon-bool", "mu-shape", "rewards-shape", "transitions-shape",
        "2-D-entries", "non-finite-entries", "1-D-actions", "empty-belief", "player-1-belief",
        "mixed-belief-shapes", "value-tables-shape", "policy-player", "belief-shape"])
def test_constructor_and_policy_refusals_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("shape", [(), (4, 4), (1, 1, 4, 4), (10, 4, 4), (5, 10, 4, 1)])
def test_fake_rewards_of_another_shape_are_refused(shape):
    # rewards read for another game are not broadcast over this one
    g = random_game(np.random.default_rng(0), 5, 10, 4, 4)
    with pytest.raises(ValueError, match=re.escape(
            f"fake rewards have shape {shape}, expected (5, 10, 4, 4)")):
        g.with_attacker_rewards(np.zeros(shape))


def test_fake_rewards_of_the_game_s_shape_replace_player_2_s():
    g = random_game(np.random.default_rng(0), 5, 10, 4, 4)
    fake = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 10, 4, 4))
    transitions = np.array(g.transitions)
    transitions[2, 3, 1, 0] *= 0.5
    halved = mg.MarkovGame(5, 10, 4, 4, g.mu, g.rewards, transitions)
    for base in (g, halved):  # a valid game and one with a short transition row
        before = base.rewards.tobytes()
        f = base.with_attacker_rewards(fake.tolist())
        assert f.rewards.tobytes() == np.stack([base.rewards[0], fake]).tobytes()
        # the fake game shares the base game's read-only mu and transitions
        # and holds its own read-only rewards
        assert f.mu is base.mu and f.transitions is base.transitions
        with pytest.raises(ValueError):
            f.rewards[1, 0, 0, 0, 0] = 0.0
        assert base.rewards.tobytes() == before
        # it reports and tables exactly what a game built from the same
        # arrays by the constructor does
        built = mg.MarkovGame(5, 10, 4, 4, base.mu, f.rewards, base.transitions)
        assert mg.validate_game(f).messages() == mg.validate_game(built).messages()
        for ours, theirs in zip(f._optimistic_deviations, built._optimistic_deviations):
            assert ours.tobytes() == theirs.tobytes()
    assert mg.validate_game(halved).messages() == [
        "transition-sum at (h=2,s=3,a1=1,a2=0): sums to 0.5, expected 1"]


def test_value_tables_of_the_passes_pass_the_constructor_checks():
    # the backward pass, the fake-policy search and policy evaluation build
    # their value tables without the constructor's copy and checks
    g = random_game(np.random.default_rng(4), 3, 4, 3, 3)
    search = mg.policy_inception(g)
    report = mg.markov_attacker_best_response(g, mg.secure_belief(g))
    evaluated = mg.evaluate_policy(g, mg.MarkovPolicy(1, np.full((3, 4, 3), 1 / 3)),
                                   search.pi2_dagger)
    for tables in (search.v_hat, report.v, evaluated):
        assert not tables.values.flags.writeable
        assert tables.values.shape == (2, 4, 4)
        assert mg.ValueTables(tables.values).values.tobytes() == tables.values.tobytes()


def test_evaluation_refuses_a_game_that_fails_validation():
    # evaluation validates the game first, as the backward pass does;
    # otherwise a short transition row evaluates silently and a NaN reward
    # reads as an overflow of the stage payoffs
    g = chain_game(seed=3, horizon=2, states=2)
    rng = np.random.default_rng(5)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    transitions = np.array(g.transitions)
    transitions[0, 0, 0, 0] *= 0.5
    rewards = np.array(g.rewards)
    rewards[0, 1, 1, 0, 1] = np.nan
    for bad, violation in (
            (mg.MarkovGame(2, 2, 2, 2, g.mu, g.rewards, transitions),
             "transition-sum at (h=0,s=0,a1=0,a2=0): sums to 0.5, expected 1"),
            (mg.MarkovGame(2, 2, 2, 2, g.mu, rewards, g.transitions),
             "reward-nonfinite at (player=1,h=1,s=1,a1=0,a2=1)")):
        with pytest.raises(mg.InvalidGameError, match=re.escape(violation)):
            mg.evaluate_policy(bad, p1, p2)


def test_array_holding_types_compare_by_identity():
    # an elementwise array comparison has no single truth value and arrays
    # have no hash, so these types compare, hash and look up by identity;
    # each pair holds equal contents, built apart
    g = random_game(np.random.default_rng(3), 2, 2, 2, 2)
    p, q = (mg.MarkovPolicy.deterministic(2, [[0, 1], [1, 0]], 2) for _ in range(2))
    twins = [
        (p, q),
        (g, mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu, g.rewards, g.transitions)),
        (mg.BeliefSet((p,)), mg.BeliefSet((p,))),
        (mg.ValueTables(np.zeros((2, 3, 2))), mg.ValueTables(np.zeros((2, 3, 2)))),
        tuple(mg.markov_attacker_best_response(g, mg.secure_belief(g)) for _ in range(2)),
    ]
    for a, b in twins:
        name = type(a).__name__
        assert a == a and a != b, name
        assert hash(a) == hash(a), name
        assert len({a, b}) == 2, name
        assert a in [a] and a not in [b], name


def test_deterministic_policy_reads_its_action_count():
    pi = mg.MarkovPolicy.deterministic(1, np.zeros((2, 3), dtype=int), 4)
    assert pi.num_actions == 4
