import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgincept as mg
import rollout_reference
from conftest import chain_game, pure_stage_policy, random_policy
from mgincept import rollout
from mgincept.gamefile import load_game, load_policy
from mgincept.model import PROB_TOL
from mgincept.rollout import _cut_table, _sample, simulate

DATA = Path(__file__).parent / "data"


def deterministic_game(seed=70, horizon=3, states=2):
    rng = np.random.default_rng(seed)
    rewards = rng.uniform(-1, 1, (2, horizon, states, 2, 2))
    transitions = np.zeros((horizon, states, 2, 2, states))
    hot = rng.integers(0, states, (horizon, states, 2, 2))
    for idx in np.ndindex(horizon, states, 2, 2):
        transitions[idx][hot[idx]] = 1.0
    return mg.MarkovGame(horizon, states, 2, 2, [1.0] + [0.0] * (states - 1),
                         rewards, transitions)


def test_degenerate_randomness_matches_exact_evaluation():
    g = deterministic_game()
    p1 = mg.MarkovPolicy.deterministic(1, [[0, 1], [1, 0], [0, 0]], 2)
    p2 = mg.MarkovPolicy.deterministic(2, [[1, 1], [0, 1], [1, 0]], 2)
    exact = mg.evaluate_policy(g, p1, p2).root(g.mu)
    stats = simulate(g, p1, p2, episodes=37, seed=5)
    assert stats.mean_returns[0] == exact[0]
    assert stats.mean_returns[1] == exact[1]
    assert np.all(stats.std_errors == 0.0)


def test_decoy_game_pure_profile_is_exact(decoy_game):
    down = pure_stage_policy(1, 1, 2)
    left = pure_stage_policy(2, 0, 2)
    stats = simulate(decoy_game, down, left, episodes=200, seed=9)
    assert stats.mean_returns.tolist() == [1.0, 0.0]
    assert np.all(stats.std_errors == 0.0)


def test_mixed_policies_match_evaluator_within_three_sigma():
    g = chain_game(seed=71, horizon=2, states=2)
    rng = np.random.default_rng(72)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    exact = mg.evaluate_policy(g, p1, p2).root(g.mu)
    stats = simulate(g, p1, p2, episodes=10_000, seed=73)
    for i in range(2):
        assert stats.std_errors[i] > 0.0
        assert abs(stats.mean_returns[i] - exact[i]) <= 3.0 * stats.std_errors[i]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_same_seed_reproduces_bit_for_bit(seed):
    g = chain_game(seed=74, horizon=2, states=2)
    rng = np.random.default_rng(75)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    a = simulate(g, p1, p2, episodes=500, seed=seed)
    b = simulate(g, p1, p2, episodes=500, seed=seed)
    assert np.array_equal(a.mean_returns, b.mean_returns)
    assert np.array_equal(a.std_errors, b.std_errors)
    assert a.seed == b.seed == seed


def test_different_seeds_differ_on_noisy_instances():
    g = chain_game(seed=76, horizon=2, states=2)
    rng = np.random.default_rng(77)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    a = simulate(g, p1, p2, episodes=200, seed=1)
    b = simulate(g, p1, p2, episodes=200, seed=2)
    assert not np.array_equal(a.mean_returns, b.mean_returns)


def test_zero_probability_actions_are_never_sampled():
    # attacker reward marks which attacker action was realized
    marked = np.zeros((2, 1, 1, 2, 3))
    marked[1, 0, 0, :, 1] = 1.0
    g = mg.MarkovGame(1, 1, 2, 3, [1.0], marked, np.ones((1, 1, 2, 3, 1)))
    p1 = mg.MarkovPolicy(1, [[[0.0, 1.0]]])
    p2 = mg.MarkovPolicy(2, [[[0.0, 1.0, 0.0]]])
    stats = simulate(g, p1, p2, episodes=1000, seed=11)
    assert stats.mean_returns[1] == 1.0  # action 1 sampled every time


def test_episode_validation():
    g = chain_game(seed=78)
    rng = np.random.default_rng(79)
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        simulate(g, p1, p2, episodes=0, seed=1)
    single = simulate(g, p1, p2, episodes=1, seed=1)
    assert np.all(single.std_errors == 0.0)


def test_unvalidated_game_is_rejected():
    p1 = pure_stage_policy(1, 0, 2, states=2)
    p2 = pure_stage_policy(2, 0, 2, states=2)
    for bad in ([1.5, -0.5], [np.nan, 1.0]):
        transitions = np.tile(np.array(bad), (1, 2, 2, 2, 1))
        g = mg.MarkovGame(1, 2, 2, 2, [1.0, 0.0], np.zeros((2, 1, 2, 2, 2)), transitions)
        with pytest.raises(mg.InvalidGameError):
            simulate(g, p1, p2, episodes=10, seed=0)


# ---- replay across versions: values recorded before the cut-table sampler

def _hex(stats):
    return [x.hex() for x in stats.mean_returns], [x.hex() for x in stats.std_errors]


def test_list_form_files_replay_pinned_values():
    g = load_game(DATA / "list_form_game.json").game
    stats = simulate(g, load_policy(DATA / "list_form_p1.json"),
                     load_policy(DATA / "list_form_p2.json"), episodes=1000, seed=0)
    assert _hex(stats) == (["-0x1.e3037359a5cc9p-2", "0x1.4900a71ba7bfcp-4"],
                           ["0x1.92de5fbe1f77ap-6", "0x1.9e699111655abp-6"])


def test_list_form_files_replay_pinned_values_across_blocks():
    # 5000 episodes span three blocks; the values of a single block of 5000
    g = load_game(DATA / "list_form_game.json").game
    stats = simulate(g, load_policy(DATA / "list_form_p1.json"),
                     load_policy(DATA / "list_form_p2.json"), episodes=5000, seed=0)
    assert _hex(stats) == (["-0x1.e7361b1f02213p-2", "0x1.184abc8c0e05ap-4"],
                           ["0x1.6114977183611p-7", "0x1.725cdf8807662p-7"])


def test_random_instances_replay_pinned_values():
    g = chain_game(seed=80, horizon=4, states=3, n=2, m=3)
    rng = np.random.default_rng(81)
    stats = simulate(g, random_policy(rng, 1, 4, 3, 2), random_policy(rng, 2, 4, 3, 3),
                     episodes=777, seed=82)
    assert _hex(stats) == (["0x1.95fcf6ff8e372p-4", "-0x1.0e7cf855c95ffp-1"],
                           ["0x1.3fd6b3cd89eeap-5", "0x1.618c73bcee16ap-5"])
    g = chain_game(seed=83, horizon=2, states=5, n=1, m=4)
    rng = np.random.default_rng(84)
    stats = simulate(g, random_policy(rng, 1, 2, 5, 1), random_policy(rng, 2, 2, 5, 4),
                     episodes=64, seed=85)
    assert _hex(stats) == (["-0x1.a2de312f1756ep-3", "-0x1.c7064a8f0e01ep-4"],
                           ["0x1.5dd24f9c2e45ap-4", "0x1.6da648adeefcep-4"])


# ---- the cut-table sampler against the count-and-clamp reference
# (tests/rollout_reference.py)

def _distributions(rng, shape, kind):
    """Rows of distributions along the last axis: `spread` (all positive),
    `top` (nearly all mass on the three highest indices), `sparse` (some
    zero entries), `onehot`, or `tol` (spread rows scaled so they sum to 1
    only within PROB_TOL, some above and some below)."""
    k = shape[-1]
    if kind == "onehot":
        return np.eye(k)[rng.integers(k, size=shape[:-1])]
    w = rng.uniform(0.05, 1.0, shape)
    if kind == "top":
        w[..., :max(k - 3, 0)] *= 1e-4
    elif kind == "sparse":
        w[rng.random(shape) < 0.4] = 0.0
        w += np.eye(k)[rng.integers(k, size=shape[:-1])]
    p = w / w.sum(axis=-1, keepdims=True)
    if kind == "tol":
        p *= 1.0 + rng.choice([-0.5, 0.5], size=shape[:-1] + (1,)) * PROB_TOL
    return p


def _instance(seed, horizon, states, n, m, kind):
    rng = np.random.default_rng(seed)
    rewards = rng.uniform(-1.0, 1.0, (2, horizon, states, n, m))
    g = mg.MarkovGame(horizon, states, n, m, _distributions(rng, (states,), kind), rewards,
                      _distributions(rng, (horizon, states, n, m, states), kind))
    p1 = mg.MarkovPolicy(1, _distributions(rng, (horizon, states, n), kind))
    p2 = mg.MarkovPolicy(2, _distributions(rng, (horizon, states, m), kind))
    return g, p1, p2


def _assert_matches_reference(g, p1, p2, episodes, seed):
    got = simulate(g, p1, p2, episodes, seed)
    want = rollout_reference.simulate(g, p1, p2, episodes, seed)
    assert got.mean_returns.tobytes() == want.mean_returns.tobytes()
    assert got.std_errors.tobytes() == want.std_errors.tobytes()
    return got


WIDTHS = (127, 128, 255, 256, 257)


@pytest.mark.parametrize("size, kind, episodes", [
    ((3, 1, 3, 2), "spread", 500),      # S = 1: every state draw has k = 1
    ((3, 4, 1, 3), "spread", 7),        # a one-action victim
    ((2, 3, 4, 1), "sparse", 500),      # a one-action attacker
    ((1, 1, 1, 1), "spread", 7),        # nothing left to draw
    ((3, 5, 3, 4), "sparse", 500),
    ((4, 6, 3, 3), "onehot", 7),
    ((3, 5, 4, 3), "tol", 500),
    ((3, 4, 2, 3), "spread", 1),
    *[((2, w, 2, 2), "top", 500) for w in WIDTHS],    # wide state rows
    *[((2, 2, w, w), "top", 500) for w in WIDTHS],    # wide action rows
    ((2, 2, 2, 257), "top", 500),       # stacked action tables of unequal widths
    ((2, 3, 300, 1), "sparse", 500),
])
def test_cut_tables_match_count_and_clamp(size, kind, episodes):
    g, p1, p2 = _instance(sum(size) + episodes, *size, kind)
    _assert_matches_reference(g, p1, p2, episodes, seed=len(kind))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.tuples(*[st.integers(1, 5)] * 4),
       kind=st.sampled_from(["spread", "top", "sparse", "onehot", "tol"]),
       episodes=st.sampled_from([1, 7, 500]))
def test_cut_tables_match_count_and_clamp_on_random_instances(seed, size, kind, episodes):
    g, p1, p2 = _instance(seed, *size, kind)
    _assert_matches_reference(g, p1, p2, episodes, seed)


def test_draws_above_the_last_cut_point_clamp_to_the_last_index():
    # rows summing to just below 1, and uniforms at and between cut points,
    # at 0 and at the largest double below 1
    rng = np.random.default_rng(86)
    for k in (1, 2, 5, 129, 257):
        p = _distributions(rng, (6, k), "sparse") * (1.0 - 0.5 * PROB_TOL)
        cdf = np.cumsum(p, axis=-1)
        rows = np.repeat(np.arange(6), 2 * k + 2)
        u = np.concatenate([np.concatenate([[0.0, np.nextafter(1.0, 0.0)], c, (c + 0.5 / k) % 1.0])
                            for c in cdf])
        got = _sample(_cut_table(p), rows, u)
        want = rollout_reference.sample(cdf[rows], u)
        assert np.array_equal(got, want)
        assert got[1] == k - 1


# every width at which bit_length(k - 1), the bisection's probe count, changes
BISECT_WIDTHS = (0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 255, 256, 257)


def _edge_rows(rng, k):
    """Distribution rows of k entries: leading zeros, trailing zeros, one-hot
    at the first, a middle and the last index, and spread and sparse rows
    scaled to sum to 1 - PROB_TOL / 2, whose last cut point lies below
    nextafter(1, 0)."""
    rows = [np.eye(k)[0], np.eye(k)[k // 2], np.eye(k)[k - 1]]
    for zeros in (slice(0, k // 2), slice(k - k // 2, k)):
        w = rng.uniform(0.05, 1.0, k)
        w[zeros] = 0.0
        rows.append(w / w.sum())
    for kind in ("spread", "sparse"):
        rows.append(_distributions(rng, (k,), kind) * (1.0 - 0.5 * PROB_TOL))
    return np.array(rows)


@pytest.mark.parametrize("width, count_max", [
    *[pytest.param(w, 0, id=f"bisect-{w}") for w in BISECT_WIDTHS],
    *[pytest.param(w, 255, id=f"count-{w}") for w in BISECT_WIDTHS if w <= 255]])
def test_both_draws_match_count_and_clamp_at_every_probe_count(width, count_max):
    # _COUNT_MAX = 0 bisects every row with a cut point, 255 counts every
    # row whose counts fit a byte; uniforms at 0, at each cut point and one
    # ulp either side of it, midway between cut points, and at the largest
    # double below 1
    p = _edge_rows(np.random.default_rng(width), width + 1)
    cdf = np.cumsum(p, axis=-1)
    rows, u = [], []
    for r, c in enumerate(cdf):
        cut = c[:-1]
        mid = (cut[:-1] + cut[1:]) / 2
        ur = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cut, mid,
                             np.nextafter(cut, 0.0), np.nextafter(cut, 1.0)])
        ur = ur[(ur >= 0.0) & (ur < 1.0)]
        rows.append(np.full(ur.size, r))
        u.append(ur)
    rows, u = np.concatenate(rows), np.concatenate(u)
    with mock.patch.object(rollout, "_COUNT_MAX", count_max):
        got = _sample(_cut_table(p), rows, u)
    want = rollout_reference.sample(cdf[rows], u)
    assert np.array_equal(got, want)
    # a uniform above the last cut point of a row summing below 1 clamps to
    # the last index
    above = (u == np.nextafter(1.0, 0.0)) & (rows >= len(p) - 2)
    assert np.count_nonzero(above) == 2 and np.all(got[above] == width)


def test_wide_state_rows_replay_pinned_values():
    # 32 cut points per next-state row, drawn in 6 bisection probes, over
    # 3000 episodes in two blocks; the values recorded with the counting draw
    g, p1, p2 = _instance(90, 3, 33, 3, 5, "sparse")
    assert g.num_states - 1 > rollout._COUNT_MAX
    stats = simulate(g, p1, p2, episodes=3000, seed=91)
    assert _hex(stats) == (["0x1.97c1ef4af03b9p-4", "0x1.1724035b5122ap-3"],
                           ["0x1.32c60a7796335p-6", "0x1.2e3f43ca4dc11p-6"])


# ---- episode blocks: the same draws and returns as one block of every episode

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.tuples(*[st.integers(1, 5)] * 4),
       kind=st.sampled_from(["spread", "top", "sparse", "onehot", "tol"]))
def test_small_blocks_match_reference_at_every_episode_count(seed, size, kind):
    # blocks of 7 drawn whole, then 3 episodes at a time: full and partial
    # sub-blocks in full and partial blocks
    g, p1, p2 = _instance(seed, *size, kind)
    for draw in (rollout._DRAW, 3):
        with mock.patch.object(rollout, "_BLOCK", 7), mock.patch.object(rollout, "_DRAW", draw):
            for episodes in range(1, 31):
                _assert_matches_reference(g, p1, p2, episodes, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_small_blocks_keep_one_hot_instances_exact(seed):
    g, p1, p2 = _instance(seed, 3, 4, 3, 2, "onehot")
    with mock.patch.object(rollout, "_BLOCK", 7):
        for episodes in range(1, 31):
            stats = _assert_matches_reference(g, p1, p2, episodes, seed)
            assert np.all(stats.std_errors == 0.0)


def test_episode_counts_around_the_block_size_match_reference():
    g, p1, p2 = _instance(87, 3, 4, 3, 2, "sparse")
    b, d = rollout._BLOCK, rollout._DRAW
    for episodes in (d - 1, d, d + 1, b - 1, b, b + 1, 2 * b + 3):
        _assert_matches_reference(g, p1, p2, episodes, seed=88)


def test_working_memory_does_not_grow_with_episodes_times_horizon():
    # O(E H) working memory would be about 190 MiB here: the E (1 + 3H)
    # uniforms twice, plus an (H, E, 2) reward buffer
    g, p1, p2 = _instance(89, 20, 20, 4, 4, "spread")
    tracemalloc.start()
    try:
        simulate(g, p1, p2, episodes=200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_working_memory_at_the_benchmark_size():
    # 1e4 episodes at H = 20 S = 20 4x4: 4.8 MiB when each block drew its
    # (2048, 61) uniforms at once and gathered its (2, 20, 2048) rewards
    g, p1, p2 = _instance(89, 20, 20, 4, 4, "spread")
    tracemalloc.start()
    try:
        simulate(g, p1, p2, episodes=10_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20
