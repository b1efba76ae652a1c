import itertools
import math
import re

import numpy as np
import pytest

import mgincept as mg
from conftest import (chain_game, continuation_tradeoff_game, grid_attacker_value,
                      integer_reward_game, random_mix_rows, single_step_game, stage_solve,
                      watch_tied_cells)
from mgincept import inception, oracle
from mgincept.oracle import (
    ENUM_GUARD,
    GridSpec,
    brute_force_inception,
    grid_victim_value,
    random_game,
    simplex_grid,
)
from mgincept.stage import StageSolveError, victim_br_lp

MATCHING = np.array([[0.0, 1.0], [1.0, 0.0]])
DECOY = np.array([[5.0, 0.0], [0.0, 0.0]])


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(step=0.0)
    with pytest.raises(ValueError):
        GridSpec(step=0.6)
    assert GridSpec(step=1e-3).resolution == 1000
    assert GridSpec(step=0.3).resolution == 4  # spacing never coarser than step


@pytest.mark.parametrize("dim, step, points, coarser", [(4, 1e-3, 167668501, "0.0056"),
                                                        (3, 1e-4, 50015001, "0.00071"),
                                                        (2, 1e-7, 10000001, "1.1e-06")])
def test_grid_point_bound_refuses_before_building(monkeypatch, dim, step, points, coarser):
    # a grid over 4 actions at step 1e-3 would hold C(1003, 3) points,
    # 5.4 GB: it is refused, naming its count and a coarser step, before
    # any point is made, and the coarser step fits
    def unreachable(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(oracle, "simplex_grid", unreachable)
    with pytest.raises(ValueError, match=f"^a grid over {dim} actions at step {step:g} has "
                                         f"{points} points, above the limit of 1000000; use a "
                                         f"step of {coarser} or coarser$"):
        grid_victim_value(np.zeros((dim, 2)), GridSpec(step=step))
    fits = GridSpec(step=float(coarser)).resolution
    assert math.comb(fits + dim - 1, dim - 1) <= oracle._GRID_MAX_POINTS


def test_grid_point_bound_admits_three_actions_at_the_default_step():
    # the console smoke test's 3-action grids at step 1e-3: 501501 points
    value = grid_victim_value(np.array([[0.0, 1.0], [1.0, 0.0], [0.25, 0.25]]), GridSpec(1e-3))
    assert value == 0.5


def test_simplex_grid_counts_and_coverage():
    grid = simplex_grid(3, 4)
    assert grid.shape == (15, 3)  # C(4+2, 2)
    assert np.allclose(grid.sum(axis=1), 1.0)
    assert len(np.unique(np.round(grid, 12), axis=0)) == 15
    assert simplex_grid(1, 7).tolist() == [[1.0]]


def _recursive_compositions(dim, total):
    """The grid's former construction, by recursion on the first coordinate."""
    if dim == 1:
        return np.array([[total]], dtype=float)
    if dim == 2:
        k = np.arange(total + 1, dtype=float)
        return np.column_stack([k, total - k])
    blocks = []
    for first in range(total + 1):
        rest = _recursive_compositions(dim - 1, total - first)
        blocks.append(np.hstack([np.full((rest.shape[0], 1), float(first)), rest]))
    return np.vstack(blocks)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_simplex_grid_matches_the_recursive_construction_bitwise(dim):
    # the same points in the same (lexicographic) order, bit for bit
    for resolution in [*range(1, 21), 97, 178] + ([1000] if dim < 4 else []):
        want = _recursive_compositions(dim, resolution) / resolution
        got = simplex_grid(dim, resolution)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), resolution


def test_grid_victim_examples():
    spec = GridSpec(step=1e-3)
    assert grid_victim_value(np.array([[0.0], [1.0]]), spec) == pytest.approx(1.0, abs=1e-3)
    assert grid_victim_value(MATCHING, spec) == pytest.approx(0.5, abs=1e-3)
    assert grid_victim_value(np.zeros((2, 2)), spec) == 0.0


def test_grid_victim_dimension_guard():
    with pytest.raises(ValueError):
        grid_victim_value(np.zeros((5, 1)), GridSpec(step=0.5))


def test_grid_attacker_examples():
    spec = GridSpec(step=1e-3)
    left = MATCHING @ np.array([[1.0, 0.0]]).T
    right = MATCHING @ np.array([[0.0, 1.0]]).T
    assert grid_attacker_value(left, DECOY, 1.0, spec) == pytest.approx(0.0, abs=1e-3)
    assert grid_attacker_value(right, DECOY, 1.0, spec) == pytest.approx(5.0, abs=5e-3)
    assert grid_attacker_value(right, np.zeros((2, 2)), 1.0, spec) == 0.0


def test_grid_agrees_with_stage_lps_on_random_instances():
    rng = np.random.default_rng(55)
    spec = GridSpec(step=1e-3)
    for _ in range(25):
        n, m, k = (int(rng.integers(1, 4)) for _ in range(3))
        rows = random_mix_rows(rng, k, m)
        a = rng.uniform(-1.0, 1.0, (n, m))
        b = rng.uniform(-1.0, 1.0, (n, m))
        a_prime = a @ rows.T
        _, (z,), _, _ = victim_br_lp(a_prime[None])
        col_range = float(np.max(a_prime.max(axis=0) - a_prime.min(axis=0), initial=0.0))
        assert abs(z - grid_victim_value(a_prime, spec)) <= col_range * spec.step + 1e-6
        br = stage_solve(rows, a, b)
        assert abs(br.v2_star - grid_attacker_value(a_prime, b, z, spec)) \
            <= 2.0 * spec.step + 1e-6


def enumerate_deterministic_policies(g):
    """An iterator over every deterministic attacker policy, each once.

    Lexicographic over (step, state) cells with step most significant; the
    first policy plays action 0 everywhere.  Gated to at most ENUM_GUARD
    policies, like `brute_force_inception`; the guard is checked at call
    time.
    """
    H, S, m = g.horizon, g.num_states, g.m
    oracle._check_enum_guard(g)
    return (
        mg.MarkovPolicy.deterministic(2, np.reshape(assignment, (H, S)), m)
        for assignment in itertools.product(range(m), repeat=H * S)
    )


def test_enumeration_counts_and_order():
    g = chain_game(seed=40, horizon=1, states=1, n=2, m=2)
    policies = list(enumerate_deterministic_policies(g))
    assert len(policies) == 2
    g = chain_game(seed=40, horizon=2, states=2, n=3, m=2)
    policies = list(enumerate_deterministic_policies(g))
    assert len(policies) == 16
    assert all(p.player == 2 and p.is_deterministic for p in policies)
    assert all(p.action_at(h, s) == 0 for p in (policies[0],) for h in range(2) for s in range(2))
    keys = [tuple(p.entries.argmax(axis=2).ravel()) for p in policies]
    assert keys == sorted(keys) and len(set(keys)) == 16


def test_enumeration_guard():
    g = chain_game(seed=41, horizon=4, states=2, n=2, m=5)
    with pytest.raises(ValueError):
        list(enumerate_deterministic_policies(g))


def test_enumeration_checks_guard_and_player_at_call_time():
    # no next(): the call itself must raise, not the first iteration
    g = chain_game(seed=41, horizon=4, states=2, n=2, m=5)
    with pytest.raises(ValueError, match=f"enumeration of {5 ** 8} policies exceeds guard"):
        enumerate_deterministic_policies(g)
    # attacker policies only: there is no player to choose
    with pytest.raises(TypeError):
        enumerate_deterministic_policies(g, player=1)


def test_brute_force_on_decoy_game(decoy_game):
    policy, value = brute_force_inception(decoy_game)
    assert policy.action_at(0, 0) == 1
    assert value == pytest.approx(5.0, abs=1e-9)


def test_brute_force_tie_breaks_to_first_enumerated(decoy_game):
    g = decoy_game.with_attacker_rewards(np.zeros((1, 1, 2, 2)))
    policy, value = brute_force_inception(g)
    assert value == 0.0
    assert policy.action_at(0, 0) == 0


def test_brute_force_dominates_every_fixed_fake():
    g = chain_game(seed=42, horizon=2, states=2)
    _, best = brute_force_inception(g)
    for candidate in enumerate_deterministic_policies(g):
        assert best >= mg.exploit_fixed_fake(g, candidate).v2_root - 1e-12


def per_policy_inception(g):
    """Reference for brute_force_inception: exploit each enumerated fake
    policy on its own and keep the first strict improvement."""
    best_policy, best_value = None, -np.inf
    for candidate in enumerate_deterministic_policies(g):
        value = mg.exploit_fixed_fake(g, candidate).v2_root
        if value > best_value:
            best_policy, best_value = candidate, value
    return best_policy, best_value


def assert_matches_per_policy_bits(g):
    policy, value = brute_force_inception(g)
    ref_policy, ref_value = per_policy_inception(g)
    assert np.array_equal(policy.entries, ref_policy.entries)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    return policy, value


@pytest.mark.parametrize("size", [(2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 3)],
                         ids=["H2S2-2x2", "H3S2-2x2", "H2S3-2x2", "H2S2-3x3"])
def test_brute_force_bit_identical_to_per_policy_exploitation(size, monkeypatch):
    for seed in range(10):
        assert_matches_per_policy_bits(random_game(np.random.default_rng(seed), *size))
    # integer rewards tie best replies exactly; count the cells the batched
    # pass settles with the maximin LP over exactly the tied rows
    maximins = watch_tied_cells(monkeypatch, inception)
    tied = 0
    for seed in range(10):
        g = integer_reward_game(seed, *size)
        before = len(maximins)
        brute_force_inception(g)
        tied += len(maximins) - before
        assert_matches_per_policy_bits(g)
    assert tied


def test_brute_force_roots_are_bitwise_one_dot_per_policy(monkeypatch):
    # the roots read off the exhaustive pass's rows in one vectorized dot
    # are, bit for bit, one mu @ x per policy (ValueTables.root's dot):
    # the returned value is the first maximum of those dots and the policy
    # its row, on the enum pool (H = S = 2, 2x2, seeds 0-499) and on the
    # integer-reward sizes
    rows = []
    real = oracle._suffix_pass

    def recorded(g, keep):
        rows.append(real(g, keep))
        return rows[-1]

    monkeypatch.setattr(oracle, "_suffix_pass", recorded)
    games = [random_game(np.random.default_rng(seed), 2, 2, 2, 2) for seed in range(500)]
    games += [integer_reward_game(seed, *size) for seed in range(20)
              for size in ((3, 2, 2, 2), (2, 3, 2, 2), (2, 2, 3, 3))]
    for g in games:
        rows.clear()
        policy, value = brute_force_inception(g)
        (v,) = rows
        dots = [float(g.mu @ x) for x in v[1]]
        assert np.vecdot(v[1], g.mu).tobytes() == np.array(dots).tobytes()
        best = int(np.argmax(dots))
        assert type(value) is float and np.float64(value).tobytes() == np.float64(
            dots[best]).tobytes()
        want = np.unravel_index(best, (g.m,) * (g.horizon * g.num_states))
        assert np.array_equal(np.argmax(policy.entries, axis=2).ravel(), want)


def test_brute_force_finds_the_continuation_tradeoff():
    policy, value = assert_matches_per_policy_bits(continuation_tradeoff_game())
    assert value == 100.0
    assert policy.action_at(1, 2) == 1


def test_brute_force_guard_fires_before_any_stage_solve(monkeypatch):
    # 2 ** 12 == ENUM_GUARD policies are still searched
    policy, _ = brute_force_inception(random_game(np.random.default_rng(7), 1, 12, 2, 2))
    assert policy.entries.shape == (1, 12, 2)

    def fail(cols, b):
        raise AssertionError("stage solve ran before the guard")

    monkeypatch.setattr(inception, "singleton_stage_solves", fail)
    past = np.zeros((1, ENUM_GUARD + 1))
    with pytest.raises(ValueError, match=f"^enumeration of {ENUM_GUARD + 1} policies "
                                         f"exceeds guard {ENUM_GUARD}$"):
        brute_force_inception(single_step_game(past, past))


@pytest.mark.parametrize("call, error, message", [
    (lambda: simplex_grid(2, 0), ValueError, "resolution must be >= 1"),
    (lambda: mg.victim_br_vertices(np.ones(3), 0.0), ValueError,
     "a_prime must be a 2-D matrix, got shape (3,)"),
    (lambda: mg.victim_br_vertices([[np.inf, 0.0]], 0.0), ValueError,
     "a_prime contains non-finite entries"),
    # the matching game's maximin value is 0.5, so no mix guarantees 1
    (lambda: mg.victim_br_vertices(MATCHING, 1.0), StageSolveError,
     "empty best-response polytope; z_star is not optimal"),
    (lambda: grid_attacker_value(np.zeros((5, 1)), np.zeros((5, 2)), 0.0, GridSpec(step=0.5)),
     ValueError, "grid oracle gated to n, m <= 4"),
], ids=["resolution-0", "1-D-a_prime", "non-finite-a_prime", "z_star-too-high", "n-above-gate"])
def test_oracle_refusals_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
