import math

import numpy as np
import pytest

import mgincept as mg
from conftest import (chain_game, continuation_tradeoff_game, integer_reward_game,
                      pure_stage_policy, single_step_game, stage_solve, watch_tied_cells)
from mgincept import inception, oracle
from mgincept.oracle import (
    ENUM_GUARD,
    GridSpec,
    brute_force_inception,
    enumerate_deterministic_policies,
    grid_attacker_value,
    grid_victim_value,
    random_game,
    random_mix_rows,
    simplex_grid,
)
from mgincept.stage import victim_br_lp

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
    # any composition is made, and the coarser step fits
    def unreachable(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(oracle, "_compositions", unreachable)
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


def test_enumeration_counts_and_order():
    g = chain_game(seed=40, horizon=1, states=1, n=2, m=2)
    policies = list(enumerate_deterministic_policies(g, player=2))
    assert len(policies) == 2
    g = chain_game(seed=40, horizon=2, states=2, n=3, m=2)
    policies = list(enumerate_deterministic_policies(g, player=2))
    assert len(policies) == 16
    assert all(p.is_deterministic for p in policies)
    assert all(p.action_at(h, s) == 0 for p in (policies[0],) for h in range(2) for s in range(2))
    keys = [tuple(p.entries.argmax(axis=2).ravel()) for p in policies]
    assert keys == sorted(keys) and len(set(keys)) == 16
    victim_side = list(enumerate_deterministic_policies(g, player=1))
    assert len(victim_side) == 3 ** 4


def test_enumeration_guard():
    g = chain_game(seed=41, horizon=4, states=2, n=2, m=5)
    with pytest.raises(ValueError):
        list(enumerate_deterministic_policies(g, player=2))


def test_enumeration_checks_guard_and_player_at_call_time():
    # no next(): the call itself must raise, not the first iteration
    g = chain_game(seed=41, horizon=4, states=2, n=2, m=5)
    with pytest.raises(ValueError, match=f"enumeration of {5 ** 8} policies exceeds guard"):
        enumerate_deterministic_policies(g, player=2)
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        enumerate_deterministic_policies(chain_game(seed=41), player=3)


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
    for candidate in enumerate_deterministic_policies(g, player=2):
        assert best >= mg.exploit_fixed_fake(g, candidate).v2_root - 1e-12


def per_policy_inception(g):
    """Reference for brute_force_inception: exploit each enumerated fake
    policy on its own and keep the first strict improvement."""
    best_policy, best_value = None, -np.inf
    for candidate in enumerate_deterministic_policies(g, player=2):
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


def _membership_by_stage(belief, pi2):
    """Belief membership as one LP per (h, s), in order, through the scalar
    engine: the reference for the batched check."""
    import lp_reference
    from mgincept.lp import LpStatus

    K = belief.size
    for h, s in np.ndindex(belief.mixes.shape[:2]):
        M = np.vstack([belief.mixes[h, s], np.ones(K)])
        e = np.append(pi2.entries[h, s], 1.0)
        sol = lp_reference.solve_one(M.sum(axis=0), M, e)
        if sol.status != LpStatus.OPTIMAL or sol.value < e.sum() - oracle.FEAS_TOL:
            return False
    return True


def test_belief_membership_is_the_per_stage_check():
    rng = np.random.default_rng(60)
    answers = set()
    for trial in range(80):
        H, S, m, K = (int(rng.integers(1, 4)) for _ in range(4))
        g = random_game(rng, H, S, 2, m)
        belief = oracle.random_belief(rng, g, K)
        if trial % 2:
            weights = rng.dirichlet(np.ones(K), (H, S))
            entries = np.einsum("hsmk,hsk->hsm", belief.mixes, weights)
            entries /= entries.sum(axis=2, keepdims=True)
        else:
            entries = belief.base[0].entries.copy()
            entries[-1, -1] = rng.dirichlet(np.ones(m))
        pi2 = mg.MarkovPolicy(2, entries)
        answer = oracle.belief_membership(belief, pi2)
        assert answer == _membership_by_stage(belief, pi2)
        answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("fail_at, outside_at, raises", [(1, 3, True), (3, 1, False)])
def test_belief_membership_keeps_the_first_failure(monkeypatch, fail_at, outside_at, raises):
    # stage fail_at of 2 x 3 makes the engine fail, stage outside_at is no
    # member: the stage-by-stage order decides between raising and False,
    # also with the engine solving every stage in its own run
    from mgincept import lp

    belief = mg.BeliefSet(tuple(pure_stage_policy(2, j, 3, horizon=2, states=3)
                                for j in (0, 1)))
    entries = np.zeros((2, 3, 3))
    entries[..., :2] = 0.5
    entries[np.unravel_index(outside_at, (2, 3))] = [0.0, 0.0, 1.0]
    pi2 = mg.MarkovPolicy(2, entries)
    real = oracle.solve_lp

    def failing(prog):
        out = real(prog)
        assert out.status.shape == (6,)  # one call on all H * S stages
        status, value = out.status.copy(), out.value.copy()
        status[fail_at], value[fail_at] = lp.LpStatus.STALLED.value, np.nan
        return out._replace(status=status, value=value)

    monkeypatch.setattr(oracle, "solve_lp", failing)
    for elements in (lp.BATCH_ELEMENTS, 1):
        monkeypatch.setattr(lp, "BATCH_ELEMENTS", elements)
        if raises:
            with pytest.raises(lp.LpError, match=r"h=0, s=1: pivot limit"):
                oracle.belief_membership(belief, pi2)
        else:
            assert oracle.belief_membership(belief, pi2) is False


@pytest.mark.parametrize("eps", (1e-8, 1e-6))
def test_belief_membership_accepts_a_stage_a_hair_inside_the_hull(eps):
    # every stage is one mixture of the K = 3 base mixes, and stage (0, 0)
    # is moved by eps toward e_0: least squares still reproduces it with
    # weights >= 0.078, to a residual below FEAS_TOL / 10, so it is a member
    rng = np.random.default_rng(39)
    g = random_game(rng, 2, 3, 2, int(rng.integers(2, 5)))
    belief = oracle.random_belief(np.random.default_rng(5039), g, int(rng.integers(1, 5)))
    entries = np.einsum("hsmk,k->hsm", belief.mixes, rng.dirichlet(np.ones(belief.size)))
    entries[0, 0, 0] += eps
    entries[0, 0] /= entries[0, 0].sum()
    M = np.vstack([belief.mixes[0, 0], np.ones(belief.size)])
    e = np.append(entries[0, 0], 1.0)
    weights = np.linalg.lstsq(M, e, rcond=None)[0]
    assert weights.min() >= 0.078 and np.abs(M @ weights - e).sum() <= oracle.FEAS_TOL / 10
    assert oracle.belief_membership(belief, mg.MarkovPolicy(2, entries))
