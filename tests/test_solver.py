import functools
import itertools

import numpy as np
import pytest

import mgincept as mg
from conftest import (chain_game, integer_reward_game, pure_stage_policy, random_policy,
                      stage_solve, watch_tied_cells)
from mgincept.oracle import (GridSpec, belief_membership, grid_attacker_value, grid_victim_value,
                             random_belief, random_game, victim_br_vertices)
from mgincept import solver, stage
from mgincept.solver import STAGE_BUDGET, q_from_v
from mgincept.stage import MAX_BELIEF_POLICIES


def test_q_terminal_layer_equals_stage_rewards():
    g = chain_game(seed=1, horizon=2, states=2)
    q = q_from_v(g, g.horizon - 1, np.zeros((2, 2)))
    assert np.array_equal(q, g.rewards[:, g.horizon - 1])


def test_q_constant_continuation_shifts_everything():
    g = chain_game(seed=2, horizon=2, states=2)
    c = 3.25
    q = q_from_v(g, 0, np.full((2, 2), c))
    assert np.allclose(q, g.rewards[:, 0] + c, atol=1e-12)


def test_q_matches_dense_recomputation():
    g = chain_game(seed=3, horizon=2, states=2, n=3, m=2)
    rng = np.random.default_rng(4)
    v_next = rng.uniform(-2.0, 2.0, (2, 2))
    q = q_from_v(g, 1, v_next)
    for i, s, a1, a2 in np.ndindex(2, 2, 3, 2):
        direct = g.rewards[i, 1, s, a1, a2] + sum(
            g.transitions[1, s, a1, a2, t] * v_next[i, t] for t in range(2)
        )
        assert abs(q[i, s, a1, a2] - direct) <= 1e-12


@pytest.mark.parametrize("size", ((3, 4, 3, 2), (2, 6, 5, 4)), ids=("3x2", "5x4"))
@pytest.mark.parametrize("stack", ((1,), (7,), (2, 3)), ids=("B=1", "B=7", "2x3"))
def test_stacked_q_equals_the_per_vector_calls_bitwise(size, stack):
    # one broadcast matmul over both players and a stack of value vectors
    # gives, slice by slice, the bytes of each player's r + P @ v
    g = random_game(np.random.default_rng(6), *size)
    v_next = np.random.default_rng(7).uniform(-3.0, 3.0, (2, *stack, g.num_states))
    for h in range(g.horizon):
        q = q_from_v(g, h, v_next)
        assert q.shape == (2, *stack, g.num_states, g.n, g.m)
        for i, idx in itertools.product(range(2), np.ndindex(*stack)):
            matvec = g.rewards[i, h] + g.transitions[h] @ v_next[(i, *idx)]
            assert q[(i, *idx)].tobytes() == matvec.tobytes()


def test_q_rejects_bad_inputs():
    g = chain_game(seed=5)
    # (2,) has no player axis and (3, 2) three players
    for wrong in (np.zeros(2), np.zeros((3, 2)), np.zeros(3), np.zeros((2, 4, 3)),
                  np.zeros((2, 1)), np.float64(0.0)):
        with pytest.raises(ValueError, match="v_next has shape"):
            q_from_v(g, 0, wrong)
    with pytest.raises(ValueError):
        q_from_v(g, 5, np.zeros((2, 2)))


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
            br = stage_solve(belief.mixes[h, s].T, *report.q.values[:, h, s])
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
            q1, q2 = report.q.values[:, h, s]
            a_prime = q1 @ belief.mixes[h, s]
            assert abs(report.v.values[0, h, s]
                       - grid_victim_value(a_prime, spec)) <= 1e-2
            assert abs(report.v.values[1, h, s]
                       - grid_attacker_value(a_prime, q2,
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
            a_prime = report.q.values[0, h, s] @ belief.mixes[h, s]
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


def test_clean_mix_of_a_layer_is_bitwise_the_per_row_snap():
    # the K > 1 layer snaps all its attacker mixes in one call; each row
    # must come out as the same row snapped alone, and a row without
    # positive mass still raises
    rng = np.random.default_rng(23)
    for _ in range(200):
        P, m = int(rng.integers(1, 9)), int(rng.integers(1, 70))
        y = rng.uniform(-1e-13, 1.0, (P, m)) * (rng.uniform(size=(P, m)) < 0.8)
        y[:, 0] += 1e-3
        rows = np.array([stage.clean_mix(row) for row in y])
        assert stage.clean_mix(y).tobytes() == rows.tobytes()
    y[-1] = -1e-13
    with pytest.raises(ValueError, match="no positive mass"):
        stage.clean_mix(y)


def _per_stage_best_response(g, belief):
    """Reference backward pass: one stage solve per (h, s)."""
    H, S = g.horizon, g.num_states
    values = np.zeros((2, H + 1, S))
    pi2 = np.zeros((H, S, g.m))
    for h in range(H - 1, -1, -1):
        q1, q2 = q_from_v(g, h, values[:, h + 1])
        for s in range(S):
            br = stage_solve(belief.mixes[h, s].T, q1[s], q2[s])
            values[:, h, s] = br.z_star, br.v2_star
            pi2[h, s] = br.y_star
    return values, pi2


def test_singleton_belief_layers_match_per_stage_reference(monkeypatch):
    # the solver forms a layer's believed columns at once and solves a
    # singleton belief a layer at a time; mixed beliefs check the batched
    # columns, pure ones on integer rewards tie often and take the maximin
    # LP over exactly the tied rows; K = 3 and secure beliefs check the
    # columns the LP chain gets
    tied = watch_tied_cells(monkeypatch)
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
        # the evaluation of a fixed pair builds its payoffs the same way:
        # the victim on row 0 doubles 1e308 at step 0
        with pytest.raises(ValueError, match="overflow"):
            mg.evaluate_policy(g, mg.MarkovPolicy.deterministic(1, [[0], [0]], 2),
                               mg.MarkovPolicy(2, np.full((2, 1, 2), 0.5)))


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

    monkeypatch.setattr(solver, "belief_stage_solves", no_stage_solve)
    with pytest.raises(ValueError, match="exceeds cap"):
        mg.markov_attacker_best_response(g, belief)


def test_invalid_game_rejected_up_front():
    g = chain_game(seed=20)
    broken = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, [0.4, 0.4],
                           g.rewards, g.transitions)
    with pytest.raises(mg.InvalidGameError):
        mg.markov_attacker_best_response(broken, mg.secure_belief(broken))


# Game seeds 0-59 of the 10-step, 20-state 6x6 games on which a K = 8 random
# belief or the secure belief used to stop the solve: phase 1 reported
# unbounded, or the attacker LP came back UNBOUNDED at the victim's z*.
FORMER_BR_FAULT_GAMES = (1, 3, 6, 7, 12, 14, 15, 24, 29, 31, 32, 33, 39, 57)


@functools.cache
def _former_fault_reports(seed):
    g = random_game(np.random.default_rng(seed), 10, 20, 6, 6)
    beliefs = (random_belief(np.random.default_rng(seed + 1000), g, 8), mg.secure_belief(g))
    return g, [(b, mg.markov_attacker_best_response(g, b)) for b in beliefs]


@pytest.mark.parametrize("seed", FORMER_BR_FAULT_GAMES)
def test_former_stage_solve_fault_games_solve(seed):
    g, solved = _former_fault_reports(seed)
    for _, report in solved:
        assert np.isfinite(report.v.values).all()
        assert report.v1_root == pytest.approx(float(g.mu @ report.v.values[0, 0]), abs=1e-9)


def _highs(c, a_ub, a_eq, bounds):
    from scipy.optimize import linprog

    return linprog(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq, b_eq=[1.0],
                   bounds=bounds, method="highs",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})


def _highs_stage_values(a_prime, b):
    """(victim, attacker) stage values of the two stage LPs, solved by HiGHS."""
    n, k = a_prime.shape
    m = b.shape[1]
    res = _highs(np.append(np.zeros(n), -1.0), np.hstack([-a_prime.T, np.ones((k, 1))]),
                 np.append(np.ones(n), 0.0)[None], [(0.0, None)] * n + [(None, None)])
    assert res.status == 0, res.message
    z = -res.fun
    # HiGHS's z may sit a hair above its own optimum, which empties the
    # best-reply polytope; lower it by tiny relative steps until it is not
    for relax in (0.0, 1e-13, 1e-12, 1e-11):
        z_relaxed = z - relax * (1.0 + abs(z))
        res = _highs(np.concatenate([np.zeros(m), np.full(k, -z_relaxed), [-1.0]]),
                     np.hstack([-b, a_prime, np.ones((n, 1))]),
                     np.append(np.ones(m), np.zeros(k + 1))[None],
                     [(0.0, None)] * (m + k) + [(None, None)])
        if res.status == 0:
            return z, -res.fun
    raise AssertionError(f"HiGHS attacker LP: {res.message}")


@pytest.mark.parametrize("seed", FORMER_BR_FAULT_GAMES)
def test_former_stage_solve_fault_games_match_highs(seed):
    pytest.importorskip("scipy")
    g, solved = _former_fault_reports(seed)
    rng = np.random.default_rng(seed)
    for belief, report in solved:
        tol = 1e-9 * (1.0 + np.abs(report.q.values).max())
        for h in (0, g.horizon // 2, g.horizon - 1):
            s = int(rng.integers(g.num_states))
            q1, q2 = report.q.values[:, h, s]
            z, v2 = _highs_stage_values(q1 @ belief.mixes[h, s], q2)
            assert abs(report.v.values[0, h, s] - z) <= tol
            assert abs(report.v.values[1, h, s] - v2) <= tol


def _duplicate_victim_action(g):
    """g with victim action 1 a copy of action 0 in the victim's rewards
    and the transitions: wherever the two are in the victim's maximin
    support its optimum is a segment, and the attacker LP runs."""
    rewards, transitions = np.array(g.rewards), np.array(g.transitions)
    rewards[0, :, :, 1] = rewards[0, :, :, 0]
    transitions[:, :, 1] = transitions[:, :, 0]
    return mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu, rewards, transitions)


def test_k_layer_is_bitwise_the_per_state_solves(monkeypatch):
    # each layer of a K > 1 solve is one victim LP batch, the closed form
    # on the stages whose victim optimum is unique and one attacker LP
    # batch on the others; the reference solves every (h, s) alone, through
    # the scalar engine, on the report's own Q: the started tableaux both
    # LPs hand to the engine's one entry, and the lockstep engine is not
    # reached.  The game with a duplicated victim action mixes both
    # kinds of stage in its layers
    import lp_reference

    def unreachable(*args):
        raise AssertionError("a stage LP reached the lockstep engine")

    g = random_game(np.random.default_rng(30), 4, 6, 4, 5)
    fallback = []
    for game in (g, _duplicate_victim_action(g)):
        belief = random_belief(np.random.default_rng(31), game, 3)
        report = mg.markov_attacker_best_response(game, belief)
        monkeypatch.setattr(stage, "solve_tableaux", lp_reference.solve_started)
        monkeypatch.setattr(mg.lp, "_run", unreachable)
        q1, q2 = report.q.values
        for h, s in np.ndindex(game.horizon, game.num_states):
            cols = (q1[h, s] @ belief.mixes[h, s])[None]
            br = stage._lp_chain(cols, q2[h, s][None])
            fallback.append(not stage.victim_br_lp(cols)[2][0])
            assert report.v.values[0, h, s].tobytes() == br.z_star[0].tobytes()
            assert report.v.values[1, h, s].tobytes() == br.v2_star[0].tobytes()
            assert report.pi2_star.entries[h, s].tobytes() == br.y_star[0].tobytes()
        monkeypatch.undo()
    assert 0 < sum(fallback) < len(fallback)


def test_stage_solves_return_distributions_snapped_where_the_lp_made_them(monkeypatch):
    # belief_stage_solves hands back finished attacker mixes: every row is
    # a distribution, the attacker-LP rows of a K > 1 layer are clean_mix of
    # that LP's vertices and a K = 1 layer's tied rows clean_mix of the
    # tied cells' maximin mixes, bit for bit
    made = []
    real = stage.attacker_br_lp

    def recorded(z_star, cols, b):
        made.append(real(z_star, cols, b))
        return made[-1]

    snapped = tied = 0
    for seed in range(20):
        g = integer_reward_game(seed)
        rng = np.random.default_rng(seed)
        pure = mg.MarkovPolicy.deterministic(2, rng.integers(0, g.m, (g.horizon, g.num_states)),
                                             g.m)
        for belief in (mg.BeliefSet((pure,)), random_belief(rng, g, 3), mg.secure_belief(g)):
            q1, q2 = mg.markov_attacker_best_response(g, belief).q.values
            for h in range(g.horizon):
                cols = q1[h] @ belief.mixes[h]
                monkeypatch.setattr(stage, "attacker_br_lp", recorded)
                made.clear()
                br = stage.belief_stage_solves(cols, q2[h])
                monkeypatch.undo()
                assert (br.y_star >= 0.0).all()
                assert (np.abs(br.y_star.sum(axis=1) - 1.0) <= mg.model.PROB_TOL).all()
                if belief.size == 1:
                    cells = stage.singleton_stage_solves(cols, q2[h])
                    rows = cells.tied[:, 0]
                    want = stage.clean_mix(cells.tied_y)
                    tied += len(want)
                else:
                    _, _, unique, status = stage.victim_br_lp(cols)
                    rows = ~unique & (status == mg.LpStatus.OPTIMAL.value)
                    want = stage.clean_mix(made[0][0]) if made else ()
                    snapped += len(want)
                assert len(made) == (belief.size > 1 and rows.any())
                assert br.y_star[rows].tobytes() == np.asarray(want, dtype=float).tobytes()
    assert snapped > 0 and tied > 0


def test_report_q_is_read_only():
    # the backward pass hands its Q tables to the report without a copy,
    # so they must be frozen there
    g = chain_game(seed=24)
    report = mg.markov_attacker_best_response(g, mg.secure_belief(g))
    assert not report.q.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        report.q.values[0, 0, 0, 0, 0] = 1.0


def _stress_game(dims, seed, k):
    """A stress-row game (ROADMAP open item 2) and its belief: the K-policy
    random belief, or the secure belief for k = None."""
    *size, scale = dims
    g = random_game(np.random.default_rng(seed), *size, reward_scale=scale)
    if k is None:
        return g, mg.secure_belief(g)
    return g, random_belief(np.random.default_rng(seed + 1000), g, k)


# Stress games whose solve used to fail: at scale 1e-6 with K = 4, at step 2,
# stage 4 with "phase 1 reported unbounded", in the attacker LP (seed 2) and
# in the victim LP (seed 7); at scales 1e4 and 1e6 at step 1 with the
# attacker LP UNBOUNDED at the victim's z* (seed 25 against the secure
# belief, seed 0 against the K = 4 belief).
@pytest.mark.parametrize("dims, seed, k", (
    ((3, 5, 4, 4, 1e-6), 2, 4), ((3, 5, 4, 4, 1e-6), 7, 4),
    ((3, 5, 4, 4, 1e4), 25, None), ((3, 5, 4, 4, 1e6), 0, 4),
), ids=("1e-6-seed2", "1e-6-seed7", "1e4-seed25-secure", "1e6-seed0-belief"))
def test_former_stress_failures_match_highs(dims, seed, k):
    # every stage against HiGHS, on payoffs divided by the stage's largest
    # entry (the stage values scale with the payoffs)
    pytest.importorskip("scipy")
    g, belief = _stress_game(dims, seed, k)
    report = mg.markov_attacker_best_response(g, belief)
    for h, s in np.ndindex(g.horizon, g.num_states):
        q1, q2 = report.q.values[:, h, s]
        scale = max(np.abs(q1).max(), np.abs(q2).max())
        z, v2 = _highs_stage_values(q1 @ belief.mixes[h, s] / scale, q2 / scale)
        assert abs(report.v.values[0, h, s] / scale - z) <= 1e-12
        assert abs(report.v.values[1, h, s] / scale - v2) <= 1e-9


def test_game_74_solves_in_both_base_orders():
    # this K = 3 belief used to fail at step 0, stage 1 (attacker LP
    # UNBOUNDED) in its drawn order and solve with its base policies reversed
    g = integer_reward_game(74, 3, 4, 3, 3)
    belief = random_belief(np.random.default_rng(1074), g, 3)
    beliefs = (belief, mg.BeliefSet(tuple(reversed(belief.base))))
    reports = [mg.markov_attacker_best_response(g, b) for b in beliefs]
    tol = 1e-12 * np.abs(reports[0].q.values).max()
    assert np.abs(reports[0].v.values - reports[1].v.values).max() <= tol
    pytest.importorskip("scipy")  # the solves above have raised nothing
    for b, report in zip(beliefs, reports):
        for h, s in np.ndindex(g.horizon, g.num_states):
            q1, q2 = report.q.values[:, h, s]
            z, v2 = _highs_stage_values(q1 @ b.mixes[h, s], q2)
            assert abs(report.v.values[0, h, s] - z) <= tol
            assert abs(report.v.values[1, h, s] - v2) <= 1e-9 * np.abs(q2).max()


def test_k_64_layer_solves_and_matches_highs():
    # one layer of 8 stages at n = m = K = 64, the largest belief the solver
    # takes; on uniform(-1, 1) stages of this size the attacker LP came back
    # UNBOUNDED about half the time while the victim LP started from an
    # artificial column for sum(x) = 1
    rng = np.random.default_rng(64)
    cols, b = rng.uniform(-1.0, 1.0, (2, 8, 64, 64))
    br = stage._lp_chain(cols, b)
    pytest.importorskip("scipy")  # the solves above have raised nothing
    for p in range(8):
        z, v2 = _highs_stage_values(cols[p], b[p])
        assert abs(br.z_star[p] - z) <= 1e-12
        assert abs(br.v2_star[p] - v2) <= 1e-9


# ROADMAP open item 2's stress rows: (H, S, n, m, reward scale) and K.
STRESS_ROWS = (((3, 5, 4, 4, 1e-12), 4), ((3, 5, 4, 4, 1e-6), 4), ((3, 5, 6, 6, 1e3), 8),
               ((3, 5, 4, 4, 1e4), 4), ((3, 5, 4, 4, 1e6), 4), ((3, 5, 4, 4, 1e12), 4),
               ((3, 5, 8, 8, 1e-12), 16), ((3, 5, 8, 8, 1.0), 16), ((3, 5, 8, 8, 1e12), 16))


@pytest.mark.parametrize("dims, k", STRESS_ROWS,
                         ids=("1e-12", "1e-6", "1e3", "1e4", "1e6", "1e12",
                              "8x8-1e-12", "8x8-1", "8x8-1e12"))
def test_stress_rows_raise_nothing(dims, k):
    # seeds 0-39 against the K-policy random belief and the secure belief
    for seed in range(40):
        for belief_k in (k, None):
            g, belief = _stress_game(dims, seed, belief_k)
            report = mg.markov_attacker_best_response(g, belief)
            assert np.isfinite(report.v.values).all()


def test_values_scale_with_the_rewards_at_every_scale():
    # ROADMAP open item 2's covariance sweep: rewards scaled by 1e-12 to
    # 1e12 give the scale-1 values times the scale, to a relative error of
    # at most 1e-12 of the largest |V|, against a K = 4 belief and the
    # secure belief (each stage's LPs solve its payoffs mapped onto [0, 1])
    worst = 0.0
    for seed in range(40):
        g = random_game(np.random.default_rng(seed), 3, 5, 4, 4)
        for belief in (random_belief(np.random.default_rng(seed + 1000), g, 4),
                       mg.secure_belief(g)):
            base = mg.markov_attacker_best_response(g, belief).v.values
            for scale in (1e-12, 1e-10, 1e-8, 1e-6, 1e6, 1e12):
                scaled = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu,
                                       scale * g.rewards, g.transitions)
                values = mg.markov_attacker_best_response(scaled, belief).v.values
                worst = max(worst, np.abs(values / scale - base).max() / np.abs(base).max())
    assert worst <= 1e-12


def test_values_are_covariant_under_affine_rewards():
    # rewards c R + d, c > 0, give values c V + d (H - h) and the same
    # policies, against a K = 4 belief and the secure belief
    worst = 0.0
    for seed in range(10):
        g = random_game(np.random.default_rng(seed), 3, 5, 4, 4)
        H = g.horizon
        for belief in (random_belief(np.random.default_rng(seed + 1000), g, 4),
                       mg.secure_belief(g)):
            base = mg.markov_attacker_best_response(g, belief)
            for c, d in ((1e-3, -5.0), (7.0, 2.5), (1e3, 0.25)):
                moved = mg.MarkovGame(H, g.num_states, g.n, g.m, g.mu, c * g.rewards + d,
                                      g.transitions)
                report = mg.markov_attacker_best_response(moved, belief)
                want = c * base.v.values + d * (H - np.arange(H + 1))[None, :, None]
                scale = c * np.abs(base.v.values).max() + abs(d) * H
                worst = max(worst, np.abs(report.v.values - want).max() / scale)
                assert np.array_equal(report.pi2_star.entries, base.pi2_star.entries)
    assert worst <= 1e-13
