import dataclasses

import numpy as np
import pytest

import mgincept as mg
from mgincept.oracle import GRID_MAX_DIM, grid_victim_value, victim_br_vertices


def single_step_game(a, b):
    """One-state, one-step game from a pair of n x m payoff matrices."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = a.shape
    transitions = np.ones((1, 1, n, m, 1))
    return mg.MarkovGame(1, 1, n, m, [1.0], [[[a]], [[b]]], transitions)


def grid_attacker_value(a_prime, b, z_star, spec):
    """Grid maximum over attacker mixes of the worst best-response payoff,
    as `mgincept verify --mode grid` computes it per stage.

    The inner minimization over the victim's best-response polytope is exact
    (a linear function attains its minimum at a vertex); only the outer
    maximization is discretized: it is `grid_victim_value` of the vertex
    payoffs (m x vertices), the attacker's mix being the grid's row player.
    """
    b = np.asarray(b, dtype=float)
    n, m = b.shape
    if n > GRID_MAX_DIM or m > GRID_MAX_DIM:
        raise ValueError(f"grid oracle gated to n, m <= {GRID_MAX_DIM}")
    return grid_victim_value((np.stack(victim_br_vertices(a_prime, z_star)) @ b).T, spec)


def list_form_doc(g):
    """A game document with every array as nested lists of floats, the form
    hand-written files and earlier versions of `save_game` use."""
    return {
        "horizon": g.horizon,
        "states": g.num_states,
        "actions": [g.n, g.m],
        "mu": g.mu.tolist(),
        "rewards": {"p1": g.rewards[0].tolist(), "p2": g.rewards[1].tolist()},
        "transitions": g.transitions.tolist(),
    }


def pure_stage_policy(player, action, k, horizon=1, states=1):
    actions = np.full((horizon, states), action, dtype=int)
    return mg.MarkovPolicy.deterministic(player, actions, k)


@pytest.fixture
def decoy_game():
    """Matching game for the victim; the attacker is paid only on (0, 0).

    The victim's matrix makes action 1 the best response to attacker action
    0 and vice versa; the attacker's true preference is column 0.  Faking a
    preference for column 1 baits the victim into row 0, worth 5.
    """
    return single_step_game([[0.0, 1.0], [1.0, 0.0]], [[5.0, 0.0], [0.0, 0.0]])


@pytest.fixture
def decoy_beliefs():
    """Singleton beliefs for each pure attacker action of decoy_game."""
    return {
        0: mg.BeliefSet((pure_stage_policy(2, 0, 2),)),
        1: mg.BeliefSet((pure_stage_policy(2, 1, 2),)),
    }


def chain_game(seed=0, horizon=2, states=2, n=2, m=2):
    """Small random game with well-spread transitions, seeded."""
    from mgincept.oracle import random_game

    return random_game(np.random.default_rng(seed), horizon, states, n, m)


def integer_reward_game(seed, horizon=3, states=4, n=3, m=3):
    """Random game with rewards rounded to halves, so that best replies tie
    exactly at many stages (the singleton stage solve's maximin LP over the
    tied rows runs there)."""
    from mgincept.oracle import random_game

    g = random_game(np.random.default_rng(seed), horizon, states, n, m)
    return mg.MarkovGame(horizon, states, n, m, g.mu, np.round(2 * g.rewards), g.transitions)


def continuation_tradeoff_game():
    """Two-step game where the best fake sacrifices late value for leverage.

    From the start state the victim's row picks the successor: row 0 leads
    to a sink, row 1 to a state whose fake column controls the victim's
    continuation value.  Faking the low-value column there makes row 1
    unattractive up front, steering the victim into the attacker's jackpot
    row; the stagewise pass never sees that trade.
    """
    H, S, n, m = 2, 3, 2, 2
    r1 = np.zeros((H, S, n, m))
    r2 = np.zeros((H, S, n, m))
    r1[0, 0] = [[5.0, 5.0], [0.0, 0.0]]
    r2[0, 0] = [[100.0, 100.0], [0.0, 0.0]]
    r1[1, 2] = [[10.0, 0.0], [9.0, 0.1]]
    r2[1, 2] = [[5.0, 5.0], [4.0, 4.0]]
    p = np.zeros((H, S, n, m, S))
    p[:, :, :, :, 0] = 1.0
    p[0, 0, 0, :, :] = [0.0, 1.0, 0.0]
    p[0, 0, 1, :, :] = [0.0, 0.0, 1.0]
    return mg.MarkovGame(H, S, n, m, [1.0, 0.0, 0.0], np.stack([r1, r2]), p)


def random_policy(rng, player, horizon, states, k):
    entries = rng.uniform(0.05, 1.0, (horizon, states, k))
    entries /= entries.sum(axis=2, keepdims=True)
    return mg.MarkovPolicy(player, entries)


def random_mix_rows(rng, k, m):
    """K random stage mixes (rows of a belief's stage matrix)."""
    rows = rng.uniform(0.05, 1.0, (k, m))
    return rows / rows.sum(axis=1, keepdims=True)


def stage_solve(rows, a, b):
    """One normal-form stage against the belief rows (K x m), with victim
    payoffs a and attacker payoffs b (n x m), solved as a layer of one stage
    by `stage.belief_stage_solves`; returns its StageBR without the stage
    axis."""
    from mgincept import stage

    br = stage.belief_stage_solves((a @ rows.T)[None], b[None])
    return stage.StageBR(*(getattr(br, f.name)[0] for f in dataclasses.fields(br)))


def watch_tied_cells(monkeypatch, *modules):
    """Check every `singleton_stage_solves` call made through the modules
    (`stage` is always watched): z is the exact column maximum, the attacker
    LP never runs, and the cells whose maximum more than one row attains
    (==) run one `victim_br_lp` batch per number of tied rows, smallest
    first, whose stages are exactly b[p][col == z].T of those cells, in
    np.nonzero order.  Returns the list of those matrices, one per tied
    cell, which grows with every checked call."""
    from mgincept import stage

    real_kernel = stage.singleton_stage_solves
    lps = []
    seen = []

    def recorded(name, fn):
        def wrapped(*args):
            lps.append((name, args))
            return fn(*args)
        return wrapped

    def kernel(cols, b):
        start = len(lps)
        cells = real_kernel(cols, b)
        z = cols.max(axis=1)
        assert cells.z.tobytes() == z.tobytes()
        tied = np.count_nonzero(cols == z[:, None], axis=1) > 1
        expected = [b[p][cols[p, :, j] == z[p, j]].T for p, j in zip(*np.nonzero(tied))]
        sizes = sorted({matrix.shape[1] for matrix in expected})
        ran = lps[start:]
        assert [name for name, _ in ran] == ["victim_br_lp"] * len(sizes)
        for (_, (batch,)), size in zip(ran, sizes):
            want = np.stack([matrix for matrix in expected if matrix.shape[1] == size])
            assert batch.shape == want.shape and batch.tobytes() == want.tobytes()
        seen.extend(expected)
        return cells

    for name in ("victim_br_lp", "attacker_br_lp"):
        monkeypatch.setattr(stage, name, recorded(name, getattr(stage, name)))
    for module in {stage, *modules}:
        monkeypatch.setattr(module, "singleton_stage_solves", kernel)
    return seen
