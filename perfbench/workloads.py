"""The four workloads: generated inputs, one op each, and output checks.

A workload builds one round of inputs from the workload seed.  Every run
times whole rounds of the same ops, so the share of failed ops is the same
in every run.  Each op calls the library functions that the matching CLI
command calls, always through the module attribute (`mgincept.solver.
markov_attacker_best_response`, ...), so the tracer sees every call.

Checks run after the timed region on the first round's results and compare
against `reference` (HiGHS, closed forms, the benchmark's own backward
passes) or against properties the method must have; none compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import mgincept
import mgincept.gamefile  # not imported by the package itself
from mgincept.oracle import random_belief, random_game

from . import reference

# Game seeds 0-59 that hit the stage-solve fault on the `br` sizes at the
# commit the benchmark was written against (`python3 perfbench/screen.py br`).
BR_FAULT_SEEDS_0_59 = (1, 3, 6, 7, 12, 14, 15, 24, 29, 31, 32, 33, 39, 45, 46,
                       50, 51, 52, 53, 57)
# The fixed block of failing ops in every `br` round: LpError "phase 1
# reported unbounded" (1, 32), StageSolveError on the belief solve (3, 6) and
# on the secure solve (7, 14).  These inputs do not depend on the workload
# seed; with 12 drawn games they make a third of the ops, about the share of
# failing games among seeds 0-39.
BR_FAULT_BLOCK = (1, 3, 6, 7, 14, 32)
BELIEF_SEED_OFFSET = 1000
# Game seeds 0-199 on which the same fault stops the `incept` op (`screen.py
# incept`).  It depends on the game, so these are left out of the pool.
INCEPT_FAULT_SEEDS_0_199 = (85, 109, 132)
# Game seeds 0-199 on which the op runs but fails the checks (`screen.py
# incept`): on game 63, at (h=4, s=0, j=0), the victim's best reply is
# unique by a margin of 1.5e-6, yet the candidate value is 9.0e-8 below the
# closed form: as if the victim value z that cuts out the best replies
# (x' a_prime >= z) were 1e-13 too low, letting 7e-8 of the victim's weight
# onto the runner-up row.  Left out for the same reason as the fault seeds.
INCEPT_CHECK_FAULT_SEEDS_0_199 = (63,)
IOTA = 1.0            # dominance margin of the designed fake rewards
CHECKED_STAGES = 4    # br stages per solve re-solved with HiGHS


def _scale(*arrays) -> float:
    return 1.0 + max(float(np.max(np.abs(a))) for a in arrays)


def _values_tol(x) -> float:
    return 1e-9 * (1.0 + abs(x))


class Workload:
    """One set of generated inputs and the op run on each of them."""

    name = ""
    why = ""
    grain = "array"   # which reference kernel tracks this op's speed (harness)

    def build(self, seed: int, workdir: str) -> list:
        """One round of op inputs, made from the workload seed only."""
        raise NotImplementedError

    def warmup_item(self, items: list):
        """Input of the untimed warm-up op run at set-up."""
        return items[0]

    def op(self, item):
        raise NotImplementedError

    def is_fault(self, exc: Exception) -> bool:
        """True for the one known program fault this workload counts as failed."""
        return False

    def units(self, item) -> int:
        """Units of work a successful op on this input counts for throughput."""
        raise NotImplementedError

    def check(self, items: list, results: list) -> list:
        """Error messages; results[i] is None where op i failed."""
        raise NotImplementedError

    def layer_counts(self, items: list, results: list) -> dict:
        """Per-round counts read off the results rather than the calls."""
        return {}


class PooledWorkload(Workload):
    """Ops on `per_round` games whose game seeds the workload seed draws from
    `pool`.  The warm-up op runs on the pool's first game for every workload
    seed, so set-up does the same work whatever the seed."""

    pool = ()
    per_round = 0

    def item(self, game_seed: int):
        raise NotImplementedError

    def build(self, seed, workdir):
        chosen = np.random.default_rng(seed).choice(self.pool, self.per_round, replace=False)
        return [self.item(s) for s in chosen]

    def warmup_item(self, items):
        return self.item(self.pool[0])


# ---------------------------------------------------------------- br ------
@dataclass(frozen=True)
class BrItem:
    game_seed: int
    game: mgincept.MarkovGame
    belief: mgincept.BeliefSet


@dataclass(frozen=True)
class BrResult:
    on_belief: object
    secure: mgincept.BeliefSet
    on_secure: object


class Br(PooledWorkload):
    """`mgincept solve-br` twice per game: against a seeded K-policy belief,
    then with `--secure`."""

    name = "br"
    why = ("LP build and solve, both stage LPs and backward induction at H=10 "
           "S=20 6x6 K=8; a third of the ops hit the known stage-solve fault")

    def __init__(self, horizon=10, states=20, n=6, m=6, k=8, per_round=12,
                 pool=tuple(s for s in range(60) if s not in BR_FAULT_SEEDS_0_59),
                 fault_block=BR_FAULT_BLOCK):
        self.size = (horizon, states, n, m)
        self.k = k
        self.per_round = per_round
        self.pool = pool
        self.fault_block = fault_block

    def item(self, game_seed: int) -> BrItem:
        g = random_game(np.random.default_rng(game_seed), *self.size)
        belief = random_belief(np.random.default_rng(game_seed + BELIEF_SEED_OFFSET),
                               g, self.k)
        return BrItem(int(game_seed), g, belief)

    def build(self, seed, workdir):
        return super().build(seed, workdir) + [self.item(s) for s in self.fault_block]

    def op(self, item):
        solver = mgincept.solver
        on_belief = solver.markov_attacker_best_response(item.game, item.belief)
        secure = solver.secure_belief(item.game)
        on_secure = solver.markov_attacker_best_response(item.game, secure)
        return BrResult(on_belief, secure, on_secure)

    def is_fault(self, exc):
        return (isinstance(exc, (mgincept.StageSolveError, mgincept.lp.LpError))
                and "unbounded" in str(exc).lower())

    def units(self, item):
        horizon, states = self.size[:2]
        return 2 * horizon * states

    def check(self, items, results):
        errors = []
        for item, res in zip(items, results):
            if res is None:
                continue
            tag = f"br game {item.game_seed}"
            errors += check_br_report(item.game, item.belief, res.on_belief,
                                      item.game_seed, tag + " belief")
            errors += check_br_report(item.game, res.secure, res.on_secure,
                                      item.game_seed, tag + " secure")
            v_belief = res.on_belief.v.values[0]
            v_secure = res.on_secure.v.values[0]
            slack = 1e-9 * _scale(v_belief, v_secure)
            if np.any(v_belief < v_secure - slack):
                h, s = np.unravel_index(np.argmin(v_belief - v_secure), v_belief.shape)
                errors.append(f"{tag}: V1 under the belief {v_belief[h, s]:.17g} is below "
                              f"V1 under the secure belief {v_secure[h, s]:.17g} at (h={h}, s={s})")
        return errors


def check_br_report(g, belief, report, seed, tag) -> list:
    """Q tables against r + P V, roots against mu V, and sampled stages
    against HiGHS."""
    errors = []
    values = report.v.values
    q = reference.q_tables(g.rewards, g.transitions, values)
    tol = 1e-10 * _scale(q)
    dev = float(np.max(np.abs(q - report.q.values)))
    if dev > tol:
        errors.append(f"{tag}: Q tables differ from r + P V by {dev:.3g}")
    for player, root in ((0, report.v1_root), (1, report.v2_root)):
        expected = float(g.mu @ values[player, 0])
        if abs(root - expected) > _values_tol(expected):
            errors.append(f"{tag}: root value of player {player + 1} is {root:.17g}, "
                          f"mu V gives {expected:.17g}")
    horizon, states = g.horizon, g.num_states
    rng = np.random.default_rng(seed)
    stages = [(0, int(rng.integers(states))), (horizon - 1, int(rng.integers(states)))]
    while len(stages) < CHECKED_STAGES:
        stages.append((int(rng.integers(horizon)), int(rng.integers(states))))
    for h, s in stages:
        rows = np.stack([p.entries[h, s] for p in belief.base])
        a_prime = q[0, h, s] @ rows.T
        stage_tol = 1e-7 * _scale(q[0, h, s], q[1, h, s])
        z = reference.highs_victim_value(a_prime)
        if abs(values[0, h, s] - z) > stage_tol:
            errors.append(f"{tag}: victim value at (h={h}, s={s}) is {values[0, h, s]:.17g}, "
                          f"HiGHS gives {z:.17g}")
        v2 = reference.highs_attacker_value(a_prime, q[1, h, s], z)
        if abs(values[1, h, s] - v2) > stage_tol:
            errors.append(f"{tag}: attacker value at (h={h}, s={s}) is {values[1, h, s]:.17g}, "
                          f"HiGHS gives {v2:.17g}")
    return errors


# ------------------------------------------------------------ incept ------
@dataclass(frozen=True)
class InceptResult:
    search: object
    dominant: bool
    witness: object
    recovered: object
    exploit: object


class Incept(PooledWorkload):
    """`mgincept incept`, followed by what a rational victim and the attacker
    then do: read the policy out of the fake rewards and exploit it."""

    name = "incept"
    why = ("the whole dominant-policy attack at H=5 S=10 4x4: 2m singleton LPs "
           "per stage in the fake search, then the dominance check and exploit")

    def __init__(self, horizon=5, states=10, n=4, m=4, per_round=12,
                 pool=tuple(s for s in range(200) if s not in INCEPT_FAULT_SEEDS_0_199
                            + INCEPT_CHECK_FAULT_SEEDS_0_199)):
        self.size = (horizon, states, n, m)
        self.per_round = per_round
        self.pool = pool

    def item(self, game_seed: int):
        return int(game_seed), random_game(np.random.default_rng(game_seed), *self.size)

    def op(self, item):
        inception = mgincept.inception
        g = item[1]
        search = inception.policy_inception(g)
        cfg = inception.InceptionConfig(iota=IOTA)
        fake = g.with_attacker_rewards(
            inception.design_dominant_rewards(search.pi2_dagger, cfg, g))
        dominant, witness = inception.check_iota_dominance(fake, search.pi2_dagger, cfg.iota)
        recovered = inception.recover_dominant_policy(fake, cfg.iota)
        exploit = inception.exploit_fixed_fake(g, search.pi2_dagger)
        return InceptResult(search, dominant, witness, recovered, exploit)

    def units(self, item):
        horizon, states, _, m = self.size
        return horizon * states * (m + 1)   # m candidate stages, then the exploit stage

    def check(self, items, results):
        errors = []
        for (seed, g), res in zip(items, results):
            tag = f"incept game {seed}"
            search = res.search
            if not res.dominant:
                errors.append(f"{tag}: dominance check failed at {res.witness}")
            if res.recovered is None or not np.array_equal(
                    res.recovered.entries, search.pi2_dagger.entries):
                errors.append(f"{tag}: the policy read out of the fake rewards is not pi2_dagger")
            if abs(res.exploit.v2_root - search.v2_root) > _values_tol(search.v2_root):
                errors.append(f"{tag}: exploit value {res.exploit.v2_root:.17g} differs from "
                              f"the inception value {search.v2_root:.17g}")
            errors += check_search(g, search, tag)
        return errors


def check_search(g, search, tag) -> list:
    """Candidate values against the closed form, and the pick against them."""
    errors = []
    values = search.v_hat.values
    q = reference.q_tables(g.rewards, g.transitions, values)
    cand = search.candidate_values
    actions = np.argmax(search.pi2_dagger.entries, axis=2)
    for h in range(g.horizon):
        for s in range(g.num_states):
            q1, q2 = q[0, h, s], q[1, h, s]
            tol = 1e-9 * _scale(q1, q2)
            for j in range(g.m):
                closed = reference.singleton_attacker_value(q1, q2, j, tol)
                if closed is not None and abs(cand[h, s, j] - closed) > tol:
                    errors.append(f"{tag}: candidate value at (h={h}, s={s}, j={j}) is "
                                  f"{cand[h, s, j]:.17g}, the closed form gives {closed:.17g}")
            a = actions[h, s]
            if cand[h, s, a] < cand[h, s].max() - tol or abs(values[1, h, s] - cand[h, s, a]) > tol:
                errors.append(f"{tag}: fake action {a} at (h={h}, s={s}) is not a best candidate")
            if abs(values[0, h, s] - q1[:, a].max()) > tol:
                errors.append(f"{tag}: victim value at (h={h}, s={s}) is {values[0, h, s]:.17g}, "
                              f"max_i Q1[i, {a}] gives {q1[:, a].max():.17g}")
    return errors


# -------------------------------------------------------------- enum ------
@dataclass(frozen=True)
class EnumResult:
    greedy: object
    best_policy: object
    best_value: float


class Enum(PooledWorkload):
    """`mgincept verify --mode enum` on one game: the stagewise fake policy
    against the best of all deterministic fake policies."""

    name = "enum"
    why = ("H=2 S=2 2x2 greedy search plus all 16 fake policies: thousands of tiny "
           "LPs where per-call validation and construction dominate")

    def __init__(self, horizon=2, states=2, n=2, m=2, per_round=16, pool=tuple(range(500))):
        self.size = (horizon, states, n, m)
        self.per_round = per_round
        self.pool = pool

    def item(self, game_seed: int):
        return int(game_seed), random_game(np.random.default_rng(game_seed), *self.size)

    def op(self, item):
        g = item[1]
        greedy = mgincept.inception.policy_inception(g)
        policy, value = mgincept.oracle.brute_force_inception(g)
        return EnumResult(greedy, policy, value)

    def units(self, item):
        horizon, states, _, m = self.size
        cells = horizon * states
        return cells * m + m ** cells * cells

    def check(self, items, results):
        errors = []
        for (seed, g), res in zip(items, results):
            greedy = res.greedy.v2_root
            if res.best_value < greedy - _values_tol(greedy):
                errors.append(f"enum game {seed}: exhaustive value {res.best_value:.17g} is "
                              f"below the stagewise value {greedy:.17g}")
        return errors + check_tradeoff_witness()

    def layer_counts(self, items, results):
        gaps = sum(res.best_value - res.greedy.v2_root > 1e-8 for res in results)
        return {"oracle.gap_games": int(gaps)}


def check_tradeoff_witness() -> list:
    g = mgincept.MarkovGame(*reference.continuation_tradeoff_game_arrays())
    greedy = mgincept.inception.policy_inception(g).v2_root
    _, best = mgincept.oracle.brute_force_inception(g)
    if abs(greedy - 5.0) > 1e-9 or abs(best - 100.0) > 1e-9:
        return [f"continuation-tradeoff game: stagewise {greedy:.17g} (expected 5.0), "
                f"exhaustive {best:.17g} (expected 100.0)"]
    return []


# ----------------------------------------------------------- rollout ------
@dataclass(frozen=True)
class RolloutItem:
    game: mgincept.MarkovGame
    pi1: mgincept.MarkovPolicy
    pi2: mgincept.MarkovPolicy
    paths: tuple
    sim_seed: int


@dataclass(frozen=True)
class RolloutResult:
    game: mgincept.MarkovGame
    pi1: mgincept.MarkovPolicy
    pi2: mgincept.MarkovPolicy
    validation: object
    stats: object


def _mixed_policy(rng, player, horizon, states, k):
    entries = rng.uniform(0.05, 1.0, (horizon, states, k))
    return mgincept.MarkovPolicy(player, entries / entries.sum(axis=2, keepdims=True))


class Rollout(Workload):
    """`mgincept simulate`: load the game and both policies from JSON,
    validate the game, then roll out seeded episodes."""

    name = "rollout"
    grain = "io"
    why = ("JSON load, validation and 1e4 seeded episodes at H=20 S=20 4x4 with no "
           "LP at all, so solver changes must leave it unchanged")

    def __init__(self, horizon=20, states=20, n=4, m=4, episodes=10_000):
        self.size = (horizon, states, n, m)
        self.episodes = episodes

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        g = random_game(rng, *self.size)
        horizon, states, n, m = self.size
        pi1 = _mixed_policy(rng, 1, horizon, states, n)
        pi2 = _mixed_policy(rng, 2, horizon, states, m)
        paths = tuple(os.path.join(workdir, f) for f in ("game.json", "p1.json", "p2.json"))
        mgincept.gamefile.save_game(paths[0], g)
        mgincept.gamefile.save_policy(paths[1], pi1)
        mgincept.gamefile.save_policy(paths[2], pi2)
        return [RolloutItem(g, pi1, pi2, paths, int(seed))]

    def op(self, item):
        gamefile = mgincept.gamefile
        game = gamefile.load_game(item.paths[0]).game
        validation = mgincept.model.validate_game(game)
        pi1 = gamefile.load_policy(item.paths[1])
        pi2 = gamefile.load_policy(item.paths[2])
        stats = mgincept.rollout.simulate(game, pi1, pi2, self.episodes, item.sim_seed)
        return RolloutResult(game, pi1, pi2, validation, stats)

    def units(self, item):
        return self.episodes * self.size[0]

    def check(self, items, results):
        errors = []
        for item, res in zip(items, results):
            errors += check_loaded(item, res)
            if not res.validation.ok:
                errors.append(f"rollout: validation failed: {res.validation.messages()[:3]}")
            exact = reference.policy_values(item.game.rewards, item.game.transitions,
                                            item.pi1.entries, item.pi2.entries)
            means, ses = res.stats.mean_returns, res.stats.std_errors
            for i in range(2):
                value = float(item.game.mu @ exact[i, 0])
                if not (ses[i] > 0 and abs(means[i] - value) <= 4 * ses[i]):
                    errors.append(f"rollout: player {i + 1} mean {means[i]:.17g} (se {ses[i]:.17g}) "
                                  f"is not within 4 se of the exact value {value:.17g}")
            errors += check_one_hot(item.sim_seed, self.size)
        return errors


def check_loaded(item, res) -> list:
    pairs = (("mu", item.game.mu, res.game.mu),
             ("rewards", item.game.rewards, res.game.rewards),
             ("transitions", item.game.transitions, res.game.transitions),
             ("p1", item.pi1.entries, res.pi1.entries),
             ("p2", item.pi2.entries, res.pi2.entries))
    return [f"rollout: loaded {name} differ from the generated ones"
            for name, made, loaded in pairs
            if made.shape != loaded.shape or made.tobytes() != loaded.tobytes()]


def check_one_hot(seed, size, episodes=200) -> list:
    """A game and policies with one-hot rows: every episode follows the same
    path, so the rollout must give the exact values with zero standard error."""
    horizon, states, n, m = size
    rng = np.random.default_rng(seed)
    rewards = rng.uniform(-1.0, 1.0, (2, horizon, states, n, m))
    transitions = np.eye(states)[rng.integers(states, size=(horizon, states, n, m))]
    mu = np.eye(states)[rng.integers(states)]
    pi1 = np.eye(n)[rng.integers(n, size=(horizon, states))]
    pi2 = np.eye(m)[rng.integers(m, size=(horizon, states))]
    g = mgincept.MarkovGame(horizon, states, n, m, mu, rewards, transitions)
    stats = mgincept.rollout.simulate(g, mgincept.MarkovPolicy(1, pi1),
                                      mgincept.MarkovPolicy(2, pi2), episodes, seed)
    exact = reference.policy_values(rewards, transitions, pi1, pi2)
    expected = np.array([mu @ exact[0, 0], mu @ exact[1, 0]])
    if np.any(stats.std_errors != 0.0) or np.any(
            np.abs(stats.mean_returns - expected) > 1e-12 * _scale(expected)):
        return [f"rollout: one-hot instance gives means {stats.mean_returns.tolist()} "
                f"(se {stats.std_errors.tolist()}), exact values {expected.tolist()}"]
    return []


WORKLOADS = {w.name: w for w in (Br, Incept, Enum, Rollout)}
