"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  Tolerances are fixed here and nowhere else.
"""

import re
import time

import numpy as np
import pytest

import mgincept as mg
import mgincept.cli as cli
from conftest import pure_stage_policy, random_policy, single_step_game, stage_solve
from mgincept import gamefile
from mgincept.oracle import (
    GridSpec,
    brute_force_inception,
    grid_attacker_value,
    grid_victim_value,
    random_game,
    random_mix_rows,
    victim_br_vertices,
)
from mgincept.rollout import simulate
from mgincept.stage import victim_br_lp

MATCHING = [[0.0, 1.0], [1.0, 0.0]]
DECOY = [[5.0, 0.0], [0.0, 0.0]]


def _report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _value(label, out):
    match = re.search(rf"{re.escape(label)}\s*=\s*(-?[\d.e+-]+)", out)
    assert match, f"missing {label!r} in:\n{out}"
    return float(match.group(1))


def test_criterion_1_two_by_two_reproduction(tmp_path, capsys):
    """Exact 2x2 decoy-game values through the CLI, under one second."""
    start = time.perf_counter()
    game = single_step_game(MATCHING, DECOY)
    left = pure_stage_policy(2, 0, 2)
    right = pure_stage_policy(2, 1, 2)
    path = tmp_path / "decoy.json"

    values = {}
    for name, belief in (("left", left), ("right", right)):
        gamefile.save_game(path, game, beliefs=[belief])
        assert cli.main(["solve-br", str(path)]) == 0
        values[name] = _value("attacker worst-case value", capsys.readouterr().out)
    assert cli.main(["incept", str(path), "--iota", "1"]) == 0
    out = capsys.readouterr().out
    v2_hat = _value("attacker inception value", out)
    v1_hat = _value("victim best-response value", out)
    fake_action = int(re.search(r"h=0:\s*(\d)", out).group(1))
    elapsed = time.perf_counter() - start

    ok = (abs(values["left"] - 0.0) <= 1e-9 and abs(values["right"] - 5.0) <= 1e-9
          and fake_action == 1 and abs(v2_hat - 5.0) <= 1e-9
          and abs(v1_hat - 1.0) <= 1e-9 and elapsed < 1.0)
    _report(1, ok, f"solve-br L={values['left']:.3g} R={values['right']:.3g}, "
                   f"incept action={fake_action} v2={v2_hat:.3g} v1={v1_hat:.3g}, "
                   f"{elapsed:.2f}s")


def test_criterion_2_lp_matches_grid_oracles():
    """200 seeded stage games: LP values within L*step + 1e-6 of the grids."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    spec = GridSpec(step=1e-3)
    worst_victim = worst_attacker = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        rows = random_mix_rows(rng, k, m)
        a = rng.uniform(-1.0, 1.0, (n, m))
        b = rng.uniform(-1.0, 1.0, (n, m))
        a_prime = a @ rows.T

        _, (z,), _, _ = victim_br_lp(a_prime[None])
        lip_v = float(np.max(a_prime.max(axis=0) - a_prime.min(axis=0), initial=0.0))
        dev_v = abs(z - grid_victim_value(a_prime, spec))
        worst_victim = max(worst_victim, dev_v - (lip_v * spec.step + 1e-6))

        br = stage_solve(rows, a, b)
        payoff = np.stack(victim_br_vertices(a_prime, z)) @ b
        lip_a = float(np.max(payoff.max(axis=1) - payoff.min(axis=1), initial=0.0))
        dev_a = abs(br.v2_star - grid_attacker_value(a_prime, b, z, spec))
        worst_attacker = max(worst_attacker, dev_a - (lip_a * spec.step + 1e-6))
    elapsed = time.perf_counter() - start
    ok = worst_victim <= 0.0 and worst_attacker <= 0.0 and elapsed < 60.0
    _report(2, ok, f"worst margin victim={worst_victim:.3g} "
                   f"attacker={worst_attacker:.3g}, {elapsed:.1f}s")


def test_criterion_3_inception_matches_enumeration():
    """50 seeded random games: the backward pass must equal the brute force.

    Known defect: the stagewise argmax ignores how the fake continuation
    steers the victim's values at earlier steps, so candidates that trade
    later attacker value for belief leverage beat it on some instances
    (see test_inception.py::test_stagewise_choice_can_be_dominated_by_
    continuation_tradeoff for a minimal witness).  Reported honestly here.
    """
    start = time.perf_counter()
    mismatches = []
    worst = 0.0
    for seed in range(50):
        g = random_game(np.random.default_rng(seed), 2, 2, 2, 2)
        greedy = mg.policy_inception(g).v2_root
        _, exhaustive = brute_force_inception(g)
        dev = abs(greedy - exhaustive)
        worst = max(worst, dev)
        if dev > 1e-8:
            mismatches.append((seed, greedy, exhaustive))
    elapsed = time.perf_counter() - start
    for seed, greedy, exhaustive in mismatches:
        print(f"  seed {seed}: backward pass {greedy:.9g} "
              f"< enumeration {exhaustive:.9g}")
    ok = not mismatches and elapsed < 120.0
    _report(3, ok, f"{len(mismatches)}/50 instances deviate, worst {worst:.3g}, "
                   f"{elapsed:.1f}s")


def test_criterion_4_stage_values_reproducible_from_stored_tables():
    """50 random games: re-solving stored stage games reproduces all values."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        horizon = int(rng.integers(1, 4))
        states = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        g = random_game(rng, horizon, states, n, m)
        belief = mg.BeliefSet(tuple(
            random_policy(rng, 2, horizon, states, m) for _ in range(k)))
        report = mg.markov_attacker_best_response(g, belief)
        for h in range(horizon):
            for s in range(states):
                br = stage_solve(belief.mixes[h, s].T, *report.q.values[:, h, s])
                worst = max(worst,
                            abs(br.z_star - report.v.values[0, h, s]),
                            abs(br.v2_star - report.v.values[1, h, s]))
    ok = worst <= 1e-9
    _report(4, ok, f"max re-solve deviation {worst:.3g}")


def test_criterion_5_reward_design_soundness(tmp_path):
    """100 triples: designed rewards are dominant and the fake-reward file
    path reproduces the directly exploited value."""
    rng = np.random.default_rng(5)
    failures = 0
    worst = 0.0
    path = tmp_path / "fake.json"
    for trial in range(100):
        horizon = int(rng.integers(1, 3))
        states = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        g = random_game(rng, horizon, states, n, m)
        actions = rng.integers(0, m, (horizon, states))
        fake_policy = mg.MarkovPolicy.deterministic(2, actions, m)
        iota = float(rng.choice([0.1, 1.0, 10.0]))

        fake = mg.design_dominant_rewards(fake_policy, mg.InceptionConfig(iota), g)
        ok, _ = mg.check_iota_dominance(g.with_attacker_rewards(fake), fake_policy, iota)
        failures += 0 if ok else 1

        direct = mg.exploit_fixed_fake(g, fake_policy).v2_root
        gamefile.save_fake_rewards(path, iota, fake)
        file_iota, file_rewards = gamefile.load_fake_rewards(path)
        recovered = mg.recover_dominant_policy(
            g.with_attacker_rewards(file_rewards), file_iota)
        assert recovered is not None
        via_file = mg.markov_attacker_best_response(
            g, mg.BeliefSet((recovered,))).v2_root
        worst = max(worst, abs(direct - via_file))
    ok = failures == 0 and worst <= 1e-9
    _report(5, ok, f"{failures}/100 dominance failures, "
                   f"max path deviation {worst:.3g}")


def test_criterion_6_secure_victim_matches_maximin(tmp_path, capsys):
    """Zero-sum single-step games: the secure solve equals grid maximin."""
    spec = GridSpec(step=1e-3)
    path = tmp_path / "zs.json"

    a = np.asarray(MATCHING)
    gamefile.save_game(path, single_step_game(a, -a))
    assert cli.main(["solve-br", str(path), "--secure"]) == 0
    analytic = _value("victim worst-case value", capsys.readouterr().out)
    worst_analytic = abs(analytic - 0.5)

    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.uniform(-1.0, 1.0, (n, m))
        g = single_step_game(a, -a)
        report = mg.markov_attacker_best_response(g, mg.secure_belief(g))
        worst = max(worst, abs(report.v1_root - grid_victim_value(a, spec)))
    ok = worst_analytic <= 1e-9 and worst <= 1e-2
    _report(6, ok, f"analytic dev {worst_analytic:.3g}, "
                   f"max grid dev {worst:.3g} over 25 games")


def test_criterion_7_simulator_statistical_consistency():
    """20 random games: rollout means within 3 standard errors of exact."""
    rng = np.random.default_rng(7)
    worst_sigma = 0.0
    for trial in range(20):
        horizon = int(rng.integers(1, 4))
        states = int(rng.integers(1, 3))
        g = random_game(rng, horizon, states, 2, 2)
        p1 = random_policy(rng, 1, horizon, states, 2)
        p2 = random_policy(rng, 2, horizon, states, 2)
        exact = mg.evaluate_policy(g, p1, p2).root(g.mu)
        # seed base pinned so the 3-sigma bound is deterministic in CI; the
        # estimator itself is checked against an independent oracle elsewhere
        stats = simulate(g, p1, p2, episodes=10_000, seed=2000 + trial)
        for i in range(2):
            sigma = abs(stats.mean_returns[i] - exact[i]) / stats.std_errors[i]
            worst_sigma = max(worst_sigma, sigma)

    deterministic = single_step_game(MATCHING, DECOY)
    stats = simulate(deterministic, pure_stage_policy(1, 1, 2),
                     pure_stage_policy(2, 0, 2), episodes=256, seed=0)
    exact_match = stats.mean_returns.tolist() == [1.0, 0.0]
    ok = worst_sigma <= 3.0 and exact_match
    _report(7, ok, f"worst deviation {worst_sigma:.2f} sigma, "
                   f"deterministic exact={exact_match}")


def test_criterion_8_property_suite(tmp_path):
    """Compact re-check of the cross-module property obligations."""
    rng = np.random.default_rng(8)
    checks = {}

    # duality consistency and vertex membership
    worst_dual, worst_member = 0.0, 0.0
    for _ in range(25):
        n, m, k = (int(rng.integers(1, 4)) for _ in range(3))
        rows = random_mix_rows(rng, k, m)
        a = rng.uniform(-1, 1, (n, m))
        b = rng.uniform(-1, 1, (n, m))
        br = stage_solve(rows, a, b)
        verts = victim_br_vertices(a @ rows.T, br.z_star)
        inner = min(float(v @ b @ br.y_star) for v in verts)
        worst_dual = max(worst_dual, abs(inner - br.v2_star))
        floor = min(float(((a @ rows.T).T @ v).min()) for v in verts)
        worst_member = max(worst_member, br.z_star - floor)
    checks["duality"] = worst_dual <= 1e-7
    checks["vertex-membership"] = worst_member <= 1e-8

    # belief monotonicity
    mono_ok = True
    for _ in range(25):
        n = int(rng.integers(1, 4))
        k_full = int(rng.integers(2, 5))
        a_full = rng.uniform(-1, 1, (n, k_full))
        _, (z_sub,), _, _ = victim_br_lp(a_full[None, :, : int(rng.integers(1, k_full))])
        _, (z_full,), _, _ = victim_br_lp(a_full[None])
        mono_ok = mono_ok and z_sub >= z_full - 1e-9
    checks["belief-monotonicity"] = mono_ok

    # scale covariance of the fake-action choice on a strict-gap instance
    g = random_game(np.random.default_rng(4), 2, 2, 2, 2)
    base = mg.policy_inception(g)
    scale_ok = True
    for c in (0.5, 2.0, 10.0):
        scaled = mg.MarkovGame(g.horizon, g.num_states, g.n, g.m, g.mu,
                               c * g.rewards, g.transitions)
        scale_ok = scale_ok and np.array_equal(
            mg.policy_inception(scaled).pi2_dagger.entries, base.pi2_dagger.entries)
    checks["scale-covariance"] = scale_ok

    # round-trip I/O
    g2 = random_game(rng, 2, 2, 2, 2)
    p = tmp_path / "roundtrip.json"
    gamefile.save_game(p, g2, beliefs=[random_policy(rng, 2, 2, 2, 2)])
    doc = gamefile.load_game(p)
    checks["round-trip"] = (np.array_equal(doc.game.rewards, g2.rewards)
                            and np.array_equal(doc.game.transitions, g2.transitions)
                            and np.array_equal(doc.game.mu, g2.mu))

    # RNG reproducibility
    p1 = random_policy(rng, 1, 2, 2, 2)
    p2 = random_policy(rng, 2, 2, 2, 2)
    s1 = simulate(g2, p1, p2, episodes=400, seed=123)
    s2 = simulate(g2, p1, p2, episodes=400, seed=123)
    checks["rng-reproducibility"] = np.array_equal(s1.mean_returns, s2.mean_returns)

    failed = [name for name, ok in checks.items() if not ok]
    _report(8, not failed, f"{len(checks) - len(failed)}/{len(checks)} properties hold"
                           + (f"; failed: {failed}" if failed else ""))
