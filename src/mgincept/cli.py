"""Command-line interface.

Commands: validate, solve-br, incept, verify, simulate.  All file formats
are the JSON documents described in `gamefile`; states, actions and steps
are 0-indexed.  Exit codes: 0 success, 1 domain failure (validation,
tolerance breach, dominance failure, a failed stage or LP solve), 2 I/O or
parse failure.  Values are printed with 9 significant digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import gamefile
from .gamefile import GameFormatError
from .inception import InceptionConfig, check_iota_dominance, design_dominant_rewards, policy_inception
from .lp import LpError
from .model import BeliefSet, InvalidGameError, require_valid, validate_game
from .oracle import (GRID_MAX_DIM, GridSpec, _check_grid_points, brute_force_inception,
                     grid_victim_value, random_game, victim_br_vertices)
from .rollout import simulate
from .solver import markov_attacker_best_response, secure_belief
from .stage import StageSolveError

GRID_SLACK = 1e-6
ENUM_TOL = 1e-8


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def cmd_validate(args) -> int:
    doc = gamefile.load_game(args.game)
    report = validate_game(doc.game)
    if report.ok:
        g = doc.game
        print(f"game ok: horizon={g.horizon} states={g.num_states} "
              f"actions={g.n}x{g.m} beliefs={len(doc.beliefs)}")
        return 0
    for violation in report:
        print(str(violation))
    print(f"validation failed: {len(report)} violation(s)")
    return 1


def _belief_from_args(args, doc: gamefile.GameDocument) -> BeliefSet:
    if args.secure:
        return secure_belief(doc.game)
    if args.beliefs:
        g = doc.game
        return BeliefSet(gamefile.load_beliefs(args.beliefs, (g.horizon, g.num_states, g.m)))
    if doc.beliefs:
        return BeliefSet(doc.beliefs)
    raise GameFormatError(
        "no beliefs available: pass --secure, --beliefs FILE, "
        "or embed a \"beliefs\" list in the game file"
    )


def cmd_solve_br(args) -> int:
    doc = gamefile.load_game(args.game)
    belief = _belief_from_args(args, doc)
    kind = "secure" if args.secure else ("file" if args.beliefs else "inline")
    report = markov_attacker_best_response(doc.game, belief)
    print(f"belief: {kind} (K={belief.size})")
    print(f"victim worst-case value   = {_fmt(report.v1_root)}")
    print(f"attacker worst-case value = {_fmt(report.v2_root)}")
    if args.out:
        gamefile.save_policy(args.out, report.pi2_star)
        print(f"attacker policy written to {args.out}")
    return 0


def cmd_incept(args) -> int:
    doc = gamefile.load_game(args.game)
    g = doc.game
    cfg = InceptionConfig(iota=args.iota)
    result = policy_inception(g)
    fake = design_dominant_rewards(result.pi2_dagger, cfg, g)
    ok, witness = check_iota_dominance(g.with_attacker_rewards(fake),
                                       result.pi2_dagger, cfg.iota)
    if not ok:
        h, s, a1, a2 = witness
        print(f"dominance check FAILED at (h={h}, s={s}, a1={a1}, a2={a2}); "
              "no files written (engine bug)")
        return 1
    print(f"fake policy actions (rows h=0..{g.horizon - 1}, columns s=0..{g.num_states - 1}):")
    for h in range(g.horizon):
        row = " ".join(str(result.pi2_dagger.action_at(h, s)) for s in range(g.num_states))
        print(f"  h={h}: {row}")
    print(f"dominance check: ok (iota={_fmt(cfg.iota)})")
    print(f"victim best-response value = {_fmt(result.v1_root)}")
    print(f"attacker inception value   = {_fmt(result.v2_root)}")
    if args.out_policy:
        gamefile.save_policy(args.out_policy, result.pi2_dagger)
        print(f"fake policy written to {args.out_policy}")
    if args.out_rewards:
        gamefile.save_fake_rewards(args.out_rewards, cfg.iota, fake)
        print(f"fake rewards written to {args.out_rewards}")
    return 0


def _grid_checks(g, belief, spec):
    """Per-stage LP values vs grid oracle; yields (name, deviation, tolerance)
    triples."""
    for name, dim in (("n", g.n), ("m", g.m)):
        # before any solve; the oracle would name the attacker's m as its n
        if dim > GRID_MAX_DIM:
            raise ValueError(f"grid oracle gated to {name} <= {GRID_MAX_DIM}, got {dim}")
    report = markov_attacker_best_response(g, belief)
    for h in range(g.horizon):
        for s in range(g.num_states):
            q1, q2 = report.q.values[:, h, s]
            a_prime = q1 @ belief.mixes[h, s]
            z = report.v.values[0, h, s]
            v2 = report.v.values[1, h, s]
            col_range = float(np.max(a_prime.max(axis=0) - a_prime.min(axis=0)))
            dev_v = abs(z - grid_victim_value(a_prime, spec))
            yield "victim-stage-vs-grid", dev_v, col_range * spec.step + GRID_SLACK
            payoff = np.stack(victim_br_vertices(a_prime, z)) @ q2
            att_range = float(np.max(payoff.max(axis=1) - payoff.min(axis=1)))
            dev_a = abs(v2 - grid_victim_value(payoff.T, spec))  # the attacker's grid maximin
            yield "attacker-stage-vs-grid", dev_a, att_range * spec.step + GRID_SLACK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise GameFormatError(f"--seed must be >= 0, got {args.seed}")
    try:
        spec = GridSpec(step=args.step)
    except ValueError as exc:
        raise GameFormatError(f"--step: {exc}") from exc
    if args.random:
        try:
            n, m, states, horizon = (int(p) for p in args.random.split(","))
        except ValueError as exc:
            raise GameFormatError(f"--random expects n,m,S,H: {exc}") from exc
        if min(n, m, states, horizon) < 1:
            raise GameFormatError(f"--random expects positive n,m,S,H, got {args.random}")
        if args.trials < 1:
            raise GameFormatError(f"--trials must be at least 1, got {args.trials}")
        rng = np.random.default_rng(args.seed)
        # each game is drawn when it is checked, so one game is held at a time
        games = (random_game(rng, horizon, states, n, m) for _ in range(args.trials))
        beliefs, count, source = (), args.trials, f"random {args.random}"
    else:
        if not args.game:
            raise GameFormatError("verify needs a game file or --random SPEC")
        doc = gamefile.load_game(args.game)
        g = doc.game
        require_valid(g)  # before any output
        n, m = g.n, g.m
        games, beliefs, count, source = [g], doc.beliefs, 1, args.game
    grid = args.mode in ("grid", "all")
    if grid:
        # the largest of the grids over the victim's n and the attacker's m
        # actions; a dimension above GRID_MAX_DIM is refused by _grid_checks
        dims = [d for d in (n, m) if d <= GRID_MAX_DIM]
        try:
            _check_grid_points(max(dims, default=1), spec)
        except ValueError as exc:
            raise GameFormatError(f"--step: {exc}") from exc
    print(f"seed = {args.seed}, games = {count}, source = {source}, mode = {args.mode}")

    rows = {}
    def record(name, dev, tol):
        cases, worst_dev, worst_margin = rows.get(name, (0, 0.0, -np.inf))
        rows[name] = (cases + 1, max(worst_dev, dev), max(worst_margin, dev - tol))

    for g in games:
        if grid:  # only the grid checks read a belief
            belief = BeliefSet(beliefs) if beliefs else secure_belief(g)
            for name, dev, tol in _grid_checks(g, belief, spec):
                record(name, dev, tol)
        if args.mode in ("enum", "all"):
            greedy = policy_inception(g).v2_root
            _, exhaustive = brute_force_inception(g)
            record("inception-vs-enumeration", abs(greedy - exhaustive), ENUM_TOL)

    all_ok = True
    print(f"{'check':<28} {'cases':>6} {'max-dev':>12} {'status':>8}")
    for name, (cases, worst_dev, worst_margin) in rows.items():
        ok = worst_margin <= 0.0
        all_ok = all_ok and ok
        print(f"{name:<28} {cases:>6} {worst_dev:>12.3e} {'PASS' if ok else 'FAIL':>8}")
    print(f"result: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise GameFormatError(f"--seed must be >= 0, got {args.seed}")
    if args.episodes < 1:
        raise GameFormatError(f"--episodes must be at least 1, got {args.episodes}")
    doc = gamefile.load_game(args.game)
    pi1 = gamefile.load_policy(args.p1)
    pi2 = gamefile.load_policy(args.p2)
    stats = simulate(doc.game, pi1, pi2, args.episodes, args.seed)
    print(f"episodes = {stats.episodes}, seed = {stats.seed}")
    for i in range(2):
        print(f"player {i + 1}: mean = {_fmt(stats.mean_returns[i])}, "
              f"se = {_fmt(stats.std_errors[i])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgincept",
        description="Worst-case attacker best responses and dominant-policy "
                    "inception attacks in finite-horizon two-player Markov games. "
                    "All JSON files use 0-based state/action/step indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file against all invariants")
    p.add_argument("game")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve-br", help="attacker best response against a belief")
    p.add_argument("game")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--secure", action="store_true",
                     help="use the secure belief (all pure attacker policies)")
    src.add_argument("--beliefs", metavar="FILE", help="belief policies JSON file")
    p.add_argument("--out", metavar="FILE", help="write the attacker policy here")
    p.set_defaults(func=cmd_solve_br)

    p = sub.add_parser("incept", help="optimal dominant-policy inception attack")
    p.add_argument("game")
    p.add_argument("--iota", type=float, required=True, help="dominance gap (> 0)")
    p.add_argument("--out-policy", metavar="FILE")
    p.add_argument("--out-rewards", metavar="FILE")
    p.set_defaults(func=cmd_incept)

    p = sub.add_parser("verify", help="cross-check the solvers against brute-force oracles")
    p.add_argument("game", nargs="?")
    p.add_argument("--mode", choices=("grid", "enum", "all"), required=True)
    p.add_argument("--random", metavar="n,m,S,H", help="generate random games instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-3, help="grid resolution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="seeded Monte Carlo rollout of a policy pair")
    p.add_argument("game")
    p.add_argument("--p1", required=True, metavar="FILE")
    p.add_argument("--p2", required=True, metavar="FILE")
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidGameError, StageSolveError, LpError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
