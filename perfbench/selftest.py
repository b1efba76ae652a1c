"""Fast self-test of the benchmark at toy sizes (a few seconds).

    python3 perfbench/selftest.py

Shows that every workload's checks pass on the program's real outputs and
reject a corrupted copy (a stage value off by 1e-3, a swapped fake action,
a loaded array off by 1e-3, ...), that a run prints exactly the metrics named
in BENCHMARK.json, and that run.py fails without a result when the mgincept
sources are missing.  Exits 1 on the first failed assertion.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

import mgincept  # noqa: E402
from perfbench import harness, workloads  # noqa: E402

WORKDIR = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")

TOY = {
    "br": lambda: workloads.Br(horizon=3, states=3, n=3, m=3, k=2, per_round=2,
                               pool=tuple(range(20)), fault_block=()),
    "incept": lambda: workloads.Incept(horizon=2, states=3, n=3, m=3, per_round=2),
    "enum": lambda: workloads.Enum(per_round=2),
    "rollout": lambda: workloads.Rollout(horizon=3, states=3, n=2, m=2, episodes=2000),
}


def _outputs(name, seed=0):
    workload = TOY[name]()
    os.makedirs(WORKDIR, exist_ok=True)
    items = workload.build(seed, WORKDIR)
    return workload, items, [workload.op(item) for item in items]


def _assert_clean_and_rejects(workload, items, results, corrupt, label, *expected):
    """The real outputs pass; with results[0] corrupted, the checks fail with
    a message containing each of `expected`."""
    assert workload.check(items, results) == [], f"{workload.name}: real outputs fail the checks"
    bad = list(results)
    bad[0] = corrupt(items[0], results[0])
    errors = workload.check(items, bad)
    assert errors, f"{workload.name}: {label} was not rejected"
    for text in expected:
        assert any(text in e for e in errors), f"{workload.name}: {label}: no error with {text!r}"
    print(f"  {workload.name}: {label} -> {errors[0]}")


def _with_value(report, player, h, s, delta):
    values = np.array(report.v.values)
    values[player, h, s] += delta
    return dataclasses.replace(report, v=mgincept.ValueTables(values))


def test_br_checks():
    workload, items, results = _outputs("br")
    for player, h, expected in ((1, 1, "Q tables"), (0, 1, "Q tables"),
                                (1, 0, "root value"), (0, 0, "root value")):
        _assert_clean_and_rejects(
            workload, items, results,
            lambda item, res: dataclasses.replace(
                res, on_belief=_with_value(res.on_belief, player, h, 1, 1e-3)),
            f"V{player + 1}[h={h}, s=1] off by 1e-3", expected)
    # each report is self-consistent, but solved against the other belief
    _assert_clean_and_rejects(
        workload, items, results,
        lambda item, res: dataclasses.replace(
            res, on_belief=res.on_secure, on_secure=res.on_belief),
        "belief and secure reports swapped", "HiGHS gives", "below V1 under the secure")


def _swap_action(search, h, s):
    actions = np.argmax(search.pi2_dagger.entries, axis=2)
    actions[h, s] = (actions[h, s] + 1) % search.pi2_dagger.num_actions
    return dataclasses.replace(
        search, pi2_dagger=mgincept.MarkovPolicy.deterministic(2, actions, search.pi2_dagger.num_actions))


def test_incept_checks():
    workload, items, results = _outputs("incept")
    _assert_clean_and_rejects(
        workload, items, results,
        lambda item, res: dataclasses.replace(res, search=_swap_action(res.search, 0, 1)),
        "swapped fake action at (h=0, s=1)", "read out of the fake rewards",
        "not a best candidate")

    def off_candidate(item, res):
        cand = np.array(res.search.candidate_values)
        cand[1, 0, 2] += 1e-3
        return dataclasses.replace(res, search=dataclasses.replace(res.search, candidate_values=cand))

    _assert_clean_and_rejects(workload, items, results, off_candidate,
                              "candidate value off by 1e-3", "closed form")
    _assert_clean_and_rejects(
        workload, items, results,
        lambda item, res: dataclasses.replace(res, dominant=False, witness=(0, 0, 0, 1)),
        "failed dominance check", "dominance check failed")


def test_enum_checks():
    workload, items, results = _outputs("enum")
    _assert_clean_and_rejects(
        workload, items, results,
        lambda item, res: dataclasses.replace(res, best_value=res.greedy.v2_root - 1e-3),
        "exhaustive value below the stagewise one", "below the stagewise")


def test_rollout_checks():
    workload, items, results = _outputs("rollout")

    def off_reward(item, res):
        rewards = np.array(res.game.rewards)
        rewards[0, 1, 1, 0, 1] += 1e-3
        return dataclasses.replace(res, game=dataclasses.replace(res.game, rewards=rewards))

    _assert_clean_and_rejects(workload, items, results, off_reward, "loaded reward off by 1e-3",
                              "loaded rewards differ")

    def shifted_mean(item, res):
        stats = res.stats
        means = stats.mean_returns + 10 * stats.std_errors
        return dataclasses.replace(res, stats=dataclasses.replace(stats, mean_returns=means))

    _assert_clean_and_rejects(workload, items, results, shifted_mean, "mean moved by 10 se",
                              "not within 4 se")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_metrics_match_benchmark_json():
    end_to_end, per_layer, names = _declared()
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    for name in TOY:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            run = harness.Run(TOY[name](), 0, 0.0, trace, os.path.join(WORKDIR, name))
            setup_s = run.set_up(os.path.join(ROOT, "src"))
            run.measure()
            metrics = run.metrics(setup_s)
            assert {k: v["unit"] for k, v in metrics.items()} == declared, (name, trace)
            assert all(isinstance(v["value"], float) or isinstance(v["value"], int)
                       for v in metrics.values())
            assert run.check() == []
            if not trace:
                assert all(v["value"] > 0 for v in metrics.values()), (name, metrics)
    print(f"  every workload prints the {len(end_to_end)} end-to-end and "
          f"{len(per_layer)} per-layer metrics of BENCHMARK.json")


def test_fails_without_sources():
    bare = os.path.join(WORKDIR, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "br", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
    print(f"  without src/: exit code {proc.returncode}, no result line")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    try:
        for test in tests:
            print(test.__name__)
            test()
    except AssertionError as exc:
        print(f"FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"all {len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
