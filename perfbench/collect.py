"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --runs 10 [--workloads br enum] [--trace 0|1]
                                 [--first-seed 0]

Runs `run.py` once per seed and workload, one after the other, for the
`run_seconds` of BENCHMARK.json, appends every result line to
perfbench/results/<workload>-trace<t>.jsonl and prints, per metric, the
median, the quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median.  These are the figures perfbench/README.md
quotes and that BENCHMARK.json's bounds are set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    ok = True
    for name in args.workloads:
        out_path = os.path.join(HERE, "results", f"{name}-trace{args.trace}.jsonl")
        results = []
        with open(out_path, "a", encoding="utf-8") as out:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=300)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                result["seed"] = seed
                out.write(json.dumps(result) + "\n")
                results.append(result)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"attempted {[r['attempted'] for r in results]}, failed share {shares}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {metric:44s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
