"""Run one benchmark workload and print its result as the last output line.

    python3 perfbench/run.py --workload br --seed 0 --seconds 20 --trace 0

Workloads: br, incept, enum, rollout (see perfbench/README.md).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Progress and check failures go to standard error.
Exit code 0 when every check passed, 1 when one failed or an op raised an
unexpected exception, 2 when the mgincept sources are not next to perfbench/.

Run it from anywhere; it imports mgincept from the src/ directory next to
perfbench/, never from an installed copy.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("br", "incept", "enum", "rollout")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mgincept", "__init__.py")):
        print(f"perfbench: no mgincept sources at {src}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [src, ROOT]

    from perfbench import harness, workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    run = harness.Run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        setup_s = run.set_up(src)
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = run.metrics(setup_s)
    errors = run.check()
    for line in errors:
        print(f"perfbench: CHECK FAILED: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} rounds={run.rounds} "
          f"ops={len(run.op_times)} failed={run.failed} import_s={run.import_s:.4f} "
          f"setup_reps_s={[round(r, 4) for r in run.setup_reps]}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(run.op_times),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
