"""List the game seeds on which a workload's op fails or fails its checks.

    python3 perfbench/screen.py br --seeds 60
    python3 perfbench/screen.py incept --seeds 200

Runs the op once on each game seed 0..N-1 at the workload's sizes, then the
workload's checks on its result, and prints one line per seed that raises,
with the exception, or fails a check, with the messages.  This is how the
`br` and `incept` fault seeds in workloads.py were found, and how the pools
were checked to hold no other failing game.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload", choices=("br", "incept", "enum"))
    p.add_argument("--seeds", type=int, required=True)
    args = p.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]()
    failing = 0
    for seed in range(args.seeds):
        item = workload.item(seed)
        try:
            result = workload.op(item)
        except Exception as exc:  # report every kind of failure, then go on
            failing += 1
            print(f"{seed}: {type(exc).__name__}: {exc}", flush=True)
            continue
        errors = workload.check([item], [result])
        if errors:
            failing += 1
            print(f"{seed}: CHECK FAILED: {errors}", flush=True)
    print(f"{failing} of {args.seeds} game seeds fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
