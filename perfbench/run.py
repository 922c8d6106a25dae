"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``figures`` (engine throughput on the Fig 6
and Fig 7 sweeps), ``paper`` (cold and warm paper builds) and
``serve`` (a ``repro serve`` process under cold fills and warm hits).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run that prints the per-layer metrics and counts.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``metrics`` holds exactly the metrics that
``BENCHMARK.json`` declares for the mode.  A traced run prints the
layer numbers of its own workload that are not declared (those of the
layers only some workloads cross) on the line before, after
``workload layers:``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, SetupClock, pin_to_one_cpu

WORKLOADS = ("figures", "paper", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    setup = SetupClock()

    if args.workload == "figures":
        import figures as workload
    elif args.workload == "paper":
        import paper as workload
    else:
        import serve as workload
    if args.trace:
        metrics, outcome = workload.run_traced(args.seed)
    else:
        metrics, outcome = workload.run(args.seed, args.seconds, setup)
    for problem in outcome.problems:
        print(problem, file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in declared if name not in metrics]
    if missing:
        print(f"error: {args.workload} measured no {', '.join(missing)}",
              file=sys.stderr)
        return 1
    extra = {name: value for name, value in metrics.items()
             if name not in declared}
    if extra:
        print("workload layers:", json.dumps(extra))
    metrics = {name: metrics[name] for name in declared}
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
