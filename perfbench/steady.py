"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py

Runs every workload in ``BENCHMARK.json`` in two sets of ``RUNS``
untraced runs, alternating between the sets, every run with its own
seed (run ``i`` of set ``s`` uses ``FIRST_SEED + 2 * i + s``).  For each
end-to-end metric it prints each set's median and quartiles, the spread
(distance between the quartiles as a share of the median) and whether
the sets agree within the bounds in ``BENCHMARK.json``:

* each set's spread is within the bound, except for ``setup_s``: one
  cold set-up per run is what that metric is, and only its median is
  held to the bound;
* neither set's median is worse than the other's by more than the
  bound.  The sets are interchangeable halves of the same alternating
  runs, so the test looks both ways; ``apart`` is the larger of the two
  shares.

The share of failed operations must be identical in both sets.  It
also prints the median wall time of one run.  Exits non-zero when
anything disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 1000


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """The run's result line, with its wall time added as ``wall_s``."""
    began = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - began
    return result


def summary(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}


def worse(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    agree = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets: List[List[dict]] = [[], []]
        for index in range(RUNS):
            for which in (0, 1):
                seed = FIRST_SEED + 2 * index + which
                sets[which].append(one_run(workload, seed, spec["run_seconds"]))
        wall = statistics.median(r["wall_s"] for runs in sets for r in runs)
        print(f"== {workload}: 2 sets x {RUNS} runs "
              f"of {spec['run_seconds']} s (median wall time {wall:.1f} s)")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"   failed share {shares[0]:.6f} / {shares[1]:.6f}; "
              f"all correct: {correct}")
        agree &= correct and shares[0] == shares[1]
        for name in metrics:
            bound, better = metrics[name]["bound"], metrics[name]["better"]
            a, b = (summary([r["metrics"][name]["value"] for r in runs])
                    for runs in sets)
            apart = max(worse(a["median"], b["median"], better),
                        worse(b["median"], a["median"], better))
            ok = apart <= bound and (name == "setup_s" or
                                     max(a["spread"], b["spread"]) <= bound)
            agree &= ok
            unit = metrics[name]["unit"]
            print(f"   {name:15s} [{unit}] bound {bound:.2f}  "
                  + "  ".join(f"set{i + 1} {s['median']:.4g} "
                              f"({s['q1']:.4g}..{s['q3']:.4g}, "
                              f"spread {s['spread']:.3f})"
                              for i, s in enumerate((a, b)))
                  + f"  apart {apart:.3f}  {'ok' if ok else 'DISAGREE'}")
        sys.stdout.flush()
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
