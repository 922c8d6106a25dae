"""Wall-clock benchmark of the reference sweeps -> BENCH_speed.json.

Times the paper's figure sweeps through the fast-path pipeline and
records the numbers at the repo root, starting the perf trajectory
every PR is measured against:

    python benchmarks/bench_speed.py                  # reference run
    REPRO_BENCH_SCALE=0.05 python benchmarks/bench_speed.py   # smoke
    python benchmarks/bench_speed.py --jobs 4         # parallel sweep

Environment / flags:

``REPRO_BENCH_SCALE``
    Work multiplier for the timed sweeps (default 1.0 = the reference
    runs the acceptance criteria are defined on; 0.05 is a seconds-long
    smoke pass).
``--jobs N``
    Worker processes for the sweep cells (default: single-process,
    which is what the recorded ``fig7_seconds`` headline number means).
``--out PATH``
    Output path (default ``BENCH_speed.json`` at the repo root).  The
    ``serve_*`` keys already in that file (written by
    ``benchmarks/bench_serve.py``) are carried over; every key this
    script measures is replaced.

The JSON keeps the seed baseline (measured before the fast path
landed) so any run can report its speedup; subsequent PRs append their
own measurements by re-running this script.

Besides the raw sweep times, the run records the result-store scaling
numbers: ``fig7_cold_store_seconds`` (simulate + persist into a fresh
SQLite store) and ``fig7_warm_store_seconds`` (re-render the same
figure entirely from the store — zero simulation), plus the service
frontend's serving-path numbers: ``service_warm_hit_ms`` (median
warm ``POST /scenario`` latency over HTTP) and ``service_warm_hit_rps``
(aggregate warm-request throughput from concurrent clients) — every
timed service request is a store hit, so these measure the HTTP + store
path, not the engine.  ``distributed_sweep_seconds`` times a 2-worker
drain of the fig7 grid at smoke scale through the work queue
(submit -> lease -> push -> collect), tracking the distributed
coordination overhead as the queue grows features.
``paper_cold_build_seconds``/``paper_warm_build_ms`` time the paper
generator over the full default manifest at smoke scale: one
``repro paper run`` + first build against an empty store vs the warm
rebuild (store reads and rendering only).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Wall-clock of the seed's experiment_fig7(scale=1.0), single-process,
#: measured on the PR-1 container before the fast path landed.
SEED_FIG7_SCALE1_SECONDS = 98.71


def bench_scale() -> float:
    """Work scale for the timed sweeps."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def run(scale: float, jobs: int | None) -> dict:
    """Time the sweeps; returns the results payload."""
    from repro.analysis.experiments import experiment_fig6, experiment_fig7
    from repro.store import SqliteStore

    results: dict = {}

    t0 = time.perf_counter()
    experiment_fig7(scale=scale, jobs=jobs)
    fig7_s = time.perf_counter() - t0
    results["fig7_seconds"] = round(fig7_s, 3)

    t0 = time.perf_counter()
    experiment_fig6(scale=scale, jobs=jobs)
    results["fig6_seconds"] = round(time.perf_counter() - t0, 3)

    if scale == 1.0 and (jobs is None or jobs <= 1):
        results["fig7_speedup_vs_seed"] = round(
            SEED_FIG7_SCALE1_SECONDS / fig7_s, 2
        )

    # Result-store scaling: fig7 once against a cold persistent store
    # (simulates + persists), then again against the warm store — the
    # warm pass re-renders the whole figure from stored payloads with
    # zero simulation.
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        with SqliteStore(os.path.join(tmp, "bench.sqlite")) as store:
            t0 = time.perf_counter()
            experiment_fig7(scale=scale, jobs=jobs, store=store)
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            experiment_fig7(scale=scale, jobs=jobs, store=store)
            warm_s = time.perf_counter() - t0
    results["fig7_cold_store_seconds"] = round(cold_s, 3)
    results["fig7_warm_store_seconds"] = round(warm_s, 4)
    results["fig7_warm_store_speedup"] = round(cold_s / warm_s, 1)
    results.update(bench_service())
    results.update(bench_distributed())
    results.update(bench_paper())
    return results


def bench_paper(scale: float = 0.05) -> dict:
    """Time the paper generator: cold run+build vs warm rebuild.

    The full default manifest (every figure, 128 cells) at smoke scale:
    ``paper_cold_build_seconds`` is one ``repro paper run`` plus the
    first ``build`` against an empty store; ``paper_warm_build_ms`` is
    the rebuild — pure store reads and rendering, zero simulation.
    Fixed at smoke scale so the number tracks the generator's own
    overhead trend, not engine throughput.
    """
    from repro.paper import build_paper, default_manifest, run_paper
    from repro.store import SqliteStore

    manifest = default_manifest(scale=scale)
    with tempfile.TemporaryDirectory(prefix="repro-bench-paper-") as tmp:
        with SqliteStore(os.path.join(tmp, "paper.sqlite")) as store:
            t0 = time.perf_counter()
            run_paper(manifest, store, pin=False)
            build_paper(manifest, store, out_dir=os.path.join(tmp, "a"))
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            report = build_paper(
                manifest, store, out_dir=os.path.join(tmp, "b")
            )
            warm_s = time.perf_counter() - t0
            assert report.misses == 0, "warm rebuild hit the engine"
    return {
        "paper_cold_build_seconds": round(cold_s, 3),
        "paper_warm_build_ms": round(warm_s * 1e3, 2),
    }


def bench_distributed(workers: int = 2, scale: float = 0.05) -> dict:
    """Time a 2-worker distributed drain of the fig7 grid (smoke scale).

    A coordinator server with no local compute, ``workers`` in-process
    :class:`SweepWorker` loops (the exact ``repro worker`` loop), one
    ``submit_sweep`` of the fig7-shaped grid — timed from submission to
    collected results.  Fixed at smoke scale so the number tracks the
    queue/lease/push overhead trend, not engine throughput.
    """
    import threading

    from repro.mot.power_state import PAPER_POWER_STATES
    from repro.scenario import Scenario, SweepGrid
    from repro.service import ScenarioServer, ServiceClient, SweepWorker
    from repro.workloads.characteristics import SPLASH2_NAMES

    grid = SweepGrid.over(
        Scenario(workload=SPLASH2_NAMES[0], scale=scale),
        workload=list(SPLASH2_NAMES),
        power_state=[state.name for state in PAPER_POWER_STATES],
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-dist-") as tmp:
        with ScenarioServer(
            os.path.join(tmp, "dist.sqlite"), port=0, local_compute=False
        ) as server:
            server.start()
            client = ServiceClient(server.url)
            fleet = [
                SweepWorker(server.url, poll_s=0.02, name=f"bench-w{i}")
                for i in range(workers)
            ]
            t0 = time.perf_counter()
            job = client.submit_sweep(grid)
            threads = [
                threading.Thread(target=worker.drain, daemon=True)
                for worker in fleet
            ]
            for thread in threads:
                thread.start()
            client.wait(job["job"], poll_s=0.05)
            results = client.sweep_results(job["fingerprints"])
            elapsed = time.perf_counter() - t0
            for thread in threads:
                thread.join()
            assert len(results) == len(grid)
            stats = server.queue.stats()
            assert stats["completed"] == len(grid), stats
    return {
        "distributed_sweep_seconds": round(elapsed, 3),
        "distributed_sweep_cells": len(grid),
        "distributed_sweep_workers": workers,
    }


def bench_service(
    latency_requests: int = 200, clients: int = 8, per_client: int = 50
) -> dict:
    """Time the HTTP serving path: warm-hit latency and throughput.

    Every timed request is a store hit (the store is populated by one
    tiny scenario up front), so the numbers measure request parsing +
    store lookup + JSON response over a real socket — the hot path of
    a warm service — independent of ``REPRO_BENCH_SCALE``.
    """
    import statistics
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import ScenarioServer, ServiceClient

    spec = {"workload": "fft", "scale": 0.05}
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        with ScenarioServer(os.path.join(tmp, "svc.sqlite"), port=0) as server:
            server.start()
            client = ServiceClient(server.url)
            assert client.post_scenario(spec)["cached"] is False  # populate

            latencies = []
            for _ in range(latency_requests):
                t0 = time.perf_counter()
                envelope = client.post_scenario(spec)
                latencies.append(time.perf_counter() - t0)
                assert envelope["cached"] is True

            def hammer(_index: int) -> None:
                worker = ServiceClient(server.url)
                for _ in range(per_client):
                    worker.post_scenario(spec)

            with ThreadPoolExecutor(max_workers=clients) as pool:
                t0 = time.perf_counter()
                list(pool.map(hammer, range(clients)))
                elapsed = time.perf_counter() - t0

    return {
        "service_warm_hit_ms": round(statistics.median(latencies) * 1e3, 3),
        "service_warm_hit_rps": round(clients * per_client / elapsed, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: single-process)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_speed.json",
                        help="output JSON path")
    parser.add_argument("--note", default=None,
                        help="free-form context recorded with the run "
                             "(e.g. container drift vs prior PRs)")
    args = parser.parse_args(argv)

    scale = bench_scale()
    print(f"bench_speed: scale={scale} jobs={args.jobs or 1} ...", flush=True)
    results = run(scale, args.jobs)
    if args.note:
        results["note"] = args.note
    if args.out.exists():
        previous = json.loads(args.out.read_text()).get("results", {})
        for key, value in previous.items():
            if key.startswith("serve_"):
                results.setdefault(key, value)

    payload = {
        "schema": "repro-bench-speed/1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "scale": scale,
        "jobs": args.jobs or 1,
        "seed_baseline": {
            "fig7_scale1_seconds": SEED_FIG7_SCALE1_SECONDS,
            "note": "seed repo, single-process, same container class",
        },
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
