"""Command-line entry point: ``python -m repro <command>``.

Runs any scenario — or regenerates any of the paper's artifacts — from
a terminal without writing code:

    python -m repro run fft --state PC16-MB8 --dram-ns 63
    python -m repro sweep --workloads fft volrend --state PC4-MB8 \\
        --dram-ns 200 63 42 --jobs 4 --json sweep.json
    python -m repro table1
    python -m repro fig5
    python -m repro fig6 --scale 0.3 --benchmarks fft volrend
    python -m repro fig7 --dram 63 --seed 7
    python -m repro fig8 --scale 0.5
    python -m repro config
    python -m repro fabric --state PC16-MB8

``run`` executes one declarative :class:`~repro.scenario.Scenario`;
``sweep`` expands axis lists (workloads x interconnects x states x
DRAM) into a :class:`~repro.scenario.SweepGrid` and executes every
cell, optionally across worker processes (``--jobs``).  Both accept
``--json OUT`` to write machine-readable results.

``--store PATH`` (on ``run``, ``sweep`` and the fig commands) wires in
a persistent content-addressed result store: cells already stored are
served without simulating, fresh cells are persisted.  ``repro
results`` inspects such a store:

    python -m repro sweep --workloads fft --store results.sqlite
    python -m repro fig7 --store results.sqlite     # warm: zero simulation
    python -m repro results list results.sqlite --workload fft
    python -m repro results show results.sqlite <fingerprint-prefix>
    python -m repro results export results.sqlite --out results.json
    python -m repro results gc results.sqlite

``serve`` fronts such a store with a threaded HTTP service: hits are
answered from the store with zero simulation, misses are computed once
(batched, deduplicated) and persisted for every later request:

    python -m repro serve --store results.sqlite --port 8321
    curl -X POST localhost:8321/scenario -d '{"workload": "fft"}'

``worker`` turns any machine into extra capacity for a running
service: it leases queued sweep cells over HTTP, simulates them
locally (``--jobs N`` for a process pool), and pushes the results
home — submit sweeps with ``ServiceClient.submit_sweep`` or
``POST /queue``:

    python -m repro serve --store results.sqlite --no-local   # coordinator
    python -m repro worker --server http://host:8321 --jobs 4
    python -m repro worker --server http://host:8321 --jobs 4

``paper`` regenerates every artifact of the paper from the manifest
(``paper.json``) and a result store — ``plan`` reports which cells a
store already holds, ``run`` computes exactly the missing ones
(``--server URL`` delegates the compute to a sweep service) and pins
the resolved fingerprints into the manifest, ``build`` renders the
artifact directory from store reads alone (zero simulation,
byte-identical across rebuilds):

    python -m repro paper plan
    python -m repro paper run --jobs 4
    python -m repro paper build --out paper_artifacts

Scale 1.0 is the reference run (minutes for fig6-fig8); smaller scales
trade fidelity of the capacity effects for speed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.experiments import (
    experiment_fig5,
    experiment_fig6,
    experiment_fig7,
    experiment_fig8,
    experiment_table1,
)
from repro.config import DEFAULT_CONFIG
from repro.mot.fabric import MoTFabric
from repro.mot.power_state import power_state_by_name
from repro.mot.visualize import render_fabric
from repro.errors import ConfigurationError
from repro.scenario import Scenario, SweepGrid, resolve_dram
from repro.sim.session import (
    RESULT_SCHEMA,
    ScenarioResult,
    run_scenario,
    run_sweep,
)
from repro.store import ResultStore, open_store
from repro.workloads.characteristics import SPLASH2_NAMES

#: Table I latencies exposed as fig7's --dram choices (resolution goes
#: through the scenario DRAM registry, the single source of truth).
_TABLE1_DRAM_NS = (42, 63, 200)


def _add_store_argument(p: argparse.ArgumentParser) -> None:
    """The ``--store`` flag (memoized execution)."""
    p.add_argument("--store", default=None, metavar="PATH",
                   help="persist results in a content-addressed "
                        "SQLite store (':memory:' = in-process); stored "
                        "cells are served without simulating")


def _add_scenario_arguments(p: argparse.ArgumentParser) -> None:
    """Flags shared by ``run`` and ``sweep`` (single-valued ones)."""
    p.add_argument("--scale", type=float, default=1.0,
                   help="work multiplier (default 1.0)")
    p.add_argument("--seed", type=int, default=2016,
                   help="trace RNG seed (default 2016)")
    p.add_argument("--engine-mode", default="auto",
                   choices=("auto", "fast", "legacy"),
                   help="scheduler (default: auto)")
    p.add_argument("--json", type=Path, default=None, metavar="OUT",
                   help="also write results as JSON to OUT")
    _add_store_argument(p)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run scenarios and regenerate artifacts of the "
                    "DATE'16 3-D MoT paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one declarative scenario")
    p.add_argument("workload", help="workload name (e.g. 'fft')")
    p.add_argument("--interconnect", default="mot",
                   help="interconnect key or alias (default: mot)")
    p.add_argument("--state", default="Full connection",
                   help="power state: a paper name or 'PC<cores>-MB<banks>'")
    p.add_argument("--dram-ns", type=float, default=None,
                   help="DRAM access latency in ns (any positive value; "
                        "default: the config's 200 ns DDR3)")
    _add_scenario_arguments(p)

    p = sub.add_parser("sweep", help="run a declarative scenario grid")
    p.add_argument("--workloads", nargs="+", default=list(SPLASH2_NAMES),
                   metavar="WORKLOAD",
                   help="workload axis (default: the SPLASH-2 suite)")
    p.add_argument("--interconnect", nargs="+", default=["mot"],
                   metavar="IC", dest="interconnects",
                   help="interconnect axis (default: mot)")
    p.add_argument("--state", nargs="+", default=["Full connection"],
                   metavar="STATE", dest="states",
                   help="power-state axis (default: Full connection)")
    p.add_argument("--dram-ns", nargs="+", type=float, default=None,
                   metavar="NS", dest="dram_ns",
                   help="DRAM latency axis in ns (default: config DRAM)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the sweep cells "
                        "(default: serial in-process; -1 = one per CPU)")
    _add_scenario_arguments(p)

    sub.add_parser("table1", help="architecture config + derived latencies")
    sub.add_parser("fig5", help="wire lengths per power state")
    sub.add_parser("config", help="Table I configuration dump")

    for name, help_text in (
        ("fig6", "four interconnects over SPLASH-2"),
        ("fig7", "four power states (EDP + execution time)"),
        ("fig8", "power states at 63 ns and 42 ns DRAM"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scale", type=float, default=1.0,
                       help="work multiplier (default 1.0)")
        p.add_argument("--benchmarks", nargs="+", default=list(SPLASH2_NAMES),
                       choices=list(SPLASH2_NAMES), metavar="BENCH",
                       help="subset of the SPLASH-2 suite")
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the sweep cells "
                            "(default: serial in-process; -1 = one per CPU)")
        p.add_argument("--seed", type=int, default=2016,
                       help="trace RNG seed (default 2016 = the "
                            "reference outputs)")
        _add_store_argument(p)
        if name == "fig7":
            p.add_argument("--dram", type=int, default=200,
                           choices=_TABLE1_DRAM_NS,
                           help="DRAM access latency in ns")

    p = sub.add_parser("fabric", help="Fig 4-style fabric rendering")
    p.add_argument("--state", default="PC16-MB8",
                   help="power state name (e.g. 'PC4-MB8')")
    p.add_argument("--core", type=int, default=None,
                   help="core whose routing tree to draw")

    p = sub.add_parser("serve", help="serve scenario results over HTTP "
                                     "from a result store")
    p.add_argument("--store", required=True, metavar="PATH",
                   help="result store backing the service (see --store "
                        "on run/sweep for the path dispatch)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (default: 8321; 0 = ephemeral)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for cold scenarios (default: "
                        "compute serially in the batch thread; -1 = one "
                        "per CPU)")
    p.add_argument("--shards", type=int, default=None,
                   help="open/create --store as a sharded directory of "
                        "N sqlite backends routed by fingerprint "
                        "(required on first open of a sharded store; "
                        "pinned in its shards.json afterwards)")
    p.add_argument("--procs", type=int, default=1,
                   help="pre-fork K serving processes sharing the port "
                        "via SO_REUSEPORT; each owns the write path of "
                        "its shard subset (default: 1)")
    p.add_argument("--max-records", type=int, default=None,
                   help="evict least-recently-accessed records beyond "
                        "this count (LRU; default: unbounded)")
    p.add_argument("--max-mb", type=float, default=None,
                   help="evict least-recently-accessed records beyond "
                        "this many MB of live payload (default: "
                        "unbounded)")
    p.add_argument("--ttl-s", type=float, default=None,
                   help="evict records not accessed for this many "
                        "seconds (default: never)")
    p.add_argument("--no-local", action="store_true",
                   help="run as a pure coordinator: no local compute, "
                        "every cold cell waits for a remote "
                        "`repro worker`")
    p.add_argument("--lease-seconds", type=float, default=60.0,
                   help="remote lease expiry; a crashed worker's cells "
                        "are re-leased after this long (default: 60)")
    p.add_argument("--max-attempts", type=int, default=5,
                   help="per-cell attempt budget; a cell whose every "
                        "attempt fails (crashes, bad payloads, engine "
                        "errors) is dead-lettered with its error "
                        "history instead of re-leasing forever "
                        "(default: 5)")
    p.add_argument("--access-log", action="store_true",
                   help="log one structured line per request to stderr "
                        "(method, path, status, duration; off by "
                        "default so benchmarks stay clean)")
    p.add_argument("--log-json", action="store_true",
                   help="render the access log as JSON lines instead "
                        "of key=value text")

    p = sub.add_parser("stats", help="operator view of a running "
                                     "service's /stats + /metrics")
    p.add_argument("--server", required=True, metavar="URL",
                   help="the `repro serve` endpoint to inspect "
                        "(e.g. http://host:8321)")
    p.add_argument("--watch", action="store_true",
                   help="refresh every --interval seconds until Ctrl-C")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period with --watch (default: 2.0)")
    p.add_argument("--json", action="store_true",
                   help="print the raw /stats and /metrics JSON "
                        "instead of the rendered summary")

    p = sub.add_parser("worker", help="distributed sweep worker: lease "
                                      "cells from a server, push results "
                                      "home")
    p.add_argument("--server", required=True, metavar="URL",
                   help="the `repro serve` endpoint to drain "
                        "(e.g. http://host:8321)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes per leased batch (default: "
                        "serial in-process; -1 = one per CPU)")
    p.add_argument("--poll-ms", type=int, default=500,
                   help="idle sleep between empty lease responses "
                        "(default: 500)")
    p.add_argument("--lease", type=int, default=None, metavar="N",
                   help="cells pulled per lease call (default: --jobs, "
                        "so the local pool stays full)")
    p.add_argument("--name", default=None,
                   help="worker name reported to the server "
                        "(default: host:pid)")
    p.add_argument("--drain", action="store_true",
                   help="exit when the queue is empty instead of "
                        "polling forever")
    p.add_argument("--connect-retries", type=int, default=10,
                   help="consecutive failed rounds against an "
                        "unreachable server before exiting nonzero "
                        "(default: 10)")

    p = sub.add_parser("paper", help="regenerate the paper's artifacts "
                                     "from a manifest and a result store")
    psub = p.add_subparsers(dest="paper_command", required=True)

    def _add_paper_arguments(pp: argparse.ArgumentParser) -> None:
        pp.add_argument("--manifest", default="paper.json", metavar="PATH",
                        help="paper manifest (default: paper.json)")
        pp.add_argument("--store", default=None, metavar="PATH",
                        help="result store (default: the manifest's "
                             "`store` entry, relative to the manifest)")
        pp.add_argument("--scale", type=float, default=None,
                        help="override the grids' work scale (default: "
                             "the manifest's; REPRO_BENCH_SCALE in the "
                             "environment also overrides)")
        pp.add_argument("--seed", type=int, default=None,
                        help="override the grids' trace seed")

    pp = psub.add_parser("plan", help="report stored vs missing cells; "
                                      "computes nothing")
    _add_paper_arguments(pp)
    pp.add_argument("--server", default=None, metavar="URL",
                    help="diff against a running `repro serve` store "
                         "instead of a local one")

    pp = psub.add_parser("run", help="compute the missing cells and pin "
                                     "the manifest")
    _add_paper_arguments(pp)
    pp.add_argument("--server", default=None, metavar="URL",
                    help="compute through a running `repro serve` "
                         "(results are saved into the local store too)")
    pp.add_argument("--jobs", type=int, default=None,
                    help="worker processes for local compute (default: "
                         "serial in-process; -1 = one per CPU)")
    pp.add_argument("--no-pin", action="store_true",
                    help="do not write resolved fingerprints back into "
                         "the manifest")

    pp = psub.add_parser("build", help="render every artifact from the "
                                       "store; never simulates")
    _add_paper_arguments(pp)
    pp.add_argument("--out", type=Path, default=None, metavar="DIR",
                    help="artifact directory (default: the manifest's "
                         "`output` entry, relative to the manifest)")

    p = sub.add_parser("results", help="inspect a persistent result store")
    rsub = p.add_subparsers(dest="results_command", required=True)

    def _add_filter_arguments(rp: argparse.ArgumentParser) -> None:
        rp.add_argument("--workload", default=None,
                        help="only records of this workload")
        rp.add_argument("--interconnect", default=None,
                        help="only records of this interconnect key")
        rp.add_argument("--state", default=None,
                        help="only records of this power state")
        rp.add_argument("--dram-ns", type=float, default=None,
                        help="only records at this DRAM latency")
        rp.add_argument("--seed", type=int, default=None,
                        help="only records with this trace seed")
        rp.add_argument("--scale", type=float, default=None,
                        help="only records at this work scale")

    rp = rsub.add_parser("list", help="one row per stored result")
    rp.add_argument("store", help="store path")
    _add_filter_arguments(rp)

    rp = rsub.add_parser("show", help="render one stored result")
    rp.add_argument("store", help="store path")
    rp.add_argument("fingerprint",
                    help="full fingerprint or a unique prefix")

    rp = rsub.add_parser("export", help="dump stored payloads as JSON")
    rp.add_argument("store", help="store path")
    rp.add_argument("--out", type=Path, default=None, metavar="OUT",
                    help="output file (default: stdout)")
    _add_filter_arguments(rp)

    rp = rsub.add_parser("gc", help="drop stale-schema records and "
                                    "compact the store")
    rp.add_argument("store", help="store path")
    return parser


def _render_result(result: ScenarioResult) -> str:
    """Human-readable summary of one executed scenario."""
    report, energy = result.report, result.energy
    return "\n".join([
        f"{report.workload_name} on {report.interconnect_name} "
        f"@ {report.power_state_name} ({report.dram_name})",
        f"  execution    : {report.execution_cycles} cycles",
        f"  L1 miss rate : {report.l1_miss_rate:.2%}",
        f"  L2 miss rate : {report.l2_miss_rate:.2%}",
        f"  mean L2 lat  : {report.mean_l2_latency_cycles:.1f} cycles",
        f"  cluster      : {energy.cluster_j * 1e6:.1f} uJ"
        f"  ->  EDP {energy.edp:.3e} J*s",
    ])


def _render_sweep_table(results: List[ScenarioResult]) -> str:
    """One row per executed cell."""
    header = (
        f"{'workload':16s} {'interconnect':14s} {'state':16s} "
        f"{'DRAM ns':>8s} {'seed':>6s} {'exec (cyc)':>12s} {'EDP (J*s)':>12s}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        s = r.scenario
        lines.append(
            f"{s.workload:16s} {s.interconnect:14s} {s.power_state_name:16s} "
            f"{s.resolved_dram().access_latency_ns:>8g} {s.seed:>6d} "
            f"{r.report.execution_cycles:>12d} {r.energy.edp:>12.3e}"
        )
    return "\n".join(lines)


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def _open_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The ``--store`` backend, if the command was given one."""
    spec = getattr(args, "store", None)
    return None if spec is None else open_store(spec)


def _store_summary(store: Optional[ResultStore]) -> None:
    """One line of cache accounting (CI smoke greps for it)."""
    if store is not None:
        print(f"store: hits: {store.hits}, misses: {store.misses}")
        store.close()


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = Scenario(
        workload=args.workload,
        interconnect=args.interconnect,
        power_state=args.state,
        dram=resolve_dram(args.dram_ns),
        scale=args.scale,
        seed=args.seed,
        engine_mode=args.engine_mode,
    )
    store = _open_store(args)
    result = run_scenario(scenario, store=store)
    print(_render_result(result))
    _store_summary(store)
    if args.json is not None:
        _write_json(args.json, result.to_dict())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = SweepGrid.over(
        Scenario(
            workload=args.workloads[0],
            scale=args.scale,
            seed=args.seed,
            engine_mode=args.engine_mode,
        ),
        workload=args.workloads,
        interconnect=args.interconnects,
        power_state=args.states,
        **({"dram": args.dram_ns} if args.dram_ns else {}),
    )
    print(f"sweep: {len(grid)} cells "
          f"({' x '.join(map(str, grid.shape))} over {grid.axis_names})")
    store = _open_store(args)
    results = run_sweep(grid, jobs=args.jobs, store=store)
    print(_render_sweep_table(results))
    _store_summary(store)
    if args.json is not None:
        _write_json(args.json, [r.to_dict() for r in results])
    return 0


def _on_terminate(handler) -> None:
    """Route SIGTERM (and SIGINT where supported) through ``handler``.

    ``repro serve`` and ``repro worker`` run under process managers
    (systemd, docker, CI) whose stop signal is SIGTERM, not Ctrl-C —
    without this they die mid-write instead of draining.  Signal
    support is best-effort: non-main threads and exotic platforms fall
    back to KeyboardInterrupt-only handling.
    """
    import signal

    try:
        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        pass  # not the main thread / no signals here


def _serve_policy(args: argparse.Namespace):
    """The :class:`EvictionPolicy` of ``repro serve``'s cap flags."""
    if args.max_records is None and args.max_mb is None \
            and args.ttl_s is None:
        return None
    from repro.store import EvictionPolicy

    return EvictionPolicy(max_records=args.max_records,
                          max_mb=args.max_mb, ttl_s=args.ttl_s)


def _cmd_serve(args: argparse.Namespace) -> int:
    policy = _serve_policy(args)
    caps = f", {policy.describe()}" if policy is not None else ""
    if args.procs > 1:
        from repro.service.prefork import PreforkServer

        if args.no_local:
            print("error: --procs requires local compute (drop --no-local)",
                  file=sys.stderr)
            return 2
        with PreforkServer(args.store, procs=args.procs,
                           shards=args.shards, policy=policy,
                           host=args.host, port=args.port or 0,
                           jobs=args.jobs if args.jobs is not None else 2,
                           lease_seconds=args.lease_seconds) as group:
            print(f"serving {args.store} on {group.url} "
                  f"(procs={group.procs}{caps}); "
                  f"Ctrl-C or SIGTERM to drain and stop", flush=True)
            group.serve_forever()
        print("shutdown complete")
        return 0

    from repro.service import ScenarioServer

    # Favor handler threads over a compute-bound batch thread: the
    # interpreter's default 5 ms switch interval lets one cold batch
    # convoy every warm hit on the GIL.  Serving-process only.
    sys.setswitchinterval(0.001)

    def terminate(signum, frame):
        # serve_forever blocks the main thread; raising here unwinds
        # it so the `with` block runs the graceful drain (stop
        # listening -> finish the in-flight batch -> flush the store).
        raise KeyboardInterrupt

    _on_terminate(terminate)
    with ScenarioServer(args.store, jobs=args.jobs,
                        host=args.host, port=args.port,
                        local_compute=not args.no_local,
                        lease_seconds=args.lease_seconds,
                        max_attempts=args.max_attempts,
                        access_log=args.access_log,
                        log_json=args.log_json,
                        shards=args.shards,
                        policy=policy) as server:
        compute = "remote workers only" if args.no_local \
            else f"jobs={server.jobs or 1}"
        print(f"serving {args.store} on {server.url} "
              f"({compute}{caps}); Ctrl-C or SIGTERM to drain and stop",
              flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("draining: refusing new work, finishing in-flight "
                  "cells, flushing the store", flush=True)
    print("shutdown complete")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import threading

    from repro.errors import ServiceError
    from repro.service.worker import SweepWorker

    stop = threading.Event()

    def terminate(signum, frame):
        if stop.is_set():
            raise KeyboardInterrupt  # second signal: stop waiting
        print("draining: finishing the in-flight batch, then exiting "
              "(signal again to abort)", flush=True)
        stop.set()

    _on_terminate(terminate)
    worker = SweepWorker(
        args.server,
        jobs=args.jobs,
        poll_s=args.poll_ms / 1000.0,
        lease_n=args.lease,
        name=args.name,
        connect_retries=args.connect_retries,
    )
    mode = "drain" if args.drain else f"poll every {args.poll_ms} ms"
    print(f"worker {worker.name} -> {args.server} "
          f"(jobs={worker.jobs or 1}, lease={worker.lease_n}, {mode}); "
          f"Ctrl-C or SIGTERM to drain and stop", flush=True)
    code = 0
    try:
        worker.run(stop=stop, drain=args.drain)
    except KeyboardInterrupt:
        pass
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        code = 1
    print(f"worker {worker.name}: leased {worker.leased}, "
          f"completed {worker.completed}, failed {worker.failed}, "
          f"rejected {worker.rejected}")
    return code


def _render_server_stats(stats: dict, metrics: dict) -> str:
    """The operator one-pager (``repro stats``): counters + latency."""
    served = stats["hits"] + stats["misses"]
    ratio = stats["hits"] / served if served else 0.0
    queue = stats["queue"]
    store = stats["store"]
    lines = [
        f"requests {stats['requests']}  scenario hits {stats['hits']}  "
        f"misses {stats['misses']}  hit ratio {ratio:.1%}",
        f"queue    pending {queue['pending']}  leased {queue['leased']}  "
        f"completed {queue['completed']}  requeued {queue['requeued']}  "
        f"dead {queue['dead']}",
        f"store    records {store['records']}  hits {store['hits']}  "
        f"misses {store['misses']}"
        + (f"  evictions {store['evictions']}"
           if store.get("evictions") else "")
        + (f"  bytes {store['bytes']}" if store.get("bytes") else "")
        + (f"  [{store['policy']}]" if store.get("policy") else ""),
    ]
    for row in store.get("shards") or []:
        served = row["hits"] + row["misses"]
        ratio = row["hits"] / served if served else 0.0
        lines.append(
            f"  shard {row['shard']:>3}  records {row['records']:>7}  "
            f"bytes {row['bytes']:>10}  "
            f"evictions {row['evictions']:>6}  hit ratio {ratio:.1%}"
        )
    latency = metrics.get("repro_service_request_seconds")
    if latency and latency.get("count"):
        lines.append(
            f"latency  p50 {latency['p50'] * 1e3:.2f} ms  "
            f"p90 {latency['p90'] * 1e3:.2f} ms  "
            f"p99 {latency['p99'] * 1e3:.2f} ms  (n={latency['count']})"
        )
    oldest = metrics.get("repro_queue_oldest_lease_age_seconds")
    if oldest and oldest.get("value"):
        lines.append(f"leases   oldest {oldest['value']:.1f} s")
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    import time

    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient(args.server, timeout=10.0)

    def report() -> None:
        stats = client.stats()
        metrics = client.metrics()
        if args.json:
            print(json.dumps({"stats": stats, "metrics": metrics},
                             indent=2))
        else:
            print(_render_server_stats(stats, metrics))

    try:
        report()
        while args.watch:
            time.sleep(args.interval)
            print(flush=True)
            report()
    except KeyboardInterrupt:
        pass
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 1
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    import os

    from repro.paper import build_paper, load_manifest, plan_paper, run_paper

    manifest = load_manifest(args.manifest)
    scale = args.scale
    if scale is None and os.environ.get("REPRO_BENCH_SCALE"):
        # The same smoke knob the examples honor: CI regenerates the
        # whole paper at a fraction of the reference work.
        scale = float(os.environ["REPRO_BENCH_SCALE"])
    client = None
    if getattr(args, "server", None):
        from repro.service.client import ServiceClient

        client = ServiceClient(args.server)
    store_spec = args.store if args.store is not None \
        else str(manifest.store_path())

    if args.paper_command == "plan":
        # Planning is pure reads; never materialize a store file for
        # it.  A store that does not exist yet simply has every cell
        # missing.
        if client is not None:
            print(plan_paper(manifest, client=client,
                             scale=scale, seed=args.seed).render())
        elif store_spec != ":memory:" and not Path(store_spec).exists():
            print(f"store {store_spec} does not exist yet; "
                  f"every cell is missing")
            print(plan_paper(manifest, scale=scale,
                             seed=args.seed).render())
        else:
            with open_store(store_spec) as store:
                print(plan_paper(manifest, store=store,
                                 scale=scale, seed=args.seed).render())
        return 0

    with open_store(store_spec) as store:
        if args.paper_command == "run":
            report = run_paper(
                manifest, store, client=client, jobs=args.jobs,
                scale=scale, seed=args.seed, pin=not args.no_pin,
            )
            print(report.render())
            print(f"store: hits: {store.hits}, misses: {store.misses}")
        elif args.paper_command == "build":
            report = build_paper(
                manifest, store, out_dir=args.out,
                scale=scale, seed=args.seed,
            )
            print(report.render())
    return 0


def _results_filters(args: argparse.Namespace) -> dict:
    """Column filters of a ``results list``/``export`` invocation."""
    filters = {
        "workload": args.workload,
        "interconnect": args.interconnect,
        "power_state": args.state,
        "dram_ns": args.dram_ns,
        "seed": args.seed,
        "scale": args.scale,
    }
    return {key: value for key, value in filters.items() if value is not None}


def _render_results_table(records: List[dict]) -> str:
    """One row per stored record (``repro results list``)."""
    header = (
        f"{'fingerprint':14s} {'workload':16s} {'interconnect':14s} "
        f"{'state':16s} {'DRAM ns':>8s} {'seed':>6s} {'scale':>7s}"
    )
    lines = [header, "-" * len(header)]
    for record in records:
        lines.append(
            f"{record['fingerprint'][:12]:14s} {record['workload']:16s} "
            f"{record['interconnect']:14s} {record['power_state']:16s} "
            f"{record['dram_ns']:>8g} {record['seed']:>6d} "
            f"{record['scale']:>7g}"
        )
    return "\n".join(lines)


def _cmd_results(args: argparse.Namespace) -> int:
    # Inspection must not fabricate an empty store from a typo'd path
    # (opening a backend creates its file and parent directories).
    if args.store != ":memory:" and not Path(args.store).exists():
        raise ConfigurationError(f"no result store at {args.store!r}")
    with open_store(args.store) as store:
        if args.results_command == "list":
            records = store.query(**_results_filters(args))
            print(_render_results_table(records))
            print(f"{len(records)} result(s) in {args.store}")
        elif args.results_command == "show":
            fingerprint = store.resolve_prefix(args.fingerprint)
            payload = store.get(fingerprint)
            if payload is None:
                # The prefix matched a real record, but its schema tag
                # predates the current engine — distinguish that from
                # "no stored result" and say how to clean it up.
                tag = store.schema_tag(fingerprint)
                raise ConfigurationError(
                    f"record {fingerprint} has stale schema {tag!r} "
                    f"(current: {RESULT_SCHEMA!r}); run "
                    f"`repro results gc {args.store}` to drop it, or "
                    f"rerun the scenario to recompute it"
                )
            print(f"fingerprint: {fingerprint}")
            print(_render_result(ScenarioResult.from_dict(payload)))
        elif args.results_command == "export":
            records = store.query(**_results_filters(args))
            payloads = [store.get(r["fingerprint"]) for r in records]
            payloads = [p for p in payloads if p is not None]
            if args.out is not None:
                _write_json(args.out, payloads)
            else:
                print(json.dumps(payloads, indent=2))
        elif args.results_command == "gc":
            before = len(store)
            removed = store.gc()
            print(f"removed {removed} stale record(s); "
                  f"{before - removed} live in {args.store}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "run":
        return _cmd_run(args)
    elif args.command == "sweep":
        return _cmd_sweep(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "worker":
        return _cmd_worker(args)
    elif args.command == "stats":
        return _cmd_stats(args)
    elif args.command == "paper":
        return _cmd_paper(args)
    elif args.command == "results":
        return _cmd_results(args)
    elif args.command == "table1":
        print(experiment_table1().render())
    elif args.command == "config":
        print(DEFAULT_CONFIG.describe())
    elif args.command == "fig5":
        print(experiment_fig5().render())
    elif args.command == "fig6":
        store = _open_store(args)
        print(experiment_fig6(scale=args.scale, benchmarks=args.benchmarks,
                              jobs=args.jobs, seed=args.seed,
                              store=store).render())
        _store_summary(store)
    elif args.command == "fig7":
        store = _open_store(args)
        print(experiment_fig7(scale=args.scale, benchmarks=args.benchmarks,
                              dram=resolve_dram(args.dram),
                              jobs=args.jobs, seed=args.seed,
                              store=store).render())
        _store_summary(store)
    elif args.command == "fig8":
        store = _open_store(args)
        part_a, part_b = experiment_fig8(scale=args.scale,
                                         benchmarks=args.benchmarks,
                                         jobs=args.jobs, seed=args.seed,
                                         store=store)
        print(part_a.render())
        print()
        print(part_b.render())
        _store_summary(store)
    elif args.command == "fabric":
        state = power_state_by_name(args.state)
        fabric = MoTFabric(state.total_cores, state.total_banks)
        fabric.apply_power_state(state)
        print(render_fabric(fabric, core=args.core))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
