"""Workload ``serve``: one ``repro serve`` process under fills and hits.

A server starts on an empty SQLite store.  Each round then has three
phases:

1. *fill*: ``FILL_CELLS`` new tiny cells posted one at a time over one
   keep-alive connection, as CLI shorthand bodies.  Every cell has its
   own trace seed, drawn from the workload seed, so no two cells share
   a trace and every request is a miss;
2. *one connection*: ``ONE_CONN_HITS`` warm hits on the round's cells in
   a closed loop, with full ``{"scenario": ...}`` bodies;
3. *two connections*: as many warm hits from two client threads.

The untraced run drives a ``repro serve`` subprocess, which shares this
process's single CPU, through whole rounds (at least ``MIN_ROUNDS``)
until ``seconds`` have passed, and stops the server (and waits for it)
before printing.  Host times are calibrated by the loop timed around
each fill request, each block of hits and each two-connection part
(see ``common.SpanClock``).  An operation is one request.  The traced
run hosts
:class:`~repro.service.server.ScenarioServer` in this process, so that
``serve_scenario`` and the store can be wrapped, and sends one round of
fixed request counts without calibration.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from checks import report_counts
from common import (ROOT, Outcome, SpanClock, calibrated, end_to_end,
                    host_speed, metric, peak_rss_mb, percentile, scratch_dir,
                    sqlite_bytes)
import layers

#: Engine scale of a fill cell: tens of milliseconds of simulation.
CELL_SCALE = 0.01
FILL_CELLS = 32
PROGRAMS = ("cholesky", "fft", "volrend", "raytrace", "fmm", "radix",
            "ocean_contiguous", "water-nsquared")
#: (interconnect, power state, DRAM ns) of the fill cells, in turn.
CONFIGS = (
    ("mot", "Full connection", 200), ("mesh", "Full connection", 63),
    ("bus-mesh", "Full connection", 42), ("bus-tree", "Full connection", 200),
    ("mot", "PC16-MB8", 63), ("mot", "PC4-MB32", 42), ("mot", "PC4-MB8", 200),
)
#: Warm hits per round over one connection, in blocks of ``HIT_BLOCK``
#: between calibrations, and over two connections, in ``TWO_CONN_PARTS``
#: parts of ``TWO_CONN_EACH`` requests per connection.
ONE_CONN_HITS = 3000
HIT_BLOCK = 50
TWO_CONN_PARTS = 10
TWO_CONN_EACH = 150
MIN_ROUNDS = 3
#: Requests of the traced run's one- and two-connection phases.
TRACED_HITS = 2000
HEADERS = {"Content-Type": "application/json"}
#: What a request that gets no usable answer raises: a dropped or
#: refused connection, a malformed response, or a body that is not JSON.
REQUEST_ERRORS = (http.client.HTTPException, OSError, ValueError)


class CellSource:
    """Fill bodies with per-cell trace seeds drawn from the workload seed."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._used = set()

    def fill_bodies(self) -> List[Dict[str, object]]:
        """The next round's shorthand bodies, each with a fresh seed."""
        bodies = []
        while len(bodies) < FILL_CELLS:
            cell_seed = self._rng.randrange(1, 2**31)
            if cell_seed in self._used:
                continue
            self._used.add(cell_seed)
            index = len(bodies)
            interconnect, state, dram_ns = CONFIGS[index % len(CONFIGS)]
            bodies.append({
                "workload": PROGRAMS[index % len(PROGRAMS)],
                "interconnect": interconnect, "state": state,
                "dram_ns": dram_ns, "scale": CELL_SCALE, "seed": cell_seed,
            })
        return bodies


def _post(conn: http.client.HTTPConnection, body: bytes) -> Tuple[int, bytes]:
    """One request and its answer.  On failure the connection is closed,
    so that the next request on it opens a fresh one."""
    try:
        conn.request("POST", "/scenario", body, HEADERS)
        response = conn.getresponse()
        return response.status, response.read()
    except REQUEST_ERRORS:
        conn.close()
        raise


def _fill_answer(answer: object) -> bool:
    """Whether ``answer`` is a computed (not cached) result with a spec."""
    return (isinstance(answer, dict) and answer.get("cached") is False
            and isinstance(answer.get("result"), dict)
            and "scenario" in answer["result"])


class Client:
    """The benchmark's client: tallies, checks and round-trip times."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.bodies: List[dict] = []  # every cell filled, in order
        self.fill_rtts: List[float] = []
        self.answers: List[Optional[dict]] = []  # parsed fill answers
        self.hits_done = 0  # warm hits attempted
        self.hits_answered = 0  # of them, with an answer (valid or not)
        self.hit_failures = 0
        self.expected: Dict[int, bytes] = {}  # cell -> validated hit answer
        self._lock = threading.Lock()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def fill(self, bodies: List[dict],
             clock: Optional[SpanClock] = None) -> Dict[int, bytes]:
        """Post every fill cell in turn; the cells' warm bodies by cell
        index.  ``clock`` gets one span per request, from the previous
        answer (or the fill's start) to its answer."""
        first = len(self.bodies)
        self.bodies.extend(bodies)
        conn = self.connect()
        try:
            if clock is not None:
                clock.start()
            for index, body in enumerate(bodies):
                began = time.perf_counter()
                try:
                    status, data = _post(conn, json.dumps(body).encode())
                    answer = json.loads(data) if status == 200 else None
                except REQUEST_ERRORS:
                    answer = None
                self.fill_rtts.append(time.perf_counter() - began)
                if clock is not None and index == len(bodies) - 1:
                    clock.stop()
                elif clock is not None:
                    clock.mark()
                if not _fill_answer(answer):
                    answer = None
                self.answers.append(answer)
        finally:
            conn.close()
        return {
            cell: json.dumps({"scenario": self.answers[cell]["result"]
                              ["scenario"]}).encode()
            if self.answers[cell] is not None else b"{}"
            for cell in range(first, len(self.answers))
        }

    def _valid_hit(self, cell: int, status: int, data: bytes) -> bool:
        expected = self.expected.get(cell)
        if expected is not None:
            return data == expected
        fill = self.answers[cell]
        if status != 200 or fill is None:
            return False
        try:
            answer = json.loads(data)
        except ValueError:
            return False
        ok = (isinstance(answer, dict) and answer.get("cached") is True
              and answer.get("fingerprint") == fill.get("fingerprint")
              and answer.get("result") == fill["result"])
        if ok:
            with self._lock:
                self.expected.setdefault(cell, data)
        return ok

    def hits(self, conn: http.client.HTTPConnection, bodies: Dict[int, bytes],
             first: int, count: int, rtts: Optional[List[float]]) -> None:
        """``count`` closed-loop warm hits on ``conn``, cycling over
        ``bodies`` from position ``first``.  A request without an answer
        fails, and the next one goes out on a fresh connection."""
        cells = sorted(bodies)
        answered = failures = 0
        for index in range(first, first + count):
            cell = cells[index % len(cells)]
            began = time.perf_counter()
            try:
                status, data = _post(conn, bodies[cell])
            except REQUEST_ERRORS:
                failures += 1
                continue
            took = time.perf_counter() - began
            answered += 1
            if rtts is not None:
                rtts.append(took)
            if not self._valid_hit(cell, status, data):
                failures += 1
        with self._lock:
            self.hits_done += count
            self.hits_answered += answered
            self.hit_failures += failures

    def one_connection(self, bodies: Dict[int, bytes], count: int,
                       block: int) -> List[float]:
        """Round trips of ``count`` hits over one connection, each
        calibrated by the loop timed around its block of ``block``
        (``block=0``: raw host seconds, no calibration)."""
        out: List[float] = []
        conn = self.connect()
        try:
            if not block:
                self.hits(conn, bodies, 0, count, out)
                return out
            for first in range(0, count, block):
                rtts: List[float] = []
                before = host_speed()
                self.hits(conn, bodies, first, min(block, count - first), rtts)
                after = host_speed()
                out.extend(calibrated(r, before, after) for r in rtts)
        finally:
            conn.close()
        return out

    def two_connections(self, bodies: Dict[int, bytes], parts: int,
                        each: int, calibrate: bool = True) -> float:
        """Answered hits per (calibrated) second over two connections,
        one client thread each, in ``parts`` parts of ``each`` hits per
        thread."""
        conns = [self.connect(), self.connect()]
        busy = 0.0
        answered = self.hits_answered
        try:
            for part in range(parts):
                threads = [
                    threading.Thread(target=self.hits, args=(
                        conn, bodies, (part * 2 + offset) * each, each, None))
                    for offset, conn in enumerate(conns)
                ]
                before = host_speed() if calibrate else 0.0
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                took = time.perf_counter() - started
                busy += (calibrated(took, before, host_speed()) if calibrate
                         else took)
        finally:
            for conn in conns:
                conn.close()
        return (self.hits_answered - answered) / busy

    def stats(self) -> dict:
        """The server's ``/stats`` (empty if it gives no answer, which
        fails the tally check)."""
        conn = self.connect()
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        except REQUEST_ERRORS:
            return {}
        finally:
            conn.close()


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _start_server(tmp) -> Tuple[subprocess.Popen, str, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--store", str(tmp / "serve.sqlite"), "--port", "0"],
        stdout=subprocess.PIPE, env=env, cwd=str(tmp),
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline().decode() if ready else ""
    found = re.search(r"on http://([\d.]+):(\d+)", line)
    if found is None:
        _stop_server(proc)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return proc, found.group(1), int(found.group(2))


def _wait_healthy(host: str, port: int) -> None:
    deadline = time.perf_counter() + 60
    while True:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            finally:
                conn.close()
        except OSError:
            if time.perf_counter() > deadline:
                raise
        time.sleep(0.005)


def _stop_server(proc: subprocess.Popen) -> int:
    """SIGTERM (graceful drain), then wait; kill if it hangs."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


def _reference(bodies: List[dict]) -> List:
    """Each fill cell run in this process, without a store or HTTP."""
    from repro.scenario import Scenario, resolve_dram
    from repro.sim.session import run_scenario

    return [run_scenario(Scenario(
        workload=body["workload"], interconnect=body["interconnect"],
        power_state=body["state"], dram=resolve_dram(body["dram_ns"]),
        scale=body["scale"], seed=body["seed"],
    )) for body in bodies]


def _check(client: Client, references: List, stats: dict,
           outcome: Outcome) -> None:
    from repro.scenario import canonical_json

    for answer, reference in zip(client.answers, references):
        outcome.op(
            answer is not None and canonical_json(answer["result"])
            == canonical_json(reference.to_dict()),
            f"fill answer for {reference.scenario.label()}")
    outcome.ops(client.hits_done, client.hit_failures, "warm hit")
    tally = (client.hits_answered, len(client.answers))
    outcome.check((stats.get("hits"), stats.get("misses")) == tally,
                  f"/stats hits/misses {stats.get('hits')}/"
                  f"{stats.get('misses')} != client {tally}")


def run(seed: int, seconds: float,
        setup: Callable[[], float]) -> Tuple[Dict, Outcome]:
    outcome = Outcome()
    source = CellSource(seed)
    with scratch_dir("serve") as tmp:
        proc, host, port = _start_server(tmp)
        try:
            _wait_healthy(host, port)
            setup_s = setup()
            client = Client(host, port)
            started = time.perf_counter()
            fill = SpanClock()
            rtts: List[float] = []
            rates: List[float] = []
            rounds = 0
            while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
                warm = client.fill(source.fill_bodies(), fill)
                rtts.extend(client.one_connection(warm, ONE_CONN_HITS, HIT_BLOCK))
                rates.append(client.two_connections(warm, TWO_CONN_PARTS,
                                                    TWO_CONN_EACH))
                rounds += 1
            stats = client.stats()
        finally:
            code = _stop_server(proc)
        outcome.check(code == 0, f"repro serve exited with {code}")
    # The server is the only child this process has waited for.
    rss = peak_rss_mb(children=True)
    _check(client, _reference(client.bodies), stats, outcome)
    fill_rates = []
    for first in range(0, rounds * FILL_CELLS, FILL_CELLS):
        cells = range(first, first + FILL_CELLS)
        refs = sum(client.answers[cell]["result"]["report"]["l1_accesses"]
                   for cell in cells if client.answers[cell] is not None)
        fill_rates.append(refs / sum(fill.spans[cell] for cell in cells))
    return end_to_end(setup_s, median(fill_rates), rss, median(rtts),
                      median(rates)), outcome


def run_traced(seed: int) -> Tuple[Dict, Outcome]:
    from repro.service.server import ScenarioServer

    bodies = CellSource(seed).fill_bodies()
    began = time.perf_counter()
    references = _reference(bodies)
    plain_s = time.perf_counter() - began
    outcome = Outcome()
    switch = sys.getswitchinterval()
    with scratch_dir("serve") as tmp:
        path = tmp / "serve.sqlite"
        tracer = layers.install(stack=True, service=True)
        sys.setswitchinterval(0.001)  # as `repro serve` sets it
        try:
            with ScenarioServer(str(path), port=0) as server:
                server.start()
                client = Client(server.host, server.port)
                warm = client.fill(bodies)
                rtts = client.one_connection(warm, TRACED_HITS, 0)
                client.two_connections(warm, 1, TRACED_HITS // 2,
                                       calibrate=False)
                stats = client.stats()
        finally:
            sys.setswitchinterval(switch)
            tracer.uninstall()
        size = sqlite_bytes(path)
    _check(client, references, stats, outcome)

    from repro.sim.stats import SimReport

    served = [SimReport.from_dict(a["result"]["report"])
              for a in client.answers if a is not None]
    timings, counts = layers.engine_layers(tracer, served)
    for problem in layers.count_problems(
            tracer, counts, report_counts(r.report for r in references)):
        outcome.check(False, problem)
    serves = sorted(tracer.spans_named("service.serve_scenario"),
                    key=lambda span: span[2])
    serve_hit = median([end - start for _, _, start, end, _, _
                        in serves[FILL_CELLS:]])
    sweeps = sorted(tracer.spans_named("sim.run_sweep"), key=lambda s: s[2])
    outcome.check(len(sweeps) == FILL_CELLS,
                  f"{len(sweeps)} engine batches for {FILL_CELLS} misses")
    queue = [rtt - (end - start) for rtt, (_, _, start, end, _, _)
             in zip(client.fill_rtts, sweeps)]
    layers.save(tracer, "serve", {
        "untraced_cells_s": plain_s, "traced_cells_s": tracer.total("sim.run_sweep"),
    })
    return {
        **timings,
        "scenario.fingerprint_us": metric(
            layers.per_call(tracer, "scenario.fingerprint", 1e6), "us"),
        "scenario.encode_us": metric(layers.encode_us(tracer), "us"),
        "store.put_ms": metric(layers.per_call(tracer, "store.save", 1e3), "ms"),
        "store.get_raw_us": metric(
            layers.per_call(tracer, "store.get_raw", 1e6), "us"),
        "store.bytes": metric(size, "bytes"),
        "service.spec_parse_us": metric(layers.per_call(
            tracer, "service.scenario_from_request", 1e6), "us"),
        "service.serve_hit_us": metric(serve_hit * 1e6, "us"),
        "service.http_us": metric((median(rtts) - serve_hit) * 1e6, "us"),
        "service.miss_ms": metric(median(client.fill_rtts) * 1e3, "ms"),
        "service.queue_ms": metric(median(queue) * 1e3, "ms"),
        "service.hit_p99_ms": metric(percentile(rtts, 99) * 1e3, "ms"),
        "service.hit_samples": metric(len(rtts), "count"),
        **counts,
        "store.records": metric(stats.get("store", {}).get("records", 0),
                                "count"),
        "service.hits": metric(stats.get("hits", 0), "count"),
        "service.misses": metric(stats.get("misses", 0), "count"),
    }, outcome
