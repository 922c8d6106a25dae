"""Helpers shared by the workloads: calibrated timing, scratch space,
wrappers that note each simulated cell, and the run's outcome."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
#: Root of the checkout the benchmark runs from (holds ``src/repro``).
ROOT = HERE.parent
#: Everything a run writes lands under here (git-ignored).
OUT_DIR = HERE / "out"

_IMPORTED_AT = time.perf_counter()


def process_age_s() -> float:
    """Seconds since this process was started.

    Read from ``/proc/self/stat`` (start time in clock ticks since
    boot) against ``CLOCK_BOOTTIME``, so interpreter start-up and
    imports are included.  Where ``/proc`` is unavailable it falls back
    to the time since this module was imported.
    """
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process so far or, with
    ``children``, of the largest child it has waited for (Linux: KB
    units)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def sqlite_bytes(path: Path) -> int:
    """Size of a SQLite store on disk: the database plus its WAL."""
    wal = path.with_name(path.name + "-wal")
    return path.stat().st_size + (wal.stat().st_size if wal.exists() else 0)


@contextmanager
def scratch_dir(tag: str) -> Iterator[Path]:
    """A fresh directory under :data:`OUT_DIR`, removed on exit.

    ``TMPDIR`` and ``SQLITE_TMPDIR`` point into it while it exists, so
    neither this process nor a server it starts writes outside the
    checkout.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))
    saved = {key: os.environ.get(key) for key in ("TMPDIR", "SQLITE_TMPDIR")}
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(path)
    tempfile.tempdir = None  # re-read TMPDIR
    try:
        yield path
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Calibrated time (README: "Host-speed calibration")
# ----------------------------------------------------------------------
def pin_to_one_cpu() -> None:
    """Keep this process (and servers it starts) on one CPU, so that
    the calibration loop runs where the timed work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key, self.value = key, value


#: A JSON document shaped like stored results (about 45 KB).
_DOCUMENT = json.dumps([
    {f"field{i}": [i * 0.5, str(i), {"cycles": i * 7}] for i in range(40)}
    for _ in range(30)
])

#: Seconds :func:`_calibration_loop` takes on the reference host (a
#: 2-vCPU VM, Python 3.11): its 25th percentile there.  Calibrated
#: seconds are host seconds at that speed.
REFERENCE_LOOP_S = 1.1e-3


def _calibration_loop() -> int:
    """Fixed work of the kinds the program does: dict lookups, object
    creation, attribute updates and list appends in the interpreter,
    then decoding a JSON document into fresh objects."""
    table: Dict[int, _Entry] = {}
    values = []
    for i in range(2000):
        key = i & 63
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key, 0)
        entry.value += i
        values.append(entry.value)
    return len(values) + len(json.loads(_DOCUMENT))


def host_speed() -> float:
    """Seconds the calibration loop takes now (fastest of three).

    The garbage collector is held off meanwhile: a collection's cost
    depends on the live objects of the workload, not on the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            _calibration_loop()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if collecting:
            gc.enable()


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time at the reference speed, given the
    calibration loop's time just before and just after them."""
    return seconds * REFERENCE_LOOP_S / ((before + after) / 2)


class SpanClock:
    """Calibrated spans of host time.

    ``start`` times the calibration loop and opens a span; ``stop``
    closes it, times the loop again and keeps the span's calibrated
    seconds; ``mark`` closes one span and opens the next with the same
    calibration.  The loops themselves fall outside every span.
    """

    def __init__(self) -> None:
        self.spans: List[float] = []
        self._speed = 0.0
        self._began = 0.0

    def start(self, speed: Optional[float] = None) -> None:
        self._speed = host_speed() if speed is None else speed
        self._began = time.perf_counter()

    def stop(self) -> float:
        ended = time.perf_counter()
        speed = host_speed()
        self.spans.append(calibrated(ended - self._began, self._speed, speed))
        return speed

    def mark(self) -> None:
        self.start(self.stop())


class SetupClock:
    """Calibrated seconds from the process's start to the timed phase.

    Create it first thing in the process: the calibration loop is timed
    then, and again when the set-up ends.
    """

    def __init__(self) -> None:
        self._speed = host_speed()

    def __call__(self) -> float:
        return calibrated(process_age_s(), self._speed, host_speed())


# ----------------------------------------------------------------------
# Cells and outcomes
# ----------------------------------------------------------------------
class CellRecorder:
    """Wrappers, from outside the program, that note each simulated cell.

    Counts ``Cluster3D.run`` calls, records the scenario of every
    ``run_scenario`` call and, while ``clock`` is set, marks a span of
    it each time a cell returns: a sweep's host time splits into one
    calibrated span per cell (from the previous cell's return, so it
    includes the cell's trace generation).
    """

    def __init__(self) -> None:
        from repro.sim import session
        from repro.sim.cluster import Cluster3D

        self.runs = 0
        self.scenarios: List = []
        self.clock: Optional[SpanClock] = None
        run, run_scenario = Cluster3D.__dict__["run"], session.run_scenario

        def counted_run(cluster, *args, **kwargs):
            self.runs += 1
            return run(cluster, *args, **kwargs)

        def recorded(scenario, *args, **kwargs):
            self.scenarios.append(scenario)
            try:
                return run_scenario(scenario, *args, **kwargs)
            finally:
                if self.clock is not None:
                    self.clock.mark()

        Cluster3D.run = counted_run
        session.run_scenario = recorded
        self._undo = lambda: (setattr(Cluster3D, "run", run),
                              setattr(session, "run_scenario", run_scenario))

    def reset(self) -> None:
        self.runs = 0
        self.scenarios = []

    def uninstall(self) -> None:
        self._undo()


class Outcome:
    """Operations attempted and failed, and checks of the whole run.

    A failed check of one operation fails that operation; ``correct``
    turns false only when a check that belongs to no single operation
    fails.  ``problems`` says what failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: List[str] = []

    def ops(self, count: int, failed: int, what: str) -> None:
        """Count ``count`` operations of which ``failed`` failed."""
        self.attempted += count
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"failed: {failed} x {what}")

    def op(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(f"check: {what}")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, refs_per_s: float, rss_mb: float,
               op_s: float, ops_per_s: float) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics every workload reports (README:
    "End-to-end metrics" says what each means on each workload)."""
    return {
        "setup_s": metric(setup_s, "s"),
        "sim_refs_per_s": metric(refs_per_s, "refs/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "op_ms": metric(op_s * 1e3, "ms"),
        "ops_per_s": metric(ops_per_s, "ops/s"),
    }
