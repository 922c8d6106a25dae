"""Conservative event-driven scheduler for the multi-core cluster.

The simulator exploits the structure of the workload: every core is
in-order and *blocking* (it stalls until each memory reference
completes), so a core's timeline is a strictly increasing sequence of
events.  Scheduling the core with the smallest local time next means
every shared-resource reservation (bank port, NoC link, bus, DRAM
controller) is claimed in global time order — the transaction-level
contention model stays causally consistent without a general event
calendar.  This is the standard conservative optimization Graphite-class
simulators use for blocking cores.

Barriers: a core reaching a barrier is parked; when the last active
core arrives, all are released at the latest arrival time (the paper's
SPLASH-2 phases synchronize this way, which is what exposes limited
parallel scalability as idle barrier time).

Two schedulers share the barrier machinery:

* **legacy** — the original loop: every micro action (compute, memory
  reference, barrier) is one heap event.  Needed only when the memory
  system is an opaque callback; kept as the differential oracle.
* **fast** — a walk over per-core *miss streams*
  (:mod:`repro.sim.l1pass`).  L1 hits touch nothing shared (the L1s
  are private), so the private-L1 pass has already retired them; the
  walk sees only the *shared* events — L1 misses, barrier arrivals and
  trace exhaustion — each entering the heap at its simulated time
  (the core's resume time plus the stream's private cycles before it)
  and processed at pop.  Every shared-state transition (interconnect
  / bank / DRAM reservation, barrier arrival, core retirement) thus
  happens in exactly the (time, core) order the legacy scheduler would
  use — cycle-exact equivalence is the correctness contract, enforced
  by ``tests/sim/test_differential.py``.

The fast path needs the shared half of a miss as its own call (see
:class:`FastMemorySystem`); :class:`~repro.sim.cluster.Cluster3D`
implements it and builds the streams.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.errors import SimulationError
from repro.sim.l1pass import MissStream
from repro.sim.stats import CoreStats
from repro.sim.trace import CoreTrace, MemRef, TraceBlock

#: Memory callback: (core_id, ref, now_cycle) -> total latency in cycles.
MemoryAccessFn = Callable[[int, MemRef, int], int]


class FastMemorySystem:
    """Protocol the fast scheduler requires of a memory system.

    ``finish_miss(core, address, victim, now_cycle)``
        Charge the shared remainder of a reference that missed its L1
        (the dirty L1 ``victim``'s write-back when it is not ``None``,
        interconnect, L2, Miss bus, DRAM) at global time
        ``now_cycle``; returns the reference's *total* latency.

    The private half — the L1 lookups — is already folded into the
    :class:`~repro.sim.l1pass.MissStream` the scheduler walks.
    """

    def finish_miss(
        self, core: int, address: int, victim: Optional[int], now_cycle: int
    ) -> int:
        raise NotImplementedError


class SimulationEngine:
    """Runs a set of per-core traces against a memory system.

    Parameters
    ----------
    traces:
        One entry per *active* core: ``{core_id: iterator of
        TraceStep/TraceBlock}`` for the legacy scheduler,
        ``{core_id: MissStream}`` for the fast one.
    memory_access:
        Callback charging one memory reference; returns its latency.
    max_cycles:
        Safety valve: a run exceeding this raises ``SimulationError``
        (deadlocked barrier or runaway trace).
    memory_system:
        Optional split-protocol memory system (see
        :class:`FastMemorySystem`); enables the fast scheduler.
    mode:
        ``"auto"`` (fast when ``memory_system`` is given, else legacy),
        ``"fast"``, or ``"legacy"``.  Both schedulers produce identical
        cycle counts and statistics.
    """

    def __init__(
        self,
        traces: Dict[int, Union[CoreTrace, MissStream]],
        memory_access: MemoryAccessFn,
        max_cycles: int = 2_000_000_000,
        memory_system: Optional[FastMemorySystem] = None,
        mode: str = "auto",
    ) -> None:
        if not traces:
            raise SimulationError("no active cores")
        if mode not in ("auto", "fast", "legacy"):
            raise SimulationError(f"unknown engine mode {mode!r}")
        if mode == "auto":
            mode = "fast" if memory_system is not None else "legacy"
        if mode == "fast" and memory_system is None:
            raise SimulationError("fast mode needs a split memory system")
        if mode == "fast" and not all(
            isinstance(trace, MissStream) for trace in traces.values()
        ):
            raise SimulationError("fast mode walks miss streams, not traces")
        self.traces = traces
        self.memory_access = memory_access
        self.memory_system = memory_system
        self.mode = mode
        self.max_cycles = max_cycles
        self.core_stats: Dict[int, CoreStats] = {
            core: CoreStats(core_id=core) for core in traces
        }
        self._finished: Set[int] = set()
        #: barrier id -> list of (arrival_time, core) already waiting.
        self._barrier_wait: Dict[int, List[Tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Execute to completion; returns the execution time in cycles
        (the finish time of the last core)."""
        if self.mode == "fast":
            finish_time = self._run_fast()
        else:
            finish_time = self._run_legacy()
        if self._barrier_wait and any(self._barrier_wait.values()):
            pending = {
                bid: cores for bid, cores in self._barrier_wait.items() if cores
            }
            raise SimulationError(f"deadlock: barriers never released: {pending}")
        return finish_time

    # ------------------------------------------------------------------
    # Legacy scheduler: one heap event per micro action
    # ------------------------------------------------------------------
    def _run_legacy(self) -> int:
        actions = {
            core: self._micro_actions(trace)
            for core, trace in self.traces.items()
        }
        heap: List[Tuple[int, int]] = [(0, core) for core in sorted(actions)]
        heapq.heapify(heap)
        finish_time = 0

        while heap:
            now, core = heapq.heappop(heap)
            if now > self.max_cycles:
                raise SimulationError(
                    f"core {core} passed {self.max_cycles} cycles; "
                    f"runaway trace or deadlocked barrier"
                )
            action = next(actions[core], None)
            if action is None:
                stats = self.core_stats[core]
                stats.finish_cycle = now
                self._finished.add(core)
                finish_time = max(finish_time, now)
                continue

            kind, payload = action
            stats = self.core_stats[core]
            if kind == "compute":
                # Compute advances local time only; re-queue so the
                # following memory access is issued in global time
                # order (resource claims must be causally consistent).
                stats.busy_cycles += payload
                heapq.heappush(heap, (now + payload, core))
            elif kind == "mem":
                latency = self.memory_access(core, payload, now)
                if latency < 1:
                    raise SimulationError(
                        f"memory access returned latency {latency} < 1"
                    )
                stats.memory_references += 1
                # The first cycle is the L1 pipeline (busy); the rest
                # is a stall.
                stats.busy_cycles += 1
                stats.stall_cycles += latency - 1
                heapq.heappush(heap, (now + latency, core))
            else:  # barrier
                released = self._arrive_at_barrier(payload, core, now)
                if released is None:
                    continue  # parked; the releaser re-queues us
                for release_core, release_time, waited in released:
                    self.core_stats[release_core].barrier_cycles += waited
                    if release_time > self.max_cycles:
                        raise SimulationError(
                            f"barrier released at {release_time}, past "
                            f"the {self.max_cycles}-cycle safety valve"
                        )
                    heapq.heappush(heap, (release_time, release_core))
        return finish_time

    # ------------------------------------------------------------------
    # Fast scheduler: a walk over the cores' miss streams
    # ------------------------------------------------------------------
    def _run_fast(self) -> int:
        finish_miss = self.memory_system.finish_miss
        max_cycles = self.max_cycles
        streams: Dict[int, MissStream] = self.traces
        core_stats = self.core_stats
        heappush = heapq.heappush
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        cursor = dict.fromkeys(streams, 0)  # each core's next event
        miss_stall = dict.fromkeys(streams, 0)
        # A core enters the heap at its next shared event: the time it
        # resumed plus the private cycles the stream puts before it.
        heap: List[Tuple[int, int]] = [
            (stream.gaps[0], core) for core, stream in streams.items()
        ]
        heapq.heapify(heap)
        finish_time = 0
        now, core = heappop(heap)
        while True:
            if now > max_cycles:
                raise SimulationError(
                    f"core {core} passed {max_cycles} cycles; "
                    f"runaway trace or deadlocked barrier"
                )
            stream = streams[core]
            event = cursor[core]
            cursor[core] = event + 1
            address = stream.addresses[event]
            if address is not None:  # L1 miss, charged at its issue time
                latency = finish_miss(core, address, stream.victims[event], now)
                if latency < 1:
                    raise SimulationError(
                        f"memory access returned latency {latency} < 1"
                    )
                miss_stall[core] += latency - 1
                # One C call for push-then-pop: the same core comes
                # straight back when its next event is still earliest.
                now, core = heappushpop(
                    heap, (now + latency + stream.gaps[event + 1], core)
                )
                continue
            barrier = stream.barriers.get(event)
            if barrier is None:  # end of the trace
                stats = core_stats[core]
                stats.busy_cycles += stream.busy_cycles
                stats.stall_cycles += stream.stall_cycles + miss_stall[core]
                stats.memory_references += stream.references
                stats.finish_cycle = now
                self._finished.add(core)
                if now > finish_time:
                    finish_time = now
            else:
                released = self._arrive_at_barrier(barrier, core, now)
                for release_core, release_time, waited in released or ():
                    core_stats[release_core].barrier_cycles += waited
                    if release_time > max_cycles:
                        raise SimulationError(
                            f"barrier released at {release_time}, past "
                            f"the {max_cycles}-cycle safety valve"
                        )
                    resumed = streams[release_core]
                    heappush(heap, (
                        release_time + resumed.gaps[cursor[release_core]],
                        release_core,
                    ))
            if not heap:
                return finish_time
            now, core = heappop(heap)

    # ------------------------------------------------------------------
    @staticmethod
    def _micro_actions(trace: CoreTrace):
        """Split each step into time-ordered micro actions (blocks are
        expanded to their exact per-reference equivalent)."""
        for step in trace:
            if isinstance(step, TraceBlock):
                gap = step.compute_gap
                for addr, is_write, is_instr in zip(
                    step.addresses.tolist(),
                    step.is_write.tolist(),
                    step.is_instruction.tolist(),
                ):
                    if gap:
                        yield ("compute", gap)
                    yield ("mem", MemRef(addr, is_write, is_instr))
                if step.barrier is not None:
                    yield ("barrier", step.barrier)
                continue
            if step.compute_cycles:
                yield ("compute", step.compute_cycles)
            if step.ref is not None:
                yield ("mem", step.ref)
            if step.barrier is not None:
                yield ("barrier", step.barrier)

    def _arrive_at_barrier(
        self, barrier_id: int, core: int, now: int
    ) -> Optional[List[Tuple[int, int, int]]]:
        """Park ``core``; on last arrival return the release list
        ``[(core, release_time, cycles_waited), ...]``."""
        waiting = self._barrier_wait.setdefault(barrier_id, [])
        waiting.append((now, core))
        expected = len(self.traces) - len(self._finished)
        if len(waiting) < expected:
            return None
        release_time = max(t for t, _c in waiting)
        released = [(c, release_time, release_time - t) for t, c in waiting]
        self._barrier_wait[barrier_id] = []
        return released
