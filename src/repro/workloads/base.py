"""Synthetic workload -> per-core trace construction.

:class:`SyntheticWorkload` turns a
:class:`~repro.workloads.characteristics.WorkloadProfile` into the
per-core traces the simulator consumes, reproducing the structure
Graphite sees when running the real program:

* the program runs in ``n_phases`` barrier-delimited phases;
* each phase has a *serial section* — ``(1-P)/n_phases`` of the work,
  executed by the lowest-id active core while the others wait at the
  barrier — followed by a *parallel section* where every core executes
  ``P/(n_phases * p)`` of the work (Amdahl's law, which is what makes
  the limited-scalability group flatten beyond 4 cores);
* within a section, memory references are spaced by compute gaps drawn
  to match the profile's ``mem_ratio``, and addresses come from the
  profile's pattern kernel over the shared region, a per-core private
  region, a temporal-reuse window, and occasional instruction fetches.

Trace construction is vectorized: each section is built as one
array-backed :class:`~repro.sim.trace.TraceBlock` (addresses, write and
ifetch flags as numpy arrays) with no per-reference Python objects.
:meth:`SyntheticWorkload.trace_blocks` exposes the blocks directly for
the private-L1 pass; :meth:`SyntheticWorkload.traces` expands the
same blocks into the classic per-reference :class:`TraceStep` stream,
so both APIs describe the identical workload.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.sim.trace import MemRef, TraceBlock, TraceStep, expand_steps
from repro.workloads.characteristics import WorkloadProfile, profile as lookup_profile
from repro.workloads.generators import AddressStream, RandomStream, make_stream

#: Region layout (byte addresses).  Shared data lives low, code high,
#: private regions are per-core slices above the code.
SHARED_BASE = 0x1000_0000
CODE_BASE = 0x4000_0000
CODE_BYTES = 16 * 1024
PRIVATE_BASE = 0x5000_0000
PRIVATE_BYTES = 2 * 1024
PRIVATE_STRIDE = 1 * 1024 * 1024

#: Depth of the temporal-reuse window (most recent shared addresses).
REUSE_WINDOW = 16


@dataclass(frozen=True)
class SectionPlan:
    """One barrier-delimited section of the phase schedule."""

    instructions: int
    serial: bool
    barrier_id: int


class SyntheticWorkload:
    """Reproducible trace factory for one benchmark run.

    Parameters
    ----------
    profile:
        Benchmark parameters (or a name, resolved via the registry).
    scale:
        Work multiplier: 1.0 is the reference input; tests use smaller
        values.  Scales instruction counts only — the working set must
        keep its capacity relationship with the L2, so it is *not*
        scaled.
    seed:
        Base RNG seed; per-core seeds derive from it.
    """

    def __init__(
        self,
        profile: WorkloadProfile | str,
        scale: float = 1.0,
        seed: int = 2016,
    ) -> None:
        if isinstance(profile, str):
            profile = lookup_profile(profile)
        if scale <= 0.0:
            raise WorkloadError("scale must be positive")
        self.profile = profile
        self.scale = scale
        self.seed = seed

    # ------------------------------------------------------------------
    # Phase schedule
    # ------------------------------------------------------------------
    def total_instructions(self) -> int:
        """Scaled work of the whole program."""
        return max(1000, int(self.profile.total_instructions * self.scale))

    def section_plans(self, n_cores: int) -> List[SectionPlan]:
        """The barrier schedule shared by all cores."""
        if n_cores < 1:
            raise WorkloadError("need at least one core")
        work = self.total_instructions()
        p = self.profile.parallel_fraction
        phases = self.profile.n_phases
        serial_per_phase = int(work * (1.0 - p) / phases)
        parallel_per_phase = int(work * p / (phases * n_cores))
        plans: List[SectionPlan] = []
        barrier = 0
        for _ in range(phases):
            plans.append(SectionPlan(serial_per_phase, True, barrier))
            barrier += 1
            plans.append(SectionPlan(parallel_per_phase, False, barrier))
            barrier += 1
        return plans

    # ------------------------------------------------------------------
    # Trace construction
    # ------------------------------------------------------------------
    def trace_blocks(
        self, active_cores: Sequence[int]
    ) -> Dict[int, Iterator[TraceBlock | TraceStep]]:
        """Build one lazy array-backed trace per active core.

        This is the canonical generation path: one
        :class:`TraceBlock` per executed section (plus barrier-only
        steps for skipped serial sections).
        """
        cores = sorted(active_cores)
        if not cores:
            raise WorkloadError("no active cores")
        plans = self.section_plans(len(cores))
        serial_core = cores[0]
        return {
            core: self._core_blocks(core, rank, len(cores), plans, serial_core)
            for rank, core in enumerate(cores)
        }

    def traces(self, active_cores: Sequence[int]) -> Dict[int, Iterator[TraceStep]]:
        """Per-reference :class:`TraceStep` view of the same traces.

        Exactly :meth:`trace_blocks` expanded step by step — kept for
        the legacy scheduler, trace files and tests.
        """
        return {
            core: expand_steps(blocks)
            for core, blocks in self.trace_blocks(active_cores).items()
        }

    def _core_blocks(
        self,
        core: int,
        rank: int,
        n_cores: int,
        plans: List[SectionPlan],
        serial_core: int,
    ) -> Iterator[TraceBlock | TraceStep]:
        """Generator of this core's blocks across all sections."""
        prof = self.profile
        # crc32, not hash(): Python string hashing is randomized per
        # process, which would make traces (and thus every result)
        # differ between interpreter invocations and spawn-based
        # worker processes.  Trace identity must depend only on
        # (benchmark, seed, scale, core) — the parallel executor's
        # replay-determinism contract.
        rng = np.random.default_rng(
            (self.seed * 1_000_003 + zlib.crc32(prof.name.encode()) % 65_536)
            * 64
            + core
        )
        shared = make_stream(
            prof.pattern,
            SHARED_BASE,
            prof.working_set_bytes,
            rng,
            start_offset=(rank * prof.working_set_bytes) // max(1, n_cores),
            touch_stride=prof.touch_stride,
            burst=prof.spatial_burst,
        )
        # Private data (2 KB of hot stack/locals) fits the 4 KB L1.
        private = RandomStream(
            PRIVATE_BASE + core * PRIVATE_STRIDE, PRIVATE_BYTES, rng, burst=4
        )
        # A hot code footprint: mostly L1I hits with occasional misses.
        code = RandomStream(CODE_BASE, CODE_BYTES, rng, burst=8)
        reuse_window: List[int] = []

        for plan in plans:
            if not plan.serial or core == serial_core:
                yield self._section_block(
                    plan, rng, shared, private, code, reuse_window
                )
            else:
                yield TraceStep(barrier=plan.barrier_id)

    def _section_block(
        self,
        plan: SectionPlan,
        rng: np.random.Generator,
        shared: AddressStream,
        private: AddressStream,
        code: AddressStream,
        reuse_window: List[int],
    ) -> TraceBlock:
        """One section as a single array-backed block.

        Reference mix, compute-gap spacing and window semantics follow
        the original per-reference builder: a temporal-reuse pick comes
        from the last ``REUSE_WINDOW`` *shared* addresses issued before
        it (reuse candidates arriving while the window is still empty
        fall through to the shared stream).
        """
        prof = self.profile
        instructions = plan.instructions
        n_refs = max(1, int(instructions * prof.mem_ratio))
        # Compute cycles are the non-memory instructions, split evenly
        # into gaps before each reference (in-order, 1 IPC).
        gap = max(0, int(round(instructions / n_refs)) - 1)
        kind = rng.random(n_refs)
        writes = rng.random(n_refs) < prof.write_fraction

        if_f = prof.ifetch_fraction
        priv_edge = if_f + prof.private_fraction
        reuse_edge = priv_edge + prof.temporal_reuse
        is_ifetch = kind < if_f
        is_private = ~is_ifetch & (kind < priv_edge)
        is_reuse = ~is_ifetch & ~is_private & (kind < reuse_edge)
        is_shared = kind >= reuse_edge
        if not reuse_window:
            # Window still empty: the first reuse-or-shared reference
            # must populate it, so a leading reuse pick becomes shared.
            rs = np.flatnonzero(is_reuse | is_shared)
            if rs.size and is_reuse[rs[0]]:
                is_reuse[rs[0]] = False
                is_shared[rs[0]] = True

        shared_idx = np.flatnonzero(is_shared)
        shared_addrs = shared.next_block(shared_idx.size)
        reuse_idx = np.flatnonzero(is_reuse)

        addresses = np.empty(n_refs, dtype=np.int64)
        addresses[shared_idx] = shared_addrs
        if reuse_idx.size:
            w_prev = len(reuse_window)
            history = np.concatenate(
                [np.asarray(reuse_window, dtype=np.int64), shared_addrs]
            )
            # Shared refs strictly before each reuse position.
            s_before = np.cumsum(is_shared)[reuse_idx]
            depth = np.minimum(REUSE_WINDOW, w_prev + s_before)
            picks = (rng.random(reuse_idx.size) * depth).astype(np.int64)
            addresses[reuse_idx] = history[w_prev + s_before - depth + picks]
        else:
            history = None
        ifetch_idx = np.flatnonzero(is_ifetch)
        addresses[ifetch_idx] = code.next_block(ifetch_idx.size)
        private_idx = np.flatnonzero(is_private)
        addresses[private_idx] = private.next_block(private_idx.size)

        # Roll the window forward over this section's shared addresses.
        if shared_addrs.size:
            if history is None:
                history = np.concatenate(
                    [np.asarray(reuse_window, dtype=np.int64), shared_addrs]
                )
            reuse_window[:] = history[-REUSE_WINDOW:].tolist()

        return TraceBlock(
            compute_gap=gap,
            addresses=addresses,
            is_write=writes & ~is_ifetch,
            is_instruction=is_ifetch,
            barrier=plan.barrier_id,
        )


def build_traces(
    name: str,
    active_cores: Sequence[int],
    scale: float = 1.0,
    seed: int = 2016,
) -> Dict[int, Iterator[TraceBlock | TraceStep]]:
    """Convenience: block traces of benchmark ``name`` for ``active_cores``.

    Returns the array-backed fast representation; pass it to either
    scheduler (the legacy one expands blocks transparently).
    """
    return SyntheticWorkload(name, scale=scale, seed=seed).trace_blocks(active_cores)
