"""The private-L1 pass: one core's trace reduced to its miss stream.

Every core owns its L1 I and D caches, and nothing outside the core
writes into them (:meth:`~repro.sim.cluster.Cluster3D.finish_miss`
touches only L2, the interconnect and DRAM).  So a core's sequence of
L1 hits, misses and dirty victims is a pure function of its trace and
the L1 geometry: it does not depend on the interconnect, the banks a
power state leaves on, or the DRAM.  :func:`miss_stream` replays the
trace through the core's two :class:`~repro.mem.cache.SetAssociativeCache`
models once and keeps only what the timed engine needs — the *shared
events* (L1 misses, barrier arrivals, the end of the trace) and the
private cycles between them.  The engine then walks these events
alone, and a sweep replays one stream across every cell that shares
``(workload, scale, seed, active cores, L1 config)``.

The I- and D-caches are independent too, so an array-backed
:class:`~repro.sim.trace.TraceBlock` goes through each in one
:meth:`~repro.mem.cache.SetAssociativeCache.replay` call (the fetches
through the I-cache, the rest through the D-cache); the two lists of
miss positions merge back into block order, and numpy turns them into
the private cycles between misses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.mem.cache import HIT
from repro.mem.l1 import L1Config, make_l1_pair
from repro.sim.trace import CoreTrace, TraceBlock


class MissStream:
    """One core's shared events in order, plus its private totals.

    Event ``i`` happens ``gaps[i]`` cycles of private work (compute
    gaps and L1 hits) after the core resumes from event ``i - 1`` (or
    starts).  It is

    * an L1 miss when ``addresses[i]`` is an address — ``victims[i]``
      is then the dirty line the fill evicted, or ``None``;
    * a barrier arrival when ``addresses[i]`` is ``None`` and ``i`` is
      a key of ``barriers`` (the barrier id);
    * the end of the trace otherwise (always the last event).

    The busy/stall split of the private work is kept as per-core
    totals, because the report only ever sums it: ``busy_cycles``
    counts every compute gap plus the one L1 cycle of every reference
    (hit or miss), ``stall_cycles`` the hits' cycles beyond that.  The
    engine adds each miss's shared latency past its first cycle.
    A stream is never modified after the pass, so cells share it.
    """

    __slots__ = (
        "l1_config", "gaps", "addresses", "victims", "barriers",
        "references", "misses", "busy_cycles", "stall_cycles",
    )

    def __init__(self, l1_config: L1Config) -> None:
        self.l1_config = l1_config
        self.gaps: List[int] = []
        self.addresses: List[Optional[int]] = []
        self.victims: List[Optional[int]] = []
        self.barriers: Dict[int, int] = {}
        self.references = 0  # L1 accesses, I and D
        self.misses = 0
        self.busy_cycles = 0
        self.stall_cycles = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MissStream refs={self.references} misses={self.misses} "
            f"barriers={len(self.barriers)}>"
        )


def _block_misses(block: TraceBlock, icache, dcache) -> Tuple[np.ndarray, List]:
    """Replay one block through the core's L1s; returns the block
    positions that missed, in order, and each miss's dirty victim.

    The two caches are independent, so each replays its own references
    in one call (the I-cache the fetches, the D-cache the rest), and
    their miss positions merge back into block order.
    """
    addresses = block.addresses
    fetches = np.flatnonzero(block.is_instruction)
    if not fetches.size:
        misses, victims = dcache.replay(
            addresses.tolist(), block.is_write.tolist()
        )
        return np.asarray(misses, dtype=np.int64), victims
    data = np.flatnonzero(~block.is_instruction)
    d_misses, d_victims = dcache.replay(
        addresses[data].tolist(), block.is_write[data].tolist()
    )
    i_misses, i_victims = icache.replay(addresses[fetches].tolist())
    positions = np.concatenate((data[d_misses], fetches[i_misses]))
    order = positions.argsort()
    victims = d_victims + i_victims
    return positions[order], [victims[k] for k in order.tolist()]


def miss_stream(
    trace: CoreTrace,
    icache,
    dcache,
    l1_config: L1Config,
    max_cycles: int = 2_000_000_000,
) -> MissStream:
    """Replay ``trace`` through one core's L1s; returns its stream.

    ``icache``/``dcache`` are the core's
    :class:`~repro.mem.cache.SetAssociativeCache` models, built from
    ``l1_config``; they end in the state the trace leaves them in.
    A :class:`TraceBlock` goes through each cache in one
    :meth:`~repro.mem.cache.SetAssociativeCache.replay` call; a
    :class:`TraceStep` (and a block holding a negative address, which
    then raises at that reference) takes one ``access`` per reference.
    Either way the caches see each reference in trace order.
    A trace whose private work alone passes ``max_cycles`` (each miss
    counted as one cycle, its least latency) raises
    :class:`SimulationError`, so a runaway trace stops here instead of
    exhausting memory; a run with that safety valve could only have
    raised the same error later.
    """
    hit_latency = l1_config.hit_latency_cycles
    if hit_latency < 1:
        raise SimulationError(f"memory access returned latency {hit_latency} < 1")
    stream = MissStream(l1_config)
    gaps = stream.gaps
    addresses = stream.addresses
    victims = stream.victims
    # Indexed by the reference's is_instruction flag.  An instruction
    # reference is never a write (trace validation), so the write
    # flag passes through either function.
    access = (dcache.access, icache.access)
    clock = 0  # private cycles since the core's last event
    busy = references = misses = 0
    for item in trace:
        refs = ()
        if isinstance(item, TraceBlock):
            gap = item.compute_gap
            step = gap + hit_latency
            n = len(item)
            if n and item.addresses.min() >= 0:
                positions, block_victims = _block_misses(item, icache, dcache)
                if positions.size:
                    # A miss at position m after the previous one at p
                    # follows m - p - 1 hits: (m - p - 1) * step + gap.
                    block_gaps = np.diff(positions, prepend=-1) * step - hit_latency
                    block_gaps[0] += clock
                    gaps += block_gaps.tolist()
                    addresses += item.addresses[positions].tolist()
                    victims += block_victims
                    misses += positions.size
                    clock = (n - 1 - int(positions[-1])) * step
                else:
                    clock += n * step
            else:  # empty, or raises at its negative address
                refs = zip(
                    item.addresses.tolist(),
                    item.is_write.tolist(),
                    item.is_instruction.tolist(),
                )
        elif item.ref is None:  # compute and/or barrier only
            gap = item.compute_cycles
            clock += gap
            busy += gap
            n = 0
        else:
            gap = item.compute_cycles
            step = gap + hit_latency
            ref = item.ref
            refs = ((ref.address, ref.is_write, ref.is_instruction),)
            n = 1
        for address, is_write, is_instruction in refs:
            result = access[is_instruction](address, is_write)
            if result is HIT or result.hit:
                clock += step
                continue
            gaps.append(clock + gap)
            addresses.append(address)
            victims.append(result.writeback)
            misses += 1
            clock = 0
        references += n
        busy += n * (gap + 1)
        if item.barrier is not None:
            stream.barriers[len(gaps)] = item.barrier
            gaps.append(clock)
            addresses.append(None)
            victims.append(None)
            clock = 0
        if busy + (references - misses) * (hit_latency - 1) > max_cycles:
            raise SimulationError(
                f"private work alone passed {max_cycles} cycles; "
                f"runaway trace"
            )
    gaps.append(clock)
    addresses.append(None)
    victims.append(None)
    stream.references = references
    stream.misses = misses
    stream.busy_cycles = busy
    stream.stall_cycles = (references - misses) * (hit_latency - 1)
    return stream


def miss_streams(
    traces: Dict[int, CoreTrace],
    l1_config: L1Config,
    max_cycles: int = 2_000_000_000,
) -> Dict[int, MissStream]:
    """Each core's stream, from fresh private L1s built from
    ``l1_config`` (see :func:`miss_stream`)."""
    streams = {}
    for core, trace in traces.items():
        icache, dcache = make_l1_pair(core, l1_config)
        streams[core] = miss_stream(
            trace, icache.cache, dcache.cache, l1_config, max_cycles
        )
    return streams
