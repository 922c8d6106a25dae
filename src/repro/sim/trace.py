"""Trace vocabulary for the system-level simulator.

A core's execution is a sequence of :class:`TraceStep`s: run ``compute``
cycles of non-memory instructions, then (optionally) perform one memory
reference, then (optionally) wait at a barrier.  Workload generators
(:mod:`repro.workloads`) emit these steps; the simulator consumes them.
This mirrors what the paper's Graphite setup extracts from SPLASH-2
binaries: the interleaving of computation and shared-memory references.

Two representations exist for the same trace:

* :class:`TraceStep` — one Python object per reference (the original
  vocabulary, kept for tests, trace files and the legacy scheduler);
* :class:`TraceBlock` — an array-backed run of references sharing one
  compute gap, produced by the vectorized generators and consumed
  natively by the private-L1 pass (:mod:`repro.sim.l1pass`).
  :meth:`TraceBlock.steps` expands a block into the exact equivalent
  step sequence, so either representation can feed either scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True, slots=True)
class MemRef:
    """One memory reference.

    Attributes
    ----------
    address:
        Byte address (non-negative).
    is_write:
        Store vs load.
    is_instruction:
        Instruction fetch miss path (L1I + the Miss bus) vs data.
    """

    address: int
    is_write: bool = False
    is_instruction: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise WorkloadError(f"negative address {self.address}")
        if self.is_instruction and self.is_write:
            raise WorkloadError("instruction references cannot be writes")


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One step of a core's trace.

    ``compute_cycles`` of busy work, then ``ref`` (if any), then
    ``barrier`` (if any).  A barrier id must be globally unique per
    synchronization point and hit by every active core exactly once.
    """

    compute_cycles: int = 0
    ref: Optional[MemRef] = None
    barrier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.compute_cycles < 0:
            raise WorkloadError("compute cycles must be non-negative")
        if self.ref is None and self.barrier is None and self.compute_cycles == 0:
            raise WorkloadError("empty trace step")


class TraceBlock:
    """An array-backed run of memory references with a uniform gap.

    Semantically identical to emitting, for each reference ``i``,
    ``TraceStep(compute_cycles=compute_gap, ref=MemRef(addresses[i],
    is_write[i], is_instruction[i]))`` followed (if ``barrier`` is set)
    by ``TraceStep(barrier=barrier)`` — but holding the whole run in
    numpy arrays so no per-reference Python objects exist until (and
    unless) something expands it.

    Parameters
    ----------
    compute_gap:
        Busy cycles before *each* reference of the block.
    addresses:
        Byte addresses (int64 array); may be empty for a barrier-only
        block.
    is_write, is_instruction:
        Boolean arrays aligned with ``addresses``; ``None`` means all
        False.
    barrier:
        Barrier reached after the last reference, or ``None``.
    """

    __slots__ = ("compute_gap", "addresses", "is_write", "is_instruction", "barrier")

    def __init__(
        self,
        compute_gap: int = 0,
        addresses: Optional[np.ndarray] = None,
        is_write: Optional[np.ndarray] = None,
        is_instruction: Optional[np.ndarray] = None,
        barrier: Optional[int] = None,
    ) -> None:
        if compute_gap < 0:
            raise WorkloadError("compute gap must be non-negative")
        if addresses is None:
            addresses = np.empty(0, dtype=np.int64)
        addresses = np.asarray(addresses, dtype=np.int64)
        n = addresses.shape[0]
        if is_write is None:
            is_write = np.zeros(n, dtype=bool)
        if is_instruction is None:
            is_instruction = np.zeros(n, dtype=bool)
        if is_write.shape[0] != n or is_instruction.shape[0] != n:
            raise WorkloadError("flag arrays must align with addresses")
        if n and int(addresses.min()) < 0:
            raise WorkloadError("negative address in trace block")
        if n and bool(np.any(is_write & is_instruction)):
            raise WorkloadError("instruction references cannot be writes")
        if n == 0 and barrier is None:
            raise WorkloadError("empty trace block")
        self.compute_gap = compute_gap
        self.addresses = addresses
        self.is_write = is_write
        self.is_instruction = is_instruction
        self.barrier = barrier

    def __len__(self) -> int:
        return self.addresses.shape[0]

    def steps(self) -> Iterator[TraceStep]:
        """Expand to the exact equivalent :class:`TraceStep` sequence."""
        gap = self.compute_gap
        for addr, w, instr in zip(
            self.addresses.tolist(),
            self.is_write.tolist(),
            self.is_instruction.tolist(),
        ):
            yield TraceStep(
                compute_cycles=gap,
                ref=MemRef(addr, is_write=w, is_instruction=instr),
            )
        if self.barrier is not None:
            yield TraceStep(barrier=self.barrier)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TraceBlock n={len(self)} gap={self.compute_gap} "
            f"barrier={self.barrier}>"
        )


#: One element of a core's trace, in either representation.
TraceItem = Union[TraceStep, TraceBlock]

#: A core's trace: an iterator of steps/blocks (may be lazily generated).
CoreTrace = Iterator[TraceItem]


def expand_steps(trace: CoreTrace) -> Iterator[TraceStep]:
    """Flatten a mixed step/block trace into pure :class:`TraceStep`s.

    The expansion is exact: feeding ``expand_steps(t)`` to the legacy
    scheduler is cycle-equivalent to feeding ``t`` to the fast one.
    """
    for item in trace:
        if isinstance(item, TraceBlock):
            yield from item.steps()
        else:
            yield item
