"""Shared multi-banked stacked L2 cache (Table I, Sections II-III).

"The stacked L2 cache consists of 32 SRAM banks of two tiers.  Each bank
has a capacity of 64KB" — line-interleaved, 8-way, 32 B lines, shared by
all cores.  The *logical* bank of an address is its interleave index;
the *physical* bank is whatever the active reconfiguration plan folds it
onto (identity under Full connection).

The power-gating contract (Section III) is implemented here:

* on :meth:`prepare_power_state`, dirty lines that the new mapping makes
  unreachable — every line of a bank being gated, plus lines in
  surviving banks whose logical home moves — are written back and
  invalidated;
* stale *clean* lines may legally linger ("will be removed by the cache
  replacement policy"), and :meth:`apply_plan` verifies no stranded
  *dirty* line survives a transition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, PowerStateError
from repro.mem.cache import AccessResult, SetAssociativeCache
from repro.mem.mapping import BankInterleaver
from repro.mot.power_state import PowerState
from repro.mot.reconfigurator import ReconfigurationPlan, plan_reconfiguration


@dataclass(frozen=True)
class L2Config:
    """L2 geometry (defaults = Table I)."""

    n_banks: int = 32
    bank_capacity_bytes: int = 64 * 1024
    line_bytes: int = 32
    associativity: int = 8
    policy: str = "lru"

    @property
    def total_capacity_bytes(self) -> int:
        """Whole-L2 capacity with every bank on."""
        return self.n_banks * self.bank_capacity_bytes


@dataclass(frozen=True, slots=True)
class L2AccessOutcome:
    """Result of one shared-L2 access."""

    hit: bool
    logical_bank: int
    physical_bank: int
    writeback: Optional[int] = None


class BankedL2:
    """The shared, remap-aware, multi-banked L2.

    Parameters
    ----------
    config:
        Geometry (Table I defaults).
    plan:
        Initial reconfiguration plan; defaults to Full connection over
        16 cores (the core count only matters for arbitration gating,
        not for the cache behaviour modelled here).
    """

    def __init__(
        self,
        config: L2Config = L2Config(),
        plan: Optional[ReconfigurationPlan] = None,
    ) -> None:
        self.config = config
        self.interleaver = BankInterleaver(config.n_banks, config.line_bytes)
        self.banks: List[SetAssociativeCache] = [
            SetAssociativeCache(
                capacity_bytes=config.bank_capacity_bytes,
                line_bytes=config.line_bytes,
                associativity=config.associativity,
                policy=config.policy,
                name=f"L2bank{b}",
                index_stride_lines=config.n_banks,
            )
            for b in range(config.n_banks)
        ]
        if plan is None:
            plan = plan_reconfiguration(
                PowerState.from_counts(
                    "Full connection", 16, config.n_banks, 16, config.n_banks
                )
            )
        self._plan = plan
        #: Per-bank access counts (for contention/energy accounting).
        self.bank_accesses: List[int] = [0] * config.n_banks
        # Hot-path tables: logical bank = (address >> shift) & mask
        # (line interleave), and the flat logical -> physical fold of
        # the active plan.  Rebuilt whenever the plan changes.
        self._bank_shift = config.line_bytes.bit_length() - 1
        self._bank_mask = config.n_banks - 1
        self._bank_access_fns = [bank.access for bank in self.banks]
        self._bank_read_fns = [bank.read_allocate for bank in self.banks]
        self._bank_writeback_fns = [bank.write_no_allocate for bank in self.banks]
        self._remap_flat: List[int] = []
        self._rebuild_remap()

    def _rebuild_remap(self) -> None:
        """Flatten the active plan's logical -> physical bank fold."""
        self._remap_flat = [
            self._plan.remapped_bank(b) for b in range(self.config.n_banks)
        ]

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    @property
    def plan(self) -> ReconfigurationPlan:
        """The active reconfiguration plan."""
        return self._plan

    def logical_bank(self, address: int) -> int:
        """Interleave (logical) bank index of ``address``."""
        return self.interleaver.bank_index(address)

    def physical_bank(self, address: int) -> int:
        """Physical bank serving ``address`` under the active plan."""
        return self._plan.remapped_bank(self.logical_bank(address))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> L2AccessOutcome:
        """One shared-L2 access (after an L1 miss)."""
        if address < 0:
            raise ConfigurationError(f"negative address {address}")
        logical = (address >> self._bank_shift) & self._bank_mask
        physical = self._remap_flat[logical]
        self.bank_accesses[physical] += 1
        result: AccessResult = self._bank_access_fns[physical](address, is_write)
        return L2AccessOutcome(
            hit=result.hit,
            logical_bank=logical,
            physical_bank=physical,
            writeback=result.writeback,
        )

    def demand_read(self, address: int):
        """Blocking-read fast path: ``((hit, dirty_victim), physical_bank)``.

        Same state transitions and counters as ``access(address,
        is_write=False)``, through the bank's
        :meth:`~repro.mem.cache.SetAssociativeCache.read_allocate` and
        without building an :class:`L2AccessOutcome`; the simulator's
        miss path calls this once per L1 demand miss, and this is the
        one place that path checks the address.
        """
        if address < 0:
            raise ConfigurationError(f"negative address {address}")
        physical = self._remap_flat[(address >> self._bank_shift) & self._bank_mask]
        self.bank_accesses[physical] += 1
        return self._bank_read_fns[physical](address), physical

    def writeback(self, address: int) -> L2AccessOutcome:
        """Absorb an L1 victim write-back (no allocate on miss).

        If the line is resident it is dirtied in place; if the L2 has
        already evicted it, the write must be forwarded to DRAM by the
        caller (``hit=False``) — fetching a line just to overwrite it
        would waste a DRAM round trip and a refill-bus slot.
        """
        if address < 0:
            raise ConfigurationError(f"negative address {address}")
        logical = (address >> self._bank_shift) & self._bank_mask
        physical = self._remap_flat[logical]
        self.bank_accesses[physical] += 1
        hit = self._bank_writeback_fns[physical](address)
        return L2AccessOutcome(hit=hit, logical_bank=logical, physical_bank=physical)

    def absorb_writeback(self, address: int):
        """Write-back fast path: ``(hit, physical_bank)`` (no outcome
        object); the simulator's victim-drain path calls this."""
        if address < 0:
            raise ConfigurationError(f"negative address {address}")
        physical = self._remap_flat[(address >> self._bank_shift) & self._bank_mask]
        self.bank_accesses[physical] += 1
        return self._bank_writeback_fns[physical](address), physical

    def probe(self, address: int) -> bool:
        """Residency check under the active mapping (no state change)."""
        return self.banks[self.physical_bank(address)].probe(address)

    # ------------------------------------------------------------------
    # Power gating (Section III protocol)
    # ------------------------------------------------------------------
    def prepare_power_state(self, plan: ReconfigurationPlan) -> Tuple[int, int]:
        """Flush what the transition to ``plan`` makes unreachable.

        Returns ``(lines_written_back, lines_invalidated)``.  Implements
        the :class:`repro.mot.gating.GatableL2` protocol.
        """
        if plan.state.total_banks != self.config.n_banks:
            raise ConfigurationError(
                f"plan is for {plan.state.total_banks} banks, L2 has "
                f"{self.config.n_banks}"
            )
        written = invalidated = 0
        for bank_id, bank in enumerate(self.banks):
            if bank_id not in plan.state.active_banks:
                w, i = bank.flush()  # whole bank powers off
            else:
                w, i = bank.flush(
                    lambda addr, b=bank_id: self._new_home(addr, plan) != b
                )
            written += w
            invalidated += i
        self._plan = plan
        self._rebuild_remap()
        return written, invalidated

    def apply_plan(self, plan: ReconfigurationPlan, force: bool = False) -> None:
        """Switch mappings *without* flushing.

        Legal only when no dirty line gets stranded; the safe path is
        :meth:`prepare_power_state` (or the gating controller, which
        calls it).  ``force=True`` skips the check for fault-injection
        tests.
        """
        if not force:
            for bank_id, bank in enumerate(self.banks):
                for addr in bank.dirty_lines():
                    new_home = self._new_home(addr, plan)
                    reachable = (
                        bank_id in plan.state.active_banks and new_home == bank_id
                    )
                    if not reachable:
                        raise PowerStateError(
                            f"dirty line {addr:#x} in bank {bank_id} would be "
                            f"stranded by plan {plan.state.name}; call "
                            f"prepare_power_state() instead"
                        )
        self._plan = plan
        self._rebuild_remap()

    def _new_home(self, address: int, plan: ReconfigurationPlan) -> int:
        """Physical home of ``address`` under ``plan``."""
        return plan.remapped_bank(self.interleaver.bank_index(address))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_capacity_bytes(self) -> int:
        """Powered-on capacity under the active plan."""
        return self._plan.state.n_active_banks * self.config.bank_capacity_bytes

    def total_stats(self):
        """Aggregate counters over all banks (returns a CacheStats)."""
        from repro.mem.cache import CacheStats

        agg = CacheStats()
        for bank in self.banks:
            agg.reads += bank.stats.reads
            agg.writes += bank.stats.writes
            agg.read_hits += bank.stats.read_hits
            agg.write_hits += bank.stats.write_hits
            agg.evictions += bank.stats.evictions
            agg.writebacks += bank.stats.writebacks
        return agg

    def resident_lines(self) -> int:
        """Valid lines across all banks."""
        return sum(bank.resident_lines for bank in self.banks)
