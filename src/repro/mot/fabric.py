"""The circuit-switched 3-D MoT fabric (paper Fig 2a, Fig 4).

:class:`MoTFabric` instantiates the full switch population — one routing
tree per core, one arbitration tree per bank, cross-wired leaf to leaf —
and applies :class:`~repro.mot.reconfigurator.ReconfigurationPlan`s to
it.  It is the *functional* model: packets can actually be walked through
real switch objects, which is how the unit and property tests check that
the emergent behaviour (remapping, gating, starvation freedom) matches
the analytical models used by the system-level simulator.

:class:`FabricSimulator` adds a cycle-stepped arbitration game on top:
every step, each core may present one request; requests racing for the
same bank are resolved by the per-switch round-robin arbiters, losers
stall and retry.  This exercises the actual ``ArbitrationSwitch`` state
machines (starvation freedom is a property test on this simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import PowerStateError, RoutingError
from repro.mot.arbitration_switch import ArbitrationSwitch
from repro.mot.power_state import PowerState
from repro.mot.reconfigurator import ReconfigurationPlan, plan_reconfiguration
from repro.mot.routing_switch import ReconfigurableRoutingSwitch
from repro.mot.signals import Request, RoutingMode
from repro.mot.tree import ArbitrationTree, RoutingTree
from repro.phys.geometry import Floorplan3D
from repro.units import log2_int


class MoTFabric:
    """Full 3-D MoT switch fabric connecting ``n_cores`` to ``n_banks``.

    Parameters
    ----------
    n_cores, n_banks:
        Cluster dimensions (powers of two, >= 2 each).
    floorplan:
        Geometry used for wire-length accounting; defaults to a floorplan
        with matching dimensions on the paper's 5 mm die.
    state:
        The power state the fabric is built in; defaults to Full
        connection.
    """

    def __init__(
        self,
        n_cores: int = 16,
        n_banks: int = 32,
        floorplan: Optional[Floorplan3D] = None,
        state: Optional[PowerState] = None,
    ) -> None:
        self.n_cores = n_cores
        self.n_banks = n_banks
        self.floorplan = floorplan or Floorplan3D(
            n_cores=n_cores, n_banks=n_banks
        )
        self.routing_trees: List[RoutingTree] = [
            RoutingTree(core_id=c, n_banks=n_banks) for c in range(n_cores)
        ]
        self.arbitration_trees: List[ArbitrationTree] = [
            ArbitrationTree(bank_id=b, n_cores=n_cores) for b in range(n_banks)
        ]
        if state is None:
            state = PowerState.from_counts(
                "Full connection", n_cores, n_banks, n_cores, n_banks
            )
        self._plan: ReconfigurationPlan = plan_reconfiguration(state)
        self._gated_arb: Set[Tuple[int, int, int]] = set()
        self.apply_plan(self._plan)

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    @property
    def plan(self) -> ReconfigurationPlan:
        """The active reconfiguration plan."""
        return self._plan

    @property
    def power_state(self) -> PowerState:
        """The active power state."""
        return self._plan.state

    def apply_power_state(self, state: PowerState) -> ReconfigurationPlan:
        """Plan and apply ``state``; returns the plan for inspection."""
        plan = plan_reconfiguration(state)
        self.apply_plan(plan)
        return plan

    def apply_plan(self, plan: ReconfigurationPlan) -> None:
        """Drive every switch's control signals per ``plan``."""
        state = plan.state
        if state.total_cores != self.n_cores or state.total_banks != self.n_banks:
            raise PowerStateError(
                f"power state {state} does not match fabric "
                f"({self.n_cores} cores, {self.n_banks} banks)"
            )
        for tree in self.routing_trees:
            core_active = tree.core_id in state.active_cores
            for (level, pos), switch in tree.switches.items():
                if not core_active:
                    switch.set_mode(RoutingMode.GATED)
                else:
                    switch.set_mode(plan.routing_modes[(level, pos)])
        self._gated_arb = {
            (bank, level, pos)
            for bank, coords in plan.gated_arb.items()
            for (level, pos) in coords
        }
        self._plan = plan

    def arb_switch_gated(self, bank: int, level: int, pos: int) -> bool:
        """True when the given arbitration switch is power-gated."""
        return (bank, level, pos) in self._gated_arb

    # ------------------------------------------------------------------
    # Functional routing
    # ------------------------------------------------------------------
    def resolve_bank(self, core: int, logical_bank: int) -> int:
        """Walk ``core``'s routing tree and return the physical bank.

        This uses the *actual switch objects*, so the answer reflects the
        driven control signals, not the plan's remap table (a test pins
        the two to agree).
        """
        self._check_core(core)
        request = Request(core_id=core, bank_index=logical_bank)
        tree = self.routing_trees[core]
        pos = 0
        for level in range(tree.n_levels):
            switch = tree.switch_at(level, pos)
            pos = pos * 2 + switch.select_port(request)
        return pos

    def routing_path(
        self, core: int, logical_bank: int
    ) -> List[ReconfigurableRoutingSwitch]:
        """Routing switches a request traverses, root first."""
        self._check_core(core)
        request = Request(core_id=core, bank_index=logical_bank)
        tree = self.routing_trees[core]
        path, pos = [], 0
        for level in range(tree.n_levels):
            switch = tree.switch_at(level, pos)
            path.append(switch)
            pos = pos * 2 + switch.select_port(request)
        return path

    def arbitration_path(self, core: int, physical_bank: int) -> List[ArbitrationSwitch]:
        """Arbitration switches between ``core`` and ``physical_bank``,
        leaf first (the order a request meets them)."""
        tree = self.arbitration_trees[physical_bank]
        switches = []
        for level, pos in tree.path_from_core(core):
            if self.arb_switch_gated(physical_bank, level, pos):
                raise RoutingError(
                    f"request from core {core} to bank {physical_bank} "
                    f"crosses gated arbitration switch ({level}, {pos})"
                )
            switches.append(tree.switch_at(level, pos))
        return switches

    def path_switch_count(self) -> int:
        """Switches on any core->bank path: log2(banks) + log2(cores)."""
        return log2_int(self.n_banks) + log2_int(self.n_cores)

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.n_cores:
            raise RoutingError(f"core {core} out of range")
        if core not in self._plan.state.active_cores:
            raise RoutingError(
                f"core {core} is power-gated in state {self._plan.state.name}"
            )

    # ------------------------------------------------------------------
    # Component inventory (for power/leakage accounting)
    # ------------------------------------------------------------------
    @property
    def total_routing_switches(self) -> int:
        """All routing switches in the fabric: n_cores * (n_banks - 1)."""
        return self.n_cores * (self.n_banks - 1)

    @property
    def total_arbitration_switches(self) -> int:
        """All arbitration switches: n_banks * (n_cores - 1)."""
        return self.n_banks * (self.n_cores - 1)

    def active_routing_switches(self) -> int:
        """Powered-on routing switches under the current plan."""
        return sum(
            1
            for tree in self.routing_trees
            for switch in tree.all_switches()
            if not switch.is_gated
        )

    def active_arbitration_switches(self) -> int:
        """Powered-on arbitration switches under the current plan."""
        total = self.n_banks * (self.n_cores - 1)
        return total - len(self._gated_arb)

    def _routing_segment_length(self, level: int, span_m: float) -> float:
        """Wire owned by one routing switch at ``level`` of a tree
        spanning ``span_m``: the distance between its two child taps."""
        return span_m / float(2 ** (level + 1))

    def active_link_length_m(self) -> float:
        """Total powered-on wire length (meters) under the current plan.

        Routing-tree segments span the active banks' footprint; the
        arbitration trees span the active cores.  Only segments owned by
        powered-on switches count — gating a subtree also gates the
        inverters along its wires.
        """
        state = self._plan.state
        bank_span = self.floorplan.bank_span_m(state.n_active_banks)
        core_span = self.floorplan.core_span_m(state.n_active_cores)

        length = 0.0
        for tree in self.routing_trees:
            for (level, _pos), switch in tree.switches.items():
                if not switch.is_gated:
                    length += self._routing_segment_length(level, bank_span)
        arb_levels = log2_int(self.n_cores)
        for bank in range(self.n_banks):
            for level in range(arb_levels):
                seg = self._routing_segment_length(level, core_span)
                for pos in range(2**level):
                    if not self.arb_switch_gated(bank, level, pos):
                        length += seg
        return length

    def total_link_length_m(self) -> float:
        """Wire length with everything powered (Full connection)."""
        bank_span = self.floorplan.bank_span_m(self.n_banks)
        core_span = self.floorplan.core_span_m(self.n_cores)
        r_levels = log2_int(self.n_banks)
        a_levels = log2_int(self.n_cores)
        routing = self.n_cores * sum(
            (2**level) * self._routing_segment_length(level, bank_span)
            for level in range(r_levels)
        )
        arb = self.n_banks * sum(
            (2**level) * self._routing_segment_length(level, core_span)
            for level in range(a_levels)
        )
        return routing + arb

    def active_tsv_buses(self) -> int:
        """TSV buses powered on: one per active bank."""
        return self._plan.state.n_active_banks


@dataclass
class GrantResult:
    """Outcome of one :class:`FabricSimulator` step for one core."""

    core: int
    logical_bank: int
    physical_bank: int
    granted: bool


class FabricSimulator:
    """Cycle-stepped arbitration simulator over a :class:`MoTFabric`.

    Each :meth:`step` takes the requests the cores present this cycle
    (at most one per core) and resolves bank conflicts through the
    per-bank arbitration trees using the real round-robin switch state.
    Winners are granted (their transaction completes within the step —
    the circuit-switched fabric is non-blocking once granted); losers
    must be presented again next step.
    """

    def __init__(self, fabric: MoTFabric) -> None:
        self.fabric = fabric
        self.cycle = 0
        self.total_grants = 0
        self.total_stalls = 0

    def step(self, requests: Dict[int, int]) -> List[GrantResult]:
        """Resolve one cycle of requests: ``{core: logical_bank}``."""
        results: List[GrantResult] = []
        by_bank: Dict[int, List[Tuple[int, Request]]] = {}
        for core, logical_bank in sorted(requests.items()):
            physical = self.fabric.resolve_bank(core, logical_bank)
            req = Request(core_id=core, bank_index=logical_bank)
            by_bank.setdefault(physical, []).append((core, req))

        for physical, contenders in sorted(by_bank.items()):
            winner_core = self._arbitrate_bank(physical, contenders)
            for core, req in contenders:
                granted = core == winner_core
                results.append(
                    GrantResult(
                        core=core,
                        logical_bank=req.bank_index,
                        physical_bank=physical,
                        granted=granted,
                    )
                )
                if granted:
                    self.total_grants += 1
                else:
                    self.total_stalls += 1
        self.cycle += 1
        return results

    def _arbitrate_bank(
        self, physical_bank: int, contenders: List[Tuple[int, Request]]
    ) -> int:
        """Tournament through the bank's arbitration tree; returns the
        winning core.

        The tournament peeks at each switch's round-robin pointer
        without mutating it; only the switches on the *winning* path
        rotate (grants that lose upstream were never consumed — without
        this, inner cores can starve under sustained conflict).
        """
        tree = self.fabric.arbitration_trees[physical_bank]
        # Survivor per subtree, with the path of (switch, port,
        # conflicted) decisions that carried it here.
        survivors: Dict[int, Tuple[int, Request, List]] = {
            core: (core, req, []) for core, req in contenders
        }
        width = 1
        for level in range(tree.n_levels - 1, -1, -1):
            width *= 2
            next_round: Dict[int, Tuple[int, Request, List]] = {}
            groups: Dict[int, List[Tuple[int, Tuple[int, Request, List]]]] = {}
            for core, entry in survivors.items():
                pos = core // width
                input_port = (core % width) // (width // 2)
                groups.setdefault(pos, []).append((input_port, entry))
            for pos, members in groups.items():
                if self.fabric.arb_switch_gated(physical_bank, level, pos):
                    raise RoutingError(
                        f"arbitration at gated switch b{physical_bank} "
                        f"({level},{pos})"
                    )
                switch = tree.switch_at(level, pos)
                if len(members) == 1:
                    won_port, entry = members[0]
                    conflicted = False
                else:
                    by_port = dict(members)
                    won_port = switch.priority_port
                    entry = by_port[won_port]
                    conflicted = True
                core, request, path = entry
                next_round[core] = (
                    core,
                    request,
                    path + [(switch, won_port, conflicted)],
                )
            survivors = next_round
        assert len(survivors) == 1
        winner_core, _req, path = next(iter(survivors.values()))
        for switch, port, conflicted in path:
            switch.grant_consumed(port, conflicted)
        return winner_core
