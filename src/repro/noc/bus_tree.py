"""3-D Hybrid Bus-Tree baseline (after Madan et al., HPCA 2009 [21]).

The tree variant concentrates traffic to cut hop count below the mesh:
cores feed quadrant hub routers, hubs feed one root router, and the
root reaches the stacked banks through *four shared vertical buses*
(one per quadrant of the cache tiers, each serving 8 banks).

Two hops (core->hub->root) beat the mesh's average ~2.5, but every L2
access crosses a vertical bus that is 4x more shared than a bus-mesh
pillar — the effect the paper observes: "the increased vertical bus
accesses in 3-D Hybrid Bus-Tree may offset the benefit from hop access
reduction or make the performance even worse."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.noc.base import PacketInterconnect
from repro.noc.mesh3d import MeshGeometry
from repro.noc.packet import PacketFormat, DEFAULT_PACKET_FORMAT
from repro.noc.router import RouterTiming, DEFAULT_ROUTER_TIMING
from repro.noc.vertical_bus import VerticalBus
from repro.phys.interconnect_power import (
    InterconnectPowerModel,
    DEFAULT_INTERCONNECT_POWER,
)
from repro.phys.tsv import TSVModel, DEFAULT_TSV


@dataclass(frozen=True, slots=True)
class _BusTreeRoute:
    """Precomputed static data of one (core, bank) pair: tree link
    ids, the quadrant bus's index, vertical crossing time and
    energies.  Only link/bank/bus reservations stay dynamic."""

    up_links: Tuple[int, ...]
    down_links: Tuple[int, ...]
    bus: int
    vert_cycles: int
    read_flits: int
    write_flits: int
    read_ser: int
    write_ser: int
    resp_flits: int
    resp_ser: int
    read_energy: float
    write_energy: float


class HybridBusTree(PacketInterconnect):
    """Quadrant-hub tree + root + four shared vertical buses.

    Tree link ids (the reservation list's layout): core ``c``'s link to
    its hub is ``c``; then hub ``q`` -> root, root -> hub ``q``, and
    last hub -> core ``c`` (see :meth:`_link_ids`).
    """

    name = "3-D Hybrid Bus-Tree"

    #: Quadrants per die (2x2).
    N_QUADRANTS = 4

    def __init__(
        self,
        geometry: MeshGeometry = MeshGeometry(),
        timing: RouterTiming = DEFAULT_ROUTER_TIMING,
        packet: PacketFormat = DEFAULT_PACKET_FORMAT,
        power: InterconnectPowerModel = DEFAULT_INTERCONNECT_POWER,
        tsv: TSVModel = DEFAULT_TSV,
    ) -> None:
        super().__init__(
            geometry, timing, packet, power, tsv,
            n_links=2 * (geometry.n_cores + self.N_QUADRANTS),
        )
        # Multi-drop buses (8 banks x 2 tiers each) pay turnaround.
        self.buses: Dict[int, VerticalBus] = {
            q: VerticalBus(f"quadrant-bus{q}", turnaround_cycles=2)
            for q in range(self.N_QUADRANTS)
        }

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def core_quadrant(self, core: int) -> int:
        """Quadrant (2x2 partition of the grid) hosting ``core``."""
        x, y, _ = self.geometry.core_node(core)
        half = self.geometry.side // 2
        return (1 if x >= half else 0) + 2 * (1 if y >= half else 0)

    def bank_quadrant(self, bank: int) -> int:
        """Quadrant whose shared bus serves ``bank``."""
        x, y, _tier = self.geometry.bank_node(bank)
        half = self.geometry.side // 2
        return (1 if x >= half else 0) + 2 * (1 if y >= half else 0)

    def _bus_hops(self, bank: int) -> int:
        """Tier crossings between the core tier and ``bank``."""
        return self.geometry.bank_node(bank)[2]

    def _link_ids(self, core: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Ids of ``core``'s (core->hub, hub->root) and (root->hub,
        hub->core) links."""
        n_cores, quadrants = self.geometry.n_cores, self.N_QUADRANTS
        quadrant = self.core_quadrant(core)
        return (
            (core, n_cores + quadrant),
            (n_cores + quadrants + quadrant, n_cores + 2 * quadrants + core),
        )

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _tree_up(
        self, core: int, start_cycle: int, flits: int, contended: bool
    ) -> Tuple[int, int]:
        """Core -> quadrant hub -> root; returns (head_arrival, queued)."""
        quadrant = self.core_quadrant(core)
        t = start_cycle + self.timing.pipeline_cycles  # NI/injection stage
        queued = 0
        for link in (("core", core, "hub", quadrant), ("hub", quadrant, "root")):
            if contended:
                granted = self._links.claim(link, t, flits)
                queued += granted - t
                t = granted
            t += self.timing.link_cycles + self.timing.pipeline_cycles
        return t, queued

    def _tree_down(
        self, core: int, start_cycle: int, flits: int, contended: bool
    ) -> Tuple[int, int]:
        """Root -> quadrant hub -> core (response direction)."""
        quadrant = self.core_quadrant(core)
        t = start_cycle
        queued = 0
        for link in (("root", "hub", quadrant), ("hub", quadrant, "core", core)):
            if contended:
                granted = self._links.claim(link, t, flits)
                queued += granted - t
                t = granted
            t += self.timing.link_cycles + self.timing.pipeline_cycles
        return t, queued

    def _access_cycles(
        self, core: int, bank: int, now_cycle: int, is_write: bool, contended: bool
    ) -> Tuple[int, int]:
        """Round trip; returns (completion_cycle, queueing_cycles)."""
        req_flits = (
            self.packet.write_request_flits()
            if is_write
            else self.packet.request_flits
        )
        resp_flits = self.packet.response_flits
        bus = self.buses[self.bank_quadrant(bank)]
        hops = self._bus_hops(bank)

        head, queued = self._tree_up(core, now_cycle, req_flits, contended)
        tail = head + self.packet.serialization_cycles(req_flits)
        if contended:
            start = bus.transfer(core, tail, req_flits)
            queued += start - tail
            tail = start
        t = tail + hops * self.timing.vertical_link_cycles + req_flits

        if contended:
            granted = self._bank_ports.claim(bank, t, self.timing.bank_cycles)
            queued += granted - t
            t = granted
        t += self.timing.bank_cycles

        if contended:
            start = bus.transfer(core, t, resp_flits)
            queued += start - t
            t = start
        t += hops * self.timing.vertical_link_cycles + resp_flits

        back, q2 = self._tree_down(core, t, resp_flits, contended)
        completion = back + self.packet.serialization_cycles(resp_flits)
        return completion, queued + q2

    # ------------------------------------------------------------------
    # Precomputed route table
    # ------------------------------------------------------------------
    def _build_route_entry(self, core: int, bank: int) -> _BusTreeRoute:
        up_links, down_links = self._link_ids(core)
        packet = self.packet
        read_flits = packet.request_flits
        write_flits = packet.write_request_flits()
        resp_flits = packet.response_flits
        return _BusTreeRoute(
            up_links=up_links,
            down_links=down_links,
            bus=self.bank_quadrant(bank),
            vert_cycles=self._bus_hops(bank) * self.timing.vertical_link_cycles,
            read_flits=read_flits,
            write_flits=write_flits,
            read_ser=packet.serialization_cycles(read_flits),
            write_ser=packet.serialization_cycles(write_flits),
            resp_flits=resp_flits,
            resp_ser=packet.serialization_cycles(resp_flits),
            read_energy=self._access_energy(core, bank, is_write=False),
            write_energy=self._access_energy(core, bank, is_write=True),
        )

    # ------------------------------------------------------------------
    # Interconnect interface
    # ------------------------------------------------------------------
    def access(
        self, core: int, bank: int, now_cycle: int, is_write: bool = False
    ) -> int:
        route = self._route_table.get((core, bank)) or self._route_entry(
            core, bank
        )
        if is_write:
            flits, ser = route.write_flits, route.write_ser
        else:
            flits, ser = route.read_flits, route.read_ser
        timing = self.timing
        hop_delay = timing.link_cycles + timing.pipeline_cycles
        busy = self._link_busy
        bus = self.buses[route.bus]
        queued = 0

        # Up the tree: NI/injection stage, core -> hub -> root.
        t = now_cycle + timing.pipeline_cycles
        for link in route.up_links:
            start = busy[link]
            if start < t:
                start = t
            busy[link] = start + flits
            queued += start - t
            t = start + hop_delay
        tail = t + ser
        start = bus.transfer(core, tail, flits)
        queued += start - tail
        t = start + route.vert_cycles + flits

        ports = self._port_busy
        start = ports[bank]
        if start < t:
            start = t
        ports[bank] = start + timing.bank_cycles
        queued += start - t
        t = start + timing.bank_cycles

        # Back down: bus, then root -> hub -> core.
        resp_flits = route.resp_flits
        start = bus.transfer(core, t, resp_flits)
        queued += start - t
        t = start + route.vert_cycles + resp_flits
        for link in route.down_links:
            start = busy[link]
            if start < t:
                start = t
            busy[link] = start + resp_flits
            queued += start - t
            t = start + hop_delay
        completion = t + route.resp_ser

        latency = completion - now_cycle
        stats = self.stats
        stats.accesses += 1
        stats.total_latency_cycles += latency
        stats.queueing_cycles += queued
        stats.energy_j += route.write_energy if is_write else route.read_energy
        return latency

    def zero_load_latency(self, core: int, bank: int) -> int:
        completion, _ = self._access_cycles(
            core, bank, 0, is_write=False, contended=False
        )
        return completion

    # ------------------------------------------------------------------
    def _access_energy(self, core: int, bank: int, is_write: bool) -> float:
        """Dynamic energy of the round trip (J)."""
        req_flits = (
            self.packet.write_request_flits()
            if is_write
            else self.packet.request_flits
        )
        flits = req_flits + self.packet.response_flits
        bits_moved = flits * self.packet.flit_bits
        # Three routers per direction (injection, hub, root); tree links
        # are longer than mesh links (quadrant-scale runs).
        hub_wire = self.geometry.die_width_m / 4.0
        root_wire = self.geometry.die_width_m / 2.0
        e = 2 * 3 * self.power.router_energy_per_bit * bits_moved
        e += 2 * (
            self.power.wire_energy_per_bit(hub_wire)
            + self.power.wire_energy_per_bit(root_wire)
        ) * bits_moved
        e += 2 * self._bus_hops(bank) * self.tsv.hop_energy() * bits_moved
        return e

    def leakage_w(self) -> float:
        """Hubs + root + injection stages, and the tree wiring."""
        n_routers = self.geometry.n_cores // 4 + self.N_QUADRANTS + 1
        total_wire = (
            self.geometry.n_cores * self.geometry.die_width_m / 8.0
            + self.N_QUADRANTS * self.geometry.die_width_m / 4.0
        )
        return self.power.noc_leakage(n_routers, total_wire, self.packet.flit_bits)

    def reset_contention(self) -> None:
        """Clear reservations and buses (between experiment phases)."""
        super().reset_contention()
        for bus in self.buses.values():
            bus.reset()
