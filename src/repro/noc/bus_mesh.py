"""3-D Hybrid Bus-Mesh baseline (Li et al., ISCA 2006 [2]).

Li et al.'s "network-in-memory": every tier (core and cache) carries a
2-D packet mesh, and each tile location has a vertical dTDMA *pillar
bus* connecting the tiers — vertical communication is a single bus
arbitration instead of hop-by-hop routers.  This is the design that,
per the paper, "may reduce the L2 cache access latency by exploiting
the short vertical links, in conjunction with the reduction in the
number of hop accesses".

An access: XY-route on the core tier to the tile under the target
bank, win that tile's pillar, cross up, access the bank; the response
XY-routes *on the bank's tier* to the tile above the requesting core
and descends that pillar — so request and response traffic load
different tiers' meshes and different pillars, exactly like the
original design's per-layer networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.noc.base import PacketInterconnect
from repro.noc.mesh3d import MeshGeometry, Node
from repro.noc.packet import PacketFormat, DEFAULT_PACKET_FORMAT
from repro.noc.router import RouterTiming, DEFAULT_ROUTER_TIMING
from repro.noc.vertical_bus import VerticalBus
from repro.phys.interconnect_power import (
    InterconnectPowerModel,
    DEFAULT_INTERCONNECT_POWER,
)
from repro.phys.tsv import TSVModel, DEFAULT_TSV


@dataclass(frozen=True, slots=True)
class _BusMeshRoute:
    """Precomputed static data of one (core, bank) pair: in-tier
    routes as (link id, delay after grant), the indices of the two
    pillars, and energies.  Only link/bank/pillar reservations stay
    dynamic."""

    req_hops: Tuple[Tuple[int, int], ...]
    resp_hops: Tuple[Tuple[int, int], ...]
    up_pillar: int
    down_pillar: int
    vert_cycles: int
    read_flits: int
    write_flits: int
    read_ser: int
    write_ser: int
    resp_flits: int
    resp_ser: int
    read_energy: float
    write_energy: float


class HybridBusMesh(PacketInterconnect):
    """2-D mesh + per-tile vertical pillar buses."""

    name = "3-D Hybrid Bus-Mesh"

    def __init__(
        self,
        geometry: MeshGeometry = MeshGeometry(),
        timing: RouterTiming = DEFAULT_ROUTER_TIMING,
        packet: PacketFormat = DEFAULT_PACKET_FORMAT,
        power: InterconnectPowerModel = DEFAULT_INTERCONNECT_POWER,
        tsv: TSVModel = DEFAULT_TSV,
    ) -> None:
        # In-tier links only, but ids span the mesh's node pairs.
        super().__init__(
            geometry, timing, packet, power, tsv, n_links=geometry.n_nodes ** 2
        )
        side = geometry.side
        #: One pillar per tile location; routes name a pillar by its
        #: index ``x + side * y`` into ``_pillar_list``.
        self._pillar_list = [
            VerticalBus(f"pillar({x},{y})")
            for y in range(side)
            for x in range(side)
        ]
        self.pillars: Dict[Tuple[int, int], VerticalBus] = {
            (x, y): self._pillar_list[x + side * y]
            for x in range(side)
            for y in range(side)
        }

    # ------------------------------------------------------------------
    def _pillar_of_bank(self, bank: int) -> Tuple[int, int]:
        """Tile location whose pillar serves ``bank``."""
        x, y, _tier = self.geometry.bank_node(bank)
        return (x, y)

    def _mesh_traverse(
        self, src: Node, dst: Node, start_cycle: int, flits: int, contended: bool
    ) -> Tuple[int, int, int]:
        """XY wormhole walk within one tier; see True3DMesh._traverse."""
        if src[2] != dst[2]:
            raise ValueError("bus-mesh meshes are per-tier; use the pillar")
        t = start_cycle + self.timing.pipeline_cycles
        queued = 0
        links = self.geometry.xyz_links(src, dst)
        for link, _vertical in links:
            if contended:
                granted = self._links.claim(link, t, flits)
                queued += granted - t
                t = granted
            t += self.timing.link_cycles + self.timing.pipeline_cycles
        return t, queued, len(links)

    def _bus_hops(self, bank: int) -> int:
        """Tier crossings between the core tier and ``bank``."""
        return self.geometry.bank_node(bank)[2]

    def _access_cycles(
        self, core: int, bank: int, now_cycle: int, is_write: bool, contended: bool
    ) -> Tuple[int, int]:
        """Round trip; returns (completion_cycle, queueing_cycles)."""
        cx, cy, _ = self.geometry.core_node(core)
        bx, by, btier = self.geometry.bank_node(bank)
        req_flits = (
            self.packet.write_request_flits()
            if is_write
            else self.packet.request_flits
        )
        resp_flits = self.packet.response_flits

        # Request: XY on the core tier, then up the bank tile's pillar.
        head, queued, _ = self._mesh_traverse(
            (cx, cy, 0), (bx, by, 0), now_cycle, req_flits, contended
        )
        tail = head + self.packet.serialization_cycles(req_flits)
        up_pillar = self.pillars[(bx, by)]
        if contended:
            start = up_pillar.transfer(core, tail, req_flits)
            queued += start - tail
            tail = start
        t = tail + btier * self.timing.vertical_link_cycles

        if contended:
            granted = self._bank_ports.claim(bank, t, self.timing.bank_cycles)
            queued += granted - t
            t = granted
        t += self.timing.bank_cycles

        # Response: XY on the bank's tier, then down the core tile's
        # pillar (per-layer meshes of the network-in-memory design).
        back, q2, _ = self._mesh_traverse(
            (bx, by, btier), (cx, cy, btier), t, resp_flits, contended
        )
        back_tail = back + self.packet.serialization_cycles(resp_flits)
        down_pillar = self.pillars[(cx, cy)]
        if contended:
            start = down_pillar.transfer(core, back_tail, resp_flits)
            q2 += start - back_tail
            back_tail = start
        completion = back_tail + btier * self.timing.vertical_link_cycles
        return completion, queued + q2

    # ------------------------------------------------------------------
    # Precomputed route table
    # ------------------------------------------------------------------
    def _hop_delays(self, src: Node, dst: Node) -> Tuple[Tuple[int, int], ...]:
        """In-tier route link ids paired with their post-grant delay."""
        delay = self.timing.link_cycles + self.timing.pipeline_cycles
        geometry = self.geometry
        return tuple(
            (geometry.link_index(link), delay)
            for link, _v in geometry.xyz_links(src, dst)
        )

    def _build_route_entry(self, core: int, bank: int) -> _BusMeshRoute:
        cx, cy, _ = self.geometry.core_node(core)
        bx, by, btier = self.geometry.bank_node(bank)
        packet = self.packet
        read_flits = packet.request_flits
        write_flits = packet.write_request_flits()
        resp_flits = packet.response_flits
        return _BusMeshRoute(
            req_hops=self._hop_delays((cx, cy, 0), (bx, by, 0)),
            resp_hops=self._hop_delays((bx, by, btier), (cx, cy, btier)),
            up_pillar=bx + self.geometry.side * by,
            down_pillar=cx + self.geometry.side * cy,
            vert_cycles=btier * self.timing.vertical_link_cycles,
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
        pipeline = timing.pipeline_cycles
        busy = self._link_busy
        pillars = self._pillar_list
        queued = 0

        # Request: XY on the core tier, then up the bank tile's pillar.
        t = now_cycle + pipeline
        for link, delay in route.req_hops:
            start = busy[link]
            if start < t:
                start = t
            busy[link] = start + flits
            queued += start - t
            t = start + delay
        tail = t + ser
        start = pillars[route.up_pillar].transfer(core, tail, flits)
        queued += start - tail
        t = start + route.vert_cycles

        ports = self._port_busy
        start = ports[bank]
        if start < t:
            start = t
        ports[bank] = start + timing.bank_cycles
        queued += start - t
        t = start + timing.bank_cycles

        # Response: XY on the bank's tier, then down the core tile's
        # pillar (per-layer meshes of the network-in-memory design).
        resp_flits = route.resp_flits
        t += pipeline
        for link, delay in route.resp_hops:
            start = busy[link]
            if start < t:
                start = t
            busy[link] = start + resp_flits
            queued += start - t
            t = start + delay
        back_tail = t + route.resp_ser
        start = pillars[route.down_pillar].transfer(core, back_tail, resp_flits)
        queued += start - back_tail
        completion = start + route.vert_cycles

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
        src = self.geometry.core_node(core)
        px, py = self._pillar_of_bank(bank)
        links = self.geometry.xyz_links(src, (px, py, 0))
        req_flits = (
            self.packet.write_request_flits()
            if is_write
            else self.packet.request_flits
        )
        flits = req_flits + self.packet.response_flits
        bits_moved = flits * self.packet.flit_bits
        routers = len(links) + 1

        e = 2 * routers * self.power.router_energy_per_bit * bits_moved
        e += 2 * len(links) * self.power.wire_energy_per_bit(
            self.geometry.tile_pitch_m
        ) * bits_moved
        e += 2 * self._bus_hops(bank) * self.tsv.hop_energy() * bits_moved
        return e

    def leakage_w(self) -> float:
        """Per-tier meshes (network-in-memory): routers on every tier;
        the pillars themselves are passive TSV buses."""
        n_tiers = 1 + self.geometry.n_cache_tiers
        side = self.geometry.side
        n_routers = side * side * n_tiers
        links = 2 * side * (side - 1) * n_tiers
        total_wire = links * self.geometry.tile_pitch_m
        return self.power.noc_leakage(n_routers, total_wire, self.packet.flit_bits)

    def reset_contention(self) -> None:
        """Clear reservations and pillars (between experiment phases)."""
        super().reset_contention()
        for pillar in self._pillar_list:
            pillar.reset()
