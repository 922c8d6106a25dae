"""True 3-D Mesh baseline: packet routers on every tier.

The straightforward 3-D NoC the paper compares against first: a 4x4
mesh of routers on the core tier and on each cache tier, with vertical
router ports through TSVs at every tile.  Packets use dimension-ordered
XYZ routing (deadlock-free), wormhole switching, and per-link wormhole
reservations for contention.  Nodes and directed links also have small
integer ids (:meth:`MeshGeometry.link_index`), which is what the
precomputed routes carry and the reservation lists are indexed by.

Every L2 access is a round trip: request packet core->bank, bank
access, response packet bank->core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import units as u
from repro.errors import ConfigurationError, RoutingError
from repro.noc.base import PacketInterconnect
from repro.noc.packet import PacketFormat, DEFAULT_PACKET_FORMAT
from repro.noc.router import RouterTiming, DEFAULT_ROUTER_TIMING
from repro.phys.interconnect_power import (
    InterconnectPowerModel,
    DEFAULT_INTERCONNECT_POWER,
)
from repro.phys.tsv import TSVModel, DEFAULT_TSV
from repro.units import is_power_of_two

#: A node is (x, y, tier); a directed link is (src_node, dst_node).
Node = Tuple[int, int, int]
Link = Tuple[Node, Node]


@dataclass(frozen=True)
class MeshGeometry:
    """Tile grid shared by the packet-switched baselines.

    16 cores in a 4x4 grid on tier 0; 32 banks in 4x4 grids on tiers 1
    and 2 (matching the MoT cluster's floorplan), 1.25 mm tile pitch on
    a 5 mm die.
    """

    n_cores: int = 16
    n_banks: int = 32
    n_cache_tiers: int = 2
    die_width_m: float = 5.0 * u.MM

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n_cores):
            raise ConfigurationError("core count must be a power of two")
        if self.n_banks % self.n_cache_tiers != 0:
            raise ConfigurationError("banks must split evenly across tiers")

    @property
    def side(self) -> int:
        """Tiles per mesh edge."""
        side = int(round(math.sqrt(self.n_cores)))
        if side * side != self.n_cores:
            raise ConfigurationError("core count must be a perfect square")
        return side

    @property
    def banks_per_tier(self) -> int:
        """Banks on each cache tier."""
        return self.n_banks // self.n_cache_tiers

    @property
    def tile_pitch_m(self) -> float:
        """Center-to-center distance of adjacent tiles."""
        return self.die_width_m / self.side

    @property
    def n_nodes(self) -> int:
        """Router nodes over all tiers."""
        return self.side * self.side * (1 + self.n_cache_tiers)

    def node_index(self, node: Node) -> int:
        """Integer id of ``node`` in ``range(n_nodes)``."""
        x, y, z = node
        return (z * self.side + y) * self.side + x

    def link_index(self, link: Link) -> int:
        """Integer id of a directed link in ``range(n_nodes ** 2)``."""
        src, dst = link
        return self.node_index(src) * self.n_nodes + self.node_index(dst)

    def core_node(self, core: int) -> Node:
        """Mesh node of ``core`` (tier 0)."""
        if not 0 <= core < self.n_cores:
            raise RoutingError(f"core {core} out of range")
        return (core % self.side, core // self.side, 0)

    def bank_node(self, bank: int) -> Node:
        """Mesh node of ``bank`` (tier 1 or 2)."""
        if not 0 <= bank < self.n_banks:
            raise RoutingError(f"bank {bank} out of range")
        tier = 1 + bank // self.banks_per_tier
        local = bank % self.banks_per_tier
        return (local % self.side, local // self.side, tier)

    def xyz_links(self, src: Node, dst: Node) -> List[Tuple[Link, bool]]:
        """Dimension-ordered X -> Y -> Z route.

        Returns ``[(link, is_vertical), ...]`` for each hop.
        """
        links: List[Tuple[Link, bool]] = []
        x, y, z = src
        while x != dst[0]:
            nx = x + (1 if dst[0] > x else -1)
            links.append((((x, y, z), (nx, y, z)), False))
            x = nx
        while y != dst[1]:
            ny = y + (1 if dst[1] > y else -1)
            links.append((((x, y, z), (x, ny, z)), False))
            y = ny
        while z != dst[2]:
            nz = z + (1 if dst[2] > z else -1)
            links.append((((x, y, z), (x, y, nz)), True))
            z = nz
        return links


@dataclass(frozen=True, slots=True)
class _MeshRoute:
    """Precomputed static data of one (core, bank) pair.

    Routes and per-hop delays never change (the mesh has no power
    states), so they are computed once and reused by every access;
    only the wormhole link/bank reservations stay dynamic.
    """

    req_hops: Tuple[Tuple[int, int], ...]  # (link id, delay after grant)
    resp_hops: Tuple[Tuple[int, int], ...]
    read_flits: int
    write_flits: int
    read_ser: int
    write_ser: int
    resp_flits: int
    resp_ser: int
    read_energy: float
    write_energy: float
    zero_load: int


class True3DMesh(PacketInterconnect):
    """Packet-switched 3-D mesh with routers on all tiers."""

    name = "True 3-D Mesh"

    def __init__(
        self,
        geometry: MeshGeometry = MeshGeometry(),
        timing: RouterTiming = DEFAULT_ROUTER_TIMING,
        packet: PacketFormat = DEFAULT_PACKET_FORMAT,
        power: InterconnectPowerModel = DEFAULT_INTERCONNECT_POWER,
        tsv: TSVModel = DEFAULT_TSV,
    ) -> None:
        super().__init__(
            geometry, timing, packet, power, tsv, n_links=geometry.n_nodes ** 2
        )

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _traverse(
        self, src: Node, dst: Node, start_cycle: int, flits: int, contended: bool
    ) -> Tuple[int, int, int]:
        """Walk a packet from ``src`` to ``dst``.

        Returns ``(head_arrival_cycle, queueing_cycles, n_hops)``.  The
        head goes through the source router, then per hop: link (with a
        wormhole reservation held for the packet's serialization time)
        plus the downstream router pipeline.
        """
        t = start_cycle + self.timing.pipeline_cycles  # source router
        queued = 0
        links = self.geometry.xyz_links(src, dst)
        for link, vertical in links:
            if contended:
                granted = self._links.claim(link, t, flits)
                queued += granted - t
                t = granted
            t += (
                self.timing.vertical_link_cycles
                if vertical
                else self.timing.link_cycles
            )
            t += self.timing.pipeline_cycles  # downstream router
        return t, queued, len(links)

    def _access_cycles(
        self, core: int, bank: int, now_cycle: int, is_write: bool, contended: bool
    ) -> Tuple[int, int, int]:
        """Round-trip access; returns (completion, queueing, hops)."""
        src = self.geometry.core_node(core)
        dst = self.geometry.bank_node(bank)
        req_flits = (
            self.packet.write_request_flits()
            if is_write
            else self.packet.request_flits
        )
        resp_flits = self.packet.response_flits

        head, q1, hops = self._traverse(src, dst, now_cycle, req_flits, contended)
        # Tail of the request must arrive before the bank can respond.
        arrived = head + self.packet.serialization_cycles(req_flits)
        if contended:
            granted = self._bank_ports.claim(bank, arrived, self.timing.bank_cycles)
            q1 += granted - arrived
            arrived = granted
        served = arrived + self.timing.bank_cycles
        back, q2, _ = self._traverse(dst, src, served, resp_flits, contended)
        completion = back + self.packet.serialization_cycles(resp_flits)
        return completion, q1 + q2, hops

    # ------------------------------------------------------------------
    # Precomputed route table
    # ------------------------------------------------------------------
    def _hop_delays(self, links) -> Tuple[Tuple[int, int], ...]:
        """Pair each route link's id with its post-grant delay."""
        return tuple(
            (
                self.geometry.link_index(link),
                (
                    self.timing.vertical_link_cycles
                    if vertical
                    else self.timing.link_cycles
                )
                + self.timing.pipeline_cycles,
            )
            for link, vertical in links
        )

    def _build_route_entry(self, core: int, bank: int) -> _MeshRoute:
        src = self.geometry.core_node(core)
        dst = self.geometry.bank_node(bank)
        packet = self.packet
        read_flits = packet.request_flits
        write_flits = packet.write_request_flits()
        resp_flits = packet.response_flits
        return _MeshRoute(
            req_hops=self._hop_delays(self.geometry.xyz_links(src, dst)),
            resp_hops=self._hop_delays(self.geometry.xyz_links(dst, src)),
            read_flits=read_flits,
            write_flits=write_flits,
            read_ser=packet.serialization_cycles(read_flits),
            write_ser=packet.serialization_cycles(write_flits),
            resp_flits=resp_flits,
            resp_ser=packet.serialization_cycles(resp_flits),
            read_energy=self._access_energy(core, bank, is_write=False),
            write_energy=self._access_energy(core, bank, is_write=True),
            zero_load=self._access_cycles(
                core, bank, 0, is_write=False, contended=False
            )[0],
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
        queued = 0

        # Request: source router, then per hop a wormhole link claim
        # (held for the serialization time) and the downstream router.
        t = now_cycle + pipeline
        for link, delay in route.req_hops:
            start = busy[link]
            if start < t:
                start = t
            busy[link] = start + flits
            queued += start - t
            t = start + delay
        # Tail of the request must arrive before the bank can respond.
        arrived = t + ser
        ports = self._port_busy
        start = ports[bank]
        if start < arrived:
            start = arrived
        ports[bank] = start + timing.bank_cycles
        queued += start - arrived
        t = start + timing.bank_cycles

        # Response traversal back to the core.
        resp_flits = route.resp_flits
        t += pipeline
        for link, delay in route.resp_hops:
            start = busy[link]
            if start < t:
                start = t
            busy[link] = start + resp_flits
            queued += start - t
            t = start + delay
        completion = t + route.resp_ser

        latency = completion - now_cycle
        stats = self.stats
        stats.accesses += 1
        stats.total_latency_cycles += latency
        stats.queueing_cycles += queued
        stats.energy_j += route.write_energy if is_write else route.read_energy
        return latency

    def zero_load_latency(self, core: int, bank: int) -> int:
        completion, _q, _h = self._access_cycles(
            core, bank, 0, is_write=False, contended=False
        )
        return completion

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def _access_energy(self, core: int, bank: int, is_write: bool) -> float:
        """Dynamic energy of the round trip (J)."""
        src = self.geometry.core_node(core)
        dst = self.geometry.bank_node(bank)
        links = self.geometry.xyz_links(src, dst)
        req_flits = (
            self.packet.write_request_flits()
            if is_write
            else self.packet.request_flits
        )
        flits = req_flits + self.packet.response_flits
        bits_moved = flits * self.packet.flit_bits

        routers = len(links) + 1  # per direction
        e = 2 * routers * self.power.router_energy_per_bit * bits_moved
        for link, vertical in links:
            if vertical:
                e += 2 * self.tsv.hop_energy() * bits_moved
            else:
                e += 2 * self.power.wire_energy_per_bit(
                    self.geometry.tile_pitch_m
                ) * bits_moved
        return e

    def leakage_w(self) -> float:
        """Routers on all tiers plus the mesh links."""
        n_tiers = 1 + self.geometry.n_cache_tiers
        side = self.geometry.side
        n_routers = side * side * n_tiers
        links_per_tier = 2 * side * (side - 1)
        total_wire = n_tiers * links_per_tier * self.geometry.tile_pitch_m
        return self.power.noc_leakage(
            n_routers, total_wire, self.packet.flit_bits
        )
