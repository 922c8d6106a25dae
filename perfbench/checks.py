"""Output checks computed apart from the program.

Every check here re-derives a number the simulator reports by another
path: the reports' own accounting identities, a reference LRU model of
the private L1s run over the generated traces, and the paper's Table I
and Fig 6a.  They run outside every timed region.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

#: Table I L1 geometry, fixed here rather than read from the program.
L1_BYTES, L1_WAYS, L1_LINE = 4 * 1024, 4, 32
L1_SETS = L1_BYTES // (L1_WAYS * L1_LINE)
LINE_SHIFT = L1_LINE.bit_length() - 1

#: Table I's derived L2 latency per power state (cycles).
TABLE1_LATENCIES = {
    "Full connection": 12, "PC16-MB8": 9, "PC4-MB32": 9, "PC4-MB8": 7,
}


def trace_key(scenario) -> Tuple:
    """What a cell's traces (and so its private-L1 behaviour) depend on."""
    return (scenario.workload, scenario.scale, scenario.seed,
            scenario.active_cores())


class L1Model:
    """References, misses and dirty victims of one cell's private L1s.

    Each core's instruction and data caches are 4 KB, 4-way, 32 B
    lines, LRU, write-back and write-allocate.  The caches are
    private, so each core's hits and misses depend only on its own
    reference order: the model replays each core's trace alone.
    """

    def __init__(self, scenario) -> None:
        self.references = self.misses = self.dirty_victims = 0
        traces = scenario.build_workload().trace_blocks(scenario.active_cores())
        for blocks in traces.values():
            self._replay(blocks)

    def _replay(self, blocks: Iterable) -> None:
        caches = (
            [OrderedDict() for _ in range(L1_SETS)],  # data
            [OrderedDict() for _ in range(L1_SETS)],  # instruction
        )
        misses = victims = refs = 0
        for item in blocks:
            addresses = getattr(item, "addresses", None)
            if addresses is not None:
                refs_here = zip(addresses.tolist(), item.is_write.tolist(),
                                item.is_instruction.tolist())
            elif item.ref is not None:
                ref = item.ref
                refs_here = ((ref.address, ref.is_write, ref.is_instruction),)
            else:
                continue
            for address, is_write, is_instruction in refs_here:
                refs += 1
                line = address >> LINE_SHIFT
                lines = caches[is_instruction][line % L1_SETS]
                if line in lines:
                    lines.move_to_end(line)
                    if is_write:
                        lines[line] = True
                    continue
                misses += 1
                if len(lines) == L1_WAYS:
                    victims += lines.popitem(last=False)[1]
                lines[line] = is_write
        self.references += refs
        self.misses += misses
        self.dirty_victims += victims


class EngineChecker:
    """Checks simulation reports; one L1 model per distinct trace."""

    def __init__(self) -> None:
        self._models: Dict[Tuple, L1Model] = {}

    def model(self, scenario) -> L1Model:
        key = trace_key(scenario)
        if key not in self._models:
            self._models[key] = L1Model(scenario)
        return self._models[key]

    def problems(self, scenario, report) -> List[str]:
        """Every identity of one cell's report that does not hold."""
        out = []
        for core in report.cores:
            if (core.busy_cycles + core.stall_cycles + core.barrier_cycles
                    != core.finish_cycle):
                out.append(f"core {core.core_id}: busy+stall+barrier "
                           f"!= finish_cycle")
        if report.l1_accesses != sum(c.memory_references for c in report.cores):
            out.append("l1_accesses != sum of memory_references")
        if report.dram_accesses != report.l2_misses + report.l2_writebacks:
            out.append("dram_accesses != l2_misses + l2_writebacks")
        model = self.model(scenario)
        if report.l1_accesses != model.references:
            out.append(f"l1_accesses {report.l1_accesses} != "
                       f"{model.references} references in the traces")
        if report.l1_misses != model.misses:
            out.append(f"l1_misses {report.l1_misses} != LRU model "
                       f"{model.misses}")
        if report.l2_accesses != model.misses + model.dirty_victims:
            out.append(f"l2_accesses {report.l2_accesses} != LRU misses + "
                       f"dirty victims {model.misses + model.dirty_victims}")
        return out


def table1_problems() -> List[str]:
    from repro.analysis.experiments import experiment_table1

    latencies = dict(experiment_table1().latencies)
    if latencies != TABLE1_LATENCIES:
        return [f"Table I latencies {latencies} != {TABLE1_LATENCIES}"]
    return []


def fig6a_problems(results: Sequence) -> List[str]:
    """The MoT's mean L2 latency is below every baseline's, per program."""
    latency: Dict[str, Dict[str, float]] = {}
    for result in results:
        latency.setdefault(result.scenario.workload, {})[
            result.scenario.interconnect
        ] = result.report.mean_l2_latency_cycles
    out = []
    for program, by_ic in latency.items():
        mot = by_ic.pop("3-D MoT")
        worse = [ic for ic, value in by_ic.items() if value <= mot]
        if worse:
            out.append(f"Fig 6a {program}: MoT not below {worse}")
    return out


def report_counts(reports: Iterable) -> Dict[str, int]:
    """The exact counts a speed-only change must leave identical."""
    counts = dict.fromkeys(
        ("sim.cells", "sim.refs", "sim.l1_misses", "sim.cycles",
         "noc.queue_cycles", "mem.l2_accesses", "mem.l2_misses",
         "mem.dram_accesses"), 0)
    for report in reports:
        counts["sim.cells"] += 1
        counts["sim.refs"] += report.l1_accesses
        counts["sim.l1_misses"] += report.l1_misses
        counts["sim.cycles"] += report.execution_cycles
        counts["noc.queue_cycles"] += report.interconnect_queueing_cycles
        counts["mem.l2_accesses"] += report.l2_accesses
        counts["mem.l2_misses"] += report.l2_misses
        counts["mem.dram_accesses"] += report.dram_accesses
    return counts
