"""A simulated cell is freed by reference counting alone.

Each cell builds 32 L2 banks, two L1s per core and an interconnect.
If any of them sat in a reference cycle (say, a cache holding its own
bound methods), every cell of a sweep would stay alive until the
cyclic collector ran, and a sweep's peak memory would grow with it.
"""

import gc
import weakref

import pytest

from repro.analysis.experiments import INTERCONNECT_FACTORIES
from repro.scenario import Scenario


@pytest.mark.parametrize("interconnect", list(INTERCONNECT_FACTORIES))
def test_cell_is_freed_without_the_cycle_collector(interconnect):
    scenario = Scenario(workload="fft", interconnect=interconnect, scale=0.01)
    traces = scenario.build_traces()
    gc.collect()
    gc.disable()
    try:
        cluster = scenario.build_cluster()
        cluster.run(traces)
        core = min(cluster.l1d)
        parts = [
            cluster,
            cluster.l2.banks[0],
            cluster.l1d[core].cache,
            cluster.interconnect,
        ]
        refs = [weakref.ref(part) for part in parts]
        del cluster, parts
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
