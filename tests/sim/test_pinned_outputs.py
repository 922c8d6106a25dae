"""Pinned outputs: one digest per cell of the Fig 6 and Fig 7 grids.

The differential and identity tests compare the program with itself;
these digests compare it with the values it produced before, so a
speed change that alters any count of any cell fails here.  Each
digest hashes only the integer fields of a cell's report (cycles,
per-core accounting, cache/DRAM counts, queueing), never a float, so
every supported Python version computes the same digests.

To regenerate after an intended model change, print
``grid_digests()`` and paste it over ``PINNED``.
"""

import hashlib
from typing import Dict

#: Fig 6 + Fig 7 grids at scale 0.05, seed 7 (64 cells), computed
#: before the cache model's recency-list rewrite.
PINNED: Dict[str, str] = {
    "cholesky | True 3-D Mesh | Full connection | 200 ns | seed 7": "fa893f5002312bcb",
    "cholesky | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "821d108bdde0d3f7",
    "cholesky | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "a608456af320d0d8",
    "cholesky | 3-D MoT | Full connection | 200 ns | seed 7": "0330498e41d41dfc",
    "fft | True 3-D Mesh | Full connection | 200 ns | seed 7": "6586a4a779ef6433",
    "fft | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "89b40c558478a321",
    "fft | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "8f9270743bf21ebe",
    "fft | 3-D MoT | Full connection | 200 ns | seed 7": "b5452a60f13c4617",
    "fmm | True 3-D Mesh | Full connection | 200 ns | seed 7": "80125e27fa6ce9fb",
    "fmm | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "8d88960ce8bd1417",
    "fmm | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "95b3326e830bfecf",
    "fmm | 3-D MoT | Full connection | 200 ns | seed 7": "6b36b978c7e288c2",
    "radix | True 3-D Mesh | Full connection | 200 ns | seed 7": "41607a21273449f5",
    "radix | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "f4996196628f2432",
    "radix | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "ca190f3a755b7cc9",
    "radix | 3-D MoT | Full connection | 200 ns | seed 7": "c1f3ca23bac75164",
    "ocean_contiguous | True 3-D Mesh | Full connection | 200 ns | seed 7": "559b3aead1ac2bc7",
    "ocean_contiguous | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "45468e2f31a59a08",
    "ocean_contiguous | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "3f24e8611e979def",
    "ocean_contiguous | 3-D MoT | Full connection | 200 ns | seed 7": "920c958ddbd0d2a4",
    "volrend | True 3-D Mesh | Full connection | 200 ns | seed 7": "e6c6ad535ac37c44",
    "volrend | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "0f33f5254e8b7a35",
    "volrend | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "9d32321e241a5f96",
    "volrend | 3-D MoT | Full connection | 200 ns | seed 7": "772a770f6d0a315a",
    "raytrace | True 3-D Mesh | Full connection | 200 ns | seed 7": "84c47b373531194c",
    "raytrace | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "e68e09d89d5ca49e",
    "raytrace | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "06b618b7b53a442e",
    "raytrace | 3-D MoT | Full connection | 200 ns | seed 7": "6be45df5c644278b",
    "water-nsquared | True 3-D Mesh | Full connection | 200 ns | seed 7": "3a0fed857d91e9f6",
    "water-nsquared | 3-D Hybrid Bus-Mesh | Full connection | 200 ns | seed 7": "f66c7ba43b27e06e",
    "water-nsquared | 3-D Hybrid Bus-Tree | Full connection | 200 ns | seed 7": "f48f83f562868fab",
    "water-nsquared | 3-D MoT | Full connection | 200 ns | seed 7": "291cc0a439441fe6",
    "cholesky | mot | Full connection | 200 ns | seed 7": "0330498e41d41dfc",
    "cholesky | mot | PC16-MB8 | 200 ns | seed 7": "d0f7a1bad25ee047",
    "cholesky | mot | PC4-MB32 | 200 ns | seed 7": "ede7793c85a805df",
    "cholesky | mot | PC4-MB8 | 200 ns | seed 7": "c01f24936fb5d6a3",
    "fft | mot | Full connection | 200 ns | seed 7": "b5452a60f13c4617",
    "fft | mot | PC16-MB8 | 200 ns | seed 7": "67cc883440cf4aeb",
    "fft | mot | PC4-MB32 | 200 ns | seed 7": "01568354c94b8090",
    "fft | mot | PC4-MB8 | 200 ns | seed 7": "c74d2fe035f97633",
    "fmm | mot | Full connection | 200 ns | seed 7": "6b36b978c7e288c2",
    "fmm | mot | PC16-MB8 | 200 ns | seed 7": "7c90e0573fc7f77f",
    "fmm | mot | PC4-MB32 | 200 ns | seed 7": "438d59c87910fbac",
    "fmm | mot | PC4-MB8 | 200 ns | seed 7": "320987d16223080a",
    "radix | mot | Full connection | 200 ns | seed 7": "c1f3ca23bac75164",
    "radix | mot | PC16-MB8 | 200 ns | seed 7": "dd32b54b3d31ccac",
    "radix | mot | PC4-MB32 | 200 ns | seed 7": "afc5bdeeef5abf31",
    "radix | mot | PC4-MB8 | 200 ns | seed 7": "34a2d3c37dbdbd84",
    "ocean_contiguous | mot | Full connection | 200 ns | seed 7": "920c958ddbd0d2a4",
    "ocean_contiguous | mot | PC16-MB8 | 200 ns | seed 7": "6604636422168b82",
    "ocean_contiguous | mot | PC4-MB32 | 200 ns | seed 7": "63ebcda387c9e2b3",
    "ocean_contiguous | mot | PC4-MB8 | 200 ns | seed 7": "d9c8974b3b608d9f",
    "volrend | mot | Full connection | 200 ns | seed 7": "772a770f6d0a315a",
    "volrend | mot | PC16-MB8 | 200 ns | seed 7": "d3adaa5a0082531c",
    "volrend | mot | PC4-MB32 | 200 ns | seed 7": "6df1a31d5e4e1dbc",
    "volrend | mot | PC4-MB8 | 200 ns | seed 7": "11549c1d2570d118",
    "raytrace | mot | Full connection | 200 ns | seed 7": "6be45df5c644278b",
    "raytrace | mot | PC16-MB8 | 200 ns | seed 7": "297620526ec6cb2c",
    "raytrace | mot | PC4-MB32 | 200 ns | seed 7": "987c2b5c54c22742",
    "raytrace | mot | PC4-MB8 | 200 ns | seed 7": "0ada9cf6f7343b1a",
    "water-nsquared | mot | Full connection | 200 ns | seed 7": "291cc0a439441fe6",
    "water-nsquared | mot | PC16-MB8 | 200 ns | seed 7": "a765f547fdd6e933",
    "water-nsquared | mot | PC4-MB32 | 200 ns | seed 7": "1e033f66fe770733",
    "water-nsquared | mot | PC4-MB8 | 200 ns | seed 7": "3cdcc91c2c44be10",
}

SCALE = 0.05
SEED = 7


def report_digest(report) -> str:
    """SHA-256 (first 16 hex digits) of a report's integer fields."""
    fields = [
        report.execution_cycles,
        report.l1_accesses,
        report.l1_misses,
        report.l2_accesses,
        report.l2_hits,
        report.l2_misses,
        report.l2_writebacks,
        report.dram_accesses,
        report.interconnect_queueing_cycles,
    ]
    for core in report.cores:
        fields += [
            core.core_id,
            core.finish_cycle,
            core.busy_cycles,
            core.stall_cycles,
            core.barrier_cycles,
        ]
    text = ",".join(str(int(value)) for value in fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_results():
    from repro.analysis.experiments import fig6_grid, fig7_grid
    from repro.sim.session import run_sweep

    results = []
    for grid in (fig6_grid(scale=SCALE, seed=SEED), fig7_grid(scale=SCALE, seed=SEED)):
        results.extend(run_sweep(grid))
    return results


def grid_digests() -> Dict[str, str]:
    return {r.scenario.label(): report_digest(r.report) for r in grid_results()}


def test_every_cell_matches_its_pinned_digest():
    results = grid_results()
    digests = {r.scenario.label(): report_digest(r.report) for r in results}
    assert len(digests) == 64
    changed = sorted(
        label for label in PINNED if digests.get(label) != PINNED[label]
    )
    assert set(digests) == set(PINNED)
    assert not changed, f"{len(changed)} cells changed: {changed[:4]}"
    # The grid exercises the shared cache: L2 hits and dirty victims.
    assert sum(r.report.l2_hits for r in results) > 50_000
    assert sum(r.report.l2_writebacks for r in results) > 1_000
