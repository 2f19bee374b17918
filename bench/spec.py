"""What the benchmark measures and why: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is generated from this file by
``python3 bench/run.py --write-manifest``; the fuller record (layers each
workload loads and bypasses, which end-to-end metric each layer metric
should move) lives here, and ``bench/README.md`` says what is left out.
"""

from __future__ import annotations

RUN_SECONDS = 40

# Inputs a traced run measures, each once untraced and once traced; odd,
# so that the median of a count is the count of one pass.
TRACE_PAIRS = {"nielsen": 3, "fiber": 3, "growth": 3}

# Set-up samples taken by set-up-only processes in each untraced run, on
# top of the one each timed pass contributes.
SETUP_SPAWNS = 8

WORKLOADS = [
    {
        "name": "nielsen",
        "why": (
            "Nielsen classes 2.4.7 (absolute) and 3.2.7 (inner) of PSL(2,7) with "
            "braid orbits, and a paired S5 class on 5+10 letters: the permutation "
            "kernel and one group build per candidate, no fiber products"
        ),
        "jobs": [
            "enumerate_class + braid_orbits on deg7-class-2.4.7 (absolute, r = 3, catalog order of classes)",
            "enumerate_class + braid_orbits on deg7-class-3.2.7 (inner, r = 3, catalog order of classes)",
            "paired_enumerate on S5 acting on 5 letters and their 10 pairs, classes 2, 4, 5 (inner, joint degree 15)",
        ],
        "loads": ["permcore", "permgroup", "nielsen", "catalog (set-up)"],
        "bypasses": ["cover", "cli", "fiberprod except PairedCover validation"],
    },
    {
        "name": "fiber",
        "why": (
            "fibercover fiber through the CLI on deg7-pair-1/2 and sm-pair-7/8, "
            "each on seeded conjugates: projection branch cycles over S5 and S6, "
            "tensor groups, subgroup witnesses, no Nielsen code"
        ),
        "jobs": [
            "cli.main(['fiber', <seeded paired-cover JSON>]) on deg7-pair-1 and "
            "deg7-pair-2 (2 conjugates each), sm-pair-7 and sm-pair-8 (3 each), "
            "stdout captured"
        ],
        "loads": ["cli", "fiberprod", "permgroup", "permcore", "cover"],
        "bypasses": ["nielsen", "permgroup normalizer and blocks"],
    },
    {
        "name": "growth",
        "why": (
            "115 compositions of the deg7-pair-1/2 component projections with "
            "cyclic and Chebyshev covers: many small weak pairs, screen_g1, "
            "block systems, no heavy product-one search"
        ),
        "jobs": [
            "for each component of deg7-pair-1 and deg7-pair-2, compose its "
            "pry_branch_cycles() with the cyclic family at d = 2..24, and with "
            "the Chebyshev family at d = 2..24 on the 3-point projection; each "
            "step runs pair_covers_over_common_points, genus_method1 of every "
            "component and screen_g1"
        ],
        "loads": ["fiberprod", "permgroup", "cover", "permcore", "catalog"],
        "bypasses": ["nielsen", "cli", "permgroup normalizer"],
    },
]

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.001},
]

_ALL = ["nielsen", "fiber", "growth"]

# name, unit, better, end-to-end metric it should move, workloads where
PER_LAYER = [
    ("permcore.mul_calls", "count", "lower", "wall_s", _ALL),
    ("permcore.inverse_calls", "count", "lower", "wall_s", _ALL),
    ("permcore.conjugate_calls", "count", "lower", "wall_s", _ALL),
    ("permcore.validations", "count", "lower", "wall_s", _ALL),
    ("permcore.mul_ns", "ns", "lower", "wall_s", _ALL),
    ("permcore.conjugate_ns", "ns", "lower", "wall_s", _ALL),
    ("permgroup.build_calls", "count", "lower", "wall_s", ["nielsen", "growth"]),
    ("permgroup.build_s", "s", "lower", "wall_s", ["nielsen", "growth"]),
    ("permgroup.contains_calls", "count", "lower", "wall_s", _ALL),
    ("permgroup.contains_s", "s", "lower", "wall_s", _ALL),
    ("permgroup.elements_calls", "count", "lower", "wall_s, peak_rss_mib", ["fiber", "nielsen"]),
    ("permgroup.elements_s", "s", "lower", "wall_s, peak_rss_mib", ["fiber", "nielsen"]),
    ("permgroup.stabilizer_s", "s", "lower", "wall_s", ["fiber", "growth"]),
    ("permgroup.orbits_s", "s", "lower", "wall_s", _ALL),
    ("permgroup.conjugacy_class_s", "s", "lower", "wall_s", ["nielsen"]),
    ("permgroup.blocks_s", "s", "lower", "wall_s", ["growth"]),
    ("permgroup.normalizer_s", "s", "lower", "wall_s", ["nielsen"]),
    ("cover.validate_calls", "count", "lower", "wall_s", ["growth", "fiber"]),
    ("cover.validate_s", "s", "lower", "wall_s", ["growth", "fiber"]),
    ("cover.group_calls", "count", "lower", "wall_s", ["growth"]),
    ("fiberprod.pairs_built", "count", "lower", "wall_s", _ALL),
    ("fiberprod.pair_init_s", "s", "lower", "wall_s", _ALL),
    ("fiberprod.tensor_letters", "count", "lower", "wall_s", ["fiber", "growth"]),
    ("fiberprod.components_s", "s", "lower", "wall_s", ["growth", "fiber"]),
    ("fiberprod.genus_m1_s", "s", "lower", "wall_s", ["growth", "fiber"]),
    ("fiberprod.genus_m2_s", "s", "lower", "wall_s", ["fiber"]),
    ("fiberprod.witness_s", "s", "lower", "wall_s", ["fiber"]),
    ("fiberprod.pry_s", "s", "lower", "wall_s, peak_rss_mib", ["fiber"]),
    ("fiberprod.screen_s", "s", "lower", "wall_s", ["growth"]),
    ("nielsen.conjugators", "count", "lower", "wall_s", ["nielsen"]),
    ("nielsen.conjugators_s", "s", "lower", "wall_s", ["nielsen"]),
    ("nielsen.enumerate_s", "s", "lower", "wall_s", ["nielsen"]),
    ("nielsen.product_one_hits", "count", "lower", "wall_s", ["nielsen"]),
    ("nielsen.generating_tuples", "count", "lower", "wall_s", ["nielsen"]),
    ("nielsen.generating_ratio", "ratio", "higher", "wall_s", ["nielsen"]),
    ("nielsen.hits_per_representative", "ratio", "lower", "wall_s", ["nielsen"]),
    ("nielsen.canonical_calls", "count", "lower", "wall_s", ["nielsen"]),
    ("nielsen.canonical_s", "s", "lower", "wall_s", ["nielsen"]),
    ("nielsen.braid_steps", "count", "lower", "wall_s", ["nielsen"]),
    ("nielsen.braid_s", "s", "lower", "wall_s", ["nielsen"]),
    ("catalog.build_s", "s", "lower", "setup_s", _ALL),
    ("cli.self_s", "s", "lower", "wall_s", ["fiber"]),
    ("cli.stdout_bytes", "count", "lower", "wall_s", ["fiber"]),
    ("trace.overhead_s", "s", "lower", "none (shows the traced numbers are usable)", _ALL),
]


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves, _where in PER_LAYER
        ],
    }
