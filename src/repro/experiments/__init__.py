"""Experiment harness: one module per table/figure of the paper's evaluation.

Each module exposes a ``figN_*``/``tableN_*`` function returning structured
rows plus a ``format_*`` renderer; the ``benchmarks/bench_*.py`` files
regenerate the corresponding artifact from them.
The sweep that trains a real model (``overlap``) builds and times every
run through :mod:`repro.experiments.measured`, and ``cache`` draws from
the same sources.
"""

from .breakdown import (
    BreakdownRow,
    fig4_breakdown,
    fig12_breakdown,
    format_fig4,
    format_fig12,
)
from .energy import EnergyRow, default_energy_model, fig14_energy, format_fig14
from .gradient_size import (
    GradientSizeRow,
    ProbabilityPoint,
    fig5a_probability_functions,
    fig5b_gradient_sizes,
    format_fig5a,
    format_fig5b,
)
from .hotcache import (
    HIT_RATE_TOLERANCE,
    HOTCACHE_CONFIG,
    HotCacheRow,
    format_hotcache,
    hotcache_sweep,
    trace_analytic_hit_rate,
)
from .overlap import (
    OVERLAP_BATCHES,
    OVERLAP_CONFIG,
    OverlapRow,
    analytic_overlap_speedup,
    format_overlap,
    overlap_sweep,
)
from .measured import scaled_distribution
from .report import format_table, normalize
from .scaling import (
    SCALING_SHARDS,
    ScalingRow,
    format_scaling,
    scaling_sweep,
)
from .sensitivity import (
    LinkSweepRow,
    SensitivityRow,
    fig16_batch_sensitivity,
    fig17_dim_sensitivity,
    format_link_sweep,
    format_sensitivity,
    link_bandwidth_sweep,
)
from .speedup import SpeedupRow, fig13_speedup, format_fig13, speedup_summary
from .tables import format_table1, format_table2, table1_rows, table2_rows
from .traffic import TrafficRow, fig6_traffic, format_fig6
from .utilization import UtilizationRow, fig15_utilization, format_fig15

__all__ = [
    "BreakdownRow",
    "EnergyRow",
    "GradientSizeRow",
    "HIT_RATE_TOLERANCE",
    "HOTCACHE_CONFIG",
    "HotCacheRow",
    "LinkSweepRow",
    "OVERLAP_BATCHES",
    "OVERLAP_CONFIG",
    "OverlapRow",
    "ProbabilityPoint",
    "SCALING_SHARDS",
    "ScalingRow",
    "SensitivityRow",
    "SpeedupRow",
    "TrafficRow",
    "UtilizationRow",
    "analytic_overlap_speedup",
    "default_energy_model",
    "fig12_breakdown",
    "fig13_speedup",
    "fig14_energy",
    "fig15_utilization",
    "fig16_batch_sensitivity",
    "fig17_dim_sensitivity",
    "fig4_breakdown",
    "fig5a_probability_functions",
    "fig5b_gradient_sizes",
    "fig6_traffic",
    "format_fig12",
    "format_fig13",
    "format_fig14",
    "format_fig15",
    "format_fig4",
    "format_fig5a",
    "format_fig5b",
    "format_fig6",
    "format_hotcache",
    "format_link_sweep",
    "format_overlap",
    "format_scaling",
    "format_sensitivity",
    "format_table",
    "format_table1",
    "format_table2",
    "hotcache_sweep",
    "link_bandwidth_sweep",
    "normalize",
    "overlap_sweep",
    "scaled_distribution",
    "scaling_sweep",
    "speedup_summary",
    "table1_rows",
    "table2_rows",
    "trace_analytic_hit_rate",
]
