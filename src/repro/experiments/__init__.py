"""Experiment harness: regenerates every table and figure of the paper.

The benchmark modules under ``benchmarks/`` are thin wrappers around this
package; everything here is importable so experiments can also be run from
a REPL or script.

Environment knobs (all optional):

* ``REPRO_WORKLOAD_SIZE`` -- queries per workload (default 120; the paper
  uses 1000 -- set it for a full-fidelity, slower run).
* ``REPRO_ESD_QUERIES``  -- queries scored with ESD per configuration
  (default 40; ESD evaluation is the expensive part).
* ``REPRO_BUDGETS_KB``   -- comma-separated synopsis budgets
  (default ``10,20,30,40,50``, the paper's x-axis).
"""

from repro.experiments.harness import (
    Bundle,
    budgets_kb,
    esd_query_count,
    load_bundle,
    workload_size,
)
from repro.experiments.tables import table1_rows, table2_rows, table3_rows
from repro.experiments.figures import fig11_series, fig12_series, fig13_series
from repro.experiments.reporting import format_table
from repro.experiments.sensitivity import workload_sensitivity

__all__ = [
    "workload_sensitivity",
    "Bundle",
    "load_bundle",
    "budgets_kb",
    "workload_size",
    "esd_query_count",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "fig11_series",
    "fig12_series",
    "fig13_series",
    "format_table",
]
