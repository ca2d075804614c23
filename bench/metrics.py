"""Metric definitions: end-to-end (untraced run) and per-layer (traced run).

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.  ``PER_LAYER`` also records which end-to-end metric
each layer metric should move, and on which workload, so that a change can
name its prediction before it is measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float = 0.0      # end-to-end only: allowed worsening as a share of the median
    feeds: str = ""         # per-layer only: the end-to-end metric it should move


END_TO_END = (
    Metric("wall_s", "s", bound=0.25),
    Metric("items_per_s", "1/s", better="higher", bound=0.25),
    Metric("setup_s", "s", bound=0.25),
    Metric("peak_rss_mb", "MB", bound=0.1),
)

_WALL_SHOTS = "wall_s, items_per_s on teleport-shots"
_WALL_MC = "wall_s on average-mc"
_SETUP_FIDELITY = "setup_s on fidelity-setup"
_WALL_VERIFY = "wall_s on verify-custom"

PER_LAYER = (
    Metric("linalg.svd.calls", "count",
           feeds="wall_s on teleport-shots (20004); setup_s, wall_s on fidelity-setup (3075)"),
    Metric("linalg.svd.matrices", "count", feeds="as linalg.svd.calls; counts stacked matrices"),
    Metric("linalg.svd.s", "s", feeds="wall_s on teleport-shots; setup_s, wall_s on fidelity-setup"),
    Metric("linalg.polar_decompose.calls", "count", feeds="0 until |T| work is routed through it"),
    Metric("linalg.operator_abs.calls", "count", feeds="0 until |T| work is routed through it"),
    Metric("choi.from_vector.s", "s", feeds="setup_s on verify-custom"),
    Metric("bases.bell_basis.s", "s", feeds=_SETUP_FIDELITY),
    Metric("bases.validate_basis.calls", "count",
           feeds="setup_s, wall_s on fidelity-setup; 2 per invocation on verify-custom"),
    Metric("bases.validate_basis.s", "s", feeds="setup_s, wall_s on fidelity-setup"),
    Metric("teleport.build_setup.s", "s", feeds=_SETUP_FIDELITY),
    Metric("teleport.build_setup.self_s", "s", feeds=_SETUP_FIDELITY),
    Metric("teleport.sample_outcome.calls", "count", feeds=_WALL_SHOTS),
    Metric("teleport.sample_outcome.s", "s", feeds=_WALL_SHOTS),
    Metric("teleport.sample_outcome.self_s", "s", feeds=_WALL_SHOTS),
    Metric("teleport.outcome_probabilities.s", "s", feeds=_WALL_SHOTS),
    Metric("teleport.realize_outcome.s", "s", feeds=_WALL_SHOTS),
    Metric("teleport.optimal_correction.calls", "count", feeds=_WALL_SHOTS),
    Metric("teleport.verify_identity.calls", "count", feeds=_WALL_VERIFY),
    Metric("teleport.verify_identity.s", "s", feeds=_WALL_VERIFY),
    Metric("teleport.state_fidelity_batch.calls", "count", feeds="wall_s, peak_rss_mb on average-mc"),
    Metric("teleport.state_fidelity_batch.s", "s", feeds="wall_s, peak_rss_mb on average-mc"),
    Metric("haar.haar_states.calls", "count", feeds=_WALL_MC),
    Metric("haar.haar_states.s", "s", feeds=_WALL_MC),
    Metric("haar.monte_carlo_fidelity.self_s", "s", feeds=_WALL_MC),
    Metric("haar.haar_state.calls", "count", feeds=_WALL_VERIFY),
    Metric("haar.haar_state.s", "s", feeds=_WALL_VERIFY),
    Metric("haar.average_fidelity_analytic.s", "s",
           feeds="wall_s on fidelity-setup; setup_s everywhere if detection moves into build_setup"),
    Metric("haar.special_case_fidelity.s", "s", feeds="wall_s on fidelity-setup"),
    Metric("cli.main.s", "s", feeds="root span of one invocation"),
    Metric("cli.load_basis_file.s", "s", feeds=_WALL_VERIFY),
    Metric("cli.load_state_file.s", "s", feeds=_WALL_VERIFY),
    Metric("cli.render.s", "s", feeds="wall_s on teleport-shots"),
    Metric("cli.render.bytes", "bytes", feeds="wall_s on teleport-shots"),
    *(Metric(f"layer.{layer}.self_s", "s", feeds="self time of every span of the layer")
      for layer in ("linalg", "choi", "bases", "teleport", "haar", "cli")),
    Metric("trace.dominant_frac", "ratio",
           feeds="the workload's dominant span over cli.main.s; above 0.5 on every workload"),
    Metric("trace.overhead_frac", "ratio", feeds="traced cli.main.s over untraced wall_s, minus 1"),
)

_STATS = {"calls": "calls", "s": "s", "self_s": "self_s", "matrices": "amount", "bytes": "amount"}
_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0}


def layer_values(table: dict, dominant: str) -> dict:
    """Every per-layer metric except ``trace.overhead_frac`` from one
    invocation's :func:`bench.tracer.summarize` table."""
    values = {}
    for metric in PER_LAYER:
        name = metric.name
        if name == "trace.overhead_frac":
            continue
        if name == "trace.dominant_frac":
            values[name] = table[dominant]["s"] / table["cli.main"]["s"]
        elif name.startswith("layer."):
            prefix = name.split(".")[1] + "."
            values[name] = sum(e["self_s"] for n, e in table.items() if n.startswith(prefix))
        else:
            function, stat = name.rsplit(".", 1)
            values[name] = table.get(function, _EMPTY)[_STATS[stat]]
    return values
