"""Per-layer metrics of a traced run, read off the tracer's aggregates.

Counts are totals over the traced rounds, whose number depends only on
--seconds, so a count repeats exactly for a given seed.  ``*.self_s`` is a
span's time minus the time of the wrapped spans it caused.  A layer the
workload does not reach reads 0.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

from tracer import INTEGRAND_COUNT, TOLERANCE_COUNT, Totals, Tracer

# layers reported as calls and self time
TIMED = (
    "specfun.hyp2f1",
    "specfun.bessel_j_half",
    "quadrature.integrate_finite",
    "quadrature.oscillatory",
    "kernels.kernel_eval",
    "kernels.kernel_eval_endpoint",
    "minkowski.wave_block",
    "minkowski.hankel_block",
    "desitter.panel_quad",
)

# every per-layer metric with its unit, in report order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("specfun.hyp2f1.calls", "count"),
    ("specfun.hyp2f1.self_s", "s"),
    ("specfun.hyp2f1.per_pionic_op", "count"),
    ("specfun.bessel_j_half.calls", "count"),
    ("specfun.bessel_j_half.self_s", "s"),
    ("quadrature.integrate_finite.calls", "count"),
    ("quadrature.integrate_finite.self_s", "s"),
    ("quadrature.integrand.evals", "count"),
    ("quadrature.quad.calls", "count"),
    ("quadrature.tolerance_not_met", "count"),
    ("quadrature.oscillatory.calls", "count"),
    ("quadrature.oscillatory.self_s", "s"),
    ("kernels.kernel_eval.calls", "count"),
    ("kernels.kernel_eval.self_s", "s"),
    ("kernels.kernel_eval_endpoint.calls", "count"),
    ("kernels.kernel_eval_endpoint.self_s", "s"),
    ("minkowski.wave_block.calls", "count"),
    ("minkowski.wave_block.self_s", "s"),
    ("minkowski.hankel_block.calls", "count"),
    ("minkowski.hankel_block.self_s", "s"),
    ("minkowski.fhat.calls", "count"),
    ("minkowski.fhat.per_pionic_op", "count"),
    ("desitter.point.calls", "count"),
    ("desitter.point.time_s", "s"),
    ("desitter.panel_quad.calls", "count"),
    ("desitter.panel_quad.self_s", "s"),
    ("oracle.solve_fd.calls", "count"),
    ("oracle.solve_fd.time_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_integrate_s", "s"),
    ("cli.run_grid.jobs1_s", "s"),
    ("cli.run_grid.jobs2_s", "s"),
    ("cli.validate.time_s", "s"),
    ("cli.emit.time_s", "s"),
    ("trace.overhead_s", "s"),
)


def collect(tracer: Tracer) -> tuple[Totals, dict[str, float]]:
    totals = Totals()
    totals.add(tracer.snapshot())
    return totals, {}


def _scipy_integrate_import_s(stderr: str) -> float | None:
    """Cumulative import time of scipy.integrate from -X importtime lines."""
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.integrate\s*$", line)
        if m:
            return int(m.group(1)) * 1e-6
    return None


def collect_cli(trace_dir: Path) -> tuple[Totals, dict[str, float]]:
    """Merge the records the traced dswave processes left in trace_dir:
    one JSON file per process (pool workers included) and the -X
    importtime log of each command."""
    totals = Totals()
    imports = []
    for path in sorted(trace_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        totals.add(doc["snapshot"])
        if "import_s" in doc:
            imports.append(doc["import_s"])
    scipy = [s for path in sorted(trace_dir.glob("*.stderr"))
             if (s := _scipy_integrate_import_s(path.read_text())) is not None]
    extra = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.import_scipy_integrate_s": statistics.median(scipy) if scipy else 0.0,
    }
    return totals, extra


def metrics(totals: Totals, extra: dict[str, float], overhead_s: float,
            n_pionic: int) -> dict[str, dict[str, float | str]]:
    values: dict[str, float] = {}
    for name in TIMED:
        values[f"{name}.calls"] = totals.calls_of(name)
        values[f"{name}.self_s"] = totals.self_s.get(name, 0.0)
    values["quadrature.integrand.evals"] = totals.count_of(INTEGRAND_COUNT)
    values["quadrature.quad.calls"] = totals.count_of("quadrature.quad")
    values["quadrature.tolerance_not_met"] = totals.count_of(TOLERANCE_COUNT)
    values["minkowski.fhat.calls"] = totals.count_of("minkowski.fhat")
    for name in ("desitter.point", "oracle.solve_fd"):
        values[f"{name}.calls"] = totals.calls_of(name)
        values[f"{name}.time_s"] = totals.total_s.get(name, 0.0)
    for jobs in (1, 2):
        values[f"cli.run_grid.jobs{jobs}_s"] = totals.total_s.get(f"cli.run_grid.jobs{jobs}", 0.0)
    values["cli.validate.time_s"] = totals.total_s.get("cli.validate", 0.0)
    values["cli.emit.time_s"] = totals.total_s.get("cli.emit", 0.0)
    values["cli.import_s"] = extra.get("cli.import_s", 0.0)
    values["cli.import_scipy_integrate_s"] = extra.get("cli.import_scipy_integrate_s", 0.0)
    per_op = (lambda n: n / n_pionic) if n_pionic else (lambda n: 0.0)
    values["specfun.hyp2f1.per_pionic_op"] = per_op(totals.calls_of("specfun.hyp2f1", "pionic"))
    values["minkowski.fhat.per_pionic_op"] = per_op(totals.count_of("minkowski.fhat", "pionic"))
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def table(workload: str, metrics: dict[str, dict[str, float | str]]) -> str:
    lines = [f"per-layer metrics, workload {workload}"]
    for name, entry in metrics.items():
        v = entry["value"]
        text = f"{v:.4g}" if isinstance(v, float) and not float(v).is_integer() else f"{int(v)}"
        lines.append(f"  {name:<40} {text:>14} {entry['unit']}")
    return "\n".join(lines)
