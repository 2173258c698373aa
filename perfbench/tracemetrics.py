"""Per-layer metrics derived from the spans of a traced run.

Spans of the baseline probes (job ids starting with ``probe:``) feed only the
baseline table, never the per-layer metrics, so every workload's metrics come
from its own job mix.
"""

from __future__ import annotations

import statistics

from layers import SPAN_NAMES

PER_LAYER_UNITS = {
    "gridops.kernel_to_correlation.pad_attempts": "count",
    "gridops.kernel_to_correlation.first_try_ratio": "ratio",
    "gridops.grid_points": "count",
    "gridops.dense_bytes": "bytes",
    "eigenmodes.decompose.modes_returned": "count",
    "eigenmodes.modes_used_ratio": "ratio",
    "control.optimize_pulse_times.sweeps": "count",
    "sampler.paths": "count",
    "sampler.paths_per_s": "1/s",
    "sampler.fallbacks": "count",
    "io.bytes_written": "bytes",
    "bench.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, overhead_frac: float) -> dict:
    """``{name: (value, unit)}`` for every per-layer metric, zero where a layer idles."""
    self_s = recorder.self_times()
    spans = [s for s in recorder.spans if not s.job.startswith("probe:")]
    out = {}
    for layer, name in SPAN_NAMES:
        mine = [s for s in spans if (s.layer, s.name) == (layer, name)]
        out[f"{layer}.{name}.calls"] = (len(mine), "count")
        out[f"{layer}.{name}.self_s"] = (sum(self_s[s.sid] for s in mine), "s")

    def facts(name: str, key: str) -> list:
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    attempts = facts("kernel_to_correlation", "pad_attempts")
    mc = [s for s in spans if s.name == "monte_carlo_coherence"]
    paths = sum(facts("monte_carlo_coherence", "paths"))
    returned_by_job: dict[str, int] = {}
    for s in spans:
        if s.name == "decompose":
            returned_by_job[s.job] = returned_by_job.get(s.job, 0) + s.attrs["modes_returned"]
    # only jobs that say how many modes their answer uses enter the ratio
    modes = [
        (s.attrs["modes_used"], returned_by_job.get(s.job, 0))
        for s in spans
        if s.name == "job" and "modes_used" in s.attrs
    ]
    values = {
        "gridops.kernel_to_correlation.pad_attempts": sum(attempts),
        "gridops.kernel_to_correlation.first_try_ratio": _ratio(
            sum(a == 1 for a in attempts), len(attempts)
        ),
        "gridops.grid_points": sum(facts("kernel_to_correlation", "size")),
        "gridops.dense_bytes": sum(facts("kernel_to_correlation", "dense_bytes")),
        "eigenmodes.decompose.modes_returned": sum(facts("decompose", "modes_returned")),
        "eigenmodes.modes_used_ratio": _ratio(
            sum(used for used, _ in modes), sum(returned for _, returned in modes)
        ),
        "control.optimize_pulse_times.sweeps": sum(facts("optimize_pulse_times", "sweeps")),
        "sampler.paths": paths,
        "sampler.paths_per_s": _ratio(paths, sum(s.duration for s in mc)),
        "sampler.fallbacks": sum(facts("factorize_covariance", "fallback")),
        "io.bytes_written": sum(facts("write_csv", "bytes")),
        "bench.unattributed_s": sum(self_s[s.sid] for s in spans if s.name == "job"),
        "trace.overhead_frac": overhead_frac,
    }
    out.update({name: (value, PER_LAYER_UNITS[name]) for name, value in values.items()})
    return out


def baseline_table(recorder) -> dict:
    """Call time by grid size of the baseline probes (OU, d0 = d1 = 1, dt = 0.02)."""
    table = {}
    for name in ("kernel_to_correlation", "decompose", "factorize_covariance"):
        by_m: dict[int, list] = {}
        for s in recorder.spans:
            if s.name == name and s.job.startswith("probe:"):
                by_m.setdefault(s.attrs["m"], []).append(s.duration)
        table[name] = {f"m{m}": statistics.median(d) for m, d in sorted(by_m.items())}
    return table
