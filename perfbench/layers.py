"""The public qdephase calls the benchmark makes, raw or wrapped in spans.

Jobs call every layer function through a :class:`Layers` object.  Untraced
runs get the package's own functions; traced runs get wrappers that record a
span per call and attach counts read from the return value.  Nothing inside
``src/`` is edited: for the CLI-driven jobs the same wrappers are placed, for
the duration of a traced run, into the ``qdephase.cli`` module namespace,
which is where ``cli.main`` looks them up.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from pathlib import Path

DEFAULT_PAD_FACTOR = 5.0  # kernel_to_correlation's default first pad


def _k2c_facts(corr, args, kwargs):
    size = corr.grid.n_points * corr.n
    first = kwargs.get("pad_factor", args[2] if len(args) > 2 else DEFAULT_PAD_FACTOR)
    pad_steps = kwargs.get("pad_steps", args[4] if len(args) > 4 else None)
    final = corr.meta.get("pad_factor", first)
    attempts = 1 if pad_steps is not None else int(round(math.log2(final / first))) + 1
    return {"m": corr.grid.n_points, "size": size, "pad_attempts": attempts,
            "dense_bytes": 8 * size * size}


def _decompose_facts(dec, args, kwargs):
    return {"m": dec.grid.n_points, "modes_returned": dec.n_modes}


def _factor_facts(factor, args, kwargs):
    fallback = factor.method != "cholesky" or factor.jitter > 0.0
    return {"m": factor.grid.n_points, "fallback": int(fallback)}


def _mc_facts(estimates, args, kwargs):
    count = kwargs.get("count", args[2] if len(args) > 2 else 0)
    return {"paths": int(count)}


def _optimize_facts(res, args, kwargs):
    return {"sweeps": res.sweeps}


def _csv_facts(_, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": Path(path).stat().st_size}


# (package module, function, span layer, span name, facts)
FUNCTIONS = [
    ("gridops", "discretize_kernel", "gridops", "discretize_kernel", None),
    ("gridops", "kernel_to_correlation", "gridops", "kernel_to_correlation", _k2c_facts),
    ("dephasing", "attenuation_time_basis", "dephasing", "attenuation_time_basis", None),
    ("dephasing", "attenuation_eigenbasis", "dephasing", "attenuation_eigenbasis", None),
    ("dephasing", "attenuation_stationary", "dephasing", "attenuation_stationary", None),
    ("dephasing", "coherence_curve", "dephasing", "coherence_curve", None),
    ("eigenmodes", "decompose", "eigenmodes", "decompose", _decompose_facts),
    ("eigenmodes", "filter_coefficient", "eigenmodes", "filter_coefficient", None),
    ("eigenmodes", "bispectrum_from_correlation", "eigenmodes", "bispectrum_from_correlation", None),
    ("sampler", "factorize_covariance", "sampler", "factorize_covariance", _factor_facts),
    ("sampler", "precision_factor", "sampler", "precision_factor", None),
    ("sampler", "monte_carlo_coherence", "sampler", "monte_carlo_coherence", _mc_facts),
    ("spectroscopy", "design_filter_bank_eigen", "spectroscopy", "design_filter_bank_eigen", None),
    ("spectroscopy", "simulate_measurements", "spectroscopy", "simulate_measurements", None),
    ("spectroscopy", "reconstruct_nonparametric", "spectroscopy", "reconstruct_nonparametric", None),
    ("control", "optimize_pulse_times", "control", "optimize_pulse_times", _optimize_facts),
    ("control", "protection_report", "control", "protection_report", None),
    ("markov", "propagator", "markov", "propagator", None),
    ("markov", "chapman_kolmogorov_check", "markov", "chapman_kolmogorov_check", None),
    ("core", "control_free", "core", "controls", None),
    ("core", "control_cw", "core", "controls", None),
    ("core", "control_pulse_train", "core", "controls", None),
    ("core", "control_custom", "core", "controls", None),
    ("cli", "load_config", "cli", "load_config", None),
    ("cli", "main", "cli", "main", None),
    ("_io", "write_csv", "io", "write_csv", _csv_facts),
]

# metric names of the wrapped functions, in report order
SPAN_NAMES = list(dict.fromkeys((layer, name) for _, _, layer, name, _ in FUNCTIONS))


class Layers:
    """Attribute access to every wrapped function; ``note`` tags the open job span."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        for module, func, layer, name, facts in FUNCTIONS:
            fn = getattr(importlib.import_module(f"qdephase.{module}"), func)
            if recorder is not None:
                fn = recorder.wrap(layer, name, fn, facts)
            setattr(self, func, fn)

    def note(self, **facts) -> None:
        if self.recorder is not None:
            self.recorder.annotate(**facts)

    @contextlib.contextmanager
    def cli_namespace(self):
        """Route ``qdephase.cli``'s own lookups through these functions."""
        cli = importlib.import_module("qdephase.cli")
        saved = {}
        for _, func, _, _, _ in FUNCTIONS:
            if func != "main" and func in vars(cli):
                saved[func] = getattr(cli, func)
                setattr(cli, func, getattr(self, func))
        try:
            yield
        finally:
            for func, fn in saved.items():
                setattr(cli, func, fn)
