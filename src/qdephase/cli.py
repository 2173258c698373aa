"""Command-line interface: JSON experiment configs in, CSV/JSON results out.

Exit codes: 0 success; 2 config error (message names the offending JSON
path); 3 numerical failure (non-positive-definite kernel, singular system);
4 oracle-check failure in the ``sample`` subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import __version__
from ._io import config_hash, write_csv
from .analytic import (
    HarmonicNoiseParams,
    harmonic_mode,
    harmonic_spectrum,
    stationary_spectrum,
)
from .control import optimize_pulse_times, protection_report
from .core import (
    KernelSpec,
    StationaryPolynomialKernel,
    TimeGrid,
    control_custom,
    control_cw,
    control_free,
    control_pulse_train,
    harmonic_well,
    ornstein_uhlenbeck,
    quartic_kernel,
    white_noise,
)
from .dephasing import attenuation_time_basis, coherence_curve
from .eigenmodes import bispectrum_from_correlation, decompose
from .errors import QDephaseError
from .gridops import BoundaryCondition, discretize_kernel, kernel_to_correlation
from .markov import GeneralizedState, chapman_kolmogorov_check, propagator
from .sampler import factorize_covariance, monte_carlo_coherence
from .spectroscopy import (
    design_filter_bank_eigen,
    reconstruct_nonparametric,
    simulate_measurements,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

_NUMBER = {"type": "number"}
_POSITIVE_INT = {"type": "integer", "minimum": 1}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "kernel", "grid"],
    "properties": {
        "schema": {"const": 1},
        "kernel": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant"],
            "properties": {
                "variant": {
                    "enum": ["white", "ou", "quenched_ou", "quartic", "harmonic", "stationary_poly"]
                },
                "d0": _NUMBER,
                "d1": _NUMBER,
                "d2": _NUMBER,
                "alpha": _NUMBER,
                "coeffs": {"type": "array", "items": _NUMBER, "minItems": 1},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t_start", "t_end", "n_points"],
            "properties": {
                "t_start": _NUMBER,
                "t_end": _NUMBER,
                "n_points": {"type": "integer", "minimum": 4},
            },
        },
        "control": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["free", "cw", "pulse_train"]},
                "g": _NUMBER,
                "t0": _NUMBER,
                "duration": _NUMBER,
                "omega": _NUMBER,
                "pulses": {"type": "array", "items": _NUMBER},
                "durations": {"type": "array", "items": _NUMBER, "minItems": 1},
            },
        },
        "sampler": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"paths": _POSITIVE_INT, "seed": {"type": "integer", "minimum": 0}},
        },
        "spectroscopy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "modes": _POSITIVE_INT,
                "sigma_meas": {"type": "number", "minimum": 0},
                "repetitions": _POSITIVE_INT,
            },
        },
        "optimizer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pulses": {"type": "integer", "minimum": 0},
                "starts": _POSITIVE_INT,
                "window_t0": _NUMBER,
                "window_duration": _NUMBER,
            },
        },
        "propagate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t0": _NUMBER,
                "t1": _NUMBER,
                "tf": _NUMBER,
                "resolution": _POSITIVE_INT,
            },
        },
    },
}


class ConfigError(Exception):
    pass


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"invalid config at {first.json_path}: {first.message}")
    return config


def build_kernel(config: dict) -> tuple[KernelSpec, BoundaryCondition]:
    k = config["kernel"]
    variant = k["variant"]
    bc = BoundaryCondition.DECAY_AT_INFINITY
    if variant == "white":
        spec = white_noise(k.get("d0", 1.0))
    elif variant == "ou":
        spec = ornstein_uhlenbeck(k.get("d0", 1.0), k.get("d1", 1.0))
    elif variant == "quenched_ou":
        spec = ornstein_uhlenbeck(k.get("d0", 1.0), k.get("d1", 1.0))
        bc = BoundaryCondition.DIRICHLET_AT_QUENCH
    elif variant == "quartic":
        spec = quartic_kernel(k.get("d0", 1.0), k.get("d2", 1.0), k.get("d1", 0.0))
    elif variant == "harmonic":
        spec = harmonic_well(k.get("d0", 0.5), k.get("d1", 1.0), k.get("alpha", 1.0))
    else:
        spec = StationaryPolynomialKernel(coeffs_h=tuple(k["coeffs"]))
    return spec, bc


def build_grid(config: dict) -> TimeGrid:
    g = config["grid"]
    return TimeGrid(g["t_start"], g["t_end"], g["n_points"])


def build_control(config: dict, grid: TimeGrid):
    c = config.get("control")
    if c is None:
        raise ConfigError("this subcommand needs a 'control' section")
    kind = c["kind"]
    g = c.get("g", 1.0)
    t0 = c.get("t0", grid.t_start)
    duration = c.get("duration", grid.t_end - t0)
    if kind == "free":
        return control_free(grid, g, t0, duration)
    if kind == "cw":
        return control_cw(grid, g, c.get("omega", 0.0), t0, duration)
    return control_pulse_train(grid, g, t0, duration, c.get("pulses", []))


def _metadata(config: dict, args, extra: dict | None = None) -> dict:
    meta = {
        "tool": f"qdephase {__version__}",
        "config_sha256": config_hash(config),
        "seed": args.seed,
        "grid": "{t_start},{t_end},{n_points}".format(**config["grid"]) if "grid" in config else "n/a",
    }
    meta.update(extra or {})
    return meta


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_correlate(config, args, out: Path) -> int:
    spec, bc = build_kernel(config)
    grid = build_grid(config)
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    # padding note verbatim; an edge ratio that does not apply (unpadded solve) reads n/a
    pad_meta = {
        f"pad_{k}": "n/a" if v is None else v for k, v in corr.meta.items() if k != "padding"
    }
    meta = _metadata(
        config, args, {"bc": bc.value, "padding": corr.meta["padding"], **pad_meta}
    )
    times = grid.times
    rows = [[times[i]] + list(corr.mat[i]) for i in range(grid.n_points)]
    write_csv(
        out / "correlation.csv",
        ["t"] + [format(t, ".17g") for t in times],
        rows,
        meta,
        timestamp=args.timestamp,
    )
    return EXIT_OK


def cmd_modes(config, args, out: Path) -> int:
    spec, bc = build_kernel(config)
    grid = build_grid(config)
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    dec = decompose(corr)
    meta = _metadata(config, args, {"bc": bc.value, "truncation": dec.truncation})
    write_csv(
        out / "modes.csv",
        ["mode_index", "eigenvalue", "dominant_frequency"],
        [(j, dec.eigenvalues[j], dec.dominant_frequencies[j]) for j in range(dec.n_modes)],
        meta,
        timestamp=args.timestamp,
    )
    n_dump = min(dec.n_modes, 32)
    write_csv(
        out / "mode_functions.csv",
        ["t"] + [f"mode_{j}" for j in range(n_dump)],
        [[grid.times[i]] + list(dec.modes[i, :n_dump]) for i in range(grid.n_points)],
        meta,
        timestamp=args.timestamp,
    )
    return EXIT_OK


def cmd_dephase(config, args, out: Path) -> int:
    spec, bc = build_kernel(config)
    grid = build_grid(config)
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    ctrl_cfg = config.get("control", {"kind": "free"})
    base = build_control(config, grid)
    durations = ctrl_cfg.get("durations")
    if durations is None:
        durations = list(np.linspace(base.duration / 12.0, base.duration, 12))

    def family(T):
        # nested windows with a fixed modulation pattern: pulse positions
        # scale with the window
        sub = dict(ctrl_cfg)
        sub.pop("durations", None)
        sub["duration"] = T
        if sub.get("pulses"):
            t0 = sub.get("t0", grid.t_start)
            scale = T / base.duration
            sub["pulses"] = [t0 + (p - t0) * scale for p in sub["pulses"]]
        return build_control({"control": sub}, grid)

    points = coherence_curve(corr, family, durations)
    meta = _metadata(config, args, {"bc": bc.value})
    write_csv(
        out / "decay.csv",
        ["duration", "chi", "coherence"],
        [(p.duration, p.chi, p.coherence) for p in points],
        meta,
        timestamp=args.timestamp,
    )
    return EXIT_OK


def cmd_sample(config, args, out: Path) -> int:
    spec, bc = build_kernel(config)
    grid = build_grid(config)
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    ctrl = build_control(config, grid)
    scfg = config.get("sampler", {})
    count = scfg.get("paths", 100_000)
    seed = scfg.get("seed", args.seed)
    chi = attenuation_time_basis(corr, ctrl).chi
    est = monte_carlo_coherence(factorize_covariance(corr), [ctrl], count, seed)[0]
    target = float(np.exp(-chi))
    pull = abs(est.mean_real - target) / est.std_error if est.std_error > 0 else 0.0
    ok = pull <= 4.0
    meta = _metadata(
        config,
        args,
        {"bc": bc.value, "paths": count, "sampler_seed": seed, "criterion": "4 sigma"},
    )
    write_csv(
        out / "sample.csv",
        ["analytic_coherence", "mc_real", "mc_imag", "std_error", "pull", "passed"],
        [(target, est.mean_real, est.mean_imag, est.std_error, pull, int(ok))],
        meta,
        timestamp=args.timestamp,
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_reconstruct(config, args, out: Path) -> int:
    spec, bc = build_kernel(config)
    grid = build_grid(config)
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    dec = decompose(corr)
    scfg = config.get("spectroscopy", {})
    n_modes = min(scfg.get("modes", 12), dec.n_modes)
    sigma = scfg.get("sigma_meas", 0.0)
    reps = scfg.get("repetitions", 1)
    bank = design_filter_bank_eigen(dec, range(n_modes))
    chis = [0.5 * dec.eigenvalues[j] for j in range(n_modes)]
    meas = simulate_measurements(bank, chis, sigma_meas=sigma, repetitions=reps, seed=args.seed)
    est = reconstruct_nonparametric(bank, meas, dec)
    meta = _metadata(config, args, {"bc": bc.value, "sigma_meas": sigma, "repetitions": reps})
    truth = {int(j): float(dec.eigenvalues[j]) for j in range(n_modes)}
    write_csv(
        out / "spectrum.csv",
        ["label", "s_estimate", "ci_low", "ci_high", "s_true"],
        [
            (lbl, val, lo, hi, truth.get(lbl, float("nan")))
            for (lbl, val, lo, hi) in est.csv_rows()
        ],
        meta,
        timestamp=args.timestamp,
    )
    (out / "spectrum.json").write_text(est.to_json() + "\n")
    (out / "measurements.json").write_text(meas.to_json() + "\n")
    return EXIT_OK


def cmd_optimize(config, args, out: Path) -> int:
    spec, bc = build_kernel(config)
    grid = build_grid(config)
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    dec = decompose(corr)
    ocfg = config.get("optimizer", {})
    t0 = ocfg.get("window_t0", grid.t_start)
    duration = ocfg.get("window_duration", grid.t_end - t0)
    res = optimize_pulse_times(
        dec,
        t0,
        duration,
        ocfg.get("pulses", 4),
        n_starts=ocfg.get("starts", 16),
        seed=args.seed,
    )
    candidates = {"free": control_free(grid, 1.0, t0, duration), "optimized": res.control}
    from .control import cpmg_times, uhrig_times

    n_pulses = ocfg.get("pulses", 4)
    if n_pulses > 0:
        candidates["cpmg"] = control_pulse_train(grid, 1.0, t0, duration, cpmg_times(t0, duration, n_pulses))
        candidates["uhrig"] = control_pulse_train(grid, 1.0, t0, duration, uhrig_times(t0, duration, n_pulses))
    rows = protection_report(dec, candidates)
    meta = _metadata(
        config,
        args,
        {
            "bc": bc.value,
            "pulse_times": ";".join(f"{t:.17g}" for t in res.pulse_times),
            "sweeps": res.sweeps,
        },
    )
    write_csv(
        out / "protection.csv",
        ["label", "chi", "coherence", "gain_vs_free"],
        [(r.label, r.chi, r.coherence, r.gain) for r in rows],
        meta,
        timestamp=args.timestamp,
    )
    return EXIT_OK


def cmd_propagate(config, args, out: Path) -> int:
    spec, bc = build_kernel(config)
    if not hasattr(spec, "order"):
        raise ConfigError("propagate needs a local-in-time kernel")
    pcfg = config.get("propagate", {})
    t0 = pcfg.get("t0", 0.0)
    t1 = pcfg.get("t1", 0.7)
    tf = pcfg.get("tf", 1.5)
    resolution = pcfg.get("resolution", 400)
    initial = GeneralizedState.zero(spec.order, spec.n)
    prop = propagator(spec, t0, tf, initial, resolution=resolution)
    rep_full = chapman_kolmogorov_check(spec, t0, t1, tf, resolution=resolution)
    rows = [
        ("generalized", spec.order, rep_full.deviation, rep_full.deviation_mean_map, rep_full.deviation_covariance),
    ]
    if spec.order > 1:
        rep_bare = chapman_kolmogorov_check(spec, t0, t1, tf, resolution=resolution, state_order=1)
        rows.append(
            ("bare_field", 1, rep_bare.deviation, rep_bare.deviation_mean_map, rep_bare.deviation_covariance)
        )
    meta = _metadata(
        config,
        args,
        {
            "t0": t0,
            "t1": t1,
            "tf": tf,
            "mean_map": ";".join(f"{v:.17g}" for v in prop.mean_map.reshape(-1)),
            "covariance": ";".join(f"{v:.17g}" for v in prop.covariance.reshape(-1)),
        },
    )
    write_csv(
        out / "propagator.csv",
        ["state", "state_order", "ck_deviation", "ck_dev_mean", "ck_dev_cov"],
        rows,
        meta,
        timestamp=args.timestamp,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# built-in reproduction scenarios
# ---------------------------------------------------------------------------


def scenario_fig2b(args, out: Path) -> int:
    """Stationary spectra of the order-1 (Lorentzian) and order-2 (quartic)
    constraint kernels."""
    omegas = np.linspace(0.0, 6.0, 301)
    s1 = stationary_spectrum(ornstein_uhlenbeck(1.0, 1.0), omegas)
    s2 = stationary_spectrum(quartic_kernel(1.0, 1.0), omegas)
    write_csv(
        out / "fig2b_spectra.csv",
        ["omega", "s_order1", "s_order2"],
        zip(omegas, s1, s2),
        {"tool": f"qdephase {__version__}", "scenario": "fig2b"},
        timestamp=args.timestamp,
    )
    return EXIT_OK


def scenario_fig3(args, out: Path) -> int:
    """Quenched-diffusion two-frequency spectrum and its eigen-spectrum."""
    grid = TimeGrid(0.0, 30.0, 1501)
    corr = kernel_to_correlation(
        discretize_kernel(ornstein_uhlenbeck(1.0, 1.0), grid),
        BoundaryCondition.DIRICHLET_AT_QUENCH,
    )
    omegas = np.linspace(-4.0, 4.0, 81)
    bis = bispectrum_from_correlation(corr, omegas)
    rows = []
    for i, w1 in enumerate(omegas):
        for j, w2 in enumerate(omegas):
            val = bis.values[i, j]
            rows.append((w1, w2, abs(val), val.real, val.imag))
    meta = {"tool": f"qdephase {__version__}", "scenario": "fig3a"}
    write_csv(out / "fig3a_bispectrum.csv", ["omega1", "omega2", "abs", "real", "imag"], rows, meta, args.timestamp)

    dec = decompose(corr)
    rows = []
    for j in range(dec.n_modes):
        om = dec.dominant_frequencies[j]
        if om > 5.0 or dec.eigenvalues[j] < 1e-6:
            continue
        rows.append((j, om, dec.eigenvalues[j], 1.0 / (1.0 + om**2)))
    write_csv(
        out / "fig3b_eigenspectrum.csv",
        ["mode_index", "dominant_frequency", "s_value", "lorentzian_reference"],
        rows,
        {"tool": f"qdephase {__version__}", "scenario": "fig3b"},
        args.timestamp,
    )
    return EXIT_OK


def scenario_fig4(args, out: Path) -> int:
    """Saturating coherence under mode-matched controls of the pulsed noise.

    Controls are the eigenmode functions scaled by sqrt(2), so the long-time
    plateau reads off exp(-S_n) directly.
    """
    p = HarmonicNoiseParams(d0=0.5, d1=1.0, alpha=1.0)
    grid = TimeGrid(-8.0, 8.0, 1201)
    corr = kernel_to_correlation(discretize_kernel(harmonic_well(0.5, 1.0, 1.0), grid))
    durations = list(np.linspace(1.0, 16.0, 31))
    columns = ["duration"]
    table = [list(durations)]
    plateaus = {}
    for n in range(5):
        mode_vals = harmonic_mode(p, n, grid.times)

        def family(T):
            clipped = np.where(np.abs(grid.times) <= T / 2.0, mode_vals, 0.0)
            return control_custom(grid, np.sqrt(2.0) * clipped)

        pts = coherence_curve(corr, family, durations)
        table.append([pt.coherence for pt in pts])
        columns.append(f"coherence_mode{n}")
        plateaus[f"plateau_mode{n}"] = f"{np.exp(-harmonic_spectrum(p, n)):.17g}"
    rows = list(zip(*table))
    meta = {"tool": f"qdephase {__version__}", "scenario": "fig4", **plateaus}
    write_csv(out / "fig4_saturation.csv", columns, rows, meta, args.timestamp)
    return EXIT_OK


SCENARIOS = {"fig2b": scenario_fig2b, "fig3": scenario_fig3, "fig4": scenario_fig4}

COMMANDS = {
    "correlate": cmd_correlate,
    "modes": cmd_modes,
    "dephase": cmd_dephase,
    "sample": cmd_sample,
    "reconstruct": cmd_reconstruct,
    "optimize": cmd_optimize,
    "propagate": cmd_propagate,
}


def _apply_thread_cap(threads: int | None):
    if threads is None:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=threads)
    except ImportError:
        print("note: threadpoolctl unavailable; --threads ignored", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdephase",
        description="Qubit-probe dephasing pipelines for non-stationary Gaussian noise",
    )
    parser.add_argument("command", choices=list(COMMANDS) + ["reproduce"])
    parser.add_argument("scenario", nargs="?", help="reproduce scenario: fig2b, fig3, fig4")
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--out", default="qdephase-out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=None, help="cap worker/BLAS threads")
    parser.add_argument(
        "--no-header-timestamp",
        dest="timestamp",
        action="store_false",
        help="omit the timestamp metadata line (byte-identical reruns)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_thread_cap(args.threads)
    out = Path(args.out)
    try:
        if args.command == "reproduce":
            if args.scenario not in SCENARIOS:
                raise ConfigError(
                    f"unknown scenario {args.scenario!r}; pick one of {sorted(SCENARIOS)}"
                )
            return SCENARIOS[args.scenario](args, out)
        if not args.config:
            raise ConfigError(f"subcommand '{args.command}' needs --config")
        config = load_config(args.config)
        return COMMANDS[args.command](config, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QDephaseError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
