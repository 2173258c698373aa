"""Workload definitions: seeded inputs, jobs, and the correctness gate of each job.

A job is one user-visible answer: one pipeline run from kernel spec to a
result.  ``Job.run`` is the timed part and calls qdephase only through a
:class:`layers.Layers` object; ``Job.check`` runs after the round, outside the
timed region, and returns a failure message or ``None``.  Checks compare
against the closed forms in ``qdephase.analytic`` where one exists and
otherwise against a cross-basis identity, with the acceptance suite's bounds.

Grid sizes are part of each workload's definition and never drawn from the
seed.  The seed varies kernel amplitudes (correlation times only by +-1 %, so
the padding the solver needs and hence the work per job stay fixed), control
windows, pulse and probe parameters, and the Monte Carlo and measurement seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qdephase.core
from qdephase import (
    BoundaryCondition,
    DenseKernel,
    GeneralizedState,
    StationaryPolynomialKernel,
    TimeGrid,
    control_custom,
    discretize_kernel,
    harmonic_well,
    kernel_to_correlation,
    ornstein_uhlenbeck,
    quartic_kernel,
)
from qdephase._io import read_csv
from qdephase.analytic import (
    HarmonicNoiseParams,
    QuenchedOUParams,
    harmonic_mode,
    harmonic_spectrum,
    quenched_cw_attenuation,
    quenched_ou_correlation,
)
from qdephase.control import cpmg_times, uhrig_times
from qdephase.dephasing import attenuation_eigenbasis, attenuation_time_basis
from qdephase.eigenmodes import decompose
from qdephase.spectroscopy import reconstruct_nonparametric, simulate_measurements

DECAY = BoundaryCondition.DECAY_AT_INFINITY
QUENCH = BoundaryCondition.DIRICHLET_AT_QUENCH

# acceptance-suite bounds (tests/test_acceptance.py), never loosened here
TOL_CLOSED_FORM = 1e-2  # criteria 2 and 4: closed-form correlation and plateaus
TOL_LORENTZIAN = 2e-2  # criterion 3: quench eigen-spectrum on the Lorentzian
TOL_TIME_EIGEN = 1e-6  # criterion 6: time basis vs eigenbasis
TOL_TIME_FREQ = 1e-4  # criterion 6: time basis vs frequency basis, band-limited
TOL_CK = 1e-4  # criterion 7: Chapman-Kolmogorov on the generalized state
MIN_BARE_CK = 10e-4  # criterion 7: bare field of an order-2 kernel must fail CK
TOL_ROUND_TRIP = 1e-6  # criterion 8: noiseless reconstruction
MAX_PULL = 4.0  # criterion 1: Monte Carlo within 4 standard errors

MC_PATHS = 20_000


@dataclass
class Job:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, dict], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, Path], list[Job]]
    probes: Callable[[Any], None]


# ---------------------------------------------------------------------------
# shared input pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    label: str
    spec: Any
    bc: BoundaryCondition
    grid: TimeGrid
    ou: QuenchedOUParams | None = None  # closed form, when there is one
    harmonic: HarmonicNoiseParams | None = None
    gvec: np.ndarray | None = None  # channel weights of two-channel controls


def _scale_and_tau(rng) -> tuple[float, float]:
    return rng.uniform(0.5, 2.0), rng.uniform(0.99, 1.01)


def _ou_params(rng) -> QuenchedOUParams:
    scale, tau = _scale_and_tau(rng)
    return QuenchedOUParams(d0=scale, d1=scale * tau**2)


def _kernel(label: str, rng, grid: TimeGrid) -> Kernel:
    if label in ("ou", "quenched_ou"):
        p = _ou_params(rng)
        bc = DECAY if label == "ou" else QUENCH
        return Kernel(label, ornstein_uhlenbeck(p.d0, p.d1), bc, grid, ou=p)
    if label == "quartic":
        scale, tau = _scale_and_tau(rng)
        spec = quartic_kernel(scale, scale * tau**4, scale * tau**2 * rng.uniform(0.0, 0.5))
        return Kernel(label, spec, DECAY, grid)
    if label == "harmonic":
        p = HarmonicNoiseParams(rng.uniform(0.4, 0.6), rng.uniform(0.98, 1.02), rng.uniform(0.98, 1.02))
        return Kernel(label, harmonic_well(p.d0, p.d1, p.alpha), DECAY, grid, harmonic=p)
    if label == "two_channel":
        a = rng.uniform(0.2, 0.6)
        spec = StationaryPolynomialKernel(
            coeffs_h=(np.eye(2) * rng.uniform(0.98, 1.02), np.eye(2)),
            coeffs_a=(np.array([[0.0, a], [-a, 0.0]]),),
            n=2,
        )
        return Kernel(label, spec, DECAY, grid, gvec=rng.uniform(0.5, 1.5, size=2))
    raise ValueError(label)


def _steps(grid: TimeGrid, t: float) -> float:
    """``t`` rounded to whole grid steps.

    Window edges sit on grid nodes, as in the acceptance suite: an edge inside
    a cell makes chi first order in dt (1.4e-2 off the quenched CW closed form
    at dt = 0.02, T = 2.21), which the closed-form gate would report.
    """
    return round(t / grid.dt) * grid.dt


def _window(rng, grid: TimeGrid, lo: float, hi: float) -> tuple[float, float]:
    """Control window starting in [lo, lo+0.03] of the span, lasting hi-0.05..hi of it."""
    t0 = grid.t_start + _steps(grid, rng.uniform(lo, lo + 0.03) * grid.span)
    return t0, _steps(grid, rng.uniform(hi - 0.05, hi) * grid.span)


def _families(L, k: Kernel, t0: float, omega: float) -> dict[str, Callable]:
    """Free, Hahn, CW and CPMG-8 controls on [t0, t0 + T], built per duration."""
    g = k.grid

    def channels(ctrl):
        if k.gvec is None:
            return ctrl
        return L.control_custom(
            g, ctrl.values[:, None] * k.gvec, averaged=ctrl.average_values[:, None] * k.gvec
        )

    return {
        "free": lambda T: channels(L.control_free(g, 1.0, t0, T)),
        "hahn": lambda T: channels(L.control_pulse_train(g, 1.0, t0, T, [t0 + T / 2.0])),
        "cw": lambda T: channels(L.control_cw(g, 1.0, omega, t0, T)),
        "cpmg8": lambda T: channels(L.control_pulse_train(g, 1.0, t0, T, cpmg_times(t0, T, 8))),
    }


def _raw_controls(k: Kernel, t0: float, duration: float, omega: float) -> list:
    """The four family members at one duration, built untraced (inputs and references)."""
    return [f(duration) for f in _families(qdephase.core, k, t0, omega).values()]


def _closed_form_g(k: Kernel) -> np.ndarray | None:
    """Exact correlation on the grid; decay-at-infinity OU is the quench seen 80 tau later."""
    if k.ou is None:
        return None
    t = k.grid.times
    shift = 0.0 if k.bc is QUENCH else 80.0 * k.ou.tau_c
    return quenched_ou_correlation(k.ou, t[:, None] + shift, t[None, :] + shift)


def _quad(g: np.ndarray, ctrl) -> float:
    v = ctrl.weighted_values.reshape(-1)
    return 0.5 * float(v @ g @ v)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _probe(k: Kernel, rng):
    """Band-limited Gaussian-envelope cosine, for time- vs frequency-basis checks."""
    t = k.grid.times
    center = k.grid.t_start + 0.5 * k.grid.span
    width, omega = rng.uniform(1.3, 1.7), rng.uniform(0.4, 1.6)
    v = np.cos(omega * (t - center)) * np.exp(-((t - center) ** 2) / (2 * width**2))
    return control_custom(k.grid, v if k.gvec is None else v[:, None] * k.gvec)


def _plateau_error(k: Kernel, corr) -> float:
    """Worst |coherence / exp(-S_n) - 1| under mode-matched controls, n = 0..4."""
    worst = 0.0
    for n in range(5):
        f = control_custom(k.grid, np.sqrt(2.0) * harmonic_mode(k.harmonic, n, k.grid.times))
        plateau = math.exp(-harmonic_spectrum(k.harmonic, n))
        worst = max(worst, abs(attenuation_time_basis(corr, f).coherence / plateau - 1.0))
    return worst


def _ou_baseline_kernel(L, m: int):
    """ROADMAP baseline: OU with d0 = d1 = 1, dt = 0.02."""
    return L.discretize_kernel(ornstein_uhlenbeck(1.0, 1.0), TimeGrid(0.0, 0.02 * (m - 1), m))


def _probe_span(L, label: str, fn):
    rec = L.recorder
    with rec.span("bench", "probe", job=f"probe:{label}"):
        return fn()


# ---------------------------------------------------------------------------
# chi-banded: scalar answers from local-in-time kernels
# ---------------------------------------------------------------------------


def _dephase_job(k: Kernel, rng, probe=None) -> Job:
    """``probe``: band-limited control whose frequency-basis chi a stationary job computes."""
    t0, t_max = _window(rng, k.grid, 0.05, 0.85)
    omega = rng.uniform(1.0, 2.0)
    durations = [_steps(k.grid, T) for T in np.linspace(t_max / 12.0, t_max, 12)]

    def run(L):
        corr = L.kernel_to_correlation(L.discretize_kernel(k.spec, k.grid), k.bc)
        fams = _families(L, k, t0, omega)
        return corr, {name: L.coherence_curve(corr, fam, durations) for name, fam in fams.items()}

    def check(out, outputs):
        corr, curves = out
        for name, pts in curves.items():
            if len(pts) != 12 or not all(
                math.isfinite(p.chi) and p.chi >= -1e-12 and 0.0 < p.coherence <= 1.0 for p in pts
            ):
                return f"{name} curve has a non-finite or negative attenuation"
        exact = _closed_form_g(k)
        if exact is not None:
            refs = {}
            for name, ctrl_at in zip(curves, zip(*[_raw_controls(k, t0, T, omega) for T in durations])):
                refs[name] = [_quad(exact, c) for c in ctrl_at]
            if k.bc is QUENCH:
                refs["cw_closed_form"] = [
                    quenched_cw_attenuation(k.ou, 1.0, omega, t0, T).chi for T in durations
                ]
            for name, ref in refs.items():
                pts = curves["cw" if name == "cw_closed_form" else name]
                err = max(_rel(p.chi, r) for p, r in zip(pts, ref))
                if err > TOL_CLOSED_FORM:
                    return f"{name} vs closed form: {err:.2e} > {TOL_CLOSED_FORM}"
        if probe is not None:
            msg = _time_vs_frequency(probe, corr, outputs.get(_stationary_name(k)))
            if msg is not None:
                return msg
        if k.harmonic is not None:
            err = _plateau_error(k, corr)
            if err > TOL_CLOSED_FORM:
                return f"harmonic plateaus: {err:.2e} > {TOL_CLOSED_FORM}"
        return None

    return Job(f"dephase/{k.label}/m{k.grid.n_points}", run, check)


def _stationary_name(k: Kernel) -> str:
    return f"stationary/{k.label}/m{k.grid.n_points}"


def _time_vs_frequency(probe, corr, chi_f) -> str | None:
    """The dephase job's correlation and the stationary job's answer must agree."""
    if corr is None or chi_f is None:
        return "no answer to compare with across the time and frequency bases"
    err = _rel(chi_f, attenuation_time_basis(corr, probe).chi)
    return None if err <= TOL_TIME_FREQ else f"time vs frequency basis: {err:.2e} > {TOL_TIME_FREQ}"


def _stationary_job(k: Kernel, probe) -> Job:
    def run(L):
        return L.attenuation_stationary(k.spec, probe).chi

    def check(chi_f, outputs):
        dephase = outputs.get(f"dephase/{k.label}/m{k.grid.n_points}")
        return _time_vs_frequency(probe, dephase and dephase[0], chi_f)

    return Job(_stationary_name(k), run, check)


def _markov_job(k: Kernel, rng) -> Job:
    t0 = rng.uniform(-0.2, 0.2)
    t1, tf = t0 + rng.uniform(0.6, 0.8), t0 + rng.uniform(1.4, 1.6)
    spec = k.spec

    def run(L):
        prop = L.propagator(spec, t0, tf, GeneralizedState.zero(spec.order, spec.n))
        full = L.chapman_kolmogorov_check(spec, t0, t1, tf)
        bare = L.chapman_kolmogorov_check(spec, t0, t1, tf, state_order=1) if spec.order > 1 else None
        return prop, full, bare

    def check(out, outputs):
        prop, full, bare = out
        cov = prop.covariance
        if not (np.all(np.isfinite(cov)) and np.allclose(cov, cov.T, atol=1e-12 * np.abs(cov).max())):
            return "propagator covariance not finite and symmetric"
        if np.linalg.eigvalsh(cov).min() < -1e-10 * np.abs(cov).max():
            return "propagator covariance not positive semidefinite"
        if full.deviation >= TOL_CK:
            return f"Chapman-Kolmogorov deviation {full.deviation:.2e} >= {TOL_CK}"
        if bare is not None and bare.deviation <= MIN_BARE_CK:
            return f"bare-field deviation {bare.deviation:.2e} should exceed {MIN_BARE_CK}"
        return None

    return Job(f"markov/{k.label}", run, check)


def build_chi_banded(rng, out_dir: Path) -> list[Job]:
    grids = {
        "ou": TimeGrid(0.0, 32.0, 1601),
        "quenched_ou": TimeGrid(0.0, 32.0, 1601),
        "quartic": TimeGrid(0.0, 32.0, 1601),
        "harmonic": TimeGrid(-8.0, 8.0, 1601),
        # two channels on 801 points: the same 1602 x 1602 solve as one channel on 1601
        "two_channel": TimeGrid(0.0, 16.0, 801),
    }
    dephase, stationary, markov = [], [], []
    for label, grid in grids.items():
        k = _kernel(label, rng, grid)
        probe = _probe(k, rng) if label in ("ou", "quartic", "two_channel") else None
        dephase.append(_dephase_job(k, rng, probe))
        if probe is not None:
            stationary.append(_stationary_job(k, probe))
        markov.append(_markov_job(k, rng))
    return dephase + stationary + markov


def probes_chi_banded(L) -> None:
    for m in (401, 1601, 3201):
        _probe_span(L, f"k2c_m{m}", lambda: L.kernel_to_correlation(_ou_baseline_kernel(L, m)))


# ---------------------------------------------------------------------------
# dense-modes-mc: answers a banded solve cannot give.  First the eigenmode
# answers, which use at most 32 modes
# ---------------------------------------------------------------------------


def _modes_kernel(label: str, rng, m: int) -> Kernel:
    # a 30 tau window for the quench, as the eigen-spectrum criterion uses
    grid = TimeGrid(0.0, 30.0, m) if label == "quenched_ou" else TimeGrid(-8.0, 8.0, m)
    return _kernel(label, rng, grid)


def _decomposed(L, k: Kernel):
    corr = L.kernel_to_correlation(L.discretize_kernel(k.spec, k.grid), k.bc)
    return corr, L.decompose(corr)


def _modes_job(k: Kernel) -> Job:
    def run(L):
        corr, dec = _decomposed(L, k)
        n = min(32, dec.n_modes)
        L.note(modes_used=n)
        return corr, dec.eigenvalues[:n].copy(), dec.modes[:, :n].copy(), dec.dominant_frequencies[:n].copy()

    def check(out, outputs):
        corr, vals, modes, freqs = out
        if len(vals) != 32:
            return f"{len(vals)} modes returned, 32 asked for"
        wv = k.grid.weights[:, None] * modes
        gram = modes.T @ wv
        if np.abs(gram - np.eye(len(vals))).max() > TOL_TIME_EIGEN:
            return "dumped modes are not orthonormal"
        chi_time = 0.5 * np.einsum("ij,ij->j", wv, corr.mat @ wv)
        err = np.max(np.abs(chi_time - 0.5 * vals) / (0.5 * vals))
        if err > TOL_TIME_EIGEN:
            return f"time basis vs eigenbasis on the modes: {err:.2e} > {TOL_TIME_EIGEN}"
        if k.harmonic is not None:
            ref = np.array([harmonic_spectrum(k.harmonic, n) for n in range(5)])
            err = np.max(np.abs(np.exp(ref - vals[:5]) - 1.0))
            if err > TOL_CLOSED_FORM:
                return f"harmonic spectrum vs closed form: {err:.2e} > {TOL_CLOSED_FORM}"
        if k.ou is not None:
            sel = (freqs > 0.0) & (freqs <= 5.0) & (vals > 1e-6)
            ref = 1.0 / (k.ou.d0 + k.ou.d1 * freqs[sel] ** 2)
            err = np.max(np.abs(vals[sel] / ref - 1.0))
            if err > TOL_LORENTZIAN:
                return f"quench eigen-spectrum vs Lorentzian: {err:.2e} > {TOL_LORENTZIAN}"
        return None

    return Job(f"modes/{k.label}/m{k.grid.n_points}", run, check)


def _reconstruct_job(k: Kernel, rng) -> Job:
    seed = int(rng.integers(2**31))

    def run(L):
        _, dec = _decomposed(L, k)
        idx = range(12)
        bank = L.design_filter_bank_eigen(dec, idx)
        chis = [0.5 * dec.eigenvalues[j] for j in idx]
        meas = L.simulate_measurements(bank, chis, sigma_meas=0.01, repetitions=50, seed=seed)
        L.note(modes_used=12)
        return dec, bank, chis, L.reconstruct_nonparametric(bank, meas, dec)

    def check(out, outputs):
        dec, bank, chis, est = out
        if est.labels != tuple(range(12)) or not all(math.isfinite(v) and v > 0 for v in est.values):
            return "noisy reconstruction does not cover modes 0..11 with positive values"
        clean = reconstruct_nonparametric(bank, simulate_measurements(bank, chis), dec)
        err = max(abs(v / dec.eigenvalues[j] - 1.0) for j, v in zip(clean.labels, clean.values))
        return None if err < TOL_ROUND_TRIP else f"noiseless round trip: {err:.2e} >= {TOL_ROUND_TRIP}"

    return Job(f"reconstruct/{k.label}/m{k.grid.n_points}", run, check)


def _optimize_job(k: Kernel, rng) -> Job:
    t0, duration = _window(rng, k.grid, 0.02, 0.9)
    seed = int(rng.integers(2**31))
    g = k.grid

    def run(L):
        _, dec = _decomposed(L, k)
        res = L.optimize_pulse_times(dec, t0, duration, 8, n_starts=16, seed=seed)
        candidates = {
            "free": L.control_free(g, 1.0, t0, duration),
            "optimized": res.control,
            "cpmg": L.control_pulse_train(g, 1.0, t0, duration, cpmg_times(t0, duration, 8)),
            "uhrig": L.control_pulse_train(g, 1.0, t0, duration, uhrig_times(t0, duration, 8)),
        }
        L.note(modes_used=dec.n_modes)
        return res, L.protection_report(dec, candidates)

    def check(out, outputs):
        res, rows = out
        for name, chi in res.baselines.items():
            if not res.chi <= chi + 1e-12:
                return f"optimized chi {res.chi:.6g} above the {name} baseline {chi:.6g}"
        by_label = {r.label: r.chi for r in rows}
        if not all(math.isfinite(c) for c in by_label.values()):
            return "protection report has non-finite rows"
        best_baseline = min(by_label[lbl] for lbl in ("free", "cpmg", "uhrig"))
        if by_label["optimized"] > best_baseline + 1e-12:
            return "protection report ranks a baseline below the optimized train"
        return None

    return Job(f"optimize/{k.label}/m{k.grid.n_points}", run, check)


def _eigen_jobs(rng) -> list[Job]:
    quench, harmonic = (_modes_kernel(label, rng, 401) for label in ("quenched_ou", "harmonic"))
    # the harmonic modes meet harmonic_spectrum, the quench's at m = 768 the Lorentzian
    jobs = [_modes_job(harmonic), _optimize_job(quench, rng), _reconstruct_job(harmonic, rng)]
    # a size whose 16 m-point label FFT factors into small primes (768 = 2^8 * 3)
    jobs.append(_modes_job(_modes_kernel("quenched_ou", rng, 768)))
    return jobs


# ---------------------------------------------------------------------------
# dense-modes-mc: Monte Carlo coherence against exp(-chi)
# ---------------------------------------------------------------------------


def _pull_failure(estimates, chis) -> str | None:
    for est, chi in zip(estimates, chis):
        pull = abs(est.mean_real - math.exp(-chi)) / est.std_error
        if not pull <= MAX_PULL:
            return f"Monte Carlo estimate {pull:.2f} standard errors from exp(-chi)"
    return None


def _mc_jobs(k: Kernel, rng) -> list[Job]:
    t0, duration = _window(rng, k.grid, 0.05, 0.9)
    controls = _raw_controls(k, t0, duration, rng.uniform(1.0, 2.0))
    seeds = [int(s) for s in rng.integers(2**31, size=2)]
    key = f"{k.label}/m{k.grid.n_points}"

    def run_dense(L):
        corr = L.kernel_to_correlation(L.discretize_kernel(k.spec, k.grid), k.bc)
        chis = [L.attenuation_time_basis(corr, c).chi for c in controls]
        factor = L.factorize_covariance(corr)
        return chis, L.monte_carlo_coherence(factor, controls, MC_PATHS, seeds[0])

    def run_precision(L):
        factor = L.precision_factor(L.discretize_kernel(k.spec, k.grid), k.bc)
        return L.monte_carlo_coherence(factor, controls, MC_PATHS, seeds[1])

    def check_dense(out, outputs):
        chis, estimates = out
        return _pull_failure(estimates, chis)

    def check_precision(estimates, outputs):
        return _pull_failure(estimates, outputs[f"mc-dense/{key}"][0])

    return [
        Job(f"mc-dense/{key}", run_dense, check_dense),
        Job(f"mc-precision/{key}", run_precision, check_precision),
    ]


def _monte_carlo_jobs(rng) -> list[Job]:
    # quenched OU takes the dense factor's eigen fallback, quartic is order 2,
    # the harmonic well is not stationary
    jobs = []
    for label in ("quenched_ou", "quartic", "harmonic"):
        grid = TimeGrid(-5.0, 5.0, 241) if label == "harmonic" else TimeGrid(0.0, 8.0, 241)
        jobs += _mc_jobs(_kernel(label, rng, grid), rng)
    return jobs


# ---------------------------------------------------------------------------
# dense-modes-mc: the user asks for a dense object
# ---------------------------------------------------------------------------


def _cli_job(name: str, argv: list[str], out: Path, verify: Callable[[Path], str | None]) -> Job:
    def run(L):
        with L.cli_namespace():
            return L.main(argv + ["--out", str(out), "--no-header-timestamp"])

    def check(code, outputs):
        return f"exit code {code}" if code != 0 else verify(out)

    return Job(name, run, check)


def _correlate_job(k: Kernel, rng, out_dir: Path) -> Job:
    g = k.grid
    params = k.harmonic or k.ou
    kernel = {"variant": k.label, "d0": params.d0, "d1": params.d1}
    if k.harmonic is not None:
        kernel["alpha"] = k.harmonic.alpha
    config = {
        "schema": 1,
        "kernel": kernel,
        "grid": {"t_start": g.t_start, "t_end": g.t_end, "n_points": g.n_points},
    }
    cfg = out_dir / f"{k.label}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps(config))
    spots = tuple(rng.integers(g.n_points, size=(2, 16)))

    def verify(out: Path) -> str | None:
        _, header, table = read_csv(out / "correlation.csv")
        if table.shape != (g.n_points, g.n_points + 1) or len(header) != g.n_points + 1:
            return f"correlation.csv has shape {table.shape}"
        mat = table[:, 1:]
        if np.abs(table[:, 0] - g.times).max() > 1e-12 * g.span:
            return "time column does not match the grid"
        if np.abs(mat - mat.T).max() > 1e-12 * np.abs(mat).max():
            return "correlation read back is not symmetric"
        exact = _closed_form_g(k)
        if exact is not None:
            err = np.abs(mat[spots] - exact[spots]).max() / np.abs(exact).max()
            return None if err < TOL_CLOSED_FORM else f"spot check vs closed form: {err:.2e}"
        # no closed form: the CSV must carry the in-process solve digit for digit
        ref = kernel_to_correlation(discretize_kernel(k.spec, g), k.bc).mat
        err = np.abs(mat[spots] - ref[spots]).max() / np.abs(ref).max()
        return None if err < 1e-15 else f"spot check vs in-process solve: {err:.2e}"

    return _cli_job(f"correlate/{k.label}/m{g.n_points}", ["correlate", "--config", str(cfg)],
                    out_dir / f"correlate-{k.label}", verify)


def _verify_fig2b(out: Path) -> str | None:
    _, _, t = read_csv(out / "fig2b_spectra.csv")
    err = max(
        np.abs(t[:, 1] * (1.0 + t[:, 0] ** 2) - 1.0).max(),
        np.abs(t[:, 2] * (1.0 + t[:, 0] ** 4) - 1.0).max(),
    )
    return None if err < 1e-12 else f"fig2b spectra off the closed forms by {err:.2e}"


def _verify_fig3(out: Path) -> str | None:
    _, _, eig = read_csv(out / "fig3b_eigenspectrum.csv")
    sel = (eig[:, 1] > 0.0) & (eig[:, 1] <= 5.0) & (eig[:, 2] > 1e-6)
    err = np.abs(eig[sel, 2] / eig[sel, 3] - 1.0).max()
    if not sel.any() or err >= TOL_LORENTZIAN:
        return f"fig3b eigen-spectrum vs Lorentzian: {err:.2e}"
    _, _, bis = read_csv(out / "fig3a_bispectrum.csv")
    n = int(round(math.sqrt(len(bis))))
    val = (bis[:, 3] + 1j * bis[:, 4]).reshape(n, n)
    asym = np.abs(val - val.T.conj()).max() / np.abs(val).max()
    return None if asym < 1e-10 else f"fig3a bispectrum breaks swap-conjugation by {asym:.2e}"


def _verify_fig4(out: Path) -> str | None:
    meta, header, t = read_csv(out / "fig4_saturation.csv")
    worst = max(
        abs(t[-1, header.index(f"coherence_mode{n}")] / float(meta[f"plateau_mode{n}"]) - 1.0)
        for n in range(5)
    )
    return None if worst < TOL_CLOSED_FORM else f"fig4 plateaus off by {worst:.2e}"


def _dense_kernel_job(rng, m: int) -> Job:
    grid = TimeGrid(0.0, 8.0, m)
    amp, width = rng.uniform(0.2, 0.8), rng.uniform(0.4, 0.8)
    spec = DenseKernel(
        regular=lambda t, s: amp * math.exp(-((t - s) ** 2) / (2 * width**2)), delta=1.0
    )
    k = Kernel("dense", spec, DECAY, grid)
    t0, duration = _window(rng, grid, 0.05, 0.9)
    controls = _raw_controls(k, t0, duration, rng.uniform(1.0, 2.0))

    def run(L):
        corr = L.kernel_to_correlation(L.discretize_kernel(spec, grid))
        return corr, [L.attenuation_time_basis(corr, c).chi for c in controls]

    def check(out, outputs):
        corr, chis = out
        dec = decompose(corr)
        err = max(_rel(attenuation_eigenbasis(dec, c).chi, chi) for c, chi in zip(controls, chis))
        return None if err < TOL_TIME_EIGEN else f"time basis vs eigenbasis: {err:.2e}"

    return Job(f"dense_kernel/m{m}", run, check)


def _dense_output_jobs(rng, out_dir: Path) -> list[Job]:
    # one correlation CSV with a closed form to check against, one without
    jobs = [
        _correlate_job(_kernel(label, rng, grid), rng, out_dir)
        for label, grid in (
            ("quenched_ou", TimeGrid(0.0, 8.0, 401)),
            ("harmonic", TimeGrid(-6.0, 6.0, 401)),
        )
    ]
    for fig, verify in (("fig2b", _verify_fig2b), ("fig3", _verify_fig3), ("fig4", _verify_fig4)):
        jobs.append(_cli_job(f"reproduce/{fig}", ["reproduce", fig], out_dir / fig, verify))
    # np.vectorize assembly of the two-time kernel is part of what this measures
    jobs.append(_dense_kernel_job(rng, 801))
    return jobs


def build_dense_modes_mc(rng, out_dir: Path) -> list[Job]:
    return _eigen_jobs(rng) + _monte_carlo_jobs(rng) + _dense_output_jobs(rng, out_dir)


def probes_dense_modes_mc(L) -> None:
    _probe_span(L, "decompose_m1601", lambda: L.decompose(
        L.kernel_to_correlation(_ou_baseline_kernel(L, 1601))))
    for m in (401, 1601):
        _probe_span(L, f"factorize_m{m}", lambda: L.factorize_covariance(
            L.kernel_to_correlation(_ou_baseline_kernel(L, m))))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chi-banded",
            "scalar chi answers from local-in-time kernels; the dense correlation solve dominates",
            build_chi_banded,
            probes_chi_banded,
        ),
        Workload(
            "dense-modes-mc",
            "eigenmodes, optimizer, spectroscopy, Monte Carlo paths and dense CLI outputs at m <= 1501",
            build_dense_modes_mc,
            probes_dense_modes_mc,
        ),
    )
}


def warm_up(L, out_dir: Path) -> None:
    """One tiny pass through every layer: lazy imports, BLAS threads, schema validator."""
    rng = np.random.default_rng(0)
    grid = TimeGrid(0.0, 4.0, 41)
    k = Kernel("ou", ornstein_uhlenbeck(1.0, 1.0), DECAY, grid)
    km = L.discretize_kernel(k.spec, grid)
    corr = L.kernel_to_correlation(km)
    ctrl = L.control_free(grid, 1.0, 0.5, 3.0)
    L.attenuation_stationary(k.spec, ctrl)
    dec = L.decompose(corr)
    L.attenuation_eigenbasis(dec, ctrl)
    L.optimize_pulse_times(dec, 0.5, 3.0, 2, n_starts=2)
    bank = L.design_filter_bank_eigen(dec, range(2))
    L.reconstruct_nonparametric(bank, L.simulate_measurements(bank, [0.1, 0.05]), dec)
    for factor in (L.factorize_covariance(corr), L.precision_factor(km)):
        L.monte_carlo_coherence(factor, [ctrl], 64, 0)
    L.chapman_kolmogorov_check(k.spec, 0.0, 0.5, 1.0, resolution=50)
    job = _correlate_job(_kernel("ou", rng, grid), rng, out_dir / "warm-up")
    job.check(job.run(L), {})
