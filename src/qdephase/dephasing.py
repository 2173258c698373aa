"""Attenuation exponents and coherence in time, eigenmode, and frequency bases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ControlModulation, DephasingResult, StationaryPolynomialKernel
from .errors import DomainError, GridMismatchError
from .eigenmodes import EigenmodeDecomposition, filter_coefficient
from .gridops import CorrelationMatrix

__all__ = [
    "attenuation_time_basis",
    "attenuation_eigenbasis",
    "attenuation_stationary",
    "coherence_curve",
    "CurvePoint",
]


def attenuation_time_basis(corr: CorrelationMatrix, f: ControlModulation) -> DephasingResult:
    """chi = (1/2) (f|G|f) via the weighted double sum on the grid.

    With a window precision attached this is one banded triangular solve,
    O(m * bandwidth); the dense ``G`` is used only when that is all there is.
    """
    if f.grid != corr.grid:
        raise GridMismatchError("control and correlation live on different grids")
    if f.n != corr.n:
        raise GridMismatchError(f"control has {f.n} channels, correlation {corr.n}")
    v = f.weighted_values
    flat = v if v.ndim == 1 else v.reshape(-1)
    chi = 0.5 * corr.quadratic_form(flat)
    return DephasingResult(chi=chi, basis_used="time")


def attenuation_eigenbasis(dec: EigenmodeDecomposition, f: ControlModulation) -> DephasingResult:
    """chi = (1/2) sum_j S_j |F_j|^2 over the retained noise eigenmodes."""
    coeffs = filter_coefficient(dec, f)
    chi = 0.5 * float(np.sum(dec.eigenvalues * coeffs**2))
    return DephasingResult(chi=chi, basis_used="eigenmode")


def _control_transform(f: ControlModulation, pad_factor: int) -> tuple[np.ndarray, np.ndarray]:
    """F(w) = (1/sqrt(2pi)) sum_i w_i f(t_i) e^{+i w t_i} on a padded DFT grid."""
    grid = f.grid
    v = f.weighted_values
    m = grid.n_points
    npad = pad_factor * m
    omegas = np.fft.fftfreq(npad, d=grid.dt) * 2 * np.pi
    if v.ndim == 1:
        spec = np.fft.fft(v, n=npad).conj()
        spec = spec[:, None]
    else:
        spec = np.fft.fft(v, n=npad, axis=0).conj()
    phase = np.exp(1j * omegas * grid.t_start)
    return omegas, spec * phase[:, None] / np.sqrt(2 * np.pi)


def attenuation_stationary(
    spec: StationaryPolynomialKernel,
    f: ControlModulation,
    omegas: np.ndarray | None = None,
    pad_factor: int = 8,
) -> DephasingResult:
    """chi = (1/2) int dw F(w)^dag S(w) F(w) with the analytic stationary spectrum.

    With the default frequency grid (the zero-padded DFT grid of the control,
    covering one full Nyquist period) the rectangle sum is a discrete Parseval
    pair of the time-basis form.  A warning is attached when a noticeable part
    of the overlap sits in the top decade of the grid, which indicates the
    control has structure beyond the resolvable bandwidth.
    """
    if not isinstance(spec, StationaryPolynomialKernel):
        raise DomainError("frequency-basis attenuation needs a stationary kernel")
    if f.n != spec.n:
        raise GridMismatchError(f"control has {f.n} channels, kernel {spec.n}")
    warnings: tuple[str, ...] = ()
    if omegas is None:
        omegas, fvals = _control_transform(f, pad_factor)
        dw = 2 * np.pi / (len(omegas) * f.grid.dt)
        weights = np.full(len(omegas), dw)
    else:
        omegas = np.asarray(omegas, dtype=float)
        grid = f.grid
        v = f.weighted_values
        vmat = v[:, None] if v.ndim == 1 else v
        kern = np.exp(1j * omegas[:, None] * grid.times[None, :]) / np.sqrt(2 * np.pi)
        fvals = kern @ vmat
        weights = np.gradient(omegas)
        nyq = np.pi / grid.dt
        if omegas.max() < 0.8 * nyq:
            warnings += (
                f"frequency grid tops out at {omegas.max():.3g} < 0.8 x Nyquist {nyq:.3g}; "
                "control bandwidth may be clipped",
            )
    poly = spec.frequency_matrix(omegas)
    svals = 1.0 / poly if spec.n == 1 else np.linalg.inv(poly)
    integrand = np.einsum("kc,kcd,kd->k", fvals.conj(), svals, fvals).real
    chi = 0.5 * float(np.sum(weights * integrand))
    # tail check: overlap mass in the top decade of |omega|
    cut = 0.8 * np.abs(omegas).max()
    tail = float(np.sum(weights[np.abs(omegas) >= cut] * integrand[np.abs(omegas) >= cut]))
    if chi > 0 and abs(tail) > 1e-6 * abs(chi):
        warnings += (
            f"{abs(tail)/abs(chi):.2e} of the overlap lies above 0.8 x the frequency cutoff; "
            "refine the grid (possible bandwidth violation)",
        )
    return DephasingResult(chi=chi, basis_used="frequency", warnings=warnings)


@dataclass(frozen=True)
class CurvePoint:
    duration: float
    chi: float
    coherence: float


def coherence_curve(
    corr: CorrelationMatrix,
    family: Callable[[float], ControlModulation],
    durations: Sequence[float],
) -> list[CurvePoint]:
    """Evaluate the decay curve chi(T), coherence(T) for a control family."""
    points = []
    for T in durations:
        if T == 0:
            points.append(CurvePoint(0.0, 0.0, 1.0))
            continue
        res = attenuation_time_basis(corr, family(T))
        points.append(CurvePoint(float(T), res.chi, res.coherence))
    return points
