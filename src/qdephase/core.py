"""Domain types shared by all modules: time grids, noise kernels, control modulations.

Conventions
-----------
Inner products are weighted sums over the grid, ``(a|b) = sum_i w_i a(t_i)·b(t_i)``
with trapezoid weights ``w`` (interior points carry ``dt``, endpoints ``dt/2``).
Multi-channel fields of dimension ``n`` are stored time-major and flattened
C-style, i.e. entry ``i*n + c`` is channel ``c`` at grid point ``i``.

Piecewise-constant controls are tabulated twice: ``values`` holds the physical
(right-continuous) samples, while ``average_values`` carries the mean of the
left/right limits at discontinuity nodes.  Quadratures against smooth kernels
must use the averaged samples; this keeps them second-order accurate in ``dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidModelError, QDephaseError

__all__ = [
    "TimeGrid",
    "ControlModulation",
    "FieldPath",
    "DephasingResult",
    "KernelSpec",
    "DenseKernel",
    "LocalInTimeKernel",
    "StationaryPolynomialKernel",
    "KernelValidation",
    "white_noise",
    "ornstein_uhlenbeck",
    "quartic_kernel",
    "harmonic_well",
    "control_free",
    "control_cw",
    "control_pulse_train",
    "control_custom",
    "validate_kernel_spec",
]

Coefficient = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with trapezoid quadrature weights."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 4:
            raise DomainError(f"grid needs at least 4 points, got {self.n_points}")
        if not self.t_end > self.t_start:
            raise DomainError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_points)

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.dt)
        w[0] = w[-1] = self.dt / 2.0
        return w

    def index_of(self, t: float, tol: float | None = None) -> int:
        """Nearest grid index of ``t``; raises if ``t`` lies outside the grid."""
        if tol is None:
            tol = 1e-9 * max(1.0, abs(self.span))
        if t < self.t_start - tol or t > self.t_end + tol:
            raise DomainError(f"time {t} outside grid [{self.t_start}, {self.t_end}]")
        return int(np.clip(round((t - self.t_start) / self.dt), 0, self.n_points - 1))

    def contains_window(self, t0: float, duration: float) -> bool:
        tol = 1e-9 * max(1.0, abs(self.span))
        return t0 >= self.t_start - tol and t0 + duration <= self.t_end + tol

    def extended(self, pad_left: int, pad_right: int) -> "TimeGrid":
        """New grid with the same spacing and extra points on either side."""
        return TimeGrid(
            self.t_start - pad_left * self.dt,
            self.t_end + pad_right * self.dt,
            self.n_points + pad_left + pad_right,
        )


# ---------------------------------------------------------------------------
# kernel specifications
# ---------------------------------------------------------------------------


class KernelSpec:
    """Base class for noise-model specifications (inverse-covariance kernels)."""

    n: int = 1

    @property
    def is_local_in_time(self) -> bool:
        return isinstance(self, LocalInTimeKernel)

    @property
    def is_stationary(self) -> bool:
        return isinstance(self, StationaryPolynomialKernel)


def _as_matrix(value, n: int) -> np.ndarray:
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = m * np.eye(n) if n > 1 else m.reshape(1, 1)
    if m.shape != (n, n):
        raise InvalidModelError(f"coefficient must be {n}x{n}, got shape {m.shape}")
    return m


def _eval_coefficient(coef: Coefficient | None, t: np.ndarray, n: int) -> np.ndarray:
    """Evaluate a coefficient on times ``t`` -> array of shape (len(t), n, n).

    Callable coefficients receive a 1-d array of times and may return either
    per-time scalars (shape ``(m,)``, treated as isotropic) or per-time
    matrices (shape ``(m, n, n)``).
    """
    m = len(t)
    if coef is None:
        return np.zeros((m, n, n))
    if callable(coef):
        raw = np.asarray(coef(t), dtype=float)
        if raw.shape == (m,):
            return raw[:, None, None] * np.eye(n)
        if raw.shape == (m, n, n):
            return raw
        raise InvalidModelError(
            f"coefficient callable returned shape {raw.shape}; expected ({m},) or ({m}, {n}, {n})"
        )
    return np.broadcast_to(_as_matrix(coef, n), (m, n, n)).copy()


@dataclass(frozen=True)
class DenseKernel(KernelSpec):
    """Two-time kernel ``D(t, t')`` given as a callable for the regular part.

    ``delta`` is the coefficient of an optional ``delta(t - t')`` ridge; it is
    required whenever the regular part alone is not invertible.
    """

    regular: Callable[[float, float], float | np.ndarray] | None
    delta: Coefficient | None = None
    n: int = 1

    def __post_init__(self):
        if self.regular is None and self.delta is None:
            raise InvalidModelError("dense kernel needs a regular part or a delta ridge")


@dataclass(frozen=True)
class LocalInTimeKernel(KernelSpec):
    """Differential-operator kernel with derivative constraints.

    ``coeffs_h[k]`` is the symmetric coefficient of the ``k``-th derivative
    term (k = 0..N); ``coeffs_a[k-1]`` the antisymmetric coefficient coupling
    derivatives ``k`` and ``k-1`` (k = 1..N, multi-channel only).  Entries may
    be constants, ``n x n`` matrices, or callables of time.
    """

    coeffs_h: tuple
    coeffs_a: tuple = ()
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coeffs_h", tuple(self.coeffs_h))
        object.__setattr__(self, "coeffs_a", tuple(self.coeffs_a))
        if not self.coeffs_h:
            raise InvalidModelError("at least the order-0 coefficient is required")
        if len(self.coeffs_a) > self.order:
            raise InvalidModelError("antisymmetric coefficients exceed kernel order")
        if self.n == 1 and any(c is not None for c in self.coeffs_a):
            raise InvalidModelError(
                "one-dimensional kernels admit no antisymmetric coefficients"
            )
        if self._constant(self.coeffs_h[-1]) is not None and self.order > 0:
            top = self._constant(self.coeffs_h[-1])
            if np.all(top == 0):
                raise InvalidModelError("leading derivative coefficient must not vanish")
        for c in self.coeffs_h:
            const = self._constant(c)
            if const is not None and not np.allclose(const, const.T):
                raise InvalidModelError("symmetric-part coefficients must be symmetric")
        for c in self.coeffs_a:
            const = self._constant(c)
            if const is not None and not np.allclose(const, -const.T):
                raise InvalidModelError("antisymmetric-part coefficients must be antisymmetric")

    def _constant(self, coef) -> np.ndarray | None:
        if coef is None or callable(coef):
            return None
        return _as_matrix(coef, self.n)

    @property
    def order(self) -> int:
        return len(self.coeffs_h) - 1

    def h_values(self, t: np.ndarray, k: int) -> np.ndarray:
        return _eval_coefficient(self.coeffs_h[k], t, self.n)

    def a_values(self, t: np.ndarray, k: int) -> np.ndarray:
        coef = self.coeffs_a[k - 1] if k - 1 < len(self.coeffs_a) else None
        return _eval_coefficient(coef, t, self.n)


@dataclass(frozen=True)
class StationaryPolynomialKernel(LocalInTimeKernel):
    """Local-in-time kernel with constant coefficients (stationary noise)."""

    def __post_init__(self):
        if any(callable(c) for c in self.coeffs_h if c is not None):
            raise InvalidModelError("stationary kernels take constant coefficients")
        if any(callable(c) for c in self.coeffs_a if c is not None):
            raise InvalidModelError("stationary kernels take constant coefficients")
        super().__post_init__()

    def h_matrix(self, k: int) -> np.ndarray:
        c = self.coeffs_h[k]
        return _as_matrix(0.0 if c is None else c, self.n)

    def a_matrix(self, k: int) -> np.ndarray:
        c = self.coeffs_a[k - 1] if k - 1 < len(self.coeffs_a) else None
        return _as_matrix(0.0 if c is None else c, self.n)

    def frequency_matrix(self, omega: float | np.ndarray) -> np.ndarray:
        """The matrix polynomial whose inverse is the stationary spectrum.

        An array of frequencies gives a stack of shape ``omega.shape + (n, n)``.
        """
        w = np.asarray(omega, dtype=float)[..., None, None]
        acc = np.zeros(w.shape[:-2] + (self.n, self.n), dtype=complex)
        for k in range(self.order + 1):
            acc += self.h_matrix(k) * w ** (2 * k)
        for k in range(1, self.order + 1):
            acc += 1j * self.a_matrix(k) * w ** (2 * k - 1)
        return acc


def white_noise(d0: float = 1.0, n: int = 1) -> StationaryPolynomialKernel:
    """Delta-correlated noise with flat spectrum ``1/d0``."""
    return StationaryPolynomialKernel(coeffs_h=(d0,), n=n)


def ornstein_uhlenbeck(d0: float = 1.0, d1: float = 1.0, n: int = 1) -> StationaryPolynomialKernel:
    """Lorentzian-spectrum noise; correlation time ``sqrt(d1/d0)``."""
    return StationaryPolynomialKernel(coeffs_h=(d0, d1), n=n)


def quartic_kernel(d0: float = 1.0, d2: float = 1.0, d1: float = 0.0) -> StationaryPolynomialKernel:
    """Second-order constraint kernel with ``1/(d0 + d1 w^2 + d2 w^4)`` spectrum."""
    return StationaryPolynomialKernel(coeffs_h=(d0, d1, d2))

def harmonic_well(d0: float, d1: float, alpha: float) -> LocalInTimeKernel:
    """Pulsed noise confined near t = 0 by a quadratic well in the mass term."""
    if alpha <= 0 or d1 <= 0:
        raise InvalidModelError("harmonic confinement needs alpha > 0 and d1 > 0")
    omega0 = math.sqrt(4.0 * alpha * d1)
    if not omega0 > -2.0 * d0:
        raise InvalidModelError("model ill defined: lowest kernel eigenvalue not positive")
    return LocalInTimeKernel(coeffs_h=(lambda t: d0 + alpha * t**2, d1))


# ---------------------------------------------------------------------------
# field paths and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldPath:
    """One realization of the fluctuating field tabulated on a grid."""

    grid: TimeGrid
    values: np.ndarray  # shape (n_points,) or (n_points, n)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.grid.n_points:
            raise _shape_error(v.shape, self.grid.n_points)
        if not np.all(np.isfinite(v)):
            raise DomainError("field path contains non-finite values")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]


def _shape_error(shape, n_points) -> DomainError:
    return DomainError(f"values of shape {shape} do not match grid with {n_points} points")


_NEG_CHI_SLACK = 1e-10


@dataclass(frozen=True)
class DephasingResult:
    """Attenuation exponent and coherence, tagged with the basis used."""

    chi: float
    basis_used: str
    warnings: tuple = ()

    def __post_init__(self):
        if self.chi < -_NEG_CHI_SLACK:
            raise DomainError(f"negative attenuation {self.chi} beyond numerical slack")

    @property
    def coherence(self) -> float:
        return math.exp(-max(self.chi, 0.0))


# ---------------------------------------------------------------------------
# control modulations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlModulation:
    """Control function f(t) tabulated on a grid.

    ``values`` are the physical samples (right-continuous at switching times);
    ``average_values`` replace each discontinuity node by the mean of its
    one-sided limits and are the samples to use in quadratures.
    """

    kind: str
    grid: TimeGrid
    g: float | np.ndarray
    t0: float
    duration: float
    values: np.ndarray
    average_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "average_values", _readonly(self.average_values))

    @property
    def n(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    @property
    def weighted_values(self) -> np.ndarray:
        """Integration vector: quadrature weights times averaged samples."""
        w = self.grid.weights
        if self.average_values.ndim == 1:
            return w * self.average_values
        return w[:, None] * self.average_values

    @property
    def weighted_norm(self) -> float:
        """sqrt of (f|f) evaluated with the averaged samples."""
        fa = self.average_values
        w = self.grid.weights
        sq = fa**2 if fa.ndim == 1 else np.sum(fa**2, axis=1)
        return float(np.sqrt(np.sum(w * sq)))

    def scaled(self, factor: float) -> "ControlModulation":
        return ControlModulation(
            kind=self.kind,
            grid=self.grid,
            g=np.asarray(self.g) * factor if np.ndim(self.g) else float(self.g) * factor,
            t0=self.t0,
            duration=self.duration,
            values=self.values * factor,
            average_values=self.average_values * factor,
        )

    def normalized(self) -> "ControlModulation":
        nrm = self.weighted_norm
        if nrm == 0.0:
            raise DomainError("cannot normalize an identically zero control")
        return self.scaled(1.0 / nrm)

    def integral(self) -> float:
        """Trapezoid integral of f over the grid (averaged samples)."""
        v = self.weighted_values
        return float(v.sum()) if v.ndim == 1 else float(v.sum(axis=0).sum())


def _window_mask(times: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    return (times >= t0 - tol) & (times <= t1 + tol)


def _check_window(grid: TimeGrid, t0: float, duration: float):
    if duration < 0:
        raise DomainError("window duration must be non-negative")
    if not grid.contains_window(t0, duration):
        raise DomainError(
            f"window [{t0}, {t0 + duration}] outside grid "
            f"[{grid.t_start}, {grid.t_end}]"
        )


def _halve_window_edges(avg: np.ndarray, values: np.ndarray, grid: TimeGrid, edges, tol: float):
    """Average window-edge samples with the outside zero.

    Grid endpoints are skipped: their trapezoid weight is already one-sided,
    so the full sample is the correct average there.
    """
    for edge in edges:
        i = grid.index_of(edge)
        if 0 < i < grid.n_points - 1 and abs(grid.times[i] - edge) <= tol:
            avg[i] = values[i] / 2.0


def control_cw(grid: TimeGrid, g: float, omega: float, t0: float, duration: float) -> ControlModulation:
    """Continuous-wave modulation ``g cos(omega (t - t0))`` on a window."""
    _check_window(grid, t0, duration)
    times = grid.times
    tol = 1e-9 * max(1.0, grid.span)
    inside = _window_mask(times, t0, t0 + duration, tol)
    shape = np.where(inside, np.cos(omega * (times - t0)), 0.0)
    values = g * shape
    avg = values.copy()
    _halve_window_edges(avg, values, grid, (t0, t0 + duration), tol)
    return ControlModulation("cw", grid, g, t0, duration, values, avg)


def control_free(grid: TimeGrid, g: float, t0: float, duration: float) -> ControlModulation:
    """Free evolution: constant coupling ``g`` on the window."""
    mod = control_pulse_train(grid, g, t0, duration, ())
    return ControlModulation("free", grid, g, t0, duration, mod.values, mod.average_values)


def control_pulse_train(
    grid: TimeGrid,
    g: float,
    t0: float,
    duration: float,
    pulse_times: Sequence[float],
) -> ControlModulation:
    """Instantaneous sign-switching sequence: +g on [t0, p1), -g on [p1, p2), ...

    Pulse times must be strictly increasing and interior to the window.
    """
    _check_window(grid, t0, duration)
    pulses = tuple(float(p) for p in pulse_times)
    if any(b <= a for a, b in zip(pulses, pulses[1:])):
        raise DomainError("pulse times must be strictly increasing")
    tol = 1e-9 * max(1.0, grid.span)
    if pulses and (pulses[0] <= t0 + tol or pulses[-1] >= t0 + duration - tol):
        raise DomainError("pulse times must lie strictly inside the window")
    times = grid.times
    inside = _window_mask(times, t0, t0 + duration, tol)
    # number of pulses at or before each time fixes the sign (right-continuous)
    sign = np.ones(grid.n_points)
    for p in pulses:
        sign[times >= p - tol] *= -1.0
    values = np.where(inside, g * sign, 0.0)
    avg = values.copy()
    for p in pulses:
        i = grid.index_of(p)
        if abs(times[i] - p) <= tol:
            avg[i] = 0.0  # sign flip at the node: one-sided limits average to zero
    _halve_window_edges(avg, values, grid, (t0, t0 + duration), tol)
    kind = "pulse_train" if pulses else "free"
    return ControlModulation(kind, grid, g, t0, duration, values, avg)


def control_custom(
    grid: TimeGrid,
    values: np.ndarray,
    g: float = 1.0,
    averaged: np.ndarray | None = None,
) -> ControlModulation:
    """Arbitrary tabulated modulation; assumed continuous unless ``averaged`` given."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] != grid.n_points:
        raise _shape_error(v.shape, grid.n_points)
    avg = v if averaged is None else np.asarray(averaged, dtype=float)
    support = np.nonzero(np.any(v != 0, axis=tuple(range(1, v.ndim))) if v.ndim > 1 else v != 0)[0]
    if support.size:
        t0 = grid.times[support[0]]
        duration = grid.times[support[-1]] - t0
    else:
        t0, duration = grid.t_start, 0.0
    return ControlModulation("custom", grid, g, float(t0), float(duration), v, avg)


# ---------------------------------------------------------------------------
# kernel validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelValidation:
    """Report from :func:`validate_kernel_spec`; never raises."""

    valid: bool
    issues: tuple
    min_eigenvalue: float | None = None


def validate_kernel_spec(spec: KernelSpec, grid: TimeGrid) -> KernelValidation:
    """Check symmetry structure and positive definiteness of the discretized kernel."""
    from . import gridops  # deferred: gridops depends on this module

    issues: list[str] = []
    times = grid.times
    if isinstance(spec, LocalInTimeKernel):
        for k in range(spec.order + 1):
            vals = spec.h_values(times[:: max(1, len(times) // 16)], k)
            if not np.allclose(vals, np.swapaxes(vals, 1, 2), atol=1e-12):
                issues.append(f"symmetric coefficient k={k} is not symmetric")
        for k in range(1, spec.order + 1):
            vals = spec.a_values(times[:: max(1, len(times) // 16)], k)
            if not np.allclose(vals, -np.swapaxes(vals, 1, 2), atol=1e-12):
                issues.append(f"antisymmetric coefficient k={k} is not antisymmetric")
        if spec.order > 0:
            top = spec.h_values(times, spec.order)
            ev = np.linalg.eigvalsh(top)
            if np.any(ev <= 0):
                issues.append("leading derivative coefficient is not positive definite")
    elif isinstance(spec, DenseKernel):
        sample = times[:: max(1, len(times) // 12)]
        for ta in sample:
            for tb in sample:
                if spec.regular is None:
                    continue
                lhs = _as_matrix(spec.regular(ta, tb), spec.n)
                rhs = _as_matrix(spec.regular(tb, ta), spec.n).T
                if not np.allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(lhs).max())):
                    issues.append("dense kernel violates D(t,t') = D(t',t)^T")
                    break
            else:
                continue
            break
    if isinstance(spec, StationaryPolynomialKernel):
        nyquist = math.pi / grid.dt
        for omega in np.linspace(0.0, nyquist, 64):
            ev = np.linalg.eigvalsh(spec.frequency_matrix(omega))
            if np.any(ev <= 0):
                issues.append(f"frequency polynomial not positive definite at omega={omega:.3g}")
                break

    min_eig: float | None = None
    try:
        km = gridops.discretize_kernel(spec, grid, check=False)
        min_eig = gridops.smallest_eigenvalue(km)
        if not min_eig > 0:
            issues.append(f"discretized kernel not positive definite (min eigenvalue {min_eig:.3e})")
    except QDephaseError as exc:
        issues.append(f"discretization failed: {exc}")
    return KernelValidation(valid=not issues, issues=tuple(issues), min_eigenvalue=min_eig)
