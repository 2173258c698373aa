"""Monte Carlo oracle: sample field paths with the grid covariance and
estimate the ensemble average of ``exp(i phi)``.

Reproducibility: paths are generated in fixed-size batches, each with its own
generator spawned from the seed via ``SeedSequence``; partial sums are reduced
in batch order, so estimates are bit-identical for a given seed regardless of
whether paths are materialized or streamed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import ControlModulation, FieldPath, TimeGrid
from .errors import (
    DomainError,
    GridMismatchError,
    IndefiniteCovarianceError,
    SingularKernelError,
)
from .gridops import (
    BoundaryCondition,
    CorrelationMatrix,
    KernelMatrix,
    WindowPrecision,
    window_precision,
)

__all__ = [
    "SampleEstimate",
    "CovarianceFactor",
    "PrecisionFactor",
    "PathEnsemble",
    "factorize_covariance",
    "precision_factor",
    "sample_paths",
    "estimate_coherence",
    "monte_carlo_coherence",
    "sample_path_regularity",
    "RegularityReport",
]

log = logging.getLogger(__name__)

DEFAULT_BATCH = 4096
PSD_SLACK = 1e-8
JITTER_SCALE = 1e-12


@dataclass(frozen=True)
class SampleEstimate:
    """Ensemble average of ``exp(i phi)`` with its Monte Carlo standard error."""

    mean_real: float
    mean_imag: float
    std_error: float
    n_paths: int
    seed: int

    @property
    def mean(self) -> complex:
        return complex(self.mean_real, self.mean_imag)


@dataclass
class CovarianceFactor:
    """Factor ``L`` with ``L L^T = G``; samples are ``L z`` for standard normal z."""

    grid: TimeGrid
    n: int
    L: np.ndarray  # shape (n_points * n, rank)
    method: str  # "cholesky" or "eigen"
    jitter: float = 0.0
    dropped_modes: int = 0

    @property
    def dim(self) -> int:
        return self.L.shape[0]

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((count, self.L.shape[1]))
        return z @ self.L.T


@dataclass
class PrecisionFactor:
    """Sampler backed by the banded Cholesky factor of the window precision.

    With ``S = L L^T`` the window precision, solving the triangular banded
    system ``L^T x = z / dt`` yields exact draws from ``N(0, G)`` on the
    window without ever materializing ``G``; the pads are already
    marginalized out of ``S``.
    """

    grid: TimeGrid  # window grid
    n: int
    precision: WindowPrecision

    @property
    def dim(self) -> int:
        return self.grid.n_points * self.n

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        # drawn as (count, kept) and transposed: column-major for the solve
        z = rng.standard_normal((count, self.precision.kept)).T
        return self.precision.color(z).T


def factorize_covariance(
    corr: CorrelationMatrix, jitter_scale: float = JITTER_SCALE
) -> CovarianceFactor:
    """Symmetric factor of the correlation matrix for path sampling.

    Cholesky when positive definite; eigen-factorization with non-positive
    modes dropped when merely semidefinite (e.g. the clamped quench node);
    as a last resort a recorded diagonal jitter is added.  Rows with exactly
    zero variance always come out exactly zero in the factor.
    """
    g = np.asarray(corr.mat, dtype=float)
    g = 0.5 * (g + g.T)
    zero_rows = np.diag(g) <= 0.0
    jitter = 0.0
    dropped = 0
    try:
        L = np.linalg.cholesky(g)
        method = "cholesky"
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(g)
        vmax = float(vals.max(initial=0.0))
        if vals.min() >= -PSD_SLACK * max(vmax, 1e-300):
            keep = vals > 0.0
            dropped = int(np.sum(~keep))
            L = vecs[:, keep] * np.sqrt(vals[keep])[None, :]
            method = "eigen"
        else:
            jitter = jitter_scale * np.trace(g) / g.shape[0]
            log.warning(
                "covariance indefinite (min eigenvalue %.3e); adding jitter %.3e",
                vals.min(),
                jitter,
            )
            try:
                L = np.linalg.cholesky(g + jitter * np.eye(g.shape[0]))
                method = "cholesky"
            except np.linalg.LinAlgError:
                raise IndefiniteCovarianceError(
                    f"covariance indefinite beyond jitter (min eigenvalue {vals.min():.3e})",
                    min_eigenvalue=float(vals.min()),
                ) from None
    if np.any(zero_rows):
        L = L.copy()
        L[zero_rows, :] = 0.0
    return CovarianceFactor(
        grid=corr.grid, n=corr.n, L=L, method=method, jitter=jitter, dropped_modes=dropped
    )


def precision_factor(
    km: KernelMatrix,
    bc: BoundaryCondition = BoundaryCondition.DECAY_AT_INFINITY,
    pad_factor: float | None = None,
    pad_steps: int | None = None,
) -> PrecisionFactor:
    """Banded sampling factor from the same window precision as
    :func:`kernel_to_correlation`, so both samplers target one covariance."""
    if not km.is_banded:
        raise DomainError("precision sampling needs a banded kernel matrix")
    try:
        prec = window_precision(km, bc, pad_factor=pad_factor, pad_steps=pad_steps)
    except SingularKernelError as exc:
        raise IndefiniteCovarianceError(f"kernel form not positive definite: {exc}") from None
    return PrecisionFactor(grid=km.grid, n=km.n, precision=prec)


@dataclass
class PathEnsemble:
    """Array-backed collection of sampled field paths."""

    grid: TimeGrid
    n: int
    values: np.ndarray  # shape (count, n_points * n)
    seed: int

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i: int) -> FieldPath:
        v = self.values[i]
        if self.n > 1:
            v = v.reshape(self.grid.n_points, self.n)
        return FieldPath(grid=self.grid, values=v)


def _batches(count: int, batch_size: int) -> Iterator[tuple[int, int]]:
    start = 0
    while start < count:
        yield start, min(batch_size, count - start)
        start += batch_size


def _batch_rngs(seed: int, n_batches: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(n_batches)
    return [np.random.default_rng(c) for c in children]


def sample_paths(
    factor: CovarianceFactor | PrecisionFactor,
    count: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH,
) -> PathEnsemble:
    """Draw ``count`` independent zero-mean Gaussian paths; deterministic in seed."""
    if count < 1:
        raise DomainError("need at least one path")
    n_batches = math.ceil(count / batch_size)
    rngs = _batch_rngs(seed, n_batches)
    out = np.empty((count, factor.dim))
    for k, (start, size) in enumerate(_batches(count, batch_size)):
        out[start : start + size] = factor.draw(size, rngs[k])
    return PathEnsemble(grid=factor.grid, n=factor.n, values=out, seed=seed)


def _phase_vector(f: ControlModulation, grid: TimeGrid, n: int) -> np.ndarray:
    if f.grid != grid:
        raise GridMismatchError("control and paths live on different grids")
    if f.n != n:
        raise GridMismatchError(f"control has {f.n} channels, paths {n}")
    v = f.weighted_values
    return v if v.ndim == 1 else v.reshape(-1)


def _estimate_from_sums(
    s_cos: float, s_sin: float, s_cos2: float, s_sin2: float, count: int, seed: int
) -> SampleEstimate:
    mean_r = s_cos / count
    mean_i = s_sin / count
    var_r = max(s_cos2 / count - mean_r**2, 0.0)
    var_i = max(s_sin2 / count - mean_i**2, 0.0)
    std_error = math.sqrt((var_r + var_i) / count)
    return SampleEstimate(
        mean_real=mean_r, mean_imag=mean_i, std_error=std_error, n_paths=count, seed=seed
    )


def estimate_coherence(paths: PathEnsemble, f: ControlModulation) -> SampleEstimate:
    """Average ``exp(i (f|B))`` over an ensemble of sampled paths."""
    a = _phase_vector(f, paths.grid, paths.n)
    phi = paths.values @ a
    c, s = np.cos(phi), np.sin(phi)
    return _estimate_from_sums(
        c.sum(), s.sum(), (c**2).sum(), (s**2).sum(), len(paths), paths.seed
    )


def monte_carlo_coherence(
    factor: CovarianceFactor | PrecisionFactor,
    controls: Sequence[ControlModulation],
    count: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH,
) -> list[SampleEstimate]:
    """Streamed coherence estimates for several controls over one shared ensemble.

    Produces exactly the estimates of :func:`sample_paths` +
    :func:`estimate_coherence` without holding all paths in memory.
    """
    vecs = np.stack([_phase_vector(f, factor.grid, factor.n) for f in controls], axis=1)
    n_batches = math.ceil(count / batch_size)
    rngs = _batch_rngs(seed, n_batches)
    sums = np.zeros((4, vecs.shape[1]))
    for k, (start, size) in enumerate(_batches(count, batch_size)):
        phi = factor.draw(size, rngs[k]) @ vecs
        c, s = np.cos(phi), np.sin(phi)
        sums[0] += c.sum(axis=0)
        sums[1] += s.sum(axis=0)
        sums[2] += (c**2).sum(axis=0)
        sums[3] += (s**2).sum(axis=0)
    return [
        _estimate_from_sums(sums[0, j], sums[1, j], sums[2, j], sums[3, j], count, seed)
        for j in range(vecs.shape[1])
    ]


def write_path_dump(paths: PathEnsemble, path, cap: int = 100, timestamp: bool = True) -> int:
    """CSV dump of sampled paths (one block of columns per path), capped.

    Returns the number of paths written.
    """
    from ._io import write_csv

    count = min(len(paths), cap)
    n = paths.n
    columns = ["t"]
    for p in range(count):
        columns += [f"path{p}_b{c}" for c in range(n)] if n > 1 else [f"path{p}"]
    block = paths.values[:count].T  # (n_points * n, count)
    grid = paths.grid
    rows = []
    for i in range(grid.n_points):
        row = [grid.times[i]]
        for p in range(count):
            row.extend(block[i * n : (i + 1) * n, p])
        rows.append(row)
    write_csv(
        path,
        columns,
        rows,
        {"paths_written": count, "paths_total": len(paths), "seed": paths.seed},
        timestamp=timestamp,
    )
    return count


@dataclass(frozen=True)
class RegularityReport:
    """Log-log scaling of sampled increment variances against the lag."""

    lags: np.ndarray  # seconds
    variances: np.ndarray
    slope: float
    intercept: float
    order: int


def sample_path_regularity(
    paths: PathEnsemble,
    order: int,
    n_lags: int = 24,
    max_lag_fraction: float = 1.0 / 3.0,
) -> RegularityReport:
    """Empirical increment-variance scaling Var[B(t+s) - B(t)] ~ s^slope.

    Paths with k continuous derivatives show slope 2k+... in the resolved
    window: order-1 kernels give slope ~1 (continuous, non-differentiable
    paths), order-2 kernels slope ~2 (continuously differentiable).  Lags
    sweep log-uniformly from one grid step up to ``max_lag_fraction`` of the
    window (capped at 3 decades).
    """
    if paths.n != 1:
        raise DomainError("regularity scaling is defined for single-channel paths")
    m = paths.grid.n_points
    dt = paths.grid.dt
    max_lag = min(int(m * max_lag_fraction), 1000)
    if max_lag < 2:
        raise DomainError("grid too short for an increment sweep")
    lags = np.unique(
        np.round(np.logspace(0, np.log10(max_lag), n_lags)).astype(int)
    )
    variances = np.empty(len(lags))
    for i, k in enumerate(lags):
        inc = paths.values[:, k:] - paths.values[:, :-k]
        variances[i] = float(np.mean(inc**2))
    slope, intercept = np.polyfit(np.log(lags * dt), np.log(variances), 1)
    return RegularityReport(
        lags=lags * dt,
        variances=variances,
        slope=float(slope),
        intercept=float(intercept),
        order=order,
    )
