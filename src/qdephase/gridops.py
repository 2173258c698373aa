"""Discretize kernel operators on the time grid and invert them to correlations.

The discrete convention: a :class:`KernelMatrix` stores kernel *values*
``K[i, j] ~ D(t_i, t_j)`` (a Dirac ridge contributes ``1/dt`` on the
diagonal), so that ``(a|D|b) ~ dt^2 a^T K b`` and the correlation matrix is
``G = K^{-1} / dt^2``.  Local-in-time operators are assembled from k-fold
forward differences, which keeps the matrix banded with half-bandwidth equal
to the kernel order and gives the lattice spectrum
``sum_k D_k (4 sin^2(w dt/2) / dt^2)^k`` on periodic grids.

The boundary condition is realized once, by :func:`window_precision`: the
kernel is re-assembled on a padded grid and the pads are eliminated onto the
window.  The result, the window's marginal precision ``S`` (Rue & Held,
*Gaussian Markov Random Fields*, ch. 2), stays banded with the kernel's
half-bandwidth, and ``G = S^{-1} / dt^2``.  A :class:`CorrelationMatrix`
carries ``S`` and its banded Cholesky factor: attenuation exponents,
propagator covariances and precision-factor draws each cost O(m * bandwidth).
The dense ``G`` is built only on access to ``CorrelationMatrix.mat``, which
the ``correlate`` CSV, ``decompose``, the bispectrum and
``factorize_covariance`` use; a :class:`DenseKernel` keeps a dense Cholesky
factor of its unpadded matrix.
"""

from __future__ import annotations

import enum
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from .core import (
    DenseKernel,
    KernelSpec,
    LocalInTimeKernel,
    TimeGrid,
    _as_matrix,
)
from .errors import (
    DomainError,
    NotPositiveDefiniteError,
    PaddingWarning,
    SingularKernelError,
)

__all__ = [
    "BoundaryCondition",
    "KernelMatrix",
    "CorrelationMatrix",
    "discretize_kernel",
    "kernel_to_correlation",
    "correlation_at",
    "smallest_eigenvalue",
    "window_precision",
    "WindowPrecision",
]


class BoundaryCondition(enum.Enum):
    DECAY_AT_INFINITY = "decay_at_infinity"
    DIRICHLET_AT_QUENCH = "dirichlet_at_quench"


def _difference_stencil(order: int, dt: float) -> np.ndarray:
    """k-fold forward difference coefficients at offsets 0..order."""
    return np.array(
        [(-1.0) ** (order - j) * math.comb(order, j) for j in range(order + 1)]
    ) / dt**order


def _local_terms(spec: LocalInTimeKernel, grid: TimeGrid, periodic: bool) -> list:
    """The form as ``sum_r (P_r x)^T M_r (Q_r x)``: one ``(p, q, M)`` per term.

    ``p`` and ``q`` are stencils over offsets 0.. from row ``r``, ``M`` the
    per-row coefficient blocks times ``dt``.  Non-periodic grids drop the
    trailing ``k`` rows of a k-th derivative, which realizes the natural
    (free) boundary closure of the variational form.  The cross terms pair
    the k-th difference with the (k-1)-th re-centered on the k-stencil rows.
    """
    m, dt, times = grid.n_points, grid.dt, grid.times
    terms = []
    for k in range(spec.order + 1):
        if not periodic and m - k <= 0:
            raise DomainError(f"grid too short for derivative order {k}")
        mid = times if periodic else times[: m - k] + k * dt / 2.0
        blocks = spec.h_values(mid, k)
        if np.any(blocks):
            c = _difference_stencil(k, dt)
            terms.append((c, c, blocks * dt))
    for k in range(1, spec.order + 1):
        if not np.any(spec.a_values(times, k)):
            continue
        mid = times if periodic else times[: m - k] + k * dt / 2.0
        c1 = _difference_stencil(k - 1, dt)
        recentered = 0.5 * (np.append(c1, 0.0) + np.insert(c1, 0, 0.0))
        terms.append((_difference_stencil(k, dt), recentered, spec.a_values(mid, k) * dt))
    return terms


def _assemble_local(terms: list, m: int, n: int, hb: int, periodic: bool) -> np.ndarray:
    """Symmetric part of the summed terms: lower bands, or dense when periodic.

    Entry ``(r+i, r+j)`` (channel block ``a, b``) of a term receives
    ``p_i q_j M_r[a, b]`` for every row ``r`` at once, as one strided slice;
    indices wrap on periodic grids.
    """
    size = m * n
    out = np.zeros((size, size) if periodic else (hb + 1, size))
    for p, q, mats in terms:
        rows = len(mats)
        r = np.arange(rows)
        for i, j, a, b in itertools.product(range(len(p)), range(len(q)), range(n), range(n)):
            w = (0.5 * p[i] * q[j]) * mats[:, a, b]
            if periodic:
                x, y = ((r + i) % m) * n + a, ((r + j) % m) * n + b
                out[x, y] += w
                out[y, x] += w
                continue
            # lower entry of the (row, col)/(col, row) pair; a diagonal entry is both
            d = (i - j) * n + a - b
            start = j * n + b if d >= 0 else i * n + a
            out[abs(d), start : start + rows * n : n] += 2.0 * w if d == 0 else w
    return out


@dataclass
class KernelMatrix:
    """Discretized kernel operator, stored dense or banded (lower form)."""

    grid: TimeGrid
    n: int
    half_bandwidth: int | None
    source_spec: KernelSpec | None = None
    periodic: bool = False
    _dense: np.ndarray | None = None
    _bands: np.ndarray | None = None  # lower banded storage, shape (hb*n + n, m*n)

    @property
    def size(self) -> int:
        return self.grid.n_points * self.n

    @property
    def is_banded(self) -> bool:
        return self._bands is not None

    def dense(self) -> np.ndarray:
        if self._dense is None:
            nb, size = self._bands.shape
            out = np.zeros((size, size))
            for d in range(nb):
                vals = self._bands[d, : size - d]
                out[np.arange(size - d) + d, np.arange(size - d)] = vals
                if d:
                    out[np.arange(size - d), np.arange(size - d) + d] = vals
            self._dense = out
        return self._dense

    def sparse(self) -> sp.csr_matrix:
        if not self.is_banded:
            return sp.csr_matrix(self.dense())
        nb, size = self._bands.shape
        diags = [self._bands[d, : size - d] for d in range(nb)]
        offsets = list(range(1 - nb, nb))
        return sp.diags(diags[:0:-1] + diags, offsets, format="csr")

    def bands(self) -> np.ndarray:
        if self._bands is None:
            raise SingularKernelError("kernel matrix has no banded storage")
        return self._bands

    def quadratic_form(self, a: np.ndarray, b: np.ndarray) -> float:
        """(a|D|b) under the uniform-weight discrete convention."""
        dt2 = self.grid.dt**2
        if self.is_banded:
            return dt2 * float(a @ _banded_matvec(self._bands, b))
        return dt2 * float(a @ self.dense() @ b)


def _banded_matvec(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    nb, size = bands.shape
    y = bands[0] * x
    for d in range(1, nb):
        y[d:] += bands[d, : size - d] * x[: size - d]
        y[: size - d] += bands[d, : size - d] * x[d:]
    return y


def discretize_kernel(
    spec: KernelSpec,
    grid: TimeGrid,
    periodic: bool = False,
    check: bool = True,
) -> KernelMatrix:
    """Assemble the discrete kernel matrix for ``spec`` on ``grid``.

    Raises :class:`NotPositiveDefiniteError` (carrying the smallest eigenvalue)
    when ``check`` is set and the assembled matrix is not positive definite.
    """
    m, n, dt = grid.n_points, spec.n, grid.dt
    times = grid.times
    if isinstance(spec, LocalInTimeKernel):
        hb = spec.order * n + (n - 1)
        kmat = _assemble_local(_local_terms(spec, grid, periodic), m, n, hb, periodic) / dt**2
        km = KernelMatrix(
            grid=grid,
            n=n,
            half_bandwidth=spec.order,
            source_spec=spec,
            periodic=periodic,
            _bands=None if periodic else kmat,
            _dense=kmat if periodic else None,
        )
    elif isinstance(spec, DenseKernel):
        tt = np.meshgrid(times, times, indexing="ij")
        if n == 1:
            mat = np.zeros((m, m))
            if spec.regular is not None:
                reg = np.vectorize(spec.regular)(tt[0], tt[1])
                mat += np.asarray(reg, dtype=float)
            if spec.delta is not None:
                dvals = spec.delta(times) if callable(spec.delta) else np.full(m, float(spec.delta))
                mat[np.arange(m), np.arange(m)] += np.asarray(dvals, dtype=float) / dt
        else:
            mat = np.zeros((m * n, m * n))
            for i, ti in enumerate(times):
                for j, tj in enumerate(times):
                    if spec.regular is not None:
                        mat[i * n : (i + 1) * n, j * n : (j + 1) * n] = _as_matrix(
                            spec.regular(ti, tj), n
                        )
            if spec.delta is not None:
                for i, ti in enumerate(times):
                    dval = spec.delta(ti) if callable(spec.delta) else spec.delta
                    mat[i * n : (i + 1) * n, i * n : (i + 1) * n] += _as_matrix(dval, n) / dt
        mat = 0.5 * (mat + mat.T)
        km = KernelMatrix(
            grid=grid, n=n, half_bandwidth=None, source_spec=spec, periodic=periodic, _dense=mat
        )
    else:
        raise DomainError(f"cannot discretize kernel spec of type {type(spec).__name__}")

    if check:
        try:
            _cholesky(km)
        except (np.linalg.LinAlgError, sla.LinAlgError):
            raise NotPositiveDefiniteError(
                "discretized kernel is not positive definite",
                min_eigenvalue=smallest_eigenvalue(km),
            ) from None
    return km


def _cholesky(km: KernelMatrix):
    if km.is_banded:
        return sla.cholesky_banded(km.bands(), lower=True)
    return np.linalg.cholesky(km.dense())


def smallest_eigenvalue(km: KernelMatrix) -> float:
    if km.is_banded:
        vals = sla.eig_banded(
            km.bands(), lower=True, eigvals_only=True, select="i", select_range=(0, 0)
        )
        return float(vals[0])
    return float(np.linalg.eigvalsh(km.dense())[0])


# ---------------------------------------------------------------------------
# window precision and correlation matrices
# ---------------------------------------------------------------------------


def _estimate_tau(spec: KernelSpec, grid: TimeGrid) -> float:
    if not isinstance(spec, LocalInTimeKernel) or spec.order == 0:
        return 0.0
    times = grid.times
    top = spec.h_values(times, spec.order)
    bottom = spec.h_values(times, 0)
    norm_top = np.median(np.linalg.norm(top, axis=(1, 2)))
    norm_bottom = np.median(np.linalg.norm(bottom, axis=(1, 2)))
    if norm_bottom <= 0:
        return grid.span
    return float((norm_top / norm_bottom) ** (1.0 / (2 * spec.order)))


def _band_block(bands: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense block ``A[rows][:, cols]`` of a symmetric matrix in lower banded storage."""
    hbw = bands.shape[0] - 1
    r, c = rows[:, None], cols[None, :]
    d = np.abs(r - c)
    return np.where(d <= hbw, bands[np.minimum(d, hbw), np.minimum(r, c)], 0.0)


def _factor_banded(bands: np.ndarray) -> np.ndarray:
    try:
        return sla.cholesky_banded(bands, lower=True)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise SingularKernelError(f"kernel factorization failed: {exc}") from None


def _pad_schur(
    pad_bands: np.ndarray, coupling: np.ndarray, pad_cols: np.ndarray, edge_cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate one pad block ``A`` coupled to the window through ``B``.

    ``coupling`` is the dense block of ``B`` over the pad indices ``pad_cols``
    that touch the window.  Returns the window corner correction
    ``B A^{-1} B^T`` and, for each pad edge index ``e`` in ``edge_cols``, the
    vector ``B A^{-1} e``, whose window solve is minus the edge row of the
    padded inverse.  Costs one banded factorization and ``hb + n`` solves.
    """
    cols = np.concatenate([pad_cols, edge_cols])
    rhs = np.zeros((pad_bands.shape[1], len(cols)))
    rhs[cols, np.arange(len(cols))] = 1.0
    x = sla.cho_solve_banded((_factor_banded(pad_bands), True), rhs, overwrite_b=True)
    bx = coupling @ x[pad_cols]
    k = len(pad_cols)
    return bx[:, :k] @ coupling.T, bx[:, k:]


def _subtract_corner(bands: np.ndarray, corner: np.ndarray, offset: int) -> None:
    ii, jj = np.tril_indices(len(corner))
    bands[ii - jj, offset + jj] -= corner[ii, jj]


@dataclass
class WindowPrecision:
    """Marginal precision of the boundary-closed kernel on the window grid.

    ``bands`` holds the window precision ``S`` in lower banded storage over
    the kept flattened indices (kernel-value units), ``factor`` its lower
    Cholesky factor, so that ``G = S^{-1} / dt^2``; the ``dropped`` leading
    indices are clamped to zero by the quench.  ``S`` is the Schur complement
    of the padded kernel onto the window: banded with the kernel's
    half-bandwidth, differing from the unpadded window kernel only in its
    first and last ``hb`` rows.  A dense kernel keeps its dense Cholesky
    factor instead (``bands`` is ``None``).
    """

    grid: TimeGrid
    n: int
    dropped: int
    bands: np.ndarray | None
    factor: np.ndarray
    meta: dict

    @property
    def size(self) -> int:
        return self.grid.n_points * self.n

    @property
    def kept(self) -> int:
        return self.size - self.dropped

    @property
    def is_banded(self) -> bool:
        return self.bands is not None

    def _lower_solve(self, b: np.ndarray, trans: str) -> np.ndarray:
        """``L^{-1} b`` (``trans="N"``) or ``L^{-T} b`` (``"T"``); may overwrite ``b``."""
        if self.is_banded:
            x, info = lapack.dtbtrs(self.factor, b, uplo="L", trans=trans, overwrite_b=1)
            if info:
                raise SingularKernelError(f"banded triangular solve failed (info {info})")
            return x
        return sla.solve_triangular(self.factor, b, lower=True, trans=trans, overwrite_b=True)

    def quadratic_form(self, v: np.ndarray) -> float:
        """``v^T G v`` for a flattened window vector, from one triangular solve."""
        y = self._lower_solve(np.array(v[self.dropped :, None], dtype=float, order="F"), "N")
        return float(np.sum(y * y)) / self.grid.dt**2

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``G @ rhs`` for flattened window vectors stacked as columns."""
        rhs = np.asarray(rhs, dtype=float)
        out = np.zeros(rhs.shape)
        out[self.dropped :] = self._cho_solve(rhs[self.dropped :]) / self.grid.dt**2
        return out

    def _cho_solve(self, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
        if self.is_banded:
            return sla.cho_solve_banded((self.factor, True), b, overwrite_b=overwrite)
        return sla.cho_solve((self.factor, True), b, overwrite_b=overwrite)

    def dense(self) -> np.ndarray:
        """The full correlation matrix ``G``; O(size^2 * bandwidth) when banded."""
        g = self._cho_solve(np.eye(self.kept), overwrite=True)
        g = (g + g.T) * (0.5 / self.grid.dt**2)
        if not self.dropped:
            return g
        out = np.zeros((self.size, self.size))
        out[self.dropped :, self.dropped :] = g
        return out

    def color(self, z: np.ndarray) -> np.ndarray:
        """Draws from ``N(0, G)``, one per column of the standard normals ``z``.

        ``z`` has ``kept`` rows; ``x = L^{-T} z / dt`` has covariance
        ``S^{-1} / dt^2 = G``.  Clamped rows come out exactly zero.
        """
        x = self._lower_solve(z, "T")
        x /= self.grid.dt
        if not self.dropped:
            return x
        out = np.zeros((self.size, z.shape[1]))
        out[self.dropped :] = x
        return out


def _edge_ratio(prec: WindowPrecision, edge_rhs: np.ndarray, probes: int = 16) -> float:
    """Upper bound on max |G_padded[pad edge, window]| / max |G_window|.

    The numerator is exact: each edge row is one window solve.  For a PSD
    matrix the largest entry sits on the diagonal, and the diagonal entries
    at ``probes`` evenly spaced indices bound it from below.
    """
    kept, ne = prec.kept, edge_rhs.shape[1]
    idx = np.unique(np.linspace(0, kept - 1, probes).round().astype(int))
    rhs = np.zeros((kept, ne + len(idx)))
    rhs[:, :ne] = edge_rhs[prec.dropped :]
    rhs[idx, ne + np.arange(len(idx))] = 1.0
    x = prec._cho_solve(rhs, overwrite=True)
    diag_max = x[idx, ne + np.arange(len(idx))].max()
    return float(np.abs(x[:, :ne]).max() / diag_max) if diag_max > 0 else 0.0


def window_precision(
    km: KernelMatrix,
    bc: BoundaryCondition = BoundaryCondition.DECAY_AT_INFINITY,
    pad_factor: float | None = None,
    edge_tol: float = 1e-6,
    pad_steps: int | None = None,
) -> WindowPrecision:
    """Close the kernel with ``bc`` and eliminate the pads onto the window.

    Decay at infinity pads both sides; the quench clamp removes the field at
    the window start (Dirichlet) and pads only the late-time side.  The pad
    is ``pad_factor`` correlation times, by default ``2 ln(1/edge_tol)`` of
    them; each pad block is factored on its own, so the pad costs
    O(pad * hb^2).  The edge ratio is checked once and a
    :class:`PaddingWarning` raised when it exceeds ``edge_tol``.  Unpadded
    solves (dense kernels, order-0 kernels, ``pad_steps=0``, no source spec)
    record ``edge_ratio = None`` and say why in ``meta["padding"]``.
    """
    if km.periodic:
        raise DomainError("boundary conditions do not apply to periodic test grids")
    grid, n, size = km.grid, km.n, km.size
    dropped = n if bc is BoundaryCondition.DIRICHLET_AT_QUENCH else 0
    factor = 2.0 * math.log(1.0 / edge_tol) if pad_factor is None else float(pad_factor)
    meta: dict = {
        "bc": bc.value,
        "pad_factor": factor,
        "pad_steps_left": 0,
        "pad_steps_right": 0,
        "edge_ratio": None,
        "edge_tol": edge_tol,
    }
    if not km.is_banded:
        if pad_steps:
            raise DomainError("padding applies to banded (local-in-time) kernels only")
        meta["padding"] = "none: dense kernel, natural boundary closure"
        try:
            chol = np.linalg.cholesky(km.dense()[dropped:, dropped:])
        except np.linalg.LinAlgError as exc:
            raise SingularKernelError(f"kernel factorization failed: {exc}") from None
        return WindowPrecision(grid, n, dropped, None, chol, meta)

    spec = km.source_spec
    if spec is None:
        pad, note = 0, "none: no source spec, natural boundary closure"
    elif pad_steps is not None:
        pad, note = int(pad_steps), "none: pad_steps=0, natural boundary closure"
    else:
        tau = _estimate_tau(spec, grid)
        pad = int(math.ceil(factor * tau / grid.dt)) if tau > 0 else 0
        note = "none: an order-0 kernel couples no grid points, so no pad is needed"
    left = pad if bc is BoundaryCondition.DECAY_AT_INFINITY else 0
    right = pad
    meta.update(pad_steps_left=left, pad_steps_right=right)
    if pad:
        pb = discretize_kernel(spec, grid.extended(left, right), check=False).bands()
    else:
        pb = km.bands()
    lo, hi = left * n, left * n + size
    hbw = pb.shape[0] - 1
    s = pb[:, lo:hi].copy()
    for d in range(1, hbw + 1):
        s[d, size - d :] = 0.0  # these entries couple the last rows to the right pad
    kw = min(hbw, size)
    edge_rhs = np.zeros((size, 2 * n if left else n))
    if left:
        cols = np.arange(max(0, lo - hbw), lo)
        corner, edge = _pad_schur(
            pb[:, :lo], _band_block(pb, np.arange(lo, lo + kw), cols), cols, np.arange(n)
        )
        _subtract_corner(s, corner, 0)
        edge_rhs[:kw, n:] = edge
    if right:
        rpad = pb.shape[1] - hi
        cols = np.arange(min(hbw, rpad))
        corner, edge = _pad_schur(
            pb[:, hi:],
            _band_block(pb, np.arange(hi - kw, hi), hi + cols),
            cols,
            np.arange(rpad - n, rpad),
        )
        _subtract_corner(s, corner, size - kw)
        edge_rhs[size - kw :, :n] = edge
    bands = s[:, dropped:]
    chol = np.asfortranarray(_factor_banded(bands))  # LAPACK layout, no copy per solve
    prec = WindowPrecision(grid, n, dropped, bands, chol, meta)
    if not pad:
        meta["padding"] = note
        return prec
    ratio = _edge_ratio(prec, edge_rhs)
    meta["edge_ratio"] = ratio
    if ratio <= edge_tol:
        meta["padding"] = f"padded {pad} steps, edge ratio within edge_tol"
    else:
        meta["padding"] = f"insufficient: edge ratio {ratio:.3e} exceeds edge_tol {edge_tol:.1e}"
        warnings.warn(
            f"pad of {pad} steps leaves edge ratio {ratio:.3e} > edge_tol {edge_tol:.1e}; "
            "raise pad_factor or pad_steps",
            PaddingWarning,
            stacklevel=3,
        )
    return prec


class CorrelationMatrix:
    """Discretized correlation function ``G[i, j] ~ <B(t_i) B(t_j)>``.

    Built by :func:`kernel_to_correlation` it carries the window precision,
    answers quadratic forms with one banded solve, and builds the dense
    ``mat`` only on first access (then caches it).  Built from a matrix, as
    :func:`reconstruct_correlation` does, it is dense from the start.
    """

    def __init__(
        self,
        grid: TimeGrid,
        n: int,
        mat: np.ndarray | None = None,
        bc: BoundaryCondition = BoundaryCondition.DECAY_AT_INFINITY,
        meta: dict | None = None,
        precision: WindowPrecision | None = None,
    ):
        if mat is None and precision is None:
            raise DomainError("a correlation matrix needs a dense matrix or a window precision")
        self.grid = grid
        self.n = n
        self.bc = bc
        self.meta = {} if meta is None else meta
        self.precision = precision
        self._mat = None if mat is None else np.asarray(mat, dtype=float)

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            self._mat = self.precision.dense()
        return self._mat

    @property
    def is_materialized(self) -> bool:
        return self._mat is not None

    @property
    def size(self) -> int:
        return self.grid.n_points * self.n

    def quadratic_form(self, v: np.ndarray) -> float:
        """``v^T G v``; a triangular solve when a precision is attached."""
        if self.precision is not None:
            return self.precision.quadratic_form(v)
        return float(v @ self._mat @ v)

    def block(self, i: int, j: int) -> np.ndarray:
        n = self.n
        return self.mat[i * n : (i + 1) * n, j * n : (j + 1) * n]


def kernel_to_correlation(
    km: KernelMatrix,
    bc: BoundaryCondition = BoundaryCondition.DECAY_AT_INFINITY,
    pad_factor: float | None = None,
    edge_tol: float = 1e-6,
    pad_steps: int | None = None,
) -> CorrelationMatrix:
    """The correlation ``G = K^{-1}/dt^2`` of the boundary-closed kernel, lazily.

    Builds the :class:`WindowPrecision` once (see :func:`window_precision` for
    the padding policy and ``meta``); the dense matrix waits for ``.mat``.
    """
    prec = window_precision(km, bc, pad_factor, edge_tol, pad_steps)
    return CorrelationMatrix(grid=km.grid, n=km.n, bc=bc, meta=dict(prec.meta), precision=prec)


def correlation_at(corr: CorrelationMatrix, t: float, t_prime: float) -> np.ndarray | float:
    """Bilinear interpolation of the correlation block at ``(t, t')``."""
    grid = corr.grid
    tol = 1e-9 * max(1.0, grid.span)
    for x in (t, t_prime):
        if x < grid.t_start - tol or x > grid.t_end + tol:
            raise DomainError(f"time {x} outside grid [{grid.t_start}, {grid.t_end}]")

    def locate(x: float) -> tuple[int, float]:
        pos = (x - grid.t_start) / grid.dt
        i = int(np.clip(math.floor(pos), 0, grid.n_points - 2))
        return i, pos - i

    i, u = locate(t)
    j, v = locate(t_prime)
    b = corr.block
    val = (
        (1 - u) * (1 - v) * b(i, j)
        + u * (1 - v) * b(i + 1, j)
        + (1 - u) * v * b(i, j + 1)
        + u * v * b(i + 1, j + 1)
    )
    return float(val[0, 0]) if corr.n == 1 else val
