"""Generalized Markov propagator for local-in-time noise.

The state that makes an order-N process Markovian is the field together with
its first N-1 derivatives.  On the grid those derivatives are taken as k-fold
forward differences, so the state at index i spans exactly the ``N``
consecutive field values that screen past from future for a banded
quadratic form: Chapman-Kolmogorov composition then holds to solver precision,
while conditioning on fewer components (e.g. the bare field for N = 2)
exposes the memory stored in the derivatives.

Propagators are conditional Gaussians obtained by conditioning the
discretized covariance; the variational route (classical field + classical
action) is kept alongside and cross-checked in tests, the two being
equivalent for Gaussian weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import FieldPath, LocalInTimeKernel, TimeGrid
from .errors import DomainError, IllConditionedError, SingularKernelError
from .gridops import _estimate_tau, discretize_kernel, window_precision

__all__ = [
    "GeneralizedState",
    "PropagatorGaussian",
    "CKReport",
    "classical_field",
    "classical_action",
    "propagator",
    "chapman_kolmogorov_check",
]

BOUNDARIES = ("fixed-both-ends", "fixed-start-decay", "fixed-end-decay")


@dataclass(frozen=True)
class GeneralizedState:
    """Field value and its first N-1 derivatives at one instant."""

    values: np.ndarray  # shape (N,) for one channel, else (N, n)

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise DomainError("generalized state must be finite")
        object.__setattr__(self, "values", v)

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    @classmethod
    def zero(cls, order: int, n: int = 1) -> "GeneralizedState":
        shape = (order,) if n == 1 else (order, n)
        return cls(np.zeros(shape))


@dataclass(frozen=True)
class PropagatorGaussian:
    """Conditional Gaussian of the final generalized state given the initial one."""

    t0: float
    tf: float
    order: int
    n: int
    mean_map: np.ndarray  # (N n, N n)
    covariance: np.ndarray  # (N n, N n), symmetric PSD
    initial: GeneralizedState

    @property
    def mean(self) -> np.ndarray:
        return self.mean_map @ self.initial.flat()

    def compose(self, later: "PropagatorGaussian") -> "PropagatorGaussian":
        """Marginalize over the intermediate state: this segment then ``later``."""
        if abs(later.t0 - self.tf) > 1e-9 * max(1.0, abs(self.tf)):
            raise DomainError("propagators do not abut in time")
        a = later.mean_map @ self.mean_map
        c = later.covariance + later.mean_map @ self.covariance @ later.mean_map.T
        return PropagatorGaussian(
            t0=self.t0,
            tf=later.tf,
            order=self.order,
            n=self.n,
            mean_map=a,
            covariance=0.5 * (c + c.T),
            initial=self.initial,
        )


def _state_stencil(size: int, n: int, idx: int, k: int, dt: float) -> np.ndarray:
    """Rows extracting the k-th forward-difference derivative at grid index idx."""
    rows = np.zeros((n, size))
    for j in range(k + 1):
        coef = (-1.0) ** (k - j) * math.comb(k, j) / dt**k
        for c in range(n):
            rows[c, (idx + j) * n + c] = coef
    return rows


def _state_rows(size: int, n: int, idx: int, order: int, dt: float) -> np.ndarray:
    return np.vstack([_state_stencil(size, n, idx, k, dt) for k in range(order)])


def _backward_state_rows(size: int, n: int, idx: int, order: int, dt: float) -> np.ndarray:
    """Backward-difference variant for constraints at a right boundary."""
    rows = []
    for k in range(order):
        block = np.zeros((n, size))
        for j in range(k + 1):
            coef = (-1.0) ** (k - j) * math.comb(k, j) / dt**k
            for c in range(n):
                block[c, (idx - k + j) * n + c] = coef
        rows.append(block)
    return np.vstack(rows)


def _form_matrix(spec: LocalInTimeKernel, grid: TimeGrid) -> sp.csr_matrix:
    """The quadratic-form matrix ``dt^2 K`` as assembled, in sparse form."""
    return discretize_kernel(spec, grid, check=False).sparse() * grid.dt**2


def classical_field(
    spec: LocalInTimeKernel,
    boundary: str,
    state_start: GeneralizedState | None,
    state_end: GeneralizedState | None,
    t0: float,
    tf: float,
    n_points: int = 801,
    pad_factor: float = 6.0,
) -> FieldPath:
    """Action-minimizing field path for the given boundary data.

    The discrete minimizer of the quadratic form under linear state
    constraints is computed from the KKT system; decay boundaries are
    realized on a padded domain with the generalized state clamped to zero
    at the far end.
    """
    if boundary not in BOUNDARIES:
        raise DomainError(f"boundary must be one of {BOUNDARIES}")
    if tf <= t0:
        raise DomainError("tf must exceed t0")
    order, n = spec.order, spec.n
    window = TimeGrid(t0, tf, n_points)
    dt = window.dt
    pad = int(math.ceil(pad_factor * _estimate_tau(spec, window) / dt))
    need_left = boundary == "fixed-end-decay"
    need_right = boundary == "fixed-start-decay"
    grid = TimeGrid(
        t0 - (pad if need_left else 0) * dt,
        tf + (pad if need_right else 0) * dt,
        n_points + (pad if need_left else 0) + (pad if need_right else 0),
    )
    size = grid.n_points * n
    form = _form_matrix(spec, grid)
    i0 = grid.index_of(t0)
    i1 = grid.index_of(tf)
    constraints: list[np.ndarray] = []
    rhs: list[np.ndarray] = []
    if boundary in ("fixed-both-ends", "fixed-start-decay"):
        if state_start is None or state_start.order != order:
            raise DomainError(f"start state must carry {order} derivative orders")
        constraints.append(_state_rows(size, n, i0, order, dt))
        rhs.append(state_start.flat())
    if boundary in ("fixed-both-ends", "fixed-end-decay"):
        if state_end is None or state_end.order != order:
            raise DomainError(f"end state must carry {order} derivative orders")
        constraints.append(_backward_state_rows(size, n, i1, order, dt))
        rhs.append(state_end.flat())
    if need_right:
        constraints.append(_backward_state_rows(size, n, grid.n_points - 1, order, dt))
        rhs.append(np.zeros(order * n))
    if need_left:
        constraints.append(_state_rows(size, n, 0, order, dt))
        rhs.append(np.zeros(order * n))
    cmat = sp.csr_matrix(np.vstack(constraints))
    d = np.concatenate(rhs)
    ncon = cmat.shape[0]
    kkt = sp.bmat([[form, cmat.T], [cmat, None]], format="csc")
    sol = spla.spsolve(kkt, np.concatenate([np.zeros(size), d]))
    if not np.all(np.isfinite(sol)):
        raise SingularKernelError("collocation system is singular")
    x = sol[:size]
    vals = x[i0 * n : (i1 + 1) * n]
    return FieldPath(grid=window, values=vals if n == 1 else vals.reshape(-1, n))


def classical_action(
    spec: LocalInTimeKernel, path: FieldPath, t0: float, tf: float
) -> float:
    """Quadrature of the local action of ``path`` restricted to [t0, tf].

    Derivative terms use the same forward differences as the assembly, so the
    value is exactly the quadratic form whose minimizer ``classical_field``
    returns: ``sum_k int B^(k) D_k^H B^(k) + cross terms`` (no global 1/2).
    """
    grid = path.grid
    i0, i1 = grid.index_of(t0), grid.index_of(tf)
    if i1 - i0 < spec.order + 1:
        raise DomainError("window too short for the kernel order")
    sub = TimeGrid(grid.times[i0], grid.times[i1], i1 - i0 + 1)
    form = _form_matrix(spec, sub)
    v = path.values[i0 : i1 + 1]
    x = v if v.ndim == 1 else v.reshape(-1)
    return float(x @ (form @ x))


def _joint_state_covariance(
    spec: LocalInTimeKernel,
    times: Sequence[float],
    t_lo: float,
    t_hi: float,
    resolution: int,
    pad_factor: float | None,
    state_order: int,
) -> list[list[np.ndarray]]:
    """Cross-covariance blocks of the generalized states at the given times.

    The window runs ``state_order - 1`` steps past ``t_hi`` so the forward
    stencil of the last state stays inside it; decay at infinity beyond.
    """
    n = spec.n
    dt = (t_hi - t_lo) / resolution
    grid = TimeGrid(t_lo, t_hi + (state_order - 1) * dt, resolution + state_order)
    prec = window_precision(discretize_kernel(spec, grid, check=False), pad_factor=pad_factor)
    size = grid.n_points * n
    stencils = [
        _state_rows(size, n, grid.index_of(t), state_order, grid.dt) for t in times
    ]
    e_all = np.vstack(stencils)  # (len(times) * state_order * n, size)
    cov = e_all @ prec.solve(e_all.T)  # joint covariance of all requested states
    b = state_order * n
    nblocks = len(times)
    return [
        [cov[i * b : (i + 1) * b, j * b : (j + 1) * b] for j in range(nblocks)]
        for i in range(nblocks)
    ]


def _condition(
    saa: np.ndarray, sba: np.ndarray, sbb: np.ndarray, cond_limit: float = 1e12
) -> tuple[np.ndarray, np.ndarray]:
    cond = np.linalg.cond(saa)
    if not np.isfinite(cond) or cond > cond_limit:
        raise IllConditionedError(
            f"conditioning block has condition number {cond:.3e}", condition_number=float(cond)
        )
    a = sba @ np.linalg.inv(saa)
    c = sbb - a @ sba.T
    c = 0.5 * (c + c.T)
    return a, c


def propagator(
    spec: LocalInTimeKernel,
    t0: float,
    tf: float,
    initial: GeneralizedState,
    resolution: int = 400,
    pad_factor: float | None = None,
    state_order: int | None = None,
) -> PropagatorGaussian:
    """Conditional Gaussian of the generalized state at ``tf`` given ``t0``.

    ``state_order`` defaults to the kernel order N (the full generalized
    state); smaller values deliberately condition on partial information,
    which breaks the semigroup property for N > 1.
    """
    if tf <= t0:
        raise DomainError("tf must exceed t0")
    order = spec.order if state_order is None else state_order
    if order < 1:
        raise DomainError("state order must be at least 1")
    if initial.order != order:
        raise DomainError(f"initial state carries {initial.order} orders, expected {order}")
    blocks = _joint_state_covariance(
        spec, [t0, tf], t0, tf, resolution, pad_factor, order
    )
    a, c = _condition(blocks[0][0], blocks[1][0], blocks[1][1])
    return PropagatorGaussian(
        t0=t0, tf=tf, order=order, n=spec.n, mean_map=a, covariance=c, initial=initial
    )


@dataclass(frozen=True)
class CKReport:
    """Composition-vs-direct deviation of the propagator across a midpoint."""

    deviation: float
    deviation_mean_map: float
    deviation_covariance: float
    state_order: int
    times: tuple


def chapman_kolmogorov_check(
    spec: LocalInTimeKernel,
    t0: float,
    t1: float,
    tf: float,
    resolution: int = 400,
    pad_factor: float | None = None,
    state_order: int | None = None,
) -> CKReport:
    """Compare propagating t0 -> t1 -> tf (marginalizing the midpoint state)
    against the direct t0 -> tf propagator.

    All three propagators are conditioned on one shared discretized
    covariance so the deviation isolates the semigroup property itself.
    """
    if not t0 < t1 < tf:
        raise DomainError("need t0 < t1 < tf")
    order = spec.order if state_order is None else state_order
    blocks = _joint_state_covariance(
        spec, [t0, t1, tf], t0, tf, resolution, pad_factor, order
    )
    initial = GeneralizedState.zero(order, spec.n)

    def conditional(i: int, j: int, ta: float, tb: float) -> PropagatorGaussian:
        a, c = _condition(blocks[i][i], blocks[j][i], blocks[j][j])
        return PropagatorGaussian(ta, tb, order, spec.n, a, c, initial)

    comp = conditional(0, 1, t0, t1).compose(conditional(1, 2, t1, tf))
    direct = conditional(0, 2, t0, tf)
    dev_a = float(
        np.abs(comp.mean_map - direct.mean_map).max() / max(1.0, np.abs(direct.mean_map).max())
    )
    dev_c = float(
        np.abs(comp.covariance - direct.covariance).max()
        / max(np.abs(direct.covariance).max(), 1e-300)
    )
    return CKReport(
        deviation=max(dev_a, dev_c),
        deviation_mean_map=dev_a,
        deviation_covariance=dev_c,
        state_order=order,
        times=(t0, t1, tf),
    )
