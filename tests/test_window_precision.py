"""The banded window-precision backend against the dense routes it replaces."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from qdephase import (
    BoundaryCondition,
    DenseKernel,
    PaddingWarning,
    StationaryPolynomialKernel,
    TimeGrid,
    attenuation_stationary,
    attenuation_time_basis,
    coherence_curve,
    control_custom,
    control_cw,
    control_free,
    control_pulse_train,
    discretize_kernel,
    harmonic_well,
    kernel_to_correlation,
    ornstein_uhlenbeck,
    precision_factor,
    quartic_kernel,
    white_noise,
)
from qdephase.cli import main
from qdephase.dephasing import _control_transform
from qdephase.core import LocalInTimeKernel

DECAY = BoundaryCondition.DECAY_AT_INFINITY
QUENCH = BoundaryCondition.DIRICHLET_AT_QUENCH


def _two_channel():
    return StationaryPolynomialKernel(
        coeffs_h=(np.eye(2), np.eye(2)),
        coeffs_a=(np.array([[0.0, 0.4], [-0.4, 0.0]]),),
        n=2,
    )


# (label, spec, boundary, grid, relative bound against the dense padded inverse)
CASES = [
    ("ou", ornstein_uhlenbeck(1.0, 1.0), DECAY, TimeGrid(0.0, 8.0, 201), 1e-10),
    ("quenched_ou", ornstein_uhlenbeck(1.0, 1.0), QUENCH, TimeGrid(0.0, 8.0, 201), 1e-10),
    ("quartic", quartic_kernel(1.0, 1.0, 0.3), DECAY, TimeGrid(0.0, 8.0, 201), 1e-9),
    ("harmonic", harmonic_well(0.5, 1.0, 1.0), DECAY, TimeGrid(-4.0, 4.0, 201), 1e-10),
    ("two_channel", _two_channel(), DECAY, TimeGrid(0.0, 6.0, 121), 1e-10),
]
IDS = [c[0] for c in CASES]


def _dense_padded_inverse(spec, grid, bc, left, right):
    """Window block of the explicitly inverted padded kernel, in G units."""
    pk = discretize_kernel(spec, grid.extended(left, right), check=False).dense()
    n = spec.n
    drop = n if bc is QUENCH else 0
    inv = np.zeros_like(pk)
    inv[drop:, drop:] = np.linalg.inv(pk[drop:, drop:])
    lo = left * n
    win = slice(lo, lo + grid.n_points * n)
    return inv, inv[win, win] / grid.dt**2


def _controls(grid, n):
    t0, dur = grid.t_start + 0.1 * grid.span, 0.8 * grid.span
    ctrls = [
        control_free(grid, 1.0, t0, dur),
        control_cw(grid, 1.0, 1.3, t0, dur),
        control_pulse_train(grid, 1.0, t0, dur, [t0 + dur / 3, t0 + 2 * dur / 3]),
    ]
    if n == 1:
        return ctrls
    w = np.array([1.0, -0.6])
    return [control_custom(grid, c.values[:, None] * w, averaged=c.average_values[:, None] * w)
            for c in ctrls]


@pytest.mark.parametrize("label,spec,bc,grid,bound", CASES, ids=IDS)
def test_window_g_matches_dense_padded_inverse(label, spec, bc, grid, bound):
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    _, ref = _dense_padded_inverse(
        spec, grid, bc, corr.meta["pad_steps_left"], corr.meta["pad_steps_right"]
    )
    assert np.abs(corr.mat - ref).max() <= bound * np.abs(ref).max()


@pytest.mark.parametrize("label,spec,bc,grid,bound", CASES, ids=IDS)
def test_banded_chi_matches_dense_quadratic_form(label, spec, bc, grid, bound):
    corr = kernel_to_correlation(discretize_kernel(spec, grid), bc)
    chis = [attenuation_time_basis(corr, c).chi for c in _controls(grid, spec.n)]
    assert not corr.is_materialized
    for c, chi in zip(_controls(grid, spec.n), chis):
        flat = c.weighted_values.reshape(-1)
        dense = 0.5 * float(flat @ corr.mat @ flat)
        assert chi == pytest.approx(dense, rel=bound)


@pytest.mark.parametrize("label,spec,bc,grid,bound", CASES[:3], ids=IDS[:3])
def test_precision_factor_targets_corr_mat(label, spec, bc, grid, bound):
    # both samplers target one covariance: the factor's implied covariance is G
    km = discretize_kernel(spec, grid)
    corr = kernel_to_correlation(km, bc)
    pf = precision_factor(km, bc)
    cols = pf.precision.color(np.asfortranarray(np.eye(pf.precision.kept)))
    cov = cols @ cols.T
    assert np.abs(cov - corr.mat).max() <= 1e-10 * np.abs(corr.mat).max()


def test_quench_clamps_first_row_exactly():
    grid = TimeGrid(0.0, 8.0, 201)
    km = discretize_kernel(ornstein_uhlenbeck(1.0, 1.0), grid)
    corr = kernel_to_correlation(km, QUENCH)
    assert np.all(corr.mat[0] == 0.0) and np.all(corr.mat[:, 0] == 0.0)
    draws = precision_factor(km, QUENCH).draw(16, np.random.default_rng(3))
    assert np.all(draws[:, 0] == 0.0)


def test_coherence_curve_never_materializes_g():
    grid = TimeGrid(0.0, 16.0, 401)
    corr = kernel_to_correlation(discretize_kernel(quartic_kernel(1.0, 1.0), grid))
    pts = coherence_curve(corr, lambda T: control_free(grid, 1.0, 1.0, T), [2.0, 6.0, 12.0])
    assert not corr.is_materialized
    assert all(0.0 < p.coherence < 1.0 for p in pts)


def test_edge_ratio_bounds_dense_ratio_and_warns():
    grid = TimeGrid(0.0, 6.0, 151)
    spec = ornstein_uhlenbeck(1.0, 1.0)
    with pytest.warns(PaddingWarning):
        corr = kernel_to_correlation(discretize_kernel(spec, grid), pad_steps=60)
    assert corr.meta["padding"].startswith("insufficient")
    inv, gwin = _dense_padded_inverse(spec, grid, DECAY, 60, 60)
    size = inv.shape[0]
    lo = 60
    edge = np.abs(inv[[0, size - 1], lo : lo + grid.n_points]).max() / grid.dt**2
    dense_ratio = edge / np.abs(gwin).max()
    assert dense_ratio > corr.meta["edge_tol"]
    assert dense_ratio * (1 - 1e-9) <= corr.meta["edge_ratio"] <= 1.5 * dense_ratio


def test_default_pad_meets_edge_tol():
    grid = TimeGrid(0.0, 6.0, 151)
    for spec in (ornstein_uhlenbeck(1.0, 1.0), quartic_kernel(1.0, 1.0), _two_channel()):
        corr = kernel_to_correlation(discretize_kernel(spec, grid))
        assert corr.meta["edge_ratio"] <= corr.meta["edge_tol"]
        assert corr.meta["padding"].startswith("padded")


def test_unpadded_solves_record_edge_ratio_not_applicable():
    grid = TimeGrid(0.0, 4.0, 81)
    dense = DenseKernel(regular=lambda t, s: 0.3 * np.exp(-((t - s) ** 2)), delta=1.0)
    for km, kwargs in (
        (discretize_kernel(white_noise(2.0), grid), {}),
        (discretize_kernel(dense, grid), {}),
        (discretize_kernel(ornstein_uhlenbeck(), grid), {"pad_steps": 0}),
    ):
        corr = kernel_to_correlation(km, **kwargs)
        assert corr.meta["edge_ratio"] is None
        assert corr.meta["padding"].startswith("none")


def test_correlate_csv_carries_padding_note(tmp_path):
    cfg = tmp_path / "white.json"
    cfg.write_text(
        '{"schema": 1, "kernel": {"variant": "white", "d0": 1.0},'
        ' "grid": {"t_start": 0.0, "t_end": 1.0, "n_points": 11}}'
    )
    assert main(["correlate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header = (tmp_path / "correlation.csv").read_text()
    assert "# padding: none:" in header
    assert "# pad_edge_ratio: n/a" in header


def _difference(m, dt, k, periodic):
    coeffs = [(-1.0) ** (k - j) * math.comb(k, j) / dt**k for j in range(k + 1)]
    if periodic:
        return sum(c * sp.eye(m, k=j) + c * sp.eye(m, k=j - m) for j, c in enumerate(coeffs))
    return sp.diags(coeffs, list(range(k + 1)), shape=(m - k, m))


def _sparse_product_assembly(spec, grid, periodic):
    """Reference: sum_k D_k^T W_k D_k plus the symmetrized cross terms, as sparse
    products with a ``block_diag`` weight per stencil row."""
    m, n, dt, t = grid.n_points, spec.n, grid.dt, grid.times

    def weight(blocks):
        return sp.block_diag([b * dt for b in blocks])

    def chan(op):
        return sp.kron(op, sp.identity(n))

    form = sp.csr_matrix((m * n, m * n))
    for k in range(spec.order + 1):
        dk = _difference(m, dt, k, periodic)
        mid = t if periodic else t[: m - k] + k * dt / 2.0
        form = form + chan(dk).T @ weight(spec.h_values(mid, k)) @ chan(dk)
    for k in range(1, spec.order + 1):
        dk, dk1 = _difference(m, dt, k, periodic), _difference(m, dt, k - 1, periodic)
        rows = dk1.shape[0]
        if periodic:
            avg = 0.5 * (sp.eye(rows) + sp.eye(rows, k=1) + sp.eye(rows, k=1 - rows))
        else:
            avg = sp.diags([0.5, 0.5], [0, 1], shape=(rows - 1, rows))
        mid = t if periodic else t[: m - k] + k * dt / 2.0
        cross = chan(dk).T @ weight(spec.a_values(mid, k)) @ chan(avg @ dk1)
        form = form + 0.5 * (cross + cross.T)
    return form.toarray() / dt**2


ASSEMBLY_SPECS = [
    ornstein_uhlenbeck(1.0, 2.0),
    quartic_kernel(1.0, 1.0, 0.3),
    harmonic_well(0.5, 1.0, 1.0),
    _two_channel(),
    LocalInTimeKernel(
        coeffs_h=(np.eye(2), lambda t: 1.0 + 0.1 * t, 0.5 * np.eye(2)),
        coeffs_a=(np.array([[0.0, 0.3], [-0.3, 0.0]]), np.array([[0.0, 0.2], [-0.2, 0.0]])),
        n=2,
    ),
]


@pytest.mark.parametrize("periodic", [False, True], ids=["natural", "periodic"])
@pytest.mark.parametrize(
    "spec", ASSEMBLY_SPECS, ids=["ou", "quartic", "harmonic", "n2", "n2_order2"]
)
def test_band_assembly_matches_sparse_products(spec, periodic):
    grid = TimeGrid(-2.0, 3.0, 41)
    ref = _sparse_product_assembly(spec, grid, periodic)
    km = discretize_kernel(spec, grid, periodic=periodic, check=False)
    assert np.abs(km.dense() - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("spec", [quartic_kernel(1.0, 1.0, 0.3), _two_channel()], ids=["n1", "n2"])
def test_stationary_matches_per_frequency_loop(spec):
    grid = TimeGrid(0.0, 8.0, 161)
    env = np.exp(-((grid.times - 4.0) ** 2) / 2.0)
    v = np.cos(1.1 * grid.times) * env
    ctrl = control_custom(grid, v if spec.n == 1 else v[:, None] * np.array([1.0, 0.7]))
    omegas, fvals = _control_transform(ctrl, 8)
    svals = np.array([np.linalg.inv(spec.frequency_matrix(om)) for om in omegas])
    integrand = np.einsum("kc,kcd,kd->k", fvals.conj(), svals, fvals).real
    ref = 0.5 * float(np.sum(2 * np.pi / (len(omegas) * grid.dt) * integrand))
    assert attenuation_stationary(spec, ctrl).chi == pytest.approx(ref, rel=1e-12)
