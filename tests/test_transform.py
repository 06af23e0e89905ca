import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hfourier.distributions as distributions
import hfourier.transform as transform
import hfourier.wigner as wigner
from hfourier.fields import SampledField
from hfourier.freq_space import FreqFunction, LambdaGrid, multi_indices
from hfourier.hermite import hermite_rows
from hfourier.profiles import (heat_profile, profile_exp_floor, profile_gauss,
                               profile_to_freq_function)
from hfourier.transform import (
    SpectralTable,
    _resample_log,
    _rotation_block,
    forward_direct,
    forward_factored,
    inverse_at_point,
    inverse_on_grid,
    multiplier_apply,
    plancherel_norms,
    rep_matrix_coeff,
    spectral_product,
    spectral_product_boundary,
    table_from_csv,
    table_to_csv,
    transpose_transform,
)

EXTENT, POINTS = (6.0, 6.0, 6.0), (33, 33, 33)


def gauss_field(a=1.0, b=1.0):
    return SampledField.from_function(
        lambda y, e, s: np.exp(-a * (y**2 + e**2) - b * s**2), 1, EXTENT, POINTS
    )


def gauss_hat_exact(n, lam, a=1.0, b=1.0):
    """Transform of exp(-a |Y|^2 - b s^2): diagonal, from the generating
    kernel of the Hermite basis (independent oracle)."""
    t = abs(lam)
    rho = (a - t) / (a + t)
    return (
        math.pi**1.5 / math.sqrt(b) * math.exp(-(lam**2) / (4 * b)) * rho**n / (a + t)
    )


@pytest.fixture(scope="module")
def f_unit():
    return gauss_field()


@pytest.fixture(scope="module")
def small_grid():
    return LambdaGrid(0.3, 3.0, 6)


@pytest.fixture(scope="module")
def unit_table(f_unit, small_grid):
    return forward_factored(f_unit, 8, small_grid)


def test_forward_direct_zero():
    z = SampledField.zeros_like(gauss_field())
    assert forward_direct(z, (0,), (0,), 0.7) == 0


def test_forward_direct_gaussian_diagonal(f_unit):
    for n, lam in [(0, 0.5), (1, 0.7), (2, -0.7), (4, 0.35), (0, -1.5)]:
        got = forward_direct(f_unit, (n,), (n,), lam)
        assert got == pytest.approx(gauss_hat_exact(n, lam), abs=5e-10)
    # radial data has no off-diagonal weight
    assert abs(forward_direct(f_unit, (0,), (2,), 0.8)) < 1e-12


def test_forward_direct_anisotropic_widths():
    f = gauss_field(a=0.5, b=1.5)
    for n, lam in [(0, 0.4), (2, 0.9), (1, -1.2)]:
        got = forward_direct(f, (n,), (n,), lam)
        assert got == pytest.approx(gauss_hat_exact(n, lam, a=0.5, b=1.5), abs=1e-8)


def test_conjugation_symmetry_real_field(f_unit):
    for n, m, lam in [((0,), (1,), 0.6), ((2,), (2,), 1.1)]:
        a = forward_direct(f_unit, n, m, lam)
        b = forward_direct(f_unit, n, m, -lam)
        assert b == pytest.approx(np.conj(a), abs=1e-12)


def test_factored_matches_oracle_and_direct(f_unit, small_grid, unit_table):
    for il, lam in enumerate(small_grid.lam):
        for n in range(6):
            want = gauss_hat_exact(n, lam)
            # accuracy floor set by the 33-point sampling of the field
            assert unit_table.values[n, n, il] == pytest.approx(want, abs=3e-7)
    for n, m, lam in [((0,), (1,), small_grid.lam[1]), ((3,), (2,), small_grid.lam[-2])]:
        a = complex(unit_table.as_freq_function()(n, m, lam))
        b = forward_direct(f_unit, n, m, lam)
        assert a == pytest.approx(b, abs=1e-9)


def test_factored_zero_field(small_grid):
    z = SampledField.zeros_like(gauss_field())
    table = forward_factored(z, 4, small_grid)
    assert np.abs(table.values).max() == 0.0


def _product_projection(fld, n_max, grid):
    """The factored forward with the Hermite pair h_n(sqrt|lam| (u + tau)),
    h_m(sqrt|lam| (tau - u)) built on the whole (u, tau) grid: the projection
    as it was before the 45-degree rotation, same nodes and Nyquist cuts."""
    Ly, hy = fld.extents[0], fld.spacings[0]
    eta, h_eta = fld.eta_axis, fld.spacings[1]
    upsample = transform._UPSAMPLE
    fs_up = transform._upsample_axis(transform._fs_many(fld, grid.lam), upsample, axis=0)
    u = -Ly + (hy / upsample) * np.arange(fs_up.shape[0])
    root_pref = math.sqrt(2 * n_max + 1)
    values = np.zeros((n_max + 1, n_max + 1, len(grid.lam)), dtype=complex)
    for il, lam in enumerate(grid.lam):
        slab = fs_up[:, :, il]
        if abs(lam) > 0.98 * math.pi / fld.spacings[2]:
            continue
        al, rl = abs(lam), math.sqrt(abs(lam))
        extent = min((root_pref + 9.0) / rl + Ly, 1.15 * (math.pi / h_eta) / (2.0 * al))
        bandwidth = rl * (2.0 * root_pref + 8.0) + 2.0 * al * abs(eta).max()
        tau, wtau = transform._gl_panels(extent, bandwidth)
        phi = slab @ (np.exp(-2j * lam * np.outer(eta, tau)) * h_eta)
        hp = hermite_rows(n_max, rl * (u[:, None] + tau[None, :])) * al**0.25
        hm = hermite_rows(n_max, rl * (tau[None, :] - u[:, None])) * al**0.25
        values[:, :, il] = np.einsum("nuk,uk,muk->nm", hp, phi * wtau * (hy / upsample), hm)
    return values


def _old_gl_panels(extent, bandwidth, q=12):
    """The tau-rule as it was built before the shared Gauss-Legendre builder."""
    per_unit = max(2.3 * bandwidth / (2.0 * math.pi), 0.15)
    panels = max(2, int(math.ceil(extent * per_unit / q)))
    edges = np.linspace(0.0, extent, panels + 1)
    xi, om = np.polynomial.legendre.leggauss(q)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * om[None, :]).ravel()
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


@pytest.mark.parametrize("extent,bandwidth", [(0.7, 0.1), (3.2, 14.0), (41.5, 93.7)])
def test_tau_panels_are_the_old_rule(extent, bandwidth):
    for got, want in zip(transform._gl_panels(extent, bandwidth),
                         _old_gl_panels(extent, bandwidth)):
        assert np.array_equal(got, want)


def test_rotation_matches_exact_coefficients():
    # C[n, m, k] = sqrt((N-k)! k! / (2^N n! m!)) [t^k] (1+t)^n (1-t)^m, N = n + m
    worst = 0.0
    for N in range(49):
        rot = _rotation_block(N)
        for n in range(max(0, N - 24), min(N, 24) + 1):
            m = N - n
            for k in range(N + 1):
                poly = sum(math.comb(n, i) * math.comb(m, k - i) * (-1) ** (k - i)
                           for i in range(max(0, k - m), min(n, k) + 1))
                scale = Fraction(math.factorial(N - k) * math.factorial(k),
                                 2**N * math.factorial(n) * math.factorial(m))
                worst = max(worst, abs(rot[k, n] - poly * math.sqrt(scale)))
    assert worst < 1e-14


def test_rotation_blocks_orthogonal():
    # every block up to 64, then a stride through the inverse's index range
    for N in [*range(65), *range(80, 600, 37), 599, 600]:
        rot = _rotation_block(N)
        assert np.abs(rot.T @ rot - np.eye(N + 1)).max() < 1e-13, N
    # orthogonal is not enough (expm of (pi/4) G_600 is orthogonal to 1e-12
    # and wrong by 0.1): the identity itself at the top order
    rot, n, k = _rotation_block(600), np.arange(601), np.arange(601)
    for a, c in [(-17.5, 3.25), (8.0, 19.0)]:
        root2 = math.sqrt(2.0)
        ha, hc, hx, hy = hermite_rows(600, np.array([a, c, (a + c) / root2, (a - c) / root2])).T
        assert np.abs(rot.T @ (ha[600 - k] * hc[k]) - hx[n] * hy[600 - n]).max() < 1e-13


_BLOCKS = [_rotation_block(N) for N in range(81)]


@settings(max_examples=40)
@given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
def test_rotation_identity(a, c):
    # h_n((a+c)/sqrt2) h_m((a-c)/sqrt2) = sum_k C[n,m,k] h_{N-k}(a) h_k(c), n, m <= 40
    root2 = math.sqrt(2.0)
    ha, hc, hx, hy = hermite_rows(80, np.array([a, c, (a + c) / root2, (a - c) / root2])).T
    for N, rot in enumerate(_BLOCKS):
        n = np.arange(max(0, N - 40), min(N, 40) + 1)
        k = np.arange(N + 1)
        got = rot[:, n].T @ (ha[N - k] * hc[k])
        assert np.abs(got - hx[n] * hy[N - n]).max() < 1e-13


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_forward_matches_product_projection(kind):
    if kind == "real":
        fld = gauss_field(0.8, 1.2)
    else:
        fld = SampledField.from_function(
            lambda y, e, s: (1 + 0.4 * y - 0.3j * e)
            * np.exp(-(y - 0.5) ** 2 - 0.8 * e**2 - (s - 0.3) ** 2), 1, EXTENT, POINTS)
    grid = LambdaGrid(0.2, 4.0, 3)
    want = _product_projection(fld, 6, grid)
    got = forward_factored(fld, 6, grid).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_forward_hermite_row_calls_do_not_grow_with_lambda(monkeypatch):
    shapes = []

    def spy(n_max, x):
        shapes.append((n_max, np.shape(x)))
        return hermite_rows(n_max, x)

    monkeypatch.setattr(transform, "hermite_rows", spy)
    block = transform._LAM_BLOCK
    for per_sign in (3, block, 2 * block + 1):
        shapes.clear()
        forward_factored(gauss_field(), 6, LambdaGrid(0.3, 3.0, per_sign))
        # real input: the positive branch only; per block of lambdas one call
        # on the (lambda, u) lattice and one on the concatenated tau nodes
        blocks = -(-per_sign // block)
        assert len(shapes) == 2 * blocks
        assert all(n_max == 12 for n_max, _ in shapes)
        lattice = [shape for _, shape in shapes[0::2]]
        assert sum(rows for rows, _ in lattice) == per_sign
        assert {u for _, u in lattice} == {8 * POINTS[0]}
        assert all(len(shape) == 1 for _, shape in shapes[1::2])


def test_forward_tau_rule_does_not_depend_on_the_field(monkeypatch):
    # benchmark config; a cut read from the data would tell these fields
    # apart: the eta-transform of the a = 0.55 Gaussian falls below 1e-10
    # of its peak before the eta-Nyquist frequency, that of a = 0.45 does not
    real_panels = transform._gl_panels
    calls = []

    def spy(extent, bandwidth):
        calls[-1].append((extent, bandwidth))
        return real_panels(extent, bandwidth)

    monkeypatch.setattr(transform, "_gl_panels", spy)
    for a in (0.45, 0.55):
        calls.append([])
        forward_factored(gauss_field(a, 1.0), 16, LambdaGrid(1e-4, 16.0, 32))
    assert len(calls[0]) > 0 and calls[0] == calls[1]


@pytest.mark.parametrize("N", [31, 33])
def test_refinement_matrix_is_the_fft_refinement(N):
    U = transform._refinement(N, transform._UPSAMPLE)
    assert U.shape == (N * transform._UPSAMPLE, N) and U.dtype == np.float64
    assert not U.flags.writeable
    assert transform._refinement(N, transform._UPSAMPLE) is U
    rng = np.random.default_rng(N)
    data = rng.normal(size=(N, 5)) + 1j * rng.normal(size=(N, 5))
    want = transform._upsample_axis(data, transform._UPSAMPLE)
    assert np.abs(U @ data - want).max() <= 1e-15 * np.abs(want).max()


def test_forward_never_builds_the_refined_field():
    # default config: the refined (lambda, 264, 33) field of the 151 resolved
    # lambdas would be 21 MB by itself, twice that with its padded spectrum
    fld = gauss_field()
    tracemalloc.start()
    try:
        forward_factored(fld, 24, LambdaGrid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35e6, peak


def _per_lambda_forward(fld, n_max, grid):
    """The factored forward with one Hermite row pair and one GEMM pair per
    lambda on the 264-point u-lattice: same nodes and Nyquist cuts."""
    lam_all, L = grid.lam, len(grid.lam)
    eta, h_eta = fld.eta_axis, fld.spacings[1]
    Ly, hy = fld.extents[0], fld.spacings[0]
    real_input = fld.is_real()
    lams = lam_all[lam_all > 0] if real_input else lam_all
    upsample = transform._UPSAMPLE
    fs_up = transform._upsample_axis(transform._fs_many(fld, lams), upsample, axis=0)
    hu = hy / upsample
    u = -Ly + hu * np.arange(fs_up.shape[0])
    root_pref = math.sqrt(2 * n_max + 1)
    moments = np.zeros((2 * n_max + 1, 2 * n_max + 1, L), dtype=complex)
    for col, lam in enumerate(lams):
        slab = fs_up[:, :, col]
        if abs(lam) > 0.98 * math.pi / fld.spacings[2]:
            continue
        al, rl = abs(lam), math.sqrt(abs(lam))
        extent = min((root_pref + 9.0) / rl + Ly, 1.15 * (math.pi / h_eta) / (2.0 * al))
        bandwidth = rl * (2.0 * root_pref + 8.0) + 2.0 * al * abs(eta).max()
        tau, wtau = transform._gl_panels(extent, bandwidth)
        phi = slab @ (np.exp(-2j * lam * np.outer(eta, tau)) * h_eta)
        h_tau = hermite_rows(2 * n_max, math.sqrt(2.0) * rl * tau)
        h_u = hermite_rows(2 * n_max, math.sqrt(2.0) * rl * u)
        il = int(np.searchsorted(lam_all, lam))
        moments[:, :, il] = rl * h_tau @ (h_u @ (phi * (wtau * hu))).T
    values = np.zeros((n_max + 1, n_max + 1, L), dtype=complex)
    for N in range(2 * n_max + 1):
        k = np.arange(N + 1)
        n = np.arange(max(0, N - n_max), min(N, n_max) + 1)
        values[n, N - n] = _rotation_block(N)[:, n].T @ moments[N - k, k]
    if real_input:
        pos = np.flatnonzero(lam_all > 0)
        values[:, :, L - 1 - pos] = np.conj(values[:, :, pos])
    return values


def _full_phase_forward(fld, n_max, grid):
    """The stacked forward with cos and sin of -2 lam eta tau evaluated on
    every eta of the axis and the eta-sum taken against the complex phase:
    the sum as it was before it ran by parity in eta."""
    lam_all, L = grid.lam, len(grid.lam)
    eta, h_eta = fld.eta_axis, fld.spacings[1]
    Ly, hy = fld.extents[0], fld.spacings[0]
    real_input = fld.is_real()
    resolved = np.abs(lam_all) <= 0.98 * math.pi / fld.spacings[2]
    lams = lam_all[resolved & (lam_all > 0)] if real_input else lam_all[resolved]
    fs_up = transform._upsample_axis(np.moveaxis(transform._fs_many(fld, lams), -1, 0),
                                     transform._UPSAMPLE, axis=1)
    hu = hy / transform._UPSAMPLE
    u = -Ly + hu * np.arange(fs_up.shape[1])
    root_pref = math.sqrt(2 * n_max + 1)
    moments = np.zeros((2 * n_max + 1, 2 * n_max + 1, L), dtype=complex)
    for start in range(0, len(lams), transform._LAM_BLOCK):
        lam = lams[start:start + transform._LAM_BLOCK]
        al, rl = np.abs(lam), np.sqrt(np.abs(lam))
        slabs = fs_up[start:start + transform._LAM_BLOCK]
        extent = np.minimum((root_pref + 9.0) / rl + Ly, 1.15 * (math.pi / h_eta) / (2.0 * al))
        bandwidth = rl * (2.0 * root_pref + 8.0) + 2.0 * al * abs(eta).max()
        rules = [transform._gl_panels(e, b) for e, b in zip(extent.tolist(), bandwidth.tolist())]
        sizes = [len(tau) for tau, _ in rules]
        tau = np.concatenate([tau for tau, _ in rules])
        wtau = np.concatenate([w for _, w in rules])
        h_u = hermite_rows(2 * n_max, (math.sqrt(2.0) * rl)[:, None] * u)
        B = (h_u.transpose(1, 0, 2) @ slabs.view(float)).view(complex)
        B *= h_eta
        h_tau = hermite_rows(2 * n_max, np.repeat(math.sqrt(2.0) * rl, sizes) * tau)
        h_tau *= np.repeat(rl, sizes) * (wtau * hu)
        arg = np.outer(eta, tau) * (-2.0 * np.repeat(lam, sizes))
        phase = np.empty(arg.shape, dtype=complex)
        np.cos(arg, out=phase.real)
        np.sin(arg, out=phase.imag)
        splits = np.cumsum(sizes)[:-1]
        for il, b, ph, ht in zip(np.searchsorted(lam_all, lam).tolist(), B,
                                 np.split(phase, splits, axis=1), np.split(h_tau, splits, axis=1)):
            moments[:, :, il] = (ht @ (ph.T @ b.T).view(float)).view(complex)
    values = np.zeros((n_max + 1, n_max + 1, L), dtype=complex)
    for N in range(2 * n_max + 1):
        k = np.arange(N + 1)
        n = np.arange(max(0, N - n_max), min(N, n_max) + 1)
        values[n, N - n] = _rotation_block(N)[:, n].T @ moments[N - k, k]
    if real_input:
        pos = np.flatnonzero(lam_all > 0)
        values[:, :, L - 1 - pos] = np.conj(values[:, :, pos])
    return values


@pytest.mark.parametrize("extent,points,n_max,grid,rtol", [
    # the default config: linspace(-6, 6, 33) is exactly symmetric; the
    # parity sum only reorders the eta-sum (a gap of 1.3e-15)
    (6.0, 33, 24, LambdaGrid(), 1e-14),
    # linspace(-5.3, 5.3, 31) is not: the mirrored node sits at -eta_{N-1-j},
    # at most one ulp from eta_j
    (5.3, 31, 10, LambdaGrid(0.05, 8.0, 24), 1e-14),
])
def test_mirrored_eta_phase_matches_the_full_phase(extent, points, n_max, grid, rtol):
    eta = np.linspace(-extent, extent, points)
    # one exactly symmetric eta axis, one not
    assert np.array_equal(eta[::-1], -eta) == (extent == 6.0)
    fld = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + 0.8 * e**2 + s**2) + 0.3 * y * e), 1, (extent,) * 3,
        (points,) * 3)
    got = forward_factored(fld, n_max, grid).values
    want = _full_phase_forward(fld, n_max, grid)
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def _per_lambda_dense(rows, lam, y, eta):
    """One lambda slice of the dense inverse: its own loop over N, two
    Hermite row evaluations and one GEMM pair."""
    K = rows.shape[0] - 1
    top = 2 * K
    root = math.sqrt(abs(lam))
    a, b = root * y, 2.0 * math.copysign(root, lam) * eta
    coeffs = np.zeros((top + 1, top + 1), dtype=complex)
    for N in range(top + 1):
        n = np.arange(max(0, N - K), min(N, K) + 1)
        k = np.arange(N + 1)
        coeffs[N - k, k] = _rotation_block(N)[:, n] @ rows[n, N - n]
    coeffs *= (1j ** np.arange(top + 1))[:, None]
    h_a = hermite_rows(top, math.sqrt(2.0) * a)
    h_b = hermite_rows(top, b / math.sqrt(2.0))
    return math.sqrt(math.pi) * (h_a.T @ (coeffs.T @ h_b))


def _per_lambda_table_inverse(table, extents, points, symmetric):
    """The table inverse slice by slice, all-zero slices skipped, through
    the shared oscillatory lambda stage."""
    y, e, s = (np.linspace(-x, x, p) for x, p in zip(extents, points))
    lam = table.grid.lam
    cols = np.flatnonzero(lam > 0) if symmetric else np.arange(len(lam))
    chi = np.zeros((len(cols), points[0], points[1]), dtype=complex)
    for j, il in enumerate(cols):
        rows = table.values[..., il]
        if np.any(rows):
            chi[j] = _per_lambda_dense(rows, lam[il], y, e)
    out = transform._oscillatory_lambda_stage(chi, lam[cols], s)
    return (2.0 * out.real if symmetric else out) / math.pi**2


def _skewed_field():
    """A complex field whose table is not conjugate-symmetric in lambda."""
    return SampledField.from_function(
        lambda y, e, s: (1 + 0.4 * y - 0.3j * e) * np.exp(-(y - 0.5) ** 2 - 0.8 * e**2
                                                          - (s - 0.3) ** 2),
        1, EXTENT, POINTS)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stacked_pipeline_matches_the_per_lambda_loops(kind):
    fld = gauss_field(0.6, 1.1) if kind == "real" else _skewed_field()
    # 2 of 7 lambdas per sign (8.3 and 16) lie beyond 0.98 of the s-Nyquist frequency 8.4
    grid = LambdaGrid(0.3, 16.0, 7)
    beyond = np.abs(grid.lam) > 0.98 * math.pi / fld.spacings[2]
    assert beyond.sum() == 4
    want = _per_lambda_forward(fld, 6, grid)
    table = forward_factored(fld, 6, grid)
    assert np.abs(table.values - want).max() <= 1e-13 * np.abs(want).max()
    assert not np.any(table.values[..., beyond])
    # every skipped slice and one interior column make all-zero slices
    table.values[..., 3] = 0.0
    symmetric = kind == "real"
    kw = dict(extents=(5.0, 5.0, 4.0), points=(13, 11, 9))
    got, _ = inverse_on_grid(table.as_freq_function(), grid, assume_symmetric=symmetric, **kw)
    ref = _per_lambda_table_inverse(table, kw["extents"], kw["points"], symmetric)
    assert np.abs(got.samples - ref).max() <= 1e-13 * np.abs(ref).max()


def test_rep_matrix_route(f_unit):
    for n, lam in [(0, 0.5), (2, -0.7), (3, 2.0)]:
        got = rep_matrix_coeff(f_unit, lam, (n,), (n,))
        assert got == pytest.approx(gauss_hat_exact(n, lam), abs=1e-6)
    assert abs(rep_matrix_coeff(f_unit, 0.8, (0,), (2,))) < 1e-12


def test_rep_matrix_identity_limit():
    # a narrow normalized bump at the group origin acts like the identity:
    # the matrix tends to the Kronecker delta as the width shrinks
    lam = 0.3
    gaps = []
    for w, pts in ((0.8, 45), (0.4, 61)):
        norm = 1.0 / (math.pi ** 1.5 * w ** 3)
        f = SampledField.from_function(
            lambda y, e, s: norm * np.exp(-(y**2 + e**2 + s**2) / w**2),
            1, (4, 4, 4), (pts, pts, pts),
        )
        d00 = rep_matrix_coeff(f, lam, (0,), (0,))
        d11 = rep_matrix_coeff(f, lam, (1,), (1,))
        off = rep_matrix_coeff(f, lam, (0,), (1,))
        assert abs(off) < 0.02
        gaps.append(abs(d00 - 1.0) + abs(d11 - 1.0))
    assert gaps[1] < 0.35 * gaps[0]  # quadratic approach to the identity
    assert gaps[1] < 0.2


def test_remap_rescales_l2():
    # the change of variables (x, x') -> ((x-x')/2, lam(x+x')) multiplies
    # squared norms by 1/|lam| in one dimension
    def phi(u, v):
        return np.exp(-(u**2) - 0.5 * v**2) * (1 + 0.3 * u * v)

    # closed form of the flat squared norm of phi
    flat = math.sqrt(math.pi**2 / 2.0) * (1.0 + 0.09 / 8.0)
    xi, om = np.polynomial.legendre.leggauss(240)
    for lam in (0.5, 2.0):
        L = 6.0 + 6.0 / (2.0 * lam)
        x = L * xi
        w = L * om
        X, Xp = np.meshgrid(x, x, indexing="ij")
        W2 = np.outer(w, w)
        lhs = np.sum(np.abs(phi((X - Xp) / 2.0, lam * (X + Xp))) ** 2 * W2)
        assert lhs == pytest.approx(flat / abs(lam), rel=1e-8)


def test_inverse_round_trip_short():
    grid = LambdaGrid(1e-3, 10.0, 80)
    f = gauss_field(a=0.5)
    table = forward_factored(f, 20, grid)
    rec, tail = inverse_on_grid(
        table.as_freq_function(), grid, extents=(2.0, 2.0, 2.0), points=(9, 9, 9),
        assume_symmetric=True,
    )
    truth = SampledField.from_function(
        lambda y, e, s: np.exp(-0.5 * (y**2 + e**2) - s**2), 1, (2.0, 2.0, 2.0), (9, 9, 9)
    )
    rel = np.abs(rec.samples - truth.samples).max() / np.abs(truth.samples).max()
    assert rel < 2e-2


def test_inverse_at_point_matches_grid():
    grid = LambdaGrid(1e-3, 10.0, 80)
    theta = heat_profile(1.0)
    boxed = FreqFunction(theta, band=0, box=48, label="heat-48")
    v = inverse_at_point(boxed, np.array([0.5, 0.0, 0.6]), grid)
    fld, _ = inverse_on_grid(theta, grid, extents=(1.0, 1.0, 1.2), points=(5, 5, 5),
                             n_cap=48, assume_symmetric=True)
    iy = int(np.argmin(np.abs(fld.y_axis - 0.5)))
    ks = int(np.argmin(np.abs(fld.s_axis - 0.6)))
    assert v == pytest.approx(complex(fld.samples[iy, 2, ks]), abs=2e-4)


def _complex_band_two(n, m, lam):
    # complex, every channel |m - n| <= 2 occupied, and theta(n, m, -lam)
    # is not conj(theta(n, m, lam))
    k = (m - n)[..., 0]
    x = (np.abs(lam) + 0.2) * (n + m + 1.0)[..., 0]
    return np.where(np.abs(k) <= 2, np.exp(-x * (1.0 + 0.3j * k) + 0.4j * lam)
                    * (1.0 + 0.5 * np.tanh(lam)) / (1.0 + k * k), 0.0)


def test_banded_inverse_at_point_matches_grid():
    # the channels and their angular factors e^{-i k sgn(lam) phi} against
    # the termwise symbol sum, off both axes and at both signs of s
    grid = LambdaGrid(1e-3, 10.0, 40)
    theta = FreqFunction(_complex_band_two, band=2, label="complex-band-2")
    fld, _ = inverse_on_grid(theta, grid, extents=(1.0, 1.0, 1.2), points=(5, 5, 5),
                             n_cap=12)
    for iy, ie, ks in [(3, 1, 4), (0, 3, 0), (4, 4, 2)]:
        w = np.array([fld.y_axis[iy], fld.eta_axis[ie], fld.s_axis[ks]])
        v = inverse_at_point(FreqFunction(theta, band=2, box=12), w, grid)
        assert v == pytest.approx(complex(fld.samples[iy, ie, ks]), abs=2e-4)


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_table_inverse_sums_through_the_rotation(monkeypatch, unit_table):
    laguerre = _spy(monkeypatch, wigner, "_laguerre_sum")
    rows = _spy(monkeypatch, wigner, "hermite_rows")
    lam = unit_table.grid.lam
    for symmetric in (True, False):
        rows.clear()
        inverse_on_grid(unit_table.as_freq_function(), unit_table.grid, points=(9, 9, 9),
                        assume_symmetric=symmetric)
        cols = np.flatnonzero(lam > 0) if symmetric else np.arange(len(lam))
        summed = sum(bool(np.any(unit_table.values[..., il])) for il in cols)
        # one call on the (lambda, y) points and one on (lambda, eta), whatever the count
        assert summed > 0 and not laguerre
        assert len(rows) == 2
        assert all(n == 16 and x.shape == (summed, 9) for n, x in rows)


def test_diagonal_inverse_runs_one_recurrence(monkeypatch, small_grid):
    laguerre = _spy(monkeypatch, wigner, "_laguerre_sum")
    heat, indices = heat_profile(1.0), []

    def interior(n, m, lam):
        indices.append((n, m))
        return heat(n, m, lam)

    theta = FreqFunction(interior, band=0, label=heat.label)
    inverse_on_grid(theta, small_grid, points=(9, 9, 9), n_cap=48, assume_symmetric=True)
    # y, eta = 1.5 (i, j) with |i|, |j| <= 4: 15 distinct values of i^2 + j^2
    assert len(laguerre) == 1
    alpha, _, x = laguerre[0]
    assert alpha == 0 and x.shape == (np.count_nonzero(small_grid.lam > 0), 15)
    # theta is evaluated on the diagonal only: no (n_top + 1)^2 rows
    assert indices and all(np.array_equal(n, m) for n, m in indices)


def _as_band_one(theta):
    """The diagonal theta with an empty first band, so the inverse sums it
    as three channels k = -1, 0, 1, two of them zero."""
    def interior(n, m, lam):
        return np.where((n == m).all(axis=-1), theta(n, m, lam), 0.0)

    return FreqFunction(interior, band=1, label=theta.label)


def _complex_diagonal(n, m, lam):
    # complex, and theta(n, n, -lam) is not conj(theta(n, n, lam))
    decay = np.exp(-(2.0 * n[..., 0] + 1.0) * np.abs(lam) * (1.0 + 0.7j) + 0.4j * lam)
    return np.where((n == m).all(axis=-1), decay * (1.0 + 0.5 * np.tanh(lam)), 0.0)


@pytest.mark.parametrize("name,theta", [
    ("heat", heat_profile(0.7)),
    ("gauss_profile", profile_to_freq_function(profile_gauss(1.0))),
    ("complex", FreqFunction(_complex_diagonal, band=0, label="complex")),
])
@pytest.mark.parametrize("symmetric", [True, False])
def test_radial_inverse_matches_the_banded_route(name, theta, symmetric):
    # every slice of this grid stops below n_cap, so neither route adds a
    # tail correction; the non-square grid catches a transposed gather
    grid = LambdaGrid(0.05, 16.0, 24)
    assert (transform._n_extent(theta, grid.lam, 600) < 600).all()
    kw = dict(extents=(5.0, 6.5, 4.0), points=(9, 13, 11), assume_symmetric=symmetric)
    got, got_tail = inverse_on_grid(theta, grid, **kw)
    want, want_tail = inverse_on_grid(_as_band_one(theta), grid, **kw)
    assert got.samples.shape == (9, 13, 11)
    assert np.abs(got.samples - want.samples).max() <= 1e-14 * np.abs(want.samples).max()
    assert got_tail == want_tail


def _lambda_stage_by_exponentials(chi, lam_list, s_axis):
    """The oscillatory lambda stage with every entry of the dense phase
    table an exponential e^{i sign lam s} of its own, the reference for the
    table built from block products."""
    from hfourier.freq_space import simpson_log_weights, sqrt_richardson

    s_max = float(np.abs(s_axis).max())
    h_d = min(0.02, 2.0 * math.pi / (48.0 * max(s_max, 1.0)))
    out = np.zeros(chi.shape[1:] + (len(s_axis),), dtype=complex)
    for sign in (+1.0, -1.0):
        cols = np.flatnonzero(sign * lam_list > 0)
        if len(cols) == 0:
            continue
        cols = cols[np.argsort(np.abs(lam_list[cols]))]
        lam_pos = np.abs(lam_list[cols])
        slices = chi[cols]
        h_t = math.log(lam_pos[1] / lam_pos[0])
        j = int(np.searchsorted(lam_pos, h_d / max(math.expm1(h_t), 1e-300)))
        j = min(max(j, 4), len(lam_pos) - 1)
        sub = lam_pos[: j + 1]
        wts = simpson_log_weights(len(sub), h_t) * sub
        kernel = np.zeros((len(lam_pos), len(s_axis)), dtype=complex)
        kernel[: j + 1] = (sub * wts)[:, None] * np.exp(1j * sign * np.outer(sub, s_axis))
        if j < len(lam_pos) - 1:
            lo, hi = lam_pos[j], lam_pos[-1]
            count = max(int((hi - lo) / h_d) | 1, 5)
            lam_dense = np.linspace(lo, hi, count)
            wts_d = simpson_log_weights(count, lam_dense[1] - lam_dense[0])
            dense = (lam_dense * wts_d)[:, None] * np.exp(1j * sign * np.outer(lam_dense, s_axis))
            kernel += _resample_log(lam_pos, lam_dense).T @ dense
        contrib = np.tensordot(slices, kernel, axes=([0], [0]))
        F1, F2 = slices[0] * lam_pos[0], slices[1] * lam_pos[1]
        F0 = sqrt_richardson(lam_pos[0], F1, lam_pos[1], F2)
        contrib += (lam_pos[0] * 0.5 * (F0 + F1))[..., None] * np.ones(len(s_axis))
        out += contrib
    return out


@pytest.mark.parametrize("grid,s_axis,symmetric", [
    # the heat_kernel benchmark's grid and s-axis: 2439 dense lambdas, 107 s
    (LambdaGrid(1e-3, 16.0, 48), np.linspace(-20.0, 20.0, 107), True),
    (LambdaGrid(), np.linspace(-6.0, 6.0, 33), False),
])
def test_phase_table_from_block_products_matches_the_exponentials(grid, s_axis, symmetric):
    lam = grid.lam[grid.lam > 0] if symmetric else grid.lam
    rng = np.random.default_rng(17)
    chi = rng.normal(size=(len(lam), 3, 5)) + 1j * rng.normal(size=(len(lam), 3, 5))
    got = transform._oscillatory_lambda_stage(chi, lam, s_axis)
    want = _lambda_stage_by_exponentials(chi, lam, s_axis)
    assert got.shape == want.shape == (3, 5, len(s_axis))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _grid_tail_correction(theta, lam, n_top, y_axis, e_axis):
    """The capped diagonal remainder point by point on the (y, eta) grid,
    the reference for the correction on the distinct radii."""
    from scipy.special import j0

    nxt = np.array([[n_top + 1], [n_top + 2]])
    t1, t2 = (complex(v) for v in theta(nxt, nxt, lam))
    r = (t2 / t1).real
    j_nodes, j_w = transform.gauss_legendre([-0.5, 18.0 / -math.log(r)], 32)
    radius = np.hypot(y_axis[:, None], e_axis[None, :])
    out = np.zeros(radius.shape, dtype=complex)
    for j, w in zip(j_nodes, j_w):
        x_j = abs(lam) * (2.0 * (n_top + 1 + j) + 1.0)
        out += (w * t1 * (r**j)) * j0(2.0 * math.sqrt(x_j) * radius)
    return out


@pytest.mark.parametrize("lam", [1e-3, -4e-3])
def test_tail_correction_on_radii_matches_the_grid(lam):
    theta = heat_profile(1.0)
    assert transform._n_extent(theta, np.array([lam]), 600)[0] == 600
    y, e = np.linspace(-5.0, 5.0, 9), np.linspace(-6.5, 6.5, 13)
    r2, ring = np.unique((y[:, None] ** 2 + e[None, :] ** 2).ravel(), return_inverse=True)
    got = transform._diagonal_tail_correction(theta, np.array([lam]), 600, np.sqrt(r2))[0]
    got = got[ring].reshape(9, 13)
    want = _grid_tail_correction(theta, lam, 600, y, e)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_tail_correction_sums_every_capped_lambda_in_one_pass():
    heat, flat = heat_profile(1.0), 2e-3

    def theta(n, m, lam):
        # at lam = flat the diagonal stops decaying: no geometric envelope
        return np.where(lam == flat, 1.0 + 0j, heat(n, m, lam))

    lams = np.array([1e-3, -4e-3, flat, 6e-4])
    assert transform._n_extent(heat, lams, 600).tolist() == [600] * 4
    y, e = np.linspace(-5.0, 5.0, 9), np.linspace(-6.5, 6.5, 13)
    r2, ring = np.unique((y[:, None] ** 2 + e[None, :] ** 2).ravel(), return_inverse=True)
    got = transform._diagonal_tail_correction(theta, lams, 600, np.sqrt(r2))
    assert got.shape == (4, len(r2))
    for lam, row in zip(lams, got[:, ring].reshape(4, 9, 13)):
        if lam == flat:
            assert not row.any()
        else:
            want = _grid_tail_correction(heat, lam, 600, y, e)
            assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


def test_lambda_free_diagonal_theta_gets_an_extent_per_lambda(small_grid):
    # the interior ignores lam, so one call returns a single lambda column
    theta = FreqFunction(lambda n, m, lam: np.where((n == m).all(axis=-1),
                                                    np.exp(-n.sum(axis=-1)), 0.0),
                         diagonal=True)
    lams = np.array([-2.0, 0.5, 3.0])
    assert theta(np.zeros((2, 1, 1), int), np.zeros((2, 1, 1), int), lams).shape == (2, 1)
    assert transform._n_extent(theta, lams, 600).tolist() == [64, 64, 64]
    fld, _ = inverse_on_grid(theta, small_grid, points=(5, 5, 5))
    assert np.isfinite(fld.samples).all()


def test_banded_inverse_builds_no_rotation_block(monkeypatch, small_grid):
    floor = profile_to_freq_function(profile_exp_floor(0.5))
    assert floor.band == 2
    shapes = []

    def interior(n, m, lam):
        shapes.append(np.broadcast_shapes(n.shape[:-1], np.shape(lam)))
        return floor(n, m, lam)

    theta = FreqFunction(interior, band=2, label=floor.label)
    laguerre = _spy(monkeypatch, wigner, "_laguerre_sum")
    _rotation_block.cache_clear()
    inverse_on_grid(theta, small_grid, points=(9, 9, 9), n_cap=64, assume_symmetric=True)
    info = _rotation_block.cache_info()
    assert info.hits == info.misses == 0
    # one recurrence per |k|, both signs of k together, every lambda at once
    assert sorted(alpha for alpha, _, _ in laguerre) == [0, 1, 2]
    # the n_top probe, then theta once on the band box: channels x indices x lambdas
    assert len(shapes) == 2 and shapes[1][0] == 5 and shapes[1][2] == 6


def test_theta_without_band_or_box_is_refused_before_any_call():
    # a diagonal theta that declares neither its band nor an index box
    heat, calls = heat_profile(1.0), []

    def interior(n, m, lam):
        calls.append((n, m, lam))
        return heat(n, m, lam)

    theta = FreqFunction(interior, label="undeclared-heat")
    with pytest.raises(ValueError, match="'undeclared-heat' declares neither a band nor"):
        inverse_on_grid(theta, LambdaGrid(), 24, n_cap=600, assume_symmetric=True)
    assert not calls


def test_inverse_routes_by_the_box_not_the_label(monkeypatch, unit_table):
    renamed = unit_table.as_freq_function()
    renamed.label = "renamed"
    heated = multiplier_apply(lambda r: np.exp(-0.1 * r), renamed)
    laguerre = _spy(monkeypatch, wigner, "_laguerre_sum")
    rows = _spy(monkeypatch, wigner, "hermite_rows")
    for theta in (renamed, heated):
        rows.clear()
        inverse_on_grid(theta, unit_table.grid, points=(9, 9, 9), assume_symmetric=True)
        # the rotation over the 8-box: Hermite rows of order 2 n_max, no Laguerre channel
        assert len(rows) == 2 and all(n == 16 for n, _ in rows)
    assert not laguerre
    assert heated.box == renamed.box == 8 and heated.band is None


@pytest.mark.parametrize("n_max", [6, 12])
def test_table_inverse_refuses_a_cap_other_than_its_box(unit_table, n_max):
    table, calls = unit_table.as_freq_function(), []

    def interior(n, m, lam):
        calls.append(lam)
        return table(n, m, lam)

    theta = FreqFunction(interior, box=8, label="spied-table")
    with pytest.raises(ValueError, match=f"n_max {n_max} contradicts the index box 8"):
        inverse_on_grid(theta, unit_table.grid, n_max, points=(9, 9, 9))
    assert not calls
    # the declared box, given or not, is the one summed
    kw = dict(points=(5, 5, 5), assume_symmetric=True)
    a, _ = inverse_on_grid(theta, unit_table.grid, 8, **kw)
    b, _ = inverse_on_grid(theta, unit_table.grid, **kw)
    assert np.array_equal(a.samples, b.samples)


def test_banded_inverse_ignores_n_max(small_grid):
    # the benchmark passes a positional 24 for the heat profile, which
    # declares a band and no box
    kw = dict(extents=(2.0, 2.0, 2.0), points=(5, 5, 5), n_cap=48, assume_symmetric=True)
    a, tail_a = inverse_on_grid(heat_profile(1.0), small_grid, 24, **kw)
    b, tail_b = inverse_on_grid(heat_profile(1.0), small_grid, **kw)
    assert np.array_equal(a.samples, b.samples) and tail_a == tail_b


def test_both_inverse_routes_agree_on_a_boxed_theta(monkeypatch):
    # heat declared band 0 and box 5 goes through the channels; heat cut at
    # 5 and declaring the box alone goes through the rotation
    heat, grid, seen = heat_profile(1.0), LambdaGrid(0.01, 8, 24), []

    def spied(n, m, lam):
        seen.append(int(np.max(np.maximum(n, m))))
        return heat(n, m, lam)

    def cut(n, m, lam):
        return np.where((np.maximum(n, m) <= 5).all(axis=-1), heat(n, m, lam), 0.0)

    def no_correction(*args):
        raise AssertionError("a diagonal boxed at 5 has no remainder to correct")

    monkeypatch.setattr(transform, "_diagonal_tail_correction", no_correction)
    rotation, strip = inverse_on_grid(FreqFunction(cut, box=5, label="heat<=5"), grid, points=(9, 9, 9))
    # n_cap 5 stops at the box itself, which leaves no remainder either
    for n_cap in (600, 5):
        channels, tail = inverse_on_grid(FreqFunction(spied, band=0, box=5, label="spy"), grid,
                                         points=(9, 9, 9), n_cap=n_cap)
        assert np.abs(channels.samples - rotation.samples).max() <= 1e-13 * np.abs(rotation.samples).max()
        # theta is never asked past its box, and the tail is the uncovered
        # |lam| < lambda_min strip alone, as on the rotation route: no n_cap term
        assert max(seen) == 5
        assert tail == strip == 2.0 * grid.lambda_min / (8.0 * math.pi**2)


def test_lifted_table_inverts_through_the_rotation(small_grid):
    # the frequency Laplacian of a 12-box table reaches one index past the
    # box, and its inverse is -|Y|^2 times the table's to rounding
    from hfourier.diff_ops import delta_hat, lift

    f = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + e**2) - s**2) * (1 + 0.3 * y), 1, (6, 6, 6), (17, 17, 17)
    )
    theta = forward_factored(f, 12, small_grid).as_freq_function()
    lap = lift(delta_hat, theta)
    assert (lap.band, lap.box) == (None, 13)
    kw = dict(extents=(3.0, 3.0, 3.0), points=(9, 9, 9))
    base, _ = inverse_on_grid(theta, small_grid, **kw)
    got, _ = inverse_on_grid(lap, small_grid, **kw)
    want = -(base.y_axis[:, None, None] ** 2 + base.eta_axis[None, :, None] ** 2) * base.samples
    assert np.abs(got.samples - want).max() <= 1e-13 * np.abs(want).max()


def test_forward_and_inverse_share_rotation_blocks(small_grid):
    _rotation_block.cache_clear()
    table = forward_factored(gauss_field(), 8, small_grid)
    inverse_on_grid(table.as_freq_function(), small_grid, points=(9, 9, 9),
                    assume_symmetric=True)
    # orders N = 0 .. 16, each built once
    assert _rotation_block.cache_info().misses == 17


def test_cached_rotation_blocks_are_read_only():
    block = _rotation_block(5)
    with pytest.raises(ValueError):
        block[0, 0] = 2.0
    assert _rotation_block(5)[0, 0] == block[0, 0]


def _gather_four_slices(chi, lam_src, lam_dst):
    """The log-lambda cubic resampling as a gather of four source slices."""
    t_src = np.log(lam_src)
    h = t_src[1] - t_src[0]
    u = (np.log(lam_dst) - t_src[0]) / h
    base = np.clip(np.floor(u).astype(int), 1, len(lam_src) - 3)
    t = u - base
    return (chi[..., base - 1] * (-t * (t - 1) * (t - 2) / 6.0)
            + chi[..., base] * ((t + 1) * (t - 1) * (t - 2) / 2.0)
            + chi[..., base + 1] * (-(t + 1) * t * (t - 2) / 2.0)
            + chi[..., base + 2] * ((t + 1) * t * (t - 1) / 6.0))


_LAM_SRC = LambdaGrid(1e-3, 16.0, 32).lam[32:]
_LAM_DST = np.linspace(_LAM_SRC[6], _LAM_SRC[-1], 801)


def test_resample_rows_sum_to_one():
    R = _resample_log(_LAM_SRC, _LAM_DST)
    assert R.shape == (801, 32)
    assert np.abs(R.sum(axis=1) - 1.0).max() < 1e-14


def test_resample_reproduces_cubics_in_log_lambda():
    def cubic(lam):
        t = np.log(lam)
        return 0.3 - 0.7 * t + 0.2 * t**2 - 0.05 * t**3

    want = cubic(_LAM_DST)
    got = _resample_log(_LAM_SRC, _LAM_DST) @ cubic(_LAM_SRC)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


def test_resample_matrix_equals_four_slice_gather():
    rng = np.random.default_rng(5)
    chi = rng.normal(size=(3, 4, 32)) + 1j * rng.normal(size=(3, 4, 32))
    want = _gather_four_slices(chi, _LAM_SRC, _LAM_DST)
    got = chi @ _resample_log(_LAM_SRC, _LAM_DST).T
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_plancherel_scaling_invariance(f_unit, small_grid, unit_table):
    phys, res = plancherel_norms(f_unit, unit_table)
    scaled = SampledField(2.5 * f_unit.samples, 1, f_unit.extents)
    table2 = SpectralTable(2.5 * unit_table.values, small_grid, 1)
    phys2, res2 = plancherel_norms(scaled, table2)
    assert res.value.real / phys == pytest.approx(res2.value.real / phys2, rel=1e-12)


# (a, b, c0, c1, s0, w); |w| >= 1e-3 keeps every squared magnitude clear of underflow
_gaussians = st.lists(
    st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
              st.floats(-1.0, 1.0), st.floats(-1.0, 1.0).filter(lambda w: abs(w) >= 1e-3)),
    min_size=1, max_size=3)


@settings(max_examples=40)
@given(gaussians=_gaussians)
def test_plancherel_per_lambda_on_gaussian_sums(gaussians):
    # Plancherel slice by slice: sum_{n,m} |f^(n, m, lam)|^2 = pi / (2|lam|) ||F_s f(., lam)||^2
    # for real sums of w exp(-a|Y - c|^2 - b(s - s0)^2) on the default 33^3 grid.  Measured
    # on 200 random fields per setting: worst gap 6.1e-8 for a <= 1.5 and 2.0e-6 for
    # a <= 2; the centered a = 2 field reads 3.9e-7 at n_max 24 and 4.4e-7 at 48, so the
    # box does not cause that.  Above |lam| = 2 shifted fields leave the 24-box: c = (1, 1)
    # reads 2.9e-2 on LambdaGrid(6, 8.2, 8) at n_max 24 and 4.5e-5 at 48.
    def field(y, e, s):
        return sum(w * np.exp(-a * ((y - c0) ** 2 + (e - c1) ** 2) - b * (s - s0) ** 2)
                   for a, b, c0, c1, s0, w in gaussians)

    fld = SampledField.from_function(field, 1, EXTENT, POINTS)
    # a smooth field: no Gaussian cancels another to rounding noise
    assume(np.abs(fld.samples).max() >= 1e-3 * max(abs(g[-1]) for g in gaussians))
    grid = LambdaGrid(0.3, 2.0, 16)
    table = forward_factored(fld, 24, grid)
    freq = (np.abs(table.values) ** 2).sum(axis=(0, 1))
    fs = transform._fs_many(fld, grid.lam)
    phys = math.pi / (2.0 * np.abs(grid.lam)) * (np.abs(fs) ** 2).sum(axis=(0, 1)) \
        * fld.spacings[0] * fld.spacings[1]
    assert np.all(np.abs(freq - phys) <= 1e-6 * phys)


def _capped_product(theta1, theta2, n, m, lam, cap):
    """The product summed over every middle index of the box [0, cap]^d."""
    ell = np.array(multi_indices(theta1.d, cap)).reshape(-1, theta1.d)
    return complex(np.sum(theta1(n, ell, lam) * theta2(ell, m, lam)))


def test_spectral_product_zero_and_semigroup():
    zero = FreqFunction(
        lambda n, m, lam: np.zeros(np.broadcast_shapes(n.shape[:-1], lam.shape)), diagonal=True
    )
    assert spectral_product(heat_profile(1.0), zero, (0,), (0,), 0.5) == 0
    for lam in (0.3, -1.1):
        for n in range(4):
            v = spectral_product(heat_profile(0.7), heat_profile(0.5), (n,), (n,), lam)
            want = heat_profile(1.2)((n,), (n,), np.array([lam]))[0]
            assert v == pytest.approx(want, abs=1e-14)


def test_spectral_product_takes_d_from_theta():
    # d = 2: heat's band 0 leaves the single middle index l = n
    v = spectral_product(heat_profile(0.7, d=2), heat_profile(0.5, d=2), (1, 2), (1, 2), 0.4)
    want = heat_profile(1.2, d=2)((1, 2), (1, 2), np.array([0.4]))[0]
    assert v == pytest.approx(want, abs=1e-14)
    with pytest.raises(ValueError, match="dimension"):
        spectral_product(heat_profile(0.7, d=2), heat_profile(0.5), (1, 2), (1, 2), 0.4)


def test_inverse_on_grid_rejects_d2():
    with pytest.raises(ValueError, match="d = 1"):
        inverse_on_grid(heat_profile(1.0, d=2), LambdaGrid(1e-3, 10.0, 8), 4,
                        extents=(1.0, 1.0, 1.0), points=(5, 5, 5))


@pytest.fixture(scope="module")
def c03_tables():
    """The gate's convolution check: both Gaussians at n_max 24 on its grid."""
    grid = LambdaGrid(0.4, 2.1, 4)
    return [forward_factored(gauss_field(a, a), 24, grid).as_freq_function()
            for a in (1.0, 1.5)], grid.lam


def test_spectral_product_over_the_declared_support_is_the_capped_sum(c03_tables):
    # the declared support holds every nonzero term of the box sum, in its order
    (th1, th2), lams = c03_tables
    for lam in lams:
        for n in range(5):
            for m in range(5):
                assert spectral_product(th1, th2, (n,), (m,), lam) == \
                    _capped_product(th1, th2, (n,), (m,), lam, 24)
    for d, n in ((1, (3,)), (2, (1, 2))):
        h1, h2 = heat_profile(0.7, d=d), heat_profile(0.5, d=d)
        for lam in (0.3, -1.1):
            assert spectral_product(h1, h2, n, n, lam) == _capped_product(h1, h2, n, n, lam, 12)
    # band 2 each: l runs over [max(0, n - 2, m - 2), min(n + 2, m + 2)], empty at |m - n| > 4
    f1 = profile_to_freq_function(profile_exp_floor(0.5))
    f2 = profile_to_freq_function(profile_exp_floor(0.8))
    for n, m in ((0, 0), (1, 3), (4, 2), (5, 9)):
        want = _capped_product(f1, f2, (n,), (m,), 0.6, 24)
        assert want != 0
        assert spectral_product(f1, f2, (n,), (m,), 0.6) == pytest.approx(want, rel=1e-14)
    assert spectral_product(f1, f2, (0,), (5,), 0.6) == 0


def _floored(floor, box):
    """Entries exp(-(n + m)^2) + floor inside the index box [0, box]^d."""
    def interior(n, m, lam):
        l = (n + m).sum(axis=-1)
        inside = (np.maximum(n, m) <= box).all(axis=-1)
        return np.where(inside, np.exp(-(l**2.0)) + floor, 0.0) + np.zeros_like(lam) + 0j

    return FreqFunction(interior, box=box)


def test_spectral_product_sums_a_boxed_theta_completely():
    # no band: the middle index runs up to the smaller declared box, flat floor included
    want = math.fsum((math.exp(-l * l) + 1e-3) ** 2 for l in range(11))
    got = spectral_product(_floored(1e-3, 24), _floored(1e-3, 10), (0,), (0,), 0.5)
    assert got == pytest.approx(want, rel=1e-15)


def _undeclared():
    def never(*args):
        raise AssertionError("theta was called")

    return FreqFunction(never, boundary=never, label="bare")


def test_products_and_boundary_pairings_refuse_undeclared_support():
    bare, heat = _undeclared(), heat_profile(1.0)
    calls = [
        lambda: spectral_product(bare, heat, (0,), (0,), 0.5),
        lambda: spectral_product(heat, bare, (0,), (0,), 0.5),
        lambda: spectral_product_boundary(heat, bare, (0.5,), (0,)),
        lambda: distributions._boundary_measure_pair(lambda xs, ks: 1.0, bare),
        lambda: distributions._diagonal_band_sum(bare, LambdaGrid(0.3, 2.0, 4), 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="'bare' declares neither a band nor an index box"):
            call()


def _recording(seen, **support):
    """A theta of boundary value 1 that records the k of each boundary call."""
    def boundary(xdot, k):
        seen.append(np.unique(k).tolist())
        return np.ones(np.broadcast_shapes(xdot.shape[:-1], k.shape[:-1]))

    return FreqFunction(lambda n, m, lam: np.ones(lam.shape), boundary=boundary, **support)


@pytest.mark.parametrize("support, reach", [
    (dict(band=1), 1), (dict(box=3), 3), (dict(band=1, box=3), 1),
], ids=["band", "box", "band-and-box"])
def test_boundary_pairing_runs_k_over_the_band_else_the_box(support, reach):
    seen = []
    mu = distributions._boundary_measure_pair(lambda xs, ks: 1.0, _recording(seen, **support))
    assert seen == [list(range(-reach, reach + 1))]
    # 2^{-2} (both half-lines of length 28) per k
    assert mu == pytest.approx(14.0 * (2 * reach + 1), rel=1e-13)


def test_boundary_product_runs_k_over_both_reaches():
    seen1, seen2 = [], []
    th1, th2 = _recording(seen1, band=1), _recording(seen2, box=3)
    # |k'| <= 1 and |2 - k'| <= 3
    assert spectral_product_boundary(th1, th2, (0.5,), (2,)) == 3
    assert (seen1, seen2) == ([[-1, 0, 1]], [[1, 2, 3]])
    # |k'| <= 1 and |5 - k'| <= 3 leave no k'
    assert spectral_product_boundary(th1, th2, (0.5,), (5,)) == 0


def test_mirrored_inverse_counts_the_capped_remainder_on_both_branches():
    grid = LambdaGrid()
    kw = dict(extents=(6.0, 6.0, 20.0), points=(9, 9, 21), n_cap=600)
    half, tail_half = inverse_on_grid(heat_profile(1.0), grid, assume_symmetric=True, **kw)
    full, tail_full = inverse_on_grid(heat_profile(1.0), grid, **kw)
    assert tail_half == pytest.approx(tail_full, rel=1e-12)
    # more than the |lam| < lambda_min strip: the capped diagonals are counted
    assert tail_full > 1.5 * 2.0 * grid.lambda_min / (8.0 * math.pi**2)
    assert np.abs(half.samples - full.samples).max() <= 1e-12 * np.abs(full.samples).max()


@settings(max_examples=60)
@given(t1=st.floats(0.05, 3.0), t2=st.floats(0.05, 3.0), xdot=st.floats(-5.0, 5.0),
       k=st.integers(-3, 3), r1=st.floats(0.1, 2.0), r2=st.floats(0.1, 2.0))
def test_boundary_product_commutes(t1, t2, xdot, k, r1, r2):
    # at the boundary the heat semigroup multiplies: heat(t1) heat(t2) = heat(t1 + t2)
    h1, h2 = heat_profile(t1), heat_profile(t2)
    a = spectral_product_boundary(h1, h2, (xdot,), (k,))
    assert a == spectral_product_boundary(h2, h1, (xdot,), (k,))
    assert a == pytest.approx(complex(heat_profile(t1 + t2).at_boundary((xdot,), (k,))),
                              rel=0, abs=1e-15)
    # two floor profiles of band 2, which the convolution over k' mixes
    f1 = profile_to_freq_function(profile_exp_floor(r1))
    f2 = profile_to_freq_function(profile_exp_floor(r2))
    assert spectral_product_boundary(f1, f2, (xdot,), (k,)) == pytest.approx(
        spectral_product_boundary(f2, f1, (xdot,), (k,)), rel=1e-15, abs=0)


def test_multiplier():
    th = heat_profile(1.0)
    ident = multiplier_apply(lambda r: np.ones_like(np.asarray(r, dtype=float)), th)
    la = np.array([0.8])
    assert ident((2,), (2,), la)[0] == th((2,), (2,), la)[0]
    heat = multiplier_apply(lambda r: np.exp(-0.5 * r), th)
    assert heat((1,), (1,), la)[0] == pytest.approx(heat_profile(1.5)((1,), (1,), la)[0])
    # boundary values follow the multiplier at zero frequency
    assert heat.at_boundary((0.4,), (0,)) == pytest.approx(th.at_boundary((0.4,), (0,)))


def test_transpose_reflection():
    grid = LambdaGrid(1e-3, 10.0, 64)
    th = heat_profile(1.0)
    tr, _ = transpose_transform(th, grid, extents=(1.5, 1.5, 2.0), points=(7, 7, 9), n_cap=64)
    inv, _ = inverse_on_grid(th, grid, extents=(1.5, 1.5, 2.0), points=(7, 7, 9), n_cap=64)
    want = math.pi**2 * inv.samples[:, ::-1, ::-1]
    assert np.abs(tr.samples - want).max() < 1e-14


def test_table_csv_roundtrip(tmp_path, unit_table):
    path = tmp_path / "table.csv"
    table_to_csv(unit_table, path)
    clone = table_from_csv(path)
    assert np.array_equal(clone.values, unit_table.values)
    assert np.array_equal(clone.grid.lam, unit_table.grid.lam)


def test_table_csv_reads_by_columns(tmp_path, unit_table):
    # rows in any order land on the same entries, bit for bit
    path = tmp_path / "table.csv"
    table_to_csv(unit_table, path)
    header, *rows = path.read_text().splitlines()
    rng = np.random.default_rng(5)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header] + [rows[i] for i in rng.permutation(len(rows))]) + "\n")
    (tmp_path / "shuffled.csv.json").write_text((tmp_path / "table.csv.json").read_text())
    clone = table_from_csv(shuffled)
    assert np.array_equal(clone.values, unit_table.values)


@pytest.mark.parametrize("d", [1, 2])
def test_table_csv_tokens_in_index_order(tmp_path, d):
    # every number is its shortest repr; rows run n-major, then m, then lambda
    grid = LambdaGrid(0.3, 3.0, 2)
    rng = np.random.default_rng(d)
    shape = (3,) * (2 * d) + (4,)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
    values = values + 1j * rng.normal(size=shape)
    values.flat[0] = complex(-0.0, 0.0)
    table = SpectralTable(values, grid, d)
    path = tmp_path / "table.csv"
    table_to_csv(table, path)
    want = []
    for n in multi_indices(d, 2):
        for m in multi_indices(d, 2):
            for il, lam in enumerate(grid.lam):
                v = values[n + m + (il,)]
                want.append(",".join([str(i) for i in n + m]
                                     + [repr(float(x)) for x in (lam, v.real, v.imag)]))
    assert path.read_text().splitlines()[1:] == want


def _bad_tables(rows):
    """(what, rows) pairs, each one defect away from the good rows."""
    def edit(i, col, token):
        out = list(rows)
        fields = out[i].split(",")
        fields[col] = token
        out[i] = ",".join(fields)
        return out

    return [
        ("duplicate", rows[:-1] + [rows[0]]),
        ("missing", rows[:-1]),
        ("index above n_max", edit(0, 0, "9")),
        ("negative index", edit(0, 1, "-1")),
        ("fractional index", edit(0, 0, "0.5")),
        ("lambda off the grid", edit(0, 2, repr(float(rows[0].split(",")[2]) * (1 + 1e-6)))),
        ("nan value", edit(3, 3, "nan")),
        ("inf value", edit(3, 4, "inf")),
        ("not a number", edit(3, 3, "x")),
    ]


def test_table_csv_rejects_malformed(tmp_path, unit_table):
    path = tmp_path / "table.csv"
    table_to_csv(unit_table, path)
    header, *rows = path.read_text().splitlines()
    sidecar = (tmp_path / "table.csv.json").read_text()
    for what, bad in _bad_tables(rows) + [("header", None)]:
        target = tmp_path / "bad.csv"
        lines = ["n0,m0,lam,re,im"] + rows if bad is None else [header] + bad
        target.write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.csv.json").write_text(sidecar)
        with pytest.raises(ValueError):
            table_from_csv(target)
            pytest.fail(what)


def test_table_off_grid_lambda(unit_table):
    with pytest.raises(KeyError):
        unit_table.as_freq_function()((0,), (0,), 0.123456)


def test_integrate_table_squared_heat(f_unit):
    # Plancherel pieces: frequency norm of the transform is finite and positive
    grid = LambdaGrid(1e-3, 8.0, 48)
    table = forward_factored(f_unit, 10, grid)
    phys, res = plancherel_norms(f_unit, table)
    assert res.value.real > 0
    assert res.value.imag == pytest.approx(0.0, abs=1e-12)


def _unit_gauss_hat():
    def entry(n, m, lam):
        t = np.abs(lam)
        k = n[..., 0]
        val = math.pi**1.5 * np.exp(-(lam**2) / 4.0) * ((1.0 - t) / (1.0 + t)) ** k / (1.0 + t)
        return np.where((n == m).all(-1), val, 0.0) + 0j

    def entry_dlam(n, m, lam):
        t = np.abs(lam)
        k = n[..., 0]
        dlog = -lam / 2.0 + np.sign(lam) * (-k / (1.0 - t) - (k + 1) / (1.0 + t))
        return entry(n, m, lam) * dlog

    return FreqFunction(entry, d=1, dlam=entry_dlam, diagonal=True, label="gauss-hat")


def test_transposed_weight_identities():
    # push the frequency operators through the inverse transform: the
    # frequency Laplacian emerges as multiplication by -|Y|^2, the lambda
    # derivative as multiplication by -i s
    from hfourier.diff_ops import delta_hat, dlambda_hat, lift

    grid = LambdaGrid(1e-3, 10.0, 80)
    theta = _unit_gauss_hat()
    ext, pts = (2.5, 2.5, 2.5), (11, 11, 11)
    base, _ = inverse_on_grid(theta, grid, extents=ext, points=pts,
                              assume_symmetric=True, n_cap=400)

    lap = lift(delta_hat, theta)
    f_lap, _ = inverse_on_grid(lap, grid, extents=ext, points=pts,
                               assume_symmetric=True, n_cap=400)
    y = base.y_axis[:, None, None]
    e = base.eta_axis[None, :, None]
    want = -(y**2 + e**2) * base.samples
    scale = np.abs(want).max()
    assert np.abs(f_lap.samples - want).max() / scale < 2e-3

    dl = lift(dlambda_hat, theta)
    f_dl, _ = inverse_on_grid(dl, grid, extents=ext, points=pts, n_cap=400)
    s = base.s_axis[None, None, :]
    want2 = -1j * s * base.samples
    scale2 = max(np.abs(want2).max(), 1e-3)
    assert np.abs(f_dl.samples - want2).max() / scale2 < 2e-3


def test_two_dimensional_direct_routes():
    # coarse-grid spot check of the dimension-generic paths against the
    # tensor closed form of the isotropic Gaussian transform
    f2 = SampledField.from_function(
        lambda y1, y2, e1, e2, s: np.exp(-(y1**2 + y2**2 + e1**2 + e2**2 + s**2)),
        2, (5, 5, 5), (17, 17, 17),
    )

    def exact2(n, m, lam):
        if tuple(n) != tuple(m):
            return 0.0
        t = abs(lam)
        rho = (1 - t) / (1 + t)
        return math.pi**2.5 * math.exp(-(lam**2) / 4) * rho ** sum(n) / (1 + t) ** 2

    for n, m, lam in [((0, 0), (0, 0), 0.6), ((1, 0), (1, 0), 0.8),
                      ((1, 1), (1, 1), -0.5), ((0, 1), (1, 0), 0.7)]:
        got = forward_direct(f2, n, m, lam)
        assert got == pytest.approx(exact2(n, m, lam), abs=5e-4)
    got = rep_matrix_coeff(f2, 0.8, (1, 0), (1, 0))
    assert got == pytest.approx(exact2((1, 0), (1, 0), 0.8), abs=5e-4)
    # off-diagonal pairs of non-radial data: the two routes agree
    g2 = SampledField.from_function(
        lambda y1, y2, e1, e2, s: (1 + 0.6 * y1 - 0.5j * e2 + 0.4 * y1 * y2 + 0.3 * e1 * e2)
        * np.exp(-(y1**2 + y2**2 + e1**2 + e2**2 + s**2) - 0.3 * s),
        2, (5, 5, 5), (17, 17, 17),
    )
    for n, m, lam in [((0, 1), (1, 0), 0.7), ((1, 1), (0, 2), -0.6)]:
        want = forward_direct(g2, n, m, lam)
        assert abs(want) > 0.1
        assert rep_matrix_coeff(g2, lam, n, m) == pytest.approx(want, abs=5e-4)
    for lam in LambdaGrid(0.5, 1.0, 2).lam:
        got = forward_direct(f2, (0, 0), (0, 0), lam)
        assert got == pytest.approx(exact2((0, 0), (0, 0), lam), abs=5e-4)
