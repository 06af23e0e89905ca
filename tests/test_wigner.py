import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0, xlogy

from hfourier.hermite import hermite_selected
from hfourier.wigner import (_laguerre_sum, boundary_kernel, wigner_eval, wigner_series_dense,
                             wigner_series_radial)


def test_orthonormality_at_origin():
    for n, m, want in [(0, 0, 1.0), (2, 2, 1.0), (1, 3, 0.0), (4, 0, 0.0)]:
        v = wigner_eval((n,), (m,), 0.7, [0.0, 0.0])
        assert v == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("lam", [0.5, -1.3, 2.0, 0.05])
def test_ground_pair_gaussian(lam):
    # closed form for n = m = 0: exp(-|lam| |Y|^2)
    Y = np.array([0.7, -0.4])
    v = wigner_eval((0,), (0,), lam, Y)
    assert v == pytest.approx(math.exp(-abs(lam) * float(np.sum(Y**2))), abs=1e-13)


def test_symmetry_and_bound():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n, m = (int(v) for v in rng.integers(0, 5, 2))
        lam = float(rng.choice([0.3, -1.0, 2.7]))
        Y = rng.normal(size=2) * 2
        a = wigner_eval((n,), (m,), lam, Y)
        b = wigner_eval((m,), (n,), -lam, Y)
        assert abs(a - (-1.0) ** (n + m) * b) < 1e-12
        assert abs(a) <= 1 + 1e-12


def test_batch_matches_scalar():
    Ys = np.array([[0.3, 0.1], [1.0, -0.5], [0.0, 2.0]])
    batch = wigner_eval((2,), (1,), 0.8, Ys)
    for i, Y in enumerate(Ys):
        assert batch[i] == pytest.approx(wigner_eval((2,), (1,), 0.8, Y), abs=1e-14)


def test_two_dimensional_factorization():
    lam = 0.6
    Y = np.array([0.4, -0.2, 0.9, 0.3])  # (y1, y2, eta1, eta2)
    v = wigner_eval((1, 0), (2, 0), lam, Y)
    v1 = wigner_eval((1,), (2,), lam, np.array([0.4, 0.9]))
    v2 = wigner_eval((0,), (0,), lam, np.array([-0.2, 0.3]))
    assert v == pytest.approx(v1 * v2, abs=1e-13)


def test_wigner_rejects_zero_lambda():
    with pytest.raises(ValueError):
        wigner_eval((0,), (0,), 0.0, [0.0, 0.0])


def test_eigenrelation_finite_difference():
    # the sub-Laplacian acting on e^{i s lam} W(., Y) multiplies it by
    # -4 |lam| (2 m + d); checked by fourth-order stencils in (y, eta, s)
    n, m, lam = 1, 2, 0.8
    y0, e0 = 0.45, -0.3
    h = 0.02

    def F(y, e, s):
        return np.exp(1j * s * lam) * wigner_eval((n,), (m,), lam, np.array([y, e]))

    def d2(fn, axis):
        # second derivative along one slot via 5-point stencil
        offs = np.array([-2, -1, 0, 1, 2]) * h
        coef = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
        vals = []
        for o in offs:
            args = [y0, e0, 0.0]
            args[axis] += o
            vals.append(F(*args))
        return np.dot(coef, vals)

    def d1(axis):
        offs = np.array([-2, -1, 1, 2]) * h
        coef = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        vals = []
        for o in offs:
            args = [y0, e0, 0.0]
            args[axis] += o
            vals.append(F(*args))
        return np.dot(coef, vals)

    def d1d1(ax1, ax2):
        offs = np.array([-2, -1, 1, 2]) * h
        coef = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
        acc = 0.0
        for o1, c1 in zip(offs, coef):
            for o2, c2 in zip(offs, coef):
                args = [y0, e0, 0.0]
                args[ax1] += o1
                args[ax2] += o2
                acc += c1 * c2 * F(*args)
        return acc

    # X^2 + Xi^2 expanded in flat derivatives at the point
    lap = (
        d2(F, 0) + d2(F, 1)
        + 4.0 * (e0 * d1d1(0, 2) - y0 * d1d1(1, 2))
        + 4.0 * (y0**2 + e0**2) * d2(F, 2)
    )
    want = -4.0 * abs(lam) * (2 * m + 1) * F(y0, e0, 0.0)
    assert abs(lap - want) / abs(want) < 1e-4


# ---- the symbol against independent oracles ---------------------------------

def _defining_integral(n, m, lam, y, eta):
    """W(n, m, lam, (y, eta)) by scipy quad of int e^{ibv} h_n(a+v) h_m(v-a) dv."""
    root = math.sqrt(abs(lam))
    a, b = root * y, 2.0 * math.copysign(root, lam) * eta
    half = math.sqrt(2 * max(n, m) + 1) + abs(a) + 12.0

    def part(fn):
        def integrand(v):
            rows = hermite_selected([n, m], np.array([a + v, v - a]))
            return fn(b * v) * rows[n][0] * rows[m][1]
        return quad(integrand, -half, half, limit=800, epsabs=1e-14, epsrel=1e-13)[0]

    return complex(part(math.cos), part(math.sin))


@pytest.mark.parametrize("n,m,lam,y,eta", [
    (0, 0, 0.7, 0.4, -0.9), (3, 1, -1.2, 0.5, 0.3), (1, 3, 0.9, -0.8, 1.1),
    (12, 7, 0.35, 1.3, -0.6), (25, 25, -0.6, -0.9, 0.2), (40, 33, 1.4, 0.2, 0.7),
    (17, 40, -0.2, 2.1, -1.5), (40, 40, 0.05, 3.0, 4.0), (0, 40, 2.5, -0.1, 0.05),
])
def test_symbol_matches_defining_integral(n, m, lam, y, eta):
    want = _defining_integral(n, m, lam, y, eta)
    got = wigner_eval((n,), (m,), lam, [y, eta])
    assert abs(got - want) < 1e-12


def _laguerre_form(n, m, lam, y, eta):
    """The Laguerre closed form in 40-digit arithmetic."""
    with mpmath.workdps(40):
        root = mpmath.sqrt(abs(mpmath.mpf(lam)))
        a, b = root * y, 2 * mpmath.sign(lam) * root * eta
        rho2 = 2 * a * a + b * b / 2
        lo, hi = min(n, m), max(n, m)
        z = (2 * a + 1j * b) if n >= m else (-2 * a + 1j * b)
        val = (mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi))
               * (z / mpmath.sqrt(2)) ** (hi - lo)
               * mpmath.exp(-rho2 / 2) * mpmath.laguerre(lo, hi - lo, rho2))
        return complex(val)


@pytest.mark.parametrize("n,m,lam,y,eta", [
    (600, 600, 1.0, 28.0, 0.0),      # rho^2 = 1568: e^{-rho^2/2} underflows
    (600, 600, 0.4, 3.0, -7.0), (600, 0, 1.0, 12.0, 9.0), (0, 600, -1.0, 12.0, 9.0),
    (599, 600, 2.5, -5.0, 1.0), (600, 550, 0.01, 150.0, -80.0), (300, 600, -0.3, 20.0, 25.0),
    (450, 17, 1.7, -9.0, 3.5), (1, 600, 0.8, 0.0, 0.0), (250, 250, 3.0, 0.1, 0.2),
])
def test_symbol_matches_mpmath_laguerre(n, m, lam, y, eta):
    got = wigner_eval((n,), (m,), lam, [y, eta])
    assert abs(got - _laguerre_form(n, m, lam, y, eta)) <= 1e-13


@settings(max_examples=60)
@given(
    n=st.integers(0, 500), m=st.integers(0, 500),
    lam=st.floats(0.01, 4.0), sign=st.sampled_from([-1.0, 1.0]),
    y=st.floats(-10.0, 10.0), eta=st.floats(-10.0, 10.0),
)
def test_symbol_sign_symmetry_and_bound(n, m, lam, sign, y, eta):
    a = wigner_eval((n,), (m,), sign * lam, [y, eta])
    b = wigner_eval((m,), (n,), -sign * lam, [y, eta])
    assert abs(a - (-1.0) ** (n + m) * b) < 1e-12
    assert abs(a) <= 1 + 1e-12


def _channels(rows, band):
    """Square rows[n, m] in the channel layout of :func:`wigner_series_radial`:
    entry [band + k, j] is rows[n, m] with m - n = k and min(n, m) = j,
    zero where the pair leaves the square."""
    K = rows.shape[0] - 1
    out = np.zeros((2 * band + 1, K + 1), dtype=rows.dtype)
    for k in range(-band, band + 1):
        out[band + k, : K + 1 - abs(k)] = np.diagonal(rows, k)
    return out


def _channel_sum(rows, lam, y, eta, band=None):
    """sum_{n, m} rows[n, m] W(n, m, lam, .) on the (y, eta) grid from the
    radial channels, each times e^{-i k sgn(lam) phi}."""
    band = rows.shape[0] - 1 if band is None else band
    Y, E = np.meshgrid(y, eta, indexing="ij")
    chi = wigner_series_radial(_channels(rows, band), lam, Y**2 + E**2)
    phi = np.arctan2(E, Y)
    return sum(chi[band + k] * np.exp(-1j * k * math.copysign(1.0, lam) * phi)
               for k in range(-band, band + 1))


def test_series_matches_termwise_sum():
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rows[2, 6] = rows[6, 2] = 0.0
    y = np.linspace(-2.0, 2.0, 5)
    eta = np.linspace(-1.5, 1.5, 4)
    pts = np.stack(np.meshgrid(y, eta, indexing="ij"), axis=-1)
    for lam in (0.6, -1.1):
        want = sum(rows[n, m] * wigner_eval((n,), (m,), lam, pts)
                   for n in range(7) for m in range(7))
        assert np.abs(_channel_sum(rows, lam, y, eta) - want).max() < 1e-13
        assert np.abs(wigner_series_dense(rows, lam, y, eta) - want).max() < 1e-13


def test_series_diagonal_vector_is_the_diagonal_matrix():
    diag = np.random.default_rng(3).normal(size=40) + 0j
    axis = np.linspace(-4.0, 4.0, 9)
    r2 = axis[:, None] ** 2 + axis[None, :] ** 2
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
    lams = np.array([0.02, -2.5])
    # one recurrence for both lambdas, on |Y|^2 rather than (y, eta); a
    # diagonal is the single channel k = 0
    both = wigner_series_radial(np.stack([diag, 2.0 * diag], axis=1)[None], lams, r2)
    assert both.shape == (2, 1, 9, 9)
    for lam, scale, got in zip(lams, (1.0, 2.0), both):
        want = sum(scale * diag[n] * wigner_eval((n,), (n,), lam, pts) for n in range(40))
        one = wigner_series_radial(scale * diag[None], lam, r2)
        assert np.abs(one[0] - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(got, one)


@pytest.mark.parametrize("band", [0, 1, 3])
@pytest.mark.parametrize("lam", [0.35, -0.35, 2.2, -7.5])
def test_channels_match_termwise_banded_sum(band, lam):
    # complex banded rows without Hermitian symmetry, a non-square grid
    # through the origin, and both signs of lambda
    rng = np.random.default_rng(11 + band)
    K = 12
    rows = rng.normal(size=(K + 1, K + 1)) + 1j * rng.normal(size=(K + 1, K + 1))
    rows[np.abs(np.subtract.outer(np.arange(K + 1), np.arange(K + 1))) > band] = 0.0
    y, eta = np.linspace(-3.0, 3.0, 7), np.linspace(-2.5, 2.0, 10)
    pts = np.stack(np.meshgrid(y, eta, indexing="ij"), axis=-1)
    want = sum(rows[n, m] * wigner_eval((n,), (m,), lam, pts)
               for n, m in zip(*np.nonzero(rows)))
    got = _channel_sum(rows, lam, y, eta, band)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_channels_stack_lambdas_and_share_one_recurrence_per_band(monkeypatch):
    import hfourier.wigner as wigner

    calls = []
    real = wigner._laguerre_sum
    monkeypatch.setattr(wigner, "_laguerre_sum", lambda *a: calls.append(a[0]) or real(*a))
    rng = np.random.default_rng(3)
    lams = np.array([0.02, -2.5, 4.0])
    bands = rng.normal(size=(5, 30, 3)) + 1j * rng.normal(size=(5, 30, 3))
    r2 = np.linspace(0.0, 30.0, 11).reshape(11, 1) + np.array([0.0, 0.5])
    got = wigner_series_radial(bands, lams, r2)
    assert got.shape == (3, 5, 11, 2) and calls == [0, 1, 2]
    for il, lam in enumerate(lams):
        one = wigner_series_radial(bands[..., il], lam, r2)
        assert one.shape == (5, 11, 2)
        assert np.array_equal(got[il], one)


@settings(max_examples=40)
@given(
    K=st.integers(0, 60), L=st.integers(1, 4), R=st.integers(1, 6), alpha=st.integers(0, 3),
    x_max=st.sampled_from([5.0, 200.0, 3000.0]), seed=st.integers(0, 2**32 - 1),
)
def test_laguerre_sum_broadcasts_coefficients(K, L, R, alpha, x_max, seed):
    # x up to 3000 crosses the 2^400 rescaling; zeroed tails skip rows.  The
    # contraction sums each segment of k at once, so the order of the k-sum
    # (and the last bits) depends on the segments: 1e-14 of each row's
    # largest value
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, x_max, size=(L, R))
    coeffs = rng.normal(size=(K + 1, L)) + 1j * rng.normal(size=(K + 1, L))
    coeffs[np.arange(K + 1)[:, None] > rng.integers(0, K + 1, size=L)] = 0.0
    # a column of coefficients per row of x, against one call per row
    rows = np.stack([_laguerre_sum(alpha, coeffs[:, i], x[i]) for i in range(L)])
    got = _laguerre_sum(alpha, coeffs[:, :, None], x)
    assert np.all(np.abs(got - rows) <= 1e-14 * np.abs(rows).max(axis=1, keepdims=True))
    # a band's two diagonals against a grid of x
    band = coeffs[:, :2] if L >= 2 else np.concatenate([coeffs, -coeffs], axis=1)
    both = np.stack([_laguerre_sum(alpha, band[:, i], x) for i in range(2)])
    got = _laguerre_sum(alpha, band[:, :, None, None], x)
    assert np.all(np.abs(got - both) <= 1e-14 * np.abs(both).max(axis=2, keepdims=True))


def _laguerre_sum_every_row(alpha, coeffs, x):
    """sum_k coeffs[k] ell_k^alpha(x) stepping every row of x to the last
    k, the recurrence before rows retired.  Also returns, per point of x,
    whether its value is bit-reproducible by the retiring recurrence: its
    row was never rescaled past its own extent and its final scale does not
    underflow (where the retiring sum applies the scale in halves)."""
    rows = np.moveaxis(coeffs != 0, coeffs.ndim - x.ndim, 1).reshape(len(coeffs), len(x), -1)
    nonzero = rows.any(axis=2)
    extent = np.where(nonzero.any(axis=0), len(coeffs) - 1 - np.argmax(nonzero[::-1], axis=0), -1)
    spread = (1,) * (x.ndim - 1)
    late = np.zeros(x.shape, dtype=bool)
    log_scale = 0.5 * xlogy(alpha, x) - 0.5 * x - 0.5 * math.lgamma(alpha + 1.0)
    prev, cur = np.zeros(x.shape), np.ones(x.shape)
    acc = coeffs[0] * cur
    for k in range(len(coeffs) - 1):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - math.sqrt(k * (k + alpha)) * prev) / (
            math.sqrt((k + 1) * (k + alpha + 1.0))
        )
        acc += coeffs[k + 1] * cur
        big = np.abs(cur) > 2.0**400
        late |= big & (extent < k + 1).reshape((-1,) + spread)
        cur[big] /= 2.0**400
        prev[big] /= 2.0**400
        acc[..., big] /= 2.0**400
        log_scale[big] += 400.0 * math.log(2.0)
    return acc * np.exp(log_scale), ~late & (log_scale >= -700.0)


@settings(max_examples=60)
@given(
    K=st.integers(0, 80), L=st.integers(2, 6), R=st.integers(1, 5),
    alpha=st.sampled_from([0, 1, 3]), band=st.booleans(),
    x_max=st.sampled_from([5.0, 200.0, 3000.0]), seed=st.integers(0, 2**32 - 1),
)
@example(K=60, L=4, R=3, alpha=3, band=True, x_max=3000.0, seed=7)
def test_retired_rows_match_the_recurrence_on_every_row(K, L, R, alpha, band, x_max, seed):
    # each row of x its own extent (-1: all zero), in random order, so the
    # rows are sorted and unsorted; a band carries both diagonals per row
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, x_max, size=(L, R))
    shape = (K + 1, 2, L, 1) if band else (K + 1, L, 1)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    extent = rng.integers(-1, K + 1, size=L)
    past = (np.arange(K + 1)[:, None] > extent)[..., None]                # (K + 1, L, 1)
    coeffs[np.broadcast_to(past[:, None] if band else past, shape)] = 0.0
    got = _laguerre_sum(alpha, coeffs, x)
    want, exact = _laguerre_sum_every_row(alpha, coeffs, x)
    assert got.shape == want.shape
    # 1e-14 of each row's largest value (the k-sum runs in another order)
    err = np.abs(got - want).reshape(-1, L, R)
    top = np.abs(want).reshape(-1, L, R).max(axis=(0, 2))
    assert np.all(err[:, exact] <= 1e-14 * np.broadcast_to(top[:, None], (L, R))[exact])
    # below 2^400 times the smallest normal double the old loop's own
    # rescaling of a retired row pushes its sum into subnormals, so rows
    # that small are held to that floor
    err = err.max(axis=(0, 2))
    assert np.all(err <= 1e-14 * np.maximum(top, np.finfo(float).tiny * 2.0**400))


@settings(max_examples=60)
@given(
    K=st.integers(0, 80), L=st.integers(1, 6), R=st.integers(1, 5),
    alpha=st.integers(0, 3), shared=st.booleans(),
    x_max=st.sampled_from([5.0, 200.0, 3000.0]), seed=st.integers(0, 2**32 - 1),
)
@example(K=80, L=3, R=4, alpha=3, shared=False, x_max=3000.0, seed=5)
def test_one_hot_coefficients_are_bit_exact(K, L, R, alpha, shared, x_max, seed):
    # a single nonzero coefficient per row, the symbol W(n, m): the segment
    # contraction adds only zeros to it, so it keeps every bit of the
    # step-by-step recurrence (also across the 2^400 rescales at x ~ 3000)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, x_max, size=(L, R))
    top = np.full(L, K) if shared else rng.integers(0, K + 1, size=L)
    coeffs = np.zeros((K + 1, L, 1))
    coeffs[top, np.arange(L)] = 1.0
    if shared:
        coeffs = coeffs[:, :1]
    got = _laguerre_sum(alpha, coeffs, x)
    want, exact = _laguerre_sum_every_row(alpha, np.broadcast_to(coeffs, (K + 1, L, 1)), x)
    assert np.array_equal(got[exact], want[exact])


@pytest.mark.parametrize("alpha", [0, 2])
def test_laguerre_sum_matches_mpmath_across_many_rescales(alpha):
    # the recurrence for ell_600 at x ~ 3000 is rescaled by 2^400 four or five
    # times on its way up (to about e^1400): rows left to grow unchecked by
    # the bound would pass the double range
    K, x = 600, np.array([2500.0, 2950.0, 3000.0])
    coeffs = np.zeros(K + 1)
    coeffs[K] = 1.0
    with mpmath.workdps(40):
        want = [float(mpmath.sqrt(mpmath.factorial(K) / mpmath.factorial(K + alpha))
                      * mpmath.mpf(xi) ** (alpha / 2) * mpmath.exp(-mpmath.mpf(xi) / 2)
                      * mpmath.laguerre(K, alpha, xi)) for xi in x]
    assert np.allclose(_laguerre_sum(alpha, coeffs, x), want, rtol=1e-12, atol=0.0)


def test_laguerre_sum_keeps_a_value_whose_scale_alone_underflows():
    # ell_60(1600) ~ 1e-238: e^{-800} underflows, the unscaled sum ~1e110 does not
    x = np.array([1600.0, 1750.0])
    coeffs = np.zeros(61)
    coeffs[60] = 1.0
    want = [float(mpmath.exp(-xi / 2) * mpmath.laguerre(60, 0, xi)) for xi in x]
    assert all(1e-300 < abs(w) < 1e-200 for w in want)
    assert np.allclose(_laguerre_sum(0, coeffs, x), want, rtol=1e-12, atol=0.0)


@settings(max_examples=30)
@given(
    n_top=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
    lam=st.floats(1e-4, 16.0), sign=st.sampled_from([-1.0, 1.0]),
    y=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
    eta=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3),
)
@example(n_top=0, seed=0, lam=12.0, sign=-1.0, y=[5.0], eta=[6.0])
def test_dense_series_matches_termwise_sum(n_top, seed, lam, sign, y, eta):
    # complex rows without Hermitian symmetry, every band occupied
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_top + 1,) * 2) + 1j * rng.normal(size=(n_top + 1,) * 2)
    pts = np.stack(np.meshgrid(y, eta, indexing="ij"), axis=-1)
    want = sum(rows[n, m] * wigner_eval((n,), (m,), sign * lam, pts)
               for n in range(n_top + 1) for m in range(n_top + 1))
    got = wigner_series_dense(rows, sign * lam, y, eta)
    # a few subnormal ulps of slack: at |lam| |Y|^2 = 732 (the example) both
    # routes return about 1.6e-319, one ulp (4.9e-324) apart
    bound = 1e-12 * np.abs(want).max() + 4 * np.finfo(float).smallest_subnormal
    assert np.abs(got - want).max() <= bound


# n_top 64 is the config's n_max cap, the top of the range tables reach
# (measured gap 1.1e-14 there, 3.6e-15 at n_top 24)
@pytest.mark.parametrize("n_top,bound", [(24, 1e-13), (64, 1e-12)])
@pytest.mark.parametrize("lam", [16.0, -16.0])
def test_band_loop_and_rotation_agree(lam, n_top, bound):
    rng = np.random.default_rng(24)
    rows = rng.normal(size=(n_top + 1,) * 2) + 1j * rng.normal(size=(n_top + 1,) * 2)
    axis = np.linspace(-6.0, 6.0, 33)
    want = _channel_sum(rows, lam, axis, axis)
    assert np.abs(wigner_series_dense(rows, lam, axis, axis) - want).max() <= bound * np.abs(want).max()


def test_dense_series_stacks_lambdas():
    # one call for a stack of lambdas, one square of rows each, against one
    # call per lambda; a scalar lambda keeps the (y, eta) shape
    rng = np.random.default_rng(5)
    lams = np.array([[0.02, -0.7], [3.0, -16.0]])
    rows = rng.normal(size=(9, 9) + lams.shape) + 1j * rng.normal(size=(9, 9) + lams.shape)
    y, eta = np.linspace(-6.0, 6.0, 7), np.linspace(-4.0, 4.0, 5)
    got = wigner_series_dense(rows, lams, y, eta)
    assert got.shape == lams.shape + (7, 5)
    for idx in np.ndindex(lams.shape):
        one = wigner_series_dense(rows[(..., *idx)], lams[idx], y, eta)
        assert one.shape == (7, 5)
        assert np.abs(got[idx] - one).max() <= 1e-13 * np.abs(one).max()
    with pytest.raises(ValueError):
        wigner_series_dense(rows[..., 0], np.array([0.5, 0.0]), y, eta)


# ---- boundary kernel --------------------------------------------------------

def test_kernel_kronecker_at_origin():
    assert boundary_kernel((1.0,), (0,), [0.0, 0.0]) == pytest.approx(1.0)
    assert abs(boundary_kernel((1.0,), (3,), [0.0, 0.0])) < 1e-15


@pytest.mark.parametrize("xd,y,e", [(0.5, 0.3, -1.1), (2.0, 1.0, 0.7), (0.25, -2.0, 0.4)])
def test_kernel_bessel_oracle(xd, y, e):
    r = math.hypot(y, e)
    got = boundary_kernel((xd,), (0,), [y, e])
    assert got == pytest.approx(j0(2 * math.sqrt(xd) * r), abs=1e-12)


@pytest.mark.parametrize("xd,k,y,e", [
    (0.5, 1, 0.3, -1.1), (2.0, -3, 1.0, 0.7), (-0.25, 2, -2.0, 0.4), (-1.5, -1, 0.6, 1.9),
    (4.0, 7, 1.2, -0.8),
])
def test_kernel_angular_integral_oracle(xd, k, y, e):
    amp, sgn = 2.0 * math.sqrt(abs(xd)), math.copysign(1.0, xd)

    def part(fn):
        return quad(lambda z: fn(amp * (y * math.sin(z) + sgn * e * math.cos(z)) + k * z),
                    -math.pi, math.pi, limit=200, epsabs=1e-14)[0] / (2.0 * math.pi)

    want = complex(part(math.cos), part(math.sin))
    assert abs(boundary_kernel((xd,), (k,), [y, e]) - want) < 1e-13


def test_kernel_modulus_bound():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(200, 2)) * 2.5
    for xd, k in [(0.5, 0), (1.0, 1), (2.0, 2), (-1.5, -1)]:
        vals = boundary_kernel((xd,), (k,), pts)
        assert np.abs(vals).max() <= 1 + 1e-12


def test_kernel_origin_point():
    assert boundary_kernel((0.0,), (0,), [1.0, 2.0]) == pytest.approx(1.0)
    assert boundary_kernel((0.0,), (1,), [1.0, 2.0]) == 0.0


def test_kernel_sign_validation():
    with pytest.raises(ValueError):
        boundary_kernel((1.0, -1.0), (0, 0), [0.0, 0.0, 0.0, 0.0])


def test_kernel_tensor_product():
    Y = np.array([0.3, -0.6, 0.8, 0.2])
    v = boundary_kernel((0.5, 0.5), (1, 0), Y)
    v1 = boundary_kernel((0.5,), (1,), np.array([0.3, 0.8]))
    v2 = boundary_kernel((0.5,), (0,), np.array([-0.6, 0.2]))
    assert v == pytest.approx(v1 * v2, abs=1e-13)


def test_boundary_limit_first_order():
    Y = np.array([0.8, -0.5])
    for xd, k in [(1.0, 0), (0.5, 1)]:
        K = boundary_kernel((xd,), (k,), Y)
        errs = []
        lams = []
        for nn in (16, 32, 64, 128):
            lam = xd / (2 * nn + k + 1)
            lams.append(lam)
            errs.append(abs(wigner_eval((nn,), (nn + k,), lam, Y) - K))
        cs = [e / l for e, l in zip(errs, lams)]
        assert all(errs[i + 1] < errs[i] for i in range(3))
        assert max(cs[2:]) <= max(cs[:2]) * 1.05  # constant in |W - K| <= C lam is stable
