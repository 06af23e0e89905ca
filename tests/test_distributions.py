import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.special import zeta

import hfourier.distributions as distributions
from hfourier.distributions import (
    Distribution,
    fourier_distribution,
    g_hat_boundary,
    g_hat_boundary_batch,
    make_f_gamma,
    pair,
)
from hfourier.fields import SampledField, YField
from hfourier.freq_space import FreqFunction, LambdaGrid, gauss_legendre, integrate
from hfourier.profiles import (heat_profile, profile_exp_floor, profile_gauss,
                               profile_to_freq_function)
from hfourier.transform import forward_factored, transpose_transform


@pytest.fixture(scope="module")
def grid():
    return LambdaGrid(1e-4, 16.0, 160)


def test_trace_pairing_heat(grid):
    I = Distribution.single("freq_identity_sum")
    res = pair(I, heat_profile(1.0), grid, atol=3e-6)
    assert res.value.real == pytest.approx(math.pi**2 / 64.0, abs=1e-4)
    assert res.value.imag == 0
    assert res.tail_bound < 1e-3


@settings(max_examples=25)
@given(t=st.floats(0.25, 2.0))
def test_trace_pairing_heat_over_time(t):
    # <I, heat(t)> = sum_n int exp(-4t(2n+1)|lam|) |lam| dlam = pi^2 / (64 t^2)
    res = pair(Distribution.single("freq_identity_sum"), heat_profile(t), LambdaGrid())
    want = math.pi**2 / (64.0 * t * t)
    assert abs(res.value.real - want) <= 1e-3 * want
    assert res.value.imag == 0


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_band_sum_tail_covers_the_strip(t):
    # converged in n, the error is the uncovered strip |lam| < lambda_min:
    # there sum_n exp(-4t(2n+1)|lam|) |lam| tends to 1/(8t), so the strip
    # holds lambda_min / (4t), all of which the tail must count
    res = pair(Distribution.single("freq_identity_sum"), heat_profile(t), LambdaGrid(),
               atol=1e-10)
    assert abs(res.value - math.pi**2 / (64.0 * t * t)) <= res.tail_bound


def _boxed(theta, box):
    """theta, with its band and label, on a wrapper that declares ``box``."""
    return FreqFunction(theta, d=theta.d, band=theta.band, box=box, label=theta.label)


def _band_fixture(name):
    if name == "heat":
        return heat_profile(1.0)
    if name == "gauss_profile":
        return profile_to_freq_function(profile_gauss(1.0))
    return profile_to_freq_function(profile_exp_floor(0.5, lam_slope=0.5))   # band 2


@pytest.mark.parametrize("name", ["heat", "gauss_profile", "exp_floor"])
def test_band_sum_is_the_shell_sum_where_every_stride_is_one(name):
    # |lam| >= 0.05 > _XDOT_STEP / 4: every sample is one shell with weight 1,
    # so the band sum is the plain sum over a full index box
    th = _band_fixture(name)
    grid = LambdaGrid(0.05, 16.0, 40)
    v, _ = distributions._diagonal_band_sum(th, grid, 1, atol=1e-13)
    want = integrate(_boxed(th, 400), grid).value
    assert abs(v - want) <= 2e-12 * abs(want)


@pytest.mark.parametrize("name", ["heat", "gauss_profile", "exp_floor"])
def test_strided_band_sum_matches_the_full_index_box(name):
    # strides up to 25 at |lam| = 1e-3; the box of 6000 shells reaches
    # x. = |lam|(2n + 1) > 12 there
    th = _band_fixture(name)
    grid = LambdaGrid(1e-3, 16.0, 80)
    v, _ = distributions._diagonal_band_sum(th, grid, 1, atol=1e-10)
    want = integrate(_boxed(th, 6000), grid).value
    assert abs(v - want) <= 1e-6 * abs(want)


def test_band_sum_at_d2_keeps_the_band():
    # d > 1 sums every pair within theta's band of each shell, not the
    # diagonal alone; at |lam| >= 0.5 every stride is 1, so converged shell
    # by shell it is integrate's sum over a box the profile has left
    th = profile_to_freq_function(profile_exp_floor(0.5, d=2))   # band 2
    grid = LambdaGrid(0.5, 8.0, 12)
    v, _ = distributions._diagonal_band_sum(th, grid, 2, atol=1e-14)
    want = integrate(_boxed(th, 60), grid).value
    assert abs(v - want) <= 1e-13 * abs(want)
    diagonal = FreqFunction(th, d=2, band=0, label=th.label)
    assert v.real > 1.3 * distributions._diagonal_band_sum(diagonal, grid, 2, atol=1e-14)[0].real


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_identity_pairing_at_d2(t):
    # <I, heat(t)> = sum_n int exp(-4t(2|n| + 2)|lam|) lam^2 dlam = pi^2 / (768 t^3)
    res = pair(Distribution.single("freq_identity_sum", d=2), heat_profile(t, d=2), LambdaGrid())
    want = math.pi**2 / (768.0 * t**3)
    assert abs(res.value - want) <= res.tail_bound
    assert abs(res.value - want) <= 1e-3 * want


def test_band_sum_caps_the_samples_at_every_d():
    # a constant theta never decays, so the d = 2 shells run to the cap,
    # shells 0..140 (141^2 <= _BAND_CAP samples per lambda and pair), and
    # shells that grow fit no finite tail
    entries = []

    def one(n, m, lam):
        out = np.ones(np.broadcast_shapes(n.shape[:-1], m.shape[:-1], np.shape(lam)), dtype=complex)
        entries.append(out.size)
        return out

    grid = LambdaGrid(0.5, 8.0, 4)
    _, tail = distributions._diagonal_band_sum(FreqFunction(one, d=2, band=0), grid, 2)
    assert tail == math.inf
    assert sum(entries) == 141**2 * len(grid.lam) and 142**2 > distributions._BAND_CAP


@pytest.mark.parametrize("theta, d", [(heat_profile(1.0), 2), (heat_profile(1.0, d=2), 1)])
def test_band_sum_refuses_a_d_other_than_thetas(theta, d):
    with pytest.raises(ValueError, match=r"'heat\(t=1.0\)' has d = \d, not the band sum's d"):
        distributions._diagonal_band_sum(theta, LambdaGrid(), d)


def test_trace_functional_keeps_the_label(monkeypatch):
    seen = []
    band_sum = distributions._diagonal_band_sum

    def spy(theta, grid, d, atol):
        seen.append(theta.label)
        return band_sum(theta, grid, d, atol)

    monkeypatch.setattr(distributions, "_diagonal_band_sum", spy)
    pair(Distribution.single("freq_identity_sum"), heat_profile(1.0), LambdaGrid(0.05, 8.0, 12))
    assert seen == ["heat(t=1.0)"]


def test_sums_at_d2_keep_the_declared_box():
    # the band sum and the trace functional at d > 1 sum the box theta
    # declares, not the fixed 24-box
    grid = LambdaGrid(0.05, 8.0, 24)
    floor = _boxed(profile_to_freq_function(profile_exp_floor(0.5, d=2)), 3)
    v, _ = distributions._diagonal_band_sum(floor, grid, 2)
    assert v == pytest.approx(integrate(floor, grid).value, rel=1e-13)
    heat = _boxed(heat_profile(1.0, d=2), 3)
    got = pair(Distribution.single("freq_identity_sum", d=2), heat, grid).value
    assert got == pytest.approx(integrate(heat, grid).value, rel=1e-13)


def test_band_sum_blocks_stay_small():
    # theta is evaluated in blocks of at most _BAND_ENTRIES entries, so one
    # block's transients stay near glibc's 128 KiB mmap threshold and reuse
    # heap memory instead of being mapped afresh on every block
    args = (Distribution.single("freq_identity_sum"), heat_profile(1.0), LambdaGrid())
    pair(*args)
    tracemalloc.start()
    try:
        pair(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_mollifier_error_falls_at_second_order():
    # c15's sums: eps^-1 psi(lam/eps) theta tends to <mu, theta> at O(eps^2),
    # so halving eps divides the error by about 4 unless the band sum is
    # truncated before it converges
    fine = LambdaGrid(1e-6, 16.0, 240)
    for name in ("heat", "gauss_profile", "exp_floor"):
        th = _band_fixture(name)
        mu = distributions._boundary_measure_pair(lambda xd, k: 1.0, th).real
        errs = []
        for eps in (0.05, 0.025):
            def weighted(n, m, lam, _e=eps):
                return np.exp(-((lam / _e) ** 2)) / (_e * math.sqrt(math.pi)) * th(n, m, lam)

            v, _ = distributions._diagonal_band_sum(FreqFunction(weighted, d=1, band=th.band),
                                                    fine, 1, atol=1e-8)
            errs.append(abs(v.real - mu))
        assert errs[1] <= 0.35 * errs[0], (name, errs)


def test_pair_rejects_dimension_mismatch(grid):
    I = Distribution.single("freq_identity_sum")
    with pytest.raises(ValueError, match="dimension"):
        pair(I, heat_profile(1.0, d=2), grid)


def test_dirac_origin_pairing(grid):
    D = Distribution.single("freq_dirac_origin", coeff=2.5)
    assert pair(D, heat_profile(1.0), grid).value == pytest.approx(2.5)
    th = profile_to_freq_function(profile_gauss(2.0))
    assert pair(Distribution.single("freq_dirac_origin"), th, grid).value == pytest.approx(1.0)


def test_boundary_measure_normalization(grid):
    # density one against exp(-x) concentrated on k = 0: the vague-limit
    # normalization gives half the one-sided integral
    mu = Distribution.single("freq_boundary_measure", payload=lambda xd, k: 1.0)
    th = profile_to_freq_function(profile_gauss(1.0))
    res = pair(mu, th, grid)
    assert res.value.real == pytest.approx(0.5, abs=1e-9)


def _old_halfline_rule(x_max=28.0, panels=12, q=24):
    """The boundary-measure rule as it was built before the shared
    Gauss-Legendre builder."""
    xi, om = np.polynomial.legendre.leggauss(q)
    edges = np.concatenate([[0.0], np.geomspace(0.02, x_max, panels)])
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (a + b) + 0.5 * (b - a) * xi)
        ws.append(0.5 * (b - a) * om)
    return np.concatenate(xs), np.concatenate(ws)


def test_boundary_measure_runs_the_old_halfline_rule(monkeypatch, grid):
    rules = []

    def spy(edges, q):
        rules.append(gauss_legendre(edges, q))
        return rules[-1]

    monkeypatch.setattr(distributions, "gauss_legendre", spy)
    mu = Distribution.single("freq_boundary_measure", payload=lambda xd, k: 1.0)
    pair(mu, heat_profile(1.0), grid)
    assert len(rules) == 1
    for got, want in zip(rules[0], _old_halfline_rule()):
        assert np.array_equal(got, want)


def test_boundary_pairing_calls_the_density_once():
    # one density call on both orthants (-x, x) of the 288-point half-line
    # rule; the batch transform of the stacked orthants is the two
    # one-orthant batches, bit for bit
    h = YField.from_function(
        lambda y, e: np.exp(-(y**2 + 0.6 * e**2 + 0.3 * y * e)) * (1 + 0.4 * y - 0.7j * e),
        1, (5.0, 6.5), (29, 37),
    )
    calls = []

    def density(xs, ks):
        calls.append(np.array(xs))
        return g_hat_boundary_batch(h, xs, ks)

    pair(Distribution.single("freq_boundary_measure", payload=density), heat_profile(1.0))
    assert len(calls) == 1
    xs = calls[0][288:]
    assert calls[0].shape == (576,) and np.all(xs > 0)
    assert np.array_equal(calls[0][:288], -xs)
    ks = np.arange(-8, 9)
    stacked = np.concatenate([g_hat_boundary_batch(h, -xs, ks), g_hat_boundary_batch(h, xs, ks)])
    assert np.array_equal(g_hat_boundary_batch(h, np.r_[-xs, xs], ks), stacked)


def test_finite_part_validity_range():
    with pytest.raises(ValueError):
        Distribution.single("freq_finite_part", payload=2.0)   # must exceed d + 1
    with pytest.raises(ValueError):
        Distribution.single("freq_finite_part", payload=2.5)   # must stay below d + 3/2
    Distribution.single("freq_finite_part", payload=2.25)


def test_finite_part_heat_oracle(grid):
    # closed form: (pi^2/4) Gamma(2 - gamma) (4 t)^{gamma - 2}
    g = 2.25
    Pf = Distribution.single("freq_finite_part", payload=g)
    res = pair(Pf, heat_profile(1.0), grid)
    want = (math.pi**2 / 4.0) * gamma_fn(2.0 - g) * 4.0 ** (g - 2.0)
    assert res.value.real == pytest.approx(want, abs=0.05)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("g", [2.1, 2.3, 2.45])
def test_finite_part_tail_covers_the_error(grid, t, g):
    # the tail carries the uncovered strip |lam| < lambda_min, the largest
    # part of the error, so it is no smaller than the error of the value
    res = pair(Distribution.single("freq_finite_part", payload=g), heat_profile(t), grid)
    want = (math.pi**2 / 4.0) * gamma_fn(2.0 - g) * (4.0 * t) ** (g - 2.0)
    assert res.tail_bound >= abs(res.value.real - want)


def test_finite_part_reduces_to_plain_integral(grid):
    # away from the boundary the finite part is the plain weighted integral
    gdx = 2.25

    def away(n, m, lam):
        x = np.abs(lam) * (2 * n.sum(-1) + 1)
        inside = (x > 0.5) & (x < 8.0) & (n == m).all(-1)
        return np.where(inside, np.exp(-x), 0.0).astype(complex)

    th = FreqFunction(away, d=1, diagonal=True,
                      boundary=lambda xd, k: 0.0)
    Pf = Distribution.single("freq_finite_part", payload=gdx)
    lhs = pair(Pf, th, grid).value.real

    def weighted(n, m, lam):
        w = (np.abs(lam) * (2 * n.sum(-1) + 1.0)) ** (-gdx)
        return w * away(n, m, lam)

    # 40000 shells cover the support x. < 8 down to lambda_min = 1e-4
    rhs = integrate(FreqFunction(weighted, d=1, diagonal=True, box=40000), grid).value.real
    assert lhs == pytest.approx(rhs, rel=1e-6)


def _full_shell_sum(gammas, theta, grid, x_cut=60.0, block=8192):
    """The finite part on the grid with every index shell summed, one value
    per exponent: the theta part shell by shell until x. = lam (2n + 1)
    passes ``x_cut`` at every lambda (the fixtures fall like e^{-x.}
    there), the origin part 2^{-gamma} zeta(gamma, 1/2) in closed form."""
    pos = grid.lam[grid.lam > 0]
    wpos = grid.weights[grid.lam > 0]
    gammas = np.asarray(gammas)[:, None, None]
    part = np.zeros(gammas.shape[0], dtype=complex)
    for n0 in range(0, int(x_cut / (2.0 * pos[0])) + block, block):
        live = (2.0 * n0 + 1.0) * pos < x_cut
        if not live.any():
            break
        lam = pos[live]
        n = np.arange(n0, n0 + block)[:, None]
        vals = theta(n[:, None], n[:, None], np.concatenate([lam, -lam]))
        both = vals[:, : len(lam)] + vals[:, len(lam):]
        part += np.sum(both * (2.0 * n + 1.0) ** -gammas * wpos[live] * lam ** (1.0 - gammas),
                       axis=(1, 2))
    g = gammas[:, 0, 0]
    coef = np.sum(wpos * pos ** (1.0 - g[:, None]), axis=1) + grid.lambda_max ** (2.0 - g) / (g - 2.0)
    return part - 2.0 * theta.value_at_origin(grid) * 2.0 ** -g * zeta(g, 0.5) * coef


@pytest.mark.parametrize("name", ["heat", "gauss_profile", "exp_floor"])
def test_finite_part_matches_the_full_shell_sum(grid, name):
    # the geometric node rule against every shell summed, on the same grid
    th = _band_fixture(name)
    gammas = (2.1, 2.3, 2.45)
    want = _full_shell_sum(gammas, th, grid)
    for g, w in zip(gammas, want):
        v, _ = distributions._finite_part(g, th, grid, atol=1e-6)
        assert abs(v - w) <= 1e-6, (g, v, w)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_finite_part_closed_form_on_a_deep_grid(t):
    # down to lambda_min = 1e-8 the uncovered strip is about 1e-8, so the
    # value meets the closed form (pi^2/4) Gamma(2 - gamma) (4t)^{gamma - 2}
    g = 2.1
    res = pair(Distribution.single("freq_finite_part", payload=g), heat_profile(t),
               LambdaGrid(1e-8, 16.0, 240))
    want = (math.pi**2 / 4.0) * gamma_fn(2.0 - g) * (4.0 * t) ** (g - 2.0)
    assert res.value.real == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("g", [2.1, 2.3, 2.45])
def test_finite_part_samples_few_entries(g):
    # the node rule stops once the theta part has decayed: a shell-by-shell
    # sum to n = 4000 would evaluate 1.28e6 entries on the default grid
    heat = heat_profile(0.5)
    sizes = []

    def counted(n, m, lam):
        out = heat(n, m, lam)
        sizes.append(out.size)
        return out

    spy = FreqFunction(counted, d=1, band=0, boundary=heat.at_boundary)
    pair(Distribution.single("freq_finite_part", payload=g), spy, LambdaGrid())
    assert 0 < sum(sizes) <= 1.5e5


def test_g_hat_boundary_oracles():
    g = YField.from_function(lambda y, e: np.exp(-(y**2 + e**2)), 1, (6, 6), (33, 33))
    for xd in (0.25, 1.0, 4.0):
        got = g_hat_boundary(g, (xd,), (0,))
        assert got == pytest.approx(math.pi * math.exp(-xd), abs=1e-6)
    # radial data carries no angular weight
    assert abs(g_hat_boundary(g, (1.0,), (1,))) < 1e-12
    assert abs(g_hat_boundary(g, (0.5,), (2,))) < 1e-12
    assert g_hat_boundary(g, (0.0,), (0,)) == pytest.approx(math.pi, abs=1e-6)
    # the closed-form batch against the kernel quadrature, on non-radial
    # complex data with unequal y/eta extents and point counts
    h = YField.from_function(
        lambda y, e: np.exp(-(y**2 + 0.6 * e**2 + 0.3 * y * e)) * (1 + 0.4 * y - 0.7j * e + 0.2 * y * e),
        1, (5.0, 6.5), (29, 37),
    )
    xs = [0.0, 0.3, -0.3, 2.0, -7.5, 28.0]
    ks = list(range(-8, 9))
    batch = g_hat_boundary_batch(h, xs, ks)
    want = np.array([[g_hat_boundary(h, (x,), (k,)) for k in ks] for x in xs])
    assert np.abs(want).max() > 1.0
    assert np.abs(batch - want).max() < 1e-12


def test_make_f_gamma():
    f = make_f_gamma(1.0, 1)
    la = np.array([1.0])
    assert f((0,), (0,), la)[0] == 1.0
    assert f((2,), (2,), np.array([0.2]))[0].real == pytest.approx(1.0)
    assert f((0,), (1,), la)[0] == 0
    with pytest.raises(ValueError):
        make_f_gamma(-1.0)


def test_fourier_distribution_closed_forms():
    T = Distribution.single("phys_dirac")
    out = fourier_distribution(T)
    assert out.terms[0][1] == "freq_identity_sum"

    one = fourier_distribution(Distribution.single("phys_one"))
    coeff, kind, _ = one.terms[0]
    assert kind == "freq_dirac_origin"
    assert coeff == pytest.approx(math.pi**2)

    g = YField.from_function(lambda y, e: np.exp(-(y**2 + e**2)), 1, (6, 6), (33, 33))
    bm = fourier_distribution(Distribution.single("phys_g_tensor_one", payload=g))
    coeff, kind, dens = bm.terms[0]
    assert kind == "freq_boundary_measure"
    assert coeff == pytest.approx(2.0 * math.pi)
    xs, ks = [0.0, 0.5, -2.0], [-1, 0, 3]
    assert np.array_equal(dens(xs, ks), g_hat_boundary_batch(g, xs, ks))


def test_fourier_distribution_function_branch(grid):
    f = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)), 1, (6, 6, 6), (33, 33, 33)
    )
    T = Distribution.single("phys_function", payload=f)
    small = LambdaGrid(0.3, 3.0, 6)
    out = fourier_distribution(T, grid=small, n_max=8)
    psi = out.terms[0][2]
    got = pair(out, heat_profile(1.0), small)
    want = integrate(
        FreqFunction(lambda n, m, lam: psi(n, m, lam) * heat_profile(1.0)(n, m, lam),
                     d=1, diagonal=False, box=8),
        small,
    ).value
    assert got.value == pytest.approx(want, abs=1e-12)


def test_pair_sums_the_payload_box():
    # the table's whole 30-box, not a default cap: n = 25..30 carry 1e-3 of
    # the value against a slowly decaying heat(0.05)
    f = SampledField.from_function(lambda y, e, s: np.exp(-0.5 * (y**2 + e**2) - s**2),
                                   1, (6, 6, 6), (33, 33, 33))
    grid = LambdaGrid(1e-3, 10.0, 24)
    out = fourier_distribution(Distribution.single("phys_function", payload=f), grid, n_max=30)
    psi, theta = out.terms[0][2], heat_profile(0.05)
    got = pair(out, theta, grid)
    product = FreqFunction(lambda n, m, lam: psi(n, m, lam) * theta(n, m, lam), band=0)
    want = integrate(_boxed(product, 30), grid)
    assert got.value == want.value and got.tail_bound == want.tail_bound
    assert abs(integrate(_boxed(product, 24), grid).value - want.value) > 5e-4 * abs(want.value)
    assert psi.box == 30


def test_pair_sums_the_smaller_declared_box():
    # a test function cut to the 12-box meets the table's 30-box: the
    # product declares 12, and the pairing is its sum over that box
    f = SampledField.from_function(lambda y, e, s: np.exp(-0.5 * (y**2 + e**2) - s**2),
                                   1, (6, 6, 6), (33, 33, 33))
    grid = LambdaGrid(1e-3, 10.0, 24)
    out = fourier_distribution(Distribution.single("phys_function", payload=f), grid, n_max=30)
    psi, heat = out.terms[0][2], heat_profile(0.05)

    def cut(n, m, lam):
        return np.where((np.maximum(n, m) <= 12).all(axis=-1), heat(n, m, lam), 0.0)

    theta = FreqFunction(cut, band=0, box=12, label="heat-12")
    assert distributions._product_fn(psi, theta).box == 12
    got = pair(out, theta, grid)
    product = FreqFunction(lambda n, m, lam: psi(n, m, lam) * theta(n, m, lam), band=0)
    want = integrate(_boxed(product, 12), grid)
    assert got.value == want.value and got.tail_bound == want.tail_bound


def test_pair_sums_an_unboxed_payload_over_the_box_of_theta():
    # a payload that declares no box meets a theta cut to the 10-box: the
    # pairing is the sum of their product over that box, bit for bit
    grid = LambdaGrid(1e-3, 10.0, 24)
    psi = FreqFunction(lambda n, m, lam: np.exp(-0.3 * np.abs(lam) * (n + m + 1.0)[..., 0]),
                       band=1, label="free")
    theta = _boxed(heat_profile(0.05), 10)
    got = pair(Distribution.single("freq_function", payload=psi), theta, grid)
    product = FreqFunction(lambda n, m, lam: psi(n, m, lam) * theta(n, m, lam), band=0, box=10)
    want = integrate(product, grid)
    assert got.value == want.value and got.tail_bound == want.tail_bound


def test_pair_refuses_a_payload_without_box():
    # neither factor declares a box: integrate refuses the product, naming both
    free = FreqFunction(lambda n, m, lam: 0.0 * lam, label="free")
    with pytest.raises(ValueError, match=r"'free\*heat\(t=1.0\)' declares no index box"):
        pair(Distribution.single("freq_function", payload=free), heat_profile(1.0))


def test_duality_function_branch(grid):
    # <F_H f, theta> computed spectrally equals the physical pairing of f
    # with the transposed transform of theta, for several (f, theta) pairs
    theta = forward_factored(
        SampledField.from_function(
            lambda y, e, s: np.exp(-0.5 * (y**2 + e**2) - s**2), 1, (6, 6, 6), (33, 33, 33)
        ),
        12, LambdaGrid(1e-3, 10.0, 80),
    ).as_freq_function()
    tgrid = LambdaGrid(1e-3, 10.0, 80)
    ttheta, _ = transpose_transform(theta, tgrid, extents=(6, 6, 6), points=(33, 33, 33))
    fixtures = [
        lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)),
        lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)) * (1 + 0.4 * s),
        lambda y, e, s: np.exp(-1.2 * (y**2 + e**2) - 0.8 * s**2) * (1 + 0.2 * y),
        lambda y, e, s: np.exp(-(y**2 + 1.5 * e**2 + s**2)),
        lambda y, e, s: np.exp(-(y**2 + e**2 + 1.2 * s**2)) * (1 - 0.3 * e),
    ]
    for fn in fixtures:
        f = SampledField.from_function(fn, 1, (6, 6, 6), (33, 33, 33))
        table = forward_factored(f, 12, tgrid)
        lhs = integrate(
            FreqFunction(
                lambda n, m, lam: table.as_freq_function()(n, m, lam) * theta(n, m, lam), d=1,
                box=12,
            ),
            tgrid,
        ).value
        rhs = np.sum(f.samples * ttheta.samples) * f.cell_volume
        assert lhs == pytest.approx(rhs, rel=3e-3)


@pytest.mark.slow
def test_vertical_constant_duality_and_continuity(grid):
    # F_H(g x 1) = 2 pi (G g) mu, checked against the physical pairing with
    # the transposed transform, and approached monotonically by the
    # vertically mollified tensors g x chi(eps s)
    gY = YField.from_function(lambda y, e: np.exp(-(y**2 + e**2)), 1, (6, 6), (33, 33))
    theta = heat_profile(1.0)
    ttheta, _ = transpose_transform(theta, grid, extents=(6, 6, 20), points=(33, 33, 107),
                                    n_cap=600)
    T = Distribution.single("phys_g_tensor_one", payload=gY)
    spectral = pair(fourier_distribution(T), theta, grid).value.real

    hy, he, hs = ttheta.spacings
    svals = ttheta.s_axis
    smarg = np.einsum(
        "ye,yes->s", gY.samples.real, ttheta.samples.real
    ) * gY.cell_area
    full = float(np.sum(smarg) * hs)
    assert full == pytest.approx(spectral, rel=4e-3)

    errs = []
    for eps in (0.4, 0.2, 0.1):
        chi = np.exp(-((eps * svals) ** 2))
        val = float(np.sum(smarg * chi) * hs)
        errs.append(abs(val - spectral))
    assert errs[2] < errs[1] < errs[0]


def test_distribution_algebra():
    a = Distribution.single("freq_identity_sum")
    b = Distribution.single("freq_dirac_origin", coeff=2.0)
    c = (a + b).scaled(3.0)
    grid = LambdaGrid(1e-4, 16.0, 160)
    got = pair(c, heat_profile(1.0), grid, atol=3e-6).value.real
    want = 3.0 * (math.pi**2 / 64.0 + 2.0)
    assert got == pytest.approx(want, abs=1e-3)
    with pytest.raises(ValueError):
        Distribution([(1.0, "phys_dirac", None), (1.0, "freq_identity_sum", None)])
    with pytest.raises(ValueError):
        Distribution.single("nonsense")
