import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfourier.freq_space import (
    BoundaryPoint,
    FreqFunction,
    FreqPoint,
    LambdaGrid,
    distance,
    gauss_legendre,
    integrate,
    l1m_norm,
    one_plus_weight,
    simpson_log_weights,
)
from hfourier.profiles import heat_profile
from hfourier.distributions import make_f_gamma
from hfourier.transform import SpectralTable, inverse_at_point, table_from_csv, table_to_csv


def random_point(rng, kind=None):
    kind = kind or rng.choice(["int", "bdry"])
    if kind == "int":
        lam = float(rng.uniform(0.05, 3.0)) * float(rng.choice([-1.0, 1.0]))
        return FreqPoint((int(rng.integers(0, 6)),), (int(rng.integers(0, 6)),), lam)
    sgn = float(rng.choice([-1.0, 1.0]))
    return BoundaryPoint((sgn * float(rng.uniform(0.1, 3.0)),), (int(rng.integers(-3, 4)),))


def test_distance_examples():
    assert distance(FreqPoint((1,), (1,), 0.5), BoundaryPoint((1.0,), (0,))) == pytest.approx(0.5)
    p = FreqPoint((2,), (3,), -0.7)
    assert distance(p, p) == 0.0
    assert distance(BoundaryPoint((1.0,), (2,)), BoundaryPoint((2.5,), (0,))) == pytest.approx(3.5)


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        p, q, r = (random_point(rng) for _ in range(3))
        dpq = distance(p, q)
        assert dpq == pytest.approx(distance(q, p), abs=1e-14)
        assert dpq <= distance(p, r) + distance(r, q) + 1e-12


def test_distance_interior_to_boundary_continuity():
    b = BoundaryPoint((1.2,), (1,))
    prev = math.inf
    for n in (4, 16, 64, 256):
        lam = 1.2 / (2 * n + 2)
        d = distance(FreqPoint((n,), (n + 1,), lam), b)
        assert d < prev
        prev = d
    assert prev < 2e-2


def test_boundary_point_validation():
    BoundaryPoint((0.0,), (0,))  # distinguished origin is fine
    with pytest.raises(ValueError):
        BoundaryPoint((1.0, -2.0), (0, 0))
    with pytest.raises(ValueError):
        BoundaryPoint((0.0, 1.0), (0, 0))
    with pytest.raises(ValueError):
        FreqPoint((0,), (0,), 0.0)


def test_weight_examples():
    assert one_plus_weight(np.array([0]), np.array([0]), 0.7, 1) == pytest.approx(1.7)
    assert one_plus_weight(np.array([1]), np.array([0]), 2.0, 1) == pytest.approx(6.0)
    assert one_plus_weight(np.array([0]), np.array([1]), 2.0, 1) == pytest.approx(6.0)


# ---- lambda grid -----------------------------------------------------------

def test_lambda_grid_structure():
    grid = LambdaGrid(1e-4, 16.0, 160)
    assert len(grid.lam) == 320
    assert np.all(grid.lam[1:] > grid.lam[:-1])
    assert np.allclose(grid.lam, -grid.lam[::-1])
    assert 0.0 not in grid.lam


def test_lambda_grid_quadrature_accuracy():
    grid = LambdaGrid(1e-4, 16.0, 160)
    pos = grid.lam > 0
    got = np.sum(np.exp(-4 * grid.lam[pos]) * grid.lam[pos] * grid.weights[pos])
    want = 1.0 / 16.0 - math.exp(-64) * 0  # integral over (0, 16], tail negligible
    assert got == pytest.approx(want, rel=2e-6)


def test_lambda_grid_json_roundtrip(tmp_path):
    # the grid's JSON travels in a table's sidecar, and table_from_csv rebuilds it
    grid = LambdaGrid(1e-3, 8.0, 40)
    path = tmp_path / "table.csv"
    table_to_csv(SpectralTable(np.zeros((1, 1, len(grid.lam))), grid), path)
    clone = table_from_csv(path).grid
    assert np.array_equal(clone.lam, grid.lam)
    assert "ratio" in grid.to_json()


def _simpson_loop(count, step):
    """Composite Simpson weights pair by pair, with the quadratic end
    correction for an odd number of intervals: the reference loop."""
    w = np.zeros(count)
    if count == 2:
        return np.array([0.5, 0.5]) * step
    for i in range((count - 1) // 2):
        w[2 * i] += step / 3.0
        w[2 * i + 1] += 4.0 * step / 3.0
        w[2 * i + 2] += step / 3.0
    if (count - 1) % 2 == 1:
        w[-3] += -step / 12.0
        w[-2] += 8.0 * step / 12.0
        w[-1] += 5.0 * step / 12.0
    return w


@settings(max_examples=60, deadline=None)
@given(count=st.integers(2, 5000),
       step=st.sampled_from([1.0, 0.1, 2.0 / 3.0, math.log(16e3) / 47, 6.5e-3, 1e-300]))
@example(count=3, step=0.1)
@example(count=4, step=0.1)
def test_simpson_weights_match_the_pairwise_loop_bit_for_bit(count, step):
    assert np.array_equal(simpson_log_weights(count, step), _simpson_loop(count, step))


@pytest.mark.parametrize("q", [1, 4, 12, 24, 32])
def test_gauss_legendre_exact_on_nonuniform_panels(q):
    edges = [-0.5, 0.02, 0.3, 1.7, 2.0, 6.5]
    x, w = gauss_legendre(edges, q)
    assert x.shape == w.shape == (q * (len(edges) - 1),)
    assert np.all(np.diff(x) > 0)
    # degree 2q - 1 is exact, to rounding
    for p in (0, 2 * q - 2, 2 * q - 1):
        want = (edges[-1] ** (p + 1) - edges[0] ** (p + 1)) / (p + 1)
        assert np.sum(w * x**p) == pytest.approx(want, rel=1e-13)
    # the cached reference rule is never handed out
    kept = x.copy(), w.copy()
    x[:], w[:] = 0.0, 0.0
    assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre(edges, q), kept))


# ---- integration -----------------------------------------------------------

def test_integrate_zero():
    grid = LambdaGrid(1e-3, 8.0, 80)
    zero = FreqFunction(
        lambda n, m, lam: np.zeros(np.broadcast_shapes(n.shape[:-1], lam.shape)), diagonal=True,
        box=8,
    )
    res = integrate(zero, grid)
    assert res.value == 0
    assert res.tail_bound == 0


def test_integrate_indicator():
    # indicator of |lam| <= 1 on the lowest diagonal entry: integral of |lam|
    grid = LambdaGrid(1e-4, 16.0, 160)
    ind = FreqFunction(
        lambda n, m, lam: ((np.abs(lam) <= 1.0) & (n == 0).all(-1) & (m == 0).all(-1)).astype(
            complex
        ),
        diagonal=True, box=2,
    )
    res = integrate(ind, grid)
    # the jump falls inside one geometric cell; expect cell-size accuracy
    # (refinement is not monotone for a discontinuous integrand)
    assert res.value.real == pytest.approx(1.0, abs=5e-2)


def test_integrate_heat_series():
    grid = LambdaGrid(1e-4, 16.0, 160)
    res = integrate(_boxed(heat_profile(1.0), 400), grid)
    # sum over odd squares gives pi^2 / 64
    assert res.value.real == pytest.approx(math.pi**2 / 64, abs=2e-4)
    assert res.tail_bound < 2e-3


def test_l1m_norm_family():
    grid = LambdaGrid(1e-4, 16.0, 160)
    f1 = _boxed(make_f_gamma(1.0, 1), 24)
    vals = []
    for lam_min in (4e-4, 2e-4, 1e-4):
        g = LambdaGrid(lam_min, 16.0, 160)
        vals.append(l1m_norm(f1, 4, g).value.real)
    deltas = [abs(vals[i + 1] - vals[i]) for i in range(2)]
    assert deltas[1] < 0.8 * deltas[0]

    f2 = _boxed(make_f_gamma(2.0, 1), 24)
    a = l1m_norm(f2, 4, LambdaGrid(1e-3, 16.0, 160)).value.real
    b = l1m_norm(f2, 4, LambdaGrid(1e-5, 16.0, 160)).value.real
    slope = (b - a) / math.log(1e2)
    expected = 2.0 * sum((2 * n + 1.0) ** -2 for n in range(25))
    assert slope == pytest.approx(expected, rel=0.05)


def _boxed(theta, box):
    """theta, with its band and label, on a wrapper that declares ``box``."""
    return FreqFunction(theta, d=theta.d, band=theta.band, box=box, label=theta.label)


def _random_table_fn(n_max=8):
    grid = LambdaGrid(0.05, 4.0, 6)
    rng = np.random.default_rng(5)
    shape = (n_max + 1, n_max + 1, len(grid.lam))
    table = SpectralTable(rng.normal(size=shape) + 1j * rng.normal(size=shape), grid)
    return table.as_freq_function(), grid


def test_integrate_reads_the_declared_box():
    # the sum over the box a table declares is the sum a wrapper declaring
    # that box gives to the same function, bit for bit
    fn, grid = _random_table_fn()
    rewrapped = _boxed(FreqFunction(fn, d=1, label="unboxed"), 8)
    got, want = integrate(fn, grid), integrate(rewrapped, grid)
    assert got.value == want.value and got.tail_bound == want.tail_bound
    norm, want = l1m_norm(fn, 4, grid), l1m_norm(rewrapped, 4, grid)
    assert norm.value == want.value and norm.tail_bound == want.tail_bound


def test_a_sum_without_box_or_cap_is_refused_by_label():
    # integrate, l1m_norm and the spot inverse refuse an unboxed theta
    # before they call it
    calls = []

    def interior(n, m, lam):
        calls.append(lam)
        return np.exp(-np.abs(lam)) + 0 * n[..., 0]

    free = FreqFunction(interior, label="free")
    grid = LambdaGrid(0.05, 4.0, 6)
    for call in (lambda: integrate(free, grid), lambda: l1m_norm(free, 4, grid),
                 lambda: inverse_at_point(free, np.zeros(3), grid)):
        with pytest.raises(ValueError, match="theta 'free' declares no index box$"):
            call()
    assert not calls


def test_value_at_origin_extrapolation():
    grid = LambdaGrid(1e-5, 8.0, 160)
    th = heat_profile(1.0)
    assert th.value_at_origin(grid) == pytest.approx(1.0, abs=1e-12)
    # strip the boundary evaluator to force the sqrt-extrapolation path
    bare = FreqFunction(th._interior, d=1, diagonal=True)
    assert bare.value_at_origin(grid).real == pytest.approx(1.0, abs=2e-2)
