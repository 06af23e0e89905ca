import math

import numpy as np
import pytest

from hfourier.freq_space import BoundaryPoint, LambdaGrid
from hfourier.diff_ops import delta_hat
from hfourier.profiles import (
    boundary_diff,
    heat_profile,
    profile_exp_floor,
    profile_gauss,
    profile_to_freq_function,
)


def test_heat_profile_values():
    h = heat_profile(1.0)
    la = np.array([1.0])
    assert h((0,), (0,), la)[0].real == pytest.approx(math.exp(-4.0))
    assert h((2,), (3,), la)[0] == 0
    assert h.at_boundary((0.7,), (0,)) == pytest.approx(math.exp(-4 * 0.7))
    assert h.at_boundary((0.7,), (1,)) == 0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            heat_profile(bad)


def test_heat_profile_short_time_limit():
    la = np.array([0.5])
    for n in range(4):
        assert heat_profile(1e-9)((n,), (n,), la)[0].real == pytest.approx(1.0, abs=1e-7)


def _gauss_closed_form(n, lam, sigma):
    # Theta(n, n, lam) = exp(-|lam|(2n + 1) - lam^2 / (2 sigma^2)) and its lam-derivative
    v = math.exp(-abs(lam) * (2 * n + 1) - lam**2 / (2.0 * sigma**2))
    return v, -(math.copysign(2 * n + 1, lam) + lam / sigma**2) * v


def test_profile_gauss_matches_analytic():
    sigma = 1.5
    th = profile_to_freq_function(profile_gauss(sigma))
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(0, 8))
        lam = float(rng.uniform(-2, 2)) or 0.3
        value, dlam = _gauss_closed_form(n, lam, sigma)
        assert th((n,), (n,), np.array([lam]))[0] == pytest.approx(value, abs=1e-14)
        assert th.dlam((n,), (n,), np.array([lam]))[0] == pytest.approx(dlam, abs=1e-12)


def test_profile_theta_points():
    th = profile_to_freq_function(profile_gauss(2.0))
    v = complex(th((1,), (1,), 0.5))
    assert v.real == pytest.approx(_gauss_closed_form(1, 0.5, 2.0)[0])
    b = complex(th.at_boundary((0.8,), (0,)))
    assert b.real == pytest.approx(math.exp(-0.8))
    assert complex(th((0,), (1,), 0.5)) == 0  # off support
    assert complex(th.at_boundary((0.8,), (1,))) == 0


def test_profile_decay_bound_sampled():
    # fast decay in (x, k) with every polynomial weight, sampled check
    P = profile_gauss(1.0)
    for p in (1, 3, 5):
        sup = 0.0
        for x in np.linspace(0, 40, 81):
            for lam in (-1.0, 0.0, 2.0):
                v = abs(np.asarray(P.value(np.array([x]), (0,), np.asarray(lam))))
                sup = max(sup, float((1 + x) ** p * v))
        assert np.isfinite(sup)
        assert sup < 700  # (1+x)^5 e^{-x} stays below ~630


def test_floor_profile_parity():
    P = profile_exp_floor(0.5, lam_slope=0.5)
    x = np.array([1.2])
    for k in (1, 2):
        a = np.asarray(P.value(x, (k,), np.asarray(0.3)))
        b = np.asarray(P.value(x, (-k,), np.asarray(0.3)))
        assert b == pytest.approx((-1.0) ** k * a, abs=1e-15)
    # support floor: nothing below r0/2
    assert np.asarray(P.value(np.array([0.2]), (0,), np.asarray(0.0))) == 0.0


def test_floor_profile_ramp_smoothness():
    P = profile_exp_floor(0.5)
    xs = np.linspace(0.05, 1.0, 400)[:, None]
    vals = np.asarray(P.value(xs, (0,), np.asarray(0.0)))
    d1 = np.asarray(P.dx(xs, (0,), np.asarray(0.0), 0))
    num = np.gradient(vals, xs[:, 0])
    # analytic first derivative tracks the numerical one through the ramp
    assert np.abs(num[5:-5] - d1[5:-5]).max() < 2e-2


def test_boundary_diff_example():
    P = profile_exp_floor(0.5)
    lap, dl = boundary_diff(P, BoundaryPoint((1.5,), (0,)))
    assert lap.real == pytest.approx((1.5 - 1.0) * math.exp(-1.5), abs=1e-12)
    assert dl == 0  # lambda-even profile
    P2 = profile_exp_floor(0.5, lam_slope=0.5)
    _, dl2 = boundary_diff(P2, BoundaryPoint((1.5,), (0,)))
    assert dl2.real == pytest.approx(0.5 * math.exp(-1.5), abs=1e-12)


def test_boundary_diff_k_term_matches_interior():
    P = profile_exp_floor(0.5, lam_slope=0.5)
    th = profile_to_freq_function(P)
    xd, k = 1.2, 2
    lap, _ = boundary_diff(P, BoundaryPoint((xd,), (k,)))
    lam = 1e-3
    nn = int(round((xd / lam - k - 1) / 2))
    lam = xd / (2 * nn + k + 1)
    interior = delta_hat(th, (nn,), (nn + k,), np.array([lam]))[0]
    assert abs(interior - lap) / abs(lap) < 2e-2


def test_boundary_diff_guards():
    P = profile_gauss(1.0)
    with pytest.raises(ValueError):
        boundary_diff(P, BoundaryPoint((1.0,), (0,)))  # needs a floor profile
    P2 = profile_exp_floor(0.5)
    with pytest.raises(ValueError):
        boundary_diff(P2, BoundaryPoint((0.0,), (0,)))  # origin excluded


def test_heat_consistency_multiplier_vs_product():
    # evolving a transform by the heat multiplier equals the spectral
    # product with the heat profile (diagonal collapse)
    from hfourier.transform import multiplier_apply, spectral_product

    th = profile_to_freq_function(profile_gauss(1.0))
    evolved = multiplier_apply(lambda r: np.exp(-0.6 * r), th)
    for lam in (0.4, -1.1):
        for n in range(4):
            a = evolved((n,), (n,), np.array([lam]))[0]
            b = spectral_product(th, heat_profile(0.6), (n,), (n,), lam)
            assert a == pytest.approx(b, abs=1e-14)


def test_heat_physical_scaling():
    # table scaling t -> t lam corresponds to the parabolic rescaling
    # h_t(w) = t^{-(d+1)} h_1(Y / sqrt(t), s / t) of the kernel
    from hfourier.freq_space import LambdaGrid
    from hfourier.transform import inverse_on_grid

    grid = LambdaGrid(1e-3, 10.0, 80)
    t = 2.0
    pts = (7, 7, 7)
    lhs, _ = inverse_on_grid(heat_profile(t), grid,
                             extents=(1.4, 1.4, 2.0), points=pts,
                             assume_symmetric=True, n_cap=400)
    rhs, _ = inverse_on_grid(heat_profile(1.0), grid,
                             extents=(1.4 / math.sqrt(t), 1.4 / math.sqrt(t), 2.0 / t),
                             points=pts, assume_symmetric=True, n_cap=400)
    want = rhs.samples / t**2
    scale = np.abs(want).max()
    assert np.abs(lhs.samples - want).max() / scale < 5e-3
