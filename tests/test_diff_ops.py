import math

import numpy as np
import pytest

from hfourier.diff_ops import delta_hat, dlambda_hat, ladder_freq, lift, mhat, sigma0_hat
from hfourier.freq_space import FreqFunction
from hfourier.profiles import heat_profile, profile_exp_floor, profile_to_freq_function

E4 = math.exp(-4.0)
E12 = math.exp(-12.0)


def test_zero_function_maps_to_zero():
    zero = FreqFunction(
        lambda n, m, lam: np.zeros(np.broadcast_shapes(n.shape[:-1], lam.shape)), diagonal=True
    )
    la = np.array([0.7])
    assert delta_hat(zero, (0,), (0,), la)[0] == 0
    assert dlambda_hat(zero, (0,), (0,), la)[0] == 0
    assert sigma0_hat(zero, (0,), (0,), la)[0] == 0


def test_heat_spot_values():
    h = heat_profile(1.0)
    la = np.array([1.0])
    assert delta_hat(h, (0,), (0,), la)[0].real == pytest.approx(-0.5 * E4 + 0.5 * E12, abs=1e-15)
    assert dlambda_hat(h, (0,), (0,), la)[0].real == pytest.approx(
        -4.0 * E4 + 0.5 * E4 - 0.5 * E12, abs=1e-15
    )
    assert sigma0_hat(h, (0,), (0,), la)[0] == 0
    assert mhat(h, (0,), (0,), la)[0].real == pytest.approx(4.0 * E4, abs=1e-16)
    assert ladder_freq("mhat", h, (0,), (0,), la)[0].real == pytest.approx(4.0 * E4)


def test_mhat_plus_on_diagonal_support():
    h = heat_profile(1.0)
    la = np.array([0.8])
    # shifts leave the diagonal, where the profile vanishes
    assert ladder_freq("mhat_plus", h, (0,), (0,), la)[0] == 0
    assert ladder_freq("mhat_minus", h, (2,), (2,), la)[0] == 0


def test_unknown_multiplier():
    h = heat_profile(1.0)
    with pytest.raises(ValueError):
        ladder_freq("bogus", h, (0,), (0,), np.array([1.0]))


class _Recorder(FreqFunction):
    def __init__(self):
        self.calls = []

        def interior(n, m, lam):
            n, m = np.broadcast_arrays(n, m)
            self.calls.extend(zip(map(tuple, n.reshape(-1, 1).tolist()),
                                  map(tuple, m.reshape(-1, 1).tolist())))
            if (n < 0).any() or (m < 0).any():
                raise AssertionError("evaluated at a negative index")
            return np.ones(np.broadcast_shapes(n.shape[:-1], lam.shape), dtype=complex)

        super().__init__(interior, d=1, dlam=lambda n, m, lam: np.zeros(
            np.broadcast_shapes(n.shape[:-1], lam.shape)))


def test_locality_and_coefficient_dropping():
    rec = _Recorder()
    la = np.array([0.5])
    delta_hat(rec, (0,), (3,), la)
    # n_j = 0 kills the downward shift; only the point and the upward shift appear
    assert set(rec.calls) == {((0,), (3,)), ((1,), (4,))}

    rec = _Recorder()
    dlambda_hat(rec, (2,), (2,), la)
    assert set(rec.calls) == {((2,), (2,)), ((1,), (1,)), ((3,), (3,))}

    rec = _Recorder()
    sigma0_hat(rec, (1,), (2,), la)
    assert set(rec.calls) == {((1,), (2,)), ((2,), (1,))}


def test_diagonal_preservation():
    h = heat_profile(0.5)
    la = np.array([0.9, -1.3])
    for op in (delta_hat, dlambda_hat, sigma0_hat, mhat):
        out = op(h, (1,), (3,), la)  # off-diagonal stays zero
        assert np.all(out == 0)


def test_dhat_branch_selection():
    # the branch pair differs between the two signs of lambda
    th = FreqFunction(
        lambda n, m, lam: (1.0 + n.sum(-1) + 2.0 * m.sum(-1)) * np.ones_like(lam, dtype=complex)
    )
    lp = np.array([0.7])
    lmn = np.array([-0.7])
    vp = ladder_freq("dhat_plus", th, (1,), (1,), lp)[0]
    vm = ladder_freq("dhat_plus", th, (1,), (1,), lmn)[0]
    wp = ladder_freq("dhat_minus", th, (1,), (1,), lp)[0]
    wm = ladder_freq("dhat_minus", th, (1,), (1,), lmn)[0]
    assert vp == wm and vm == wp
    assert vp != vm


def test_sigma0_boundary_parity_of_profiles():
    th = profile_to_freq_function(profile_exp_floor(0.5, lam_slope=0.5))
    for xd, k in [(0.8, 1), (1.5, 2), (0.6, 0)]:
        a = th.at_boundary((xd,), (k,))
        b = th.at_boundary((-xd,), (-k,))
        assert a == pytest.approx((-1.0) ** abs(k) * b, abs=1e-14)


def test_lifted_operators_compose():
    h = heat_profile(1.0)
    lap2 = lift(delta_hat, lift(delta_hat, h))
    la = np.array([1.0])
    v = lap2((0,), (0,), la)[0]
    # second application by hand from the first-order values at the shifts
    d0 = delta_hat(h, (0,), (0,), la)[0]
    d1 = delta_hat(h, (1,), (1,), la)[0]
    want = (-1.0 * d0 + 1.0 * d1) / 2.0
    assert v == pytest.approx(want, abs=1e-15)


def test_dlambda_finite_difference_fallback():
    # drop the analytic derivative; the sign-preserving difference takes over
    h = heat_profile(1.0)
    bare = FreqFunction(h._interior, d=1, diagonal=True)
    la = np.array([0.5])
    a = dlambda_hat(h, (1,), (1,), la)[0]
    b = dlambda_hat(bare, (1,), (1,), la)[0]
    assert abs(a - b) < 1e-6
