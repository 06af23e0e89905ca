import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfourier.diff_ops import delta_hat, dlambda_hat, ladder_freq, lift, mhat, sigma0_hat
from hfourier.freq_space import FreqFunction, LambdaGrid
from hfourier.profiles import heat_profile, profile_exp_floor, profile_to_freq_function
from hfourier.transform import SpectralTable

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


# ---- declared support of lifted operators -----------------------------------

GRID = LambdaGrid(0.05, 4.0, 6)


def _boxed_heat(box=8):
    """heat(0.7) cut to the index box, with its analytic lambda-derivative."""
    heat = heat_profile(0.7)

    def cut(values, n, m):
        return np.where((np.maximum(n, m) <= box).all(axis=-1), values, 0.0)

    return FreqFunction(lambda n, m, lam: cut(heat(n, m, lam), n, m),
                        dlam=lambda n, m, lam: cut(heat.dlam(n, m, lam), n, m),
                        band=0, box=box, label="boxed-heat")


def _table_fn():
    rng = np.random.default_rng(11)
    shape = (9, 9, len(GRID.lam))
    return SpectralTable(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                         GRID).as_freq_function()


SUPPORTED = {
    "table": _table_fn(),
    "boxed-heat": _boxed_heat(),
    "heat": heat_profile(0.7),
    "exp_floor": profile_to_freq_function(profile_exp_floor(0.5, lam_slope=0.5)),
}
OPS = {"delta_hat": delta_hat, "dlambda_hat": dlambda_hat, "sigma0_hat": sigma0_hat,
       "mhat": mhat}
OPS.update({kind: functools.partial(ladder_freq, kind)
            for kind in ("mhat", "mhat_plus", "mhat_minus", "dhat_plus", "dhat_minus")})
# (band, box) widening of each operator
REACH = {"delta_hat": (0, 1), "dlambda_hat": (0, 1), "sigma0_hat": (0, 0), "mhat": (0, 0),
         "mhat_plus": (1, 1), "mhat_minus": (1, 1), "dhat_plus": (1, 1), "dhat_minus": (1, 1)}
# a table has no lambda-derivative off its grid, so dlambda_hat of it is never evaluated
CASES = [(f, o) for f in SUPPORTED for o in OPS if (f, o) != ("table", "dlambda_hat")]


@pytest.mark.parametrize("fixture,op", CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lifted_operator_vanishes_past_its_declared_support(fixture, op, data):
    theta = SUPPORTED[fixture]
    lifted = lift(OPS[op], theta)
    grow_band, grow_box = REACH[op]
    assert lifted.band == (None if theta.band is None else theta.band + grow_band)
    assert lifted.box == (None if theta.box is None else theta.box + grow_box)
    lam = np.array(data.draw(st.lists(st.sampled_from(GRID.lam.tolist()), min_size=1,
                                      max_size=4)))
    draws = []
    if lifted.box is not None:
        top = data.draw(st.integers(lifted.box + 1, lifted.box + 6))
        # the other index anywhere, or within the band where one is declared
        near = (0, lifted.box + 6) if lifted.band is None else (top - lifted.band,
                                                                top + lifted.band)
        draws.append((top, data.draw(st.integers(*near))))
    if lifted.band is not None:
        low = data.draw(st.integers(0, 12))
        draws.append((low, low + data.draw(st.integers(lifted.band + 1, lifted.band + 5))))
    assert draws
    for a, b in draws:
        for n, m in ((a, b), (b, a)):
            assert not np.any(lifted((n,), (m,), lam)), (n, m)


def test_lift_of_an_unknown_operator_declares_no_support():
    lifted = lift(lambda th, n, m, lam: th(n, m, lam), _boxed_heat())
    assert lifted.band is None and lifted.box is None
