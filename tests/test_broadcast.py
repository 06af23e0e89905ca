"""The frequency-function protocol: one call over index arrays equals the
stack of one call per (n, m), for every library frequency function, and
one boundary call over (x., k) arrays equals the stack of point calls."""

import functools
import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfourier.cli  # noqa: F401  (the layer trace rebinds names in every module)
from hfourier import freq_space
from hfourier.diff_ops import delta_hat, dlambda_hat, ladder_freq, lift, mhat, sigma0_hat
from hfourier.distributions import _product_fn, make_f_gamma
from hfourier.freq_space import LambdaGrid
from hfourier.profiles import (
    heat_profile,
    profile_exp_floor,
    profile_gauss,
    profile_to_freq_function,
)
from hfourier.transform import SpectralTable, multiplier_apply

GRID = LambdaGrid(0.05, 4.0, 6)


def _table():
    rng = np.random.default_rng(3)
    shape = (9, 9, len(GRID.lam))
    return SpectralTable(rng.normal(size=shape) + 1j * rng.normal(size=shape), GRID)


def _fixtures():
    heat = heat_profile(0.7)
    floor = profile_to_freq_function(profile_exp_floor(0.5, lam_slope=0.5))
    gauss = profile_to_freq_function(profile_gauss(1.0))
    table = _table().as_freq_function()
    out = {
        "heat": heat,
        "f_gamma": make_f_gamma(2.2),
        "gauss_profile": gauss,
        "exp_floor_profile": floor,
        "table": table,
        "multiplier": multiplier_apply(lambda r: np.exp(-0.3 * r), table),
        "product": _product_fn(gauss, floor),
    }
    ops = {
        "delta_hat": delta_hat,
        "dlambda_hat": dlambda_hat,
        "sigma0_hat": sigma0_hat,
        "mhat": mhat,
    }
    for kind in ("mhat_plus", "mhat_minus", "dhat_plus", "dhat_minus"):
        ops[kind] = functools.partial(ladder_freq, kind)
    for name, op in ops.items():
        out[f"lift({name})"] = lift(op, floor)
    out["lift(delta_hat) of table"] = lift(delta_hat, table)
    return out


FIXTURES = _fixtures()

pairs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=6)
lams = st.lists(st.sampled_from(GRID.lam.tolist()), min_size=1, max_size=5)


@pytest.mark.parametrize("name", sorted(FIXTURES))
@settings(max_examples=25)
@given(nm=pairs, lam=lams)
def test_box_call_equals_scalar_calls(name, nm, lam):
    theta = FIXTURES[name]
    N = np.array([[a] for a, _ in nm])
    M = np.array([[b] for _, b in nm])
    lam = np.array(lam)
    box = theta(N[:, None], M[:, None], lam)
    stack = np.stack([theta((a,), (b,), lam) for a, b in nm])
    assert box.shape == stack.shape == (len(nm), len(lam))
    assert np.abs(box - stack).max() <= 1e-15 * np.abs(stack).max()


BOUNDARY_FIXTURES = {
    name: FIXTURES[name] for name in ("heat", "gauss_profile", "exp_floor_profile")
}
BOUNDARY_FIXTURES["multiplier of heat"] = multiplier_apply(lambda r: np.exp(-0.3 * r),
                                                          FIXTURES["heat"])

xdots = st.lists(st.floats(1e-3, 8.0).flatmap(lambda v: st.sampled_from([v, -v])),
                 min_size=1, max_size=6)
ks = st.lists(st.integers(-4, 4), min_size=1, max_size=5)


@pytest.mark.parametrize("name", sorted(BOUNDARY_FIXTURES))
@settings(max_examples=25)
@given(xd=xdots, k=ks)
def test_boundary_call_equals_scalar_calls(name, xd, k):
    theta = BOUNDARY_FIXTURES[name]
    box = theta.at_boundary(np.array(xd)[:, None, None], np.array(k)[:, None])
    stack = np.array([[theta.at_boundary((x,), (kk,)) for kk in k] for x in xd])
    assert box.shape == stack.shape == (len(xd), len(k))
    assert np.abs(box - stack).max() <= 1e-15 * np.abs(stack).max()


@settings(max_examples=25)
@given(xd=xdots, k=ks, lam=st.floats(-2.0, 2.0))
def test_floor_profile_parity_over_k_arrays(xd, k, lam):
    P = profile_exp_floor(0.5, lam_slope=0.5)
    x = np.abs(np.array(xd))[:, None, None]
    k = np.array(k)[:, None]
    sign = (-1.0) ** np.abs(k[:, 0])
    assert np.array_equal(P.value(x, -k, lam), sign * P.value(x, k, lam))


def test_layer_trace_binds_the_library():
    """The benchmark's layer trace finds every name it rebinds and counts
    one frequency-function call as one."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"
    spec = importlib.util.spec_from_file_location("layer_trace", path)
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    trace = layer_trace.LayerTrace()
    trace.install()
    try:
        heat_profile(1.0)((0,), (0,), np.array([0.5]))
        counts = trace.snapshot()
    finally:
        trace.uninstall()
    assert counts["freq_space.FreqFunction.calls"] == 1
    assert freq_space.FreqFunction.__call__.__name__ == "__call__"
