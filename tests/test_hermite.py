import math

import numpy as np
import pytest

from hfourier.hermite import (
    CoeffSeq,
    eval_hermite,
    eval_rescaled,
    hermite_rows,
    hermite_selected,
    ladder_apply,
    quadrature_rule,
)

GROUND = math.pi ** -0.25


def test_ground_state_at_origin():
    assert eval_hermite((0,), [0.0]) == pytest.approx(GROUND, abs=1e-15)


def test_first_state_value():
    # one ladder step: sqrt(2) x h0
    want = math.sqrt(2.0) * GROUND * math.exp(-0.5)
    assert eval_hermite((1,), [1.0]) == pytest.approx(want, abs=1e-14)
    # cross-check that the state is normalized under quadrature
    x, w = quadrature_rule(24)
    vals = hermite_rows(1, x)[1] * np.exp(x**2 / 2)
    assert np.sum(w * vals * vals) == pytest.approx(1.0, abs=1e-12)


def test_odd_indices_vanish_at_origin():
    for k in (1, 3, 5, 9):
        assert eval_hermite((k,), [0.0]) == 0.0


def test_orthonormality_by_quadrature():
    x, w = quadrature_rule(40)
    rows = hermite_rows(8, x) * np.exp(x**2 / 2)
    gram = np.einsum("i,ni,mi->nm", w, rows, rows)
    assert np.abs(gram - np.eye(9)).max() < 1e-10


def _second_derivative_coeffs(n, cap):
    # d^2/dx^2 through two ladder applications
    c = CoeffSeq({(n,): 1.0}, n_max=cap)
    return ladder_apply("derivative", 0, ladder_apply("derivative", 0, c))


def test_oscillator_eigenrelation():
    # (-h'' + x^2 h) = (2n+1) h, h'' taken from the ladder algebra
    x, w = quadrature_rule(60)
    for n in range(7):
        dd = _second_derivative_coeffs(n, cap=n + 4)
        hxx = sum(
            coef * hermite_rows(idx[0], x)[idx[0]] for idx, coef in dd.values.items()
        )
        hn = hermite_rows(n, x)[n]
        resid = (-hxx + x**2 * hn - (2 * n + 1) * hn) * hn * np.exp(x**2)
        assert abs(np.sum(w * resid)) < 1e-8


@pytest.mark.parametrize("lam", [0.5, -0.5, 2.0, -2.0])
def test_rescaled_eigenrelation(lam):
    # (-d^2 + lam^2 x^2) H_{n,lam} = (2n+1)|lam| H_{n,lam}
    al = abs(lam)
    x, w = quadrature_rule(60, scale=al)
    for n in range(5):
        dd = _second_derivative_coeffs(n, cap=n + 4)
        u = math.sqrt(al) * x
        hxx = al * sum(c * hermite_selected([i[0]], u)[i[0]] for i, c in dd.values.items())
        hn = hermite_selected([n], u)[n]
        resid = (-hxx + lam**2 * x**2 * hn - (2 * n + 1) * al * hn) * hn
        weight = np.exp(al * x**2)  # undo the Gaussian carried by the pair
        val = np.sum(w * resid * weight) * math.sqrt(al)
        assert abs(val) < 1e-8


def test_rescaled_values():
    assert eval_rescaled((0,), 1.0, [0.0]) == pytest.approx(GROUND)
    assert eval_rescaled((0,), 4.0, [0.0]) == pytest.approx(math.sqrt(2) * GROUND, abs=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = (int(rng.integers(0, 6)),)
        x = rng.normal(size=1)
        assert eval_rescaled(n, -1.0, x) == pytest.approx(eval_rescaled(n, 1.0, x))


def test_rescaled_rejects_zero():
    with pytest.raises(ValueError):
        eval_rescaled((0,), 0.0, [0.0])


def test_ladder_examples():
    c = CoeffSeq({(0,): 1.0}, n_max=8)
    assert ladder_apply("annihilation", 0, c).values == {}
    up = ladder_apply("creation", 0, c)
    assert up.values[(1,)] == pytest.approx(math.sqrt(2.0))
    pos = ladder_apply("position", 0, CoeffSeq({(1,): 1.0}, n_max=8))
    assert pos.values[(0,)] == pytest.approx(math.sqrt(2.0) / 2.0)
    assert pos.values[(2,)] == pytest.approx(1.0)
    # quadrature cross-check of the position matrix elements
    x, w = quadrature_rule(30)
    rows = hermite_rows(2, x) * np.exp(x**2 / 2)
    m10 = np.sum(w * x * rows[1] * rows[0])
    m12 = np.sum(w * x * rows[1] * rows[2])
    assert m10 == pytest.approx(pos.values[(0,)], abs=1e-12)
    assert m12 == pytest.approx(pos.values[(2,)], abs=1e-12)


def test_creation_annihilation_diagonal():
    for n in range(1, 6):
        c = CoeffSeq({(n,): 1.0}, n_max=8)
        out = ladder_apply("creation", 0, ladder_apply("annihilation", 0, c))
        assert set(out.values) == {(n,)}
        assert out.values[(n,)] == pytest.approx(2.0 * n)


def test_truncation_flag():
    c = CoeffSeq({(3,): 1.0}, n_max=3)
    out = ladder_apply("creation", 0, c)
    assert out.truncated
    assert out.values == {}


def test_selected_rows_are_hermite_rows():
    x = np.concatenate([np.linspace(-45.0, 45.0, 361), [-0.0, 1e-300, 7.123456789]])
    rows = hermite_rows(600, x)
    got = hermite_selected([600, 0, 1, 17, 17, 599, 2], x)
    assert sorted(got) == [0, 1, 2, 17, 599, 600]
    for n, row in got.items():
        assert np.array_equal(row, rows[n])
    assert np.array_equal(hermite_selected([600], 3.5)[600], hermite_rows(600, 3.5)[600])


def test_quadrature_rule():
    nodes, weights = quadrature_rule(1)
    assert nodes[0] == pytest.approx(0.0)
    assert weights[0] == pytest.approx(math.sqrt(math.pi))
    n2, w2 = quadrature_rule(2)
    assert np.sum(w2 * n2**2) == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-14)
    for order in (3, 9, 25):
        n, w = quadrature_rule(order)
        assert np.sum(w) == pytest.approx(math.sqrt(math.pi), abs=1e-14)
    ns, ws = quadrature_rule(4, scale=2.5)
    assert np.sum(ws) == pytest.approx(math.sqrt(math.pi / 2.5), abs=1e-14)


def test_two_dimensional_product():
    assert eval_hermite((0, 0), [0.0, 0.0]) == pytest.approx(math.pi**-0.5)
    v = eval_hermite((1, 2), [0.4, -0.3])
    assert v == pytest.approx(
        eval_hermite((1,), [0.4]) * eval_hermite((2,), [-0.3]), abs=1e-14
    )


def test_invalid_inputs():
    with pytest.raises(ValueError):
        eval_hermite((-1,), [0.0])
    with pytest.raises(ValueError):
        ladder_apply("creation", 1, CoeffSeq({(0,): 1.0}, n_max=4))
    with pytest.raises(ValueError):
        ladder_apply("weird", 0, CoeffSeq({(0,): 1.0}, n_max=4))
    with pytest.raises(ValueError):
        quadrature_rule(0)
