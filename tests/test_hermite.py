import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from hfourier.hermite import hermite_rows, hermite_selected

GROUND = math.pi ** -0.25


def test_ground_state_at_origin():
    assert hermite_rows(0, 0.0)[0] == pytest.approx(GROUND, abs=1e-15)


def test_first_state_value():
    # one ladder step: sqrt(2) x h0
    want = math.sqrt(2.0) * GROUND * math.exp(-0.5)
    assert hermite_rows(1, 1.0)[1] == pytest.approx(want, abs=1e-14)
    # cross-check that the state is normalized under quadrature
    x, w = hermgauss(24)
    vals = hermite_rows(1, x)[1] * np.exp(x**2 / 2)
    assert np.sum(w * vals * vals) == pytest.approx(1.0, abs=1e-12)


def test_odd_indices_vanish_at_origin():
    rows = hermite_rows(9, 0.0)
    for k in (1, 3, 5, 9):
        assert rows[k] == 0.0


def test_orthonormality_by_quadrature():
    x, w = hermgauss(40)
    rows = hermite_rows(8, x) * np.exp(x**2 / 2)
    gram = np.einsum("i,ni,mi->nm", w, rows, rows)
    assert np.abs(gram - np.eye(9)).max() < 1e-10


def _second_derivative(n, x):
    # h_n'' = (sqrt(n(n-1)) h_{n-2} - (2n+1) h_n + sqrt((n+1)(n+2)) h_{n+2}) / 2,
    # the derivative ladder d/dx h_n = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1} twice
    rows = hermite_rows(n + 2, x)
    below = math.sqrt(n * (n - 1)) * rows[n - 2] if n >= 2 else 0.0
    return 0.5 * (below - (2 * n + 1) * rows[n] + math.sqrt((n + 1) * (n + 2)) * rows[n + 2])


def test_oscillator_eigenrelation():
    # (-h'' + x^2 h) = (2n+1) h
    x, w = hermgauss(60)
    for n in range(7):
        hxx = _second_derivative(n, x)
        hn = hermite_rows(n, x)[n]
        resid = (-hxx + x**2 * hn - (2 * n + 1) * hn) * hn * np.exp(x**2)
        assert abs(np.sum(w * resid)) < 1e-8
    # and pointwise, which also pins the h_{n-2} and h_{n+2} terms
    x = np.linspace(-8.0, 8.0, 161)
    for n in range(12):
        hn = hermite_rows(n, x)[n]
        assert np.abs(-_second_derivative(n, x) + x**2 * hn - (2 * n + 1) * hn).max() < 1e-12


@pytest.mark.parametrize("lam", [0.5, -0.5, 2.0, -2.0])
def test_rescaled_eigenrelation(lam):
    # (-d^2 + lam^2 x^2) H_{n,lam} = (2n+1)|lam| H_{n,lam}
    al = abs(lam)
    x, w = hermgauss(60)
    x, w = x / math.sqrt(al), w / math.sqrt(al)  # Gauss rule for the weight exp(-al x^2)
    for n in range(5):
        u = math.sqrt(al) * x
        hxx = al * _second_derivative(n, u)
        hn = hermite_selected([n], u)[n]
        resid = (-hxx + lam**2 * x**2 * hn - (2 * n + 1) * al * hn) * hn
        weight = np.exp(al * x**2)  # undo the Gaussian carried by the pair
        val = np.sum(w * resid * weight) * math.sqrt(al)
        assert abs(val) < 1e-8


def test_ladder_examples():
    # position matrix elements <h_{n+1}, x h_n> = sqrt((n+1)/2), by quadrature
    x, w = hermgauss(30)
    rows = hermite_rows(6, x) * np.exp(x**2 / 2)
    for n in range(6):
        assert np.sum(w * x * rows[n + 1] * rows[n]) == pytest.approx(
            math.sqrt((n + 1) / 2.0), abs=1e-12)
    assert np.sum(w * x * rows[2] * rows[2]) == pytest.approx(0.0, abs=1e-12)


def test_selected_rows_are_hermite_rows():
    x = np.concatenate([np.linspace(-45.0, 45.0, 361), [-0.0, 1e-300, 7.123456789]])
    rows = hermite_rows(600, x)
    got = hermite_selected([600, 0, 1, 17, 17, 599, 2], x)
    assert sorted(got) == [0, 1, 2, 17, 599, 600]
    for n, row in got.items():
        assert np.array_equal(row, rows[n])
    assert np.array_equal(hermite_selected([600], 3.5)[600], hermite_rows(600, 3.5)[600])


def test_invalid_inputs():
    with pytest.raises(ValueError):
        hermite_selected([-1], 0.0)
    with pytest.raises(ValueError):
        hermite_selected([], 0.0)
