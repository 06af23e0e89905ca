"""Forward and inverse transform of a Gaussian, against the closed form.

The isotropic Gaussian exp(-a|Y|^2 - b s^2) has a fully explicit
transform: it is diagonal in the index pair, with entries

    pi^{3/2} b^{-1/2} exp(-lam^2 / 4b) rho^n / (a + |lam|),
    rho = (a - |lam|) / (a + |lam|),

which makes it the ideal end-to-end probe: we build the spectral table,
compare every diagonal entry with the formula, check the Plancherel
ratio, and reconstruct the field.
"""

import math

import numpy as np

from hfourier import LambdaGrid, SampledField, forward_factored, inverse_on_grid, plancherel_norms


def exact_entry(n, lam, a=0.5, b=1.0):
    t = abs(lam)
    rho = (a - t) / (a + t)
    return math.pi**1.5 / math.sqrt(b) * math.exp(-(lam**2) / (4 * b)) * rho**n / (a + t)


def main():
    grid = LambdaGrid(1e-4, 16.0, 160)
    field = SampledField.from_function(
        lambda y, e, s: np.exp(-0.5 * (y**2 + e**2) - s**2), 1, (6, 6, 6), (33, 33, 33)
    )
    print("building the spectral table (index cap 24, 320 lambda points)...")
    table = forward_factored(field, 24, grid)

    worst = 0.0
    for n in range(25):
        want = np.array([exact_entry(n, l) if abs(l) < 8.2 else 0.0 for l in grid.lam])
        worst = max(worst, float(np.abs(table.values[n, n] - want).max()))
    print(f"largest deviation from the closed form: {worst:.3e}")

    phys, freq = plancherel_norms(field, table)
    ratio = freq.value.real / phys
    print(f"Plancherel ratio {ratio:.6f} vs pi^2 = {math.pi**2:.6f} "
          f"({abs(ratio - math.pi**2) / math.pi**2:.2%} off)")

    rec, tail = inverse_on_grid(table.as_freq_function(), grid,
                                extents=(3, 3, 3), points=(17, 17, 17),
                                assume_symmetric=True)
    truth = SampledField.from_function(
        lambda y, e, s: np.exp(-0.5 * (y**2 + e**2) - s**2), 1, (3, 3, 3), (17, 17, 17)
    )
    err = np.abs(rec.samples - truth.samples).max() / np.abs(truth.samples).max()
    print(f"round-trip relative sup error on |w| <= 3: {err:.3e} (tail est {tail:.1e})")


if __name__ == "__main__":
    main()
