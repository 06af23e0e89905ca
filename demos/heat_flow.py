"""Heat flow on the group through the spectral multiplier.

The sub-Laplacian acts on the frequency side as multiplication by
-4 |lam| (2|m| + d), so the heat semigroup is the diagonal multiplier
exp(-4 t |lam| (2|m| + d)).  The script evolves a bump, checks mass
conservation and the semigroup property, and reconstructs the kernel
itself (positive, unit mass, sech-type vertical marginal).
"""

import math

import numpy as np

from hfourier import (
    LambdaGrid,
    SampledField,
    forward_factored,
    heat_profile,
    inverse_on_grid,
    multiplier_apply,
    spectral_product,
)


def main():
    grid = LambdaGrid(1e-4, 16.0, 160)
    bump = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)), 1, (6, 6, 6), (33, 33, 33)
    )
    table = forward_factored(bump, 24, grid)
    evolved = multiplier_apply(lambda r: np.exp(-0.25 * r), table.as_freq_function())
    out, _ = inverse_on_grid(evolved, grid, extents=(6, 6, 6), points=(33, 33, 33))
    print(f"mass before {bump.integral().real:.6f}, after t=0.25: {out.integral().real:.6f}")
    print(f"peak before {np.abs(bump.samples).max():.4f}, after {np.abs(out.samples).max():.4f}")

    print("\nsemigroup property on the diagonal profile:")
    worst = 0.0
    for lam in (0.3, 1.1):
        for n in range(5):
            v = spectral_product(heat_profile(0.7), heat_profile(0.5), (n,), (n,), lam)
            worst = max(worst, abs(v - heat_profile(1.2)((n,), (n,), np.array([lam]))[0]))
    print(f"  worst |h_0.7 * h_0.5 - h_1.2| = {worst:.2e}")

    print("\nreconstructing the t = 1 kernel on a tall vertical box...")
    kern, tail = inverse_on_grid(heat_profile(1.0), grid,
                                 extents=(6, 6, 20), points=(33, 33, 107),
                                 assume_symmetric=True, n_cap=600)
    print(f"  min value {kern.samples.real.min():.2e} (dust level), "
          f"mass {kern.integral().real:.6f}")
    hy, he, _ = kern.spacings
    marg = kern.samples.real.sum(axis=(0, 1)) * hy * he
    s = kern.s_axis
    for idx in (53, 80, 106):
        want = 0.125 / math.cosh(math.pi * s[idx] / 8.0)
        print(f"  vertical marginal at s={s[idx]:5.1f}: {marg[idx]:.5e} "
              f"(sech form {want:.5e})")


if __name__ == "__main__":
    main()
