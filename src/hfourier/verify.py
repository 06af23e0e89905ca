"""Verification suites: every headline identity checked at a pinned tolerance.

Each check returns :class:`CheckRecord` rows with the measured quantity,
its expected value, the tolerance, the verdict and the margin (gap over
tolerance, at most 1 exactly when the numeric condition holds).  The same
functions back the command-line ``verify`` subcommand and the acceptance
test module, so there is a single source of truth for the gate.

Runtime note: suites share heavy artifacts (spectral tables, grid
inverses) through :class:`VerifyContext`.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import default_config
from .diff_ops import delta_hat, dlambda_hat, ladder_freq
from .distributions import Distribution, g_hat_boundary, make_f_gamma, pair
from .fields import SampledField, YField
from .freq_space import (
    BoundaryPoint,
    FreqFunction,
    LambdaGrid,
    l1m_norm,
)
from .heisenberg import convolve
from .profiles import (
    boundary_diff,
    heat_profile,
    profile_exp_floor,
    profile_gauss,
    profile_to_freq_function,
)
from .transform import (
    forward_direct,
    forward_factored,
    inverse_on_grid,
    plancherel_norms,
    spectral_product,
)
from .wigner import boundary_kernel, wigner_eval

__all__ = ["CheckRecord", "VerifyContext", "SUITES", "run_suites"]


@dataclass
class CheckRecord:
    test_id: str
    identity: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    margin: float
    detail: str = ""

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.test_id:28s} {self.identity:34s} "
            f"measured={self.measured:.6g} expected={self.expected:.6g} tol={self.tolerance:.2g} "
            f"margin={self.margin:.3g}"
        )

    def as_dict(self):
        return asdict(self)


def _rec(test_id, identity, measured, expected, tolerance, relative=False, also=True, detail=""):
    """Record with gap |measured - expected| (relative to |expected| when
    ``relative``); the numeric condition is margin = gap / tolerance <= 1,
    and ``also`` carries any further pass rule."""
    gap = abs(measured - expected)
    if relative:
        gap = gap / max(abs(expected), 1e-300)
    margin = float(gap) / float(tolerance)
    return CheckRecord(test_id, identity, float(np.real(measured)), float(expected),
                       float(tolerance), bool(also and margin <= 1.0), margin, detail)


# ---------------------------------------------------------------------------

class VerifyContext:
    """Configuration plus memoized heavy artifacts shared across suites."""

    def __init__(self, cfg=None):
        self.cfg = cfg or default_config()
        self._cache = {}

    def fresh_rng(self, salt):
        return np.random.default_rng(self.cfg.seed + salt)

    @property
    def grid(self):
        return self.cfg.lambda_grid

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    # fixtures ---------------------------------------------------------
    @property
    def gauss_field(self):
        # Y-width 1/sqrt(2a) with a = 1/2: wide enough that the pinned
        # index cap n_max = 24 carries the small-lambda spectral mass
        def fn(y, e, s):
            return np.exp(-0.5 * (y**2 + e**2) - s**2)

        g = self.cfg.phys_grid
        return self._memo(
            "gauss_field",
            lambda: SampledField.from_function(fn, self.cfg.d, g.extents, g.points),
        )

    @property
    def gauss_table(self):
        return self._memo(
            "gauss_table",
            lambda: forward_factored(self.gauss_field, self.cfg.n_max, self.grid),
        )

    @property
    def unit_gauss_field(self):
        g = self.cfg.phys_grid
        return self._memo(
            "unit_gauss_field",
            lambda: SampledField.from_function(
                lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)), self.cfg.d, g.extents, g.points
            ),
        )

    def unit_gauss_hat(self):
        """Closed-form transform of exp(-|Y|^2 - s^2) at d = 1 (diagonal)."""

        def entry(n, m, lam):
            t = np.abs(lam)
            k = n[..., 0]
            val = math.pi**1.5 * np.exp(-(lam**2) / 4.0) * (1.0 - t) ** k / (1.0 + t) ** (k + 1)
            return np.where((n == m).all(axis=-1), val, 0.0) + 0j

        def entry_dlam(n, m, lam):
            t = np.abs(lam)
            k = n[..., 0]
            dlog = -lam / 2.0 + np.sign(lam) * (-k / (1.0 - t) - (k + 1) / (1.0 + t))
            return entry(n, m, lam) * dlog

        return FreqFunction(entry, d=1, dlam=entry_dlam, band=0, label="gauss-hat")

    def heat_inverse_tall(self):
        g = self.cfg.heat_phys_grid

        def build():
            return inverse_on_grid(
                heat_profile(1.0), self.grid, extents=g.extents, points=g.points,
                assume_symmetric=True, n_cap=600,
            )

        return self._memo("heat_inverse_tall", build)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def c01_plancherel(ctx):
    phys, res = plancherel_norms(ctx.gauss_field, ctx.gauss_table)
    ratio = res.value.real / phys
    return [
        _rec("c01.plancherel", "squared-norm ratio", ratio, math.pi**2, 0.01,
             relative=True, detail=f"tail_estimate={res.tail_bound:.3g}")
    ]


def c02_inversion(ctx):
    theta = ctx.gauss_table.as_freq_function()
    rec_field, tail = inverse_on_grid(
        theta, ctx.grid, extents=(3.0, 3.0, 3.0), points=(17, 17, 17),
        assume_symmetric=True,
    )
    truth = SampledField.from_function(
        lambda y, e, s: np.exp(-0.5 * (y**2 + e**2) - s**2), 1, (3.0, 3.0, 3.0), (17, 17, 17)
    )
    gap = float(
        np.abs(rec_field.samples - truth.samples).max() / np.abs(truth.samples).max()
    )
    return [_rec("c02.inversion", "round-trip relative sup error", gap, 0.0, 1e-2)]


def c03_convolution(ctx):
    cfg = ctx.cfg
    lamgrid = LambdaGrid(0.4, 2.1, 4)  # 8 signed values
    g = cfg.phys_grid
    f1 = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)), 1, g.extents, g.points
    )
    f2 = SampledField.from_function(
        lambda y, e, s: np.exp(-1.5 * (y**2 + e**2 + s**2)), 1, g.extents, g.points
    )
    conv, tail = convolve(f1, f2)
    t1 = forward_factored(f1, cfg.n_max, lamgrid)
    t2 = forward_factored(f2, cfg.n_max, lamgrid)
    tc = forward_factored(conv, cfg.n_max, lamgrid)
    th1, th2 = t1.as_freq_function(), t2.as_freq_function()
    worst = 0.0
    for il, lam in enumerate(lamgrid.lam):
        for n in range(5):
            for m in range(5):
                lhs = tc.values[n, m, il]
                rhs = spectral_product(th1, th2, (n,), (m,), lam)
                worst = max(worst, abs(lhs - rhs))
    return [_rec("c03.convolution", "transform of star vs matrix product", worst, 0.0, 5e-3,
                 detail=f"convolution_tail={tail:.3g}")]


_SPOT_POINTS = [
    ((0,), (0,), 0.6), ((1,), (1,), 0.6), ((2,), (2,), -0.9), ((3,), (3,), 1.4),
    ((0,), (2,), 0.8), ((1,), (0,), -0.5), ((4,), (4,), 0.35), ((2,), (3,), 0.7),
    ((3,), (2,), 0.7), ((1,), (1,), 3.0), ((0,), (0,), 0.1),
]


def _spot_arrays(points):
    """The spot points as index arrays (K, 1) and a lambda array (K,)."""
    n, m, lam = zip(*points)
    return np.array(n), np.array(m), np.array(lam)


def _direct_at(fld, points):
    return np.array([forward_direct(fld, n, m, lam) for n, m, lam in points])


def _mkfield(ctx, fn):
    g = ctx.cfg.phys_grid
    return SampledField.from_function(fn, 1, g.extents, g.points)


def c04_laplacian(ctx):
    gauss = lambda y, e, s: np.exp(-(y**2 + e**2 + s**2))
    lap = _mkfield(
        ctx,
        lambda y, e, s: (-4 - 8 * (y**2 + e**2) + (2 * y + 4 * e * s) ** 2
                         + (2 * e - 4 * y * s) ** 2) * gauss(y, e, s),
    )
    fhat = ctx.unit_gauss_hat()
    n, m, lam = _spot_arrays(_SPOT_POINTS)
    rhs = -4.0 * np.abs(lam) * (2 * m[:, 0] + 1) * fhat(n, m, lam)
    worst = float(np.abs(_direct_at(lap, _SPOT_POINTS) - rhs).max())
    return [_rec("c04.sublaplacian", "transform intertwines sub-Laplacian", worst, 0.0, 1e-4)]


def c05_weight_identities(ctx):
    gauss = lambda y, e, s: np.exp(-(y**2 + e**2 + s**2))
    m2 = _mkfield(ctx, lambda y, e, s: (y**2 + e**2) * gauss(y, e, s))
    m0 = _mkfield(ctx, lambda y, e, s: -1j * s * gauss(y, e, s))
    fhat = ctx.unit_gauss_hat()
    n, m, lam = _spot_arrays(_SPOT_POINTS)
    w1 = float(np.abs(_direct_at(m2, _SPOT_POINTS) + delta_hat(fhat, n, m, lam)).max())
    w2 = float(np.abs(_direct_at(m0, _SPOT_POINTS) - dlambda_hat(fhat, n, m, lam)).max())

    # second fixture: anisotropic, lambda-derivative by finite differences
    aniso = lambda y, e, s: np.exp(-(y**2) - 1.4 * e**2 - 0.8 * s**2) * (1 + 0.3 * y)
    base = _mkfield(ctx, aniso)
    m2b = _mkfield(ctx, lambda y, e, s: (y**2 + e**2) * aniso(y, e, s))
    m0b = _mkfield(ctx, lambda y, e, s: -1j * s * aniso(y, e, s))

    def aniso_hat(n, m, lam):
        n, m, lam = np.broadcast_arrays(n[..., 0], m[..., 0], lam)
        vals = [forward_direct(base, (a,), (b,), l) for a, b, l in zip(n.flat, m.flat, lam.flat)]
        return np.array(vals, dtype=complex).reshape(lam.shape)

    bhat = FreqFunction(aniso_hat, d=1, label="aniso-hat")
    spots = _SPOT_POINTS[:6]
    n, m, lam = _spot_arrays(spots)
    w1 = max(w1, float(np.abs(_direct_at(m2b, spots) + delta_hat(bhat, n, m, lam)).max()))
    w2 = max(w2, float(np.abs(_direct_at(m0b, spots) - dlambda_hat(bhat, n, m, lam)).max()))
    return [
        _rec("c05.weight-laplacian", "squared weight maps to frequency Laplacian", w1, 0.0, 1e-4),
        _rec("c05.weight-dlambda", "vertical weight maps to lambda derivative", w2, 0.0, 1e-4),
    ]


def c06_primitive(ctx):
    gauss = lambda y, e, s: np.exp(-(y**2 + e**2 + s**2))
    f2 = _mkfield(ctx, lambda y, e, s: (1 + s) * gauss(y, e, s))
    pf2 = _mkfield(ctx, lambda y, e, s: -0.5 * gauss(y, e, s))
    worst = 0.0
    for n, m, lam in _SPOT_POINTS:
        lhs = 2j * forward_direct(pf2, n, m, lam)
        tp = forward_direct(f2, n, m, lam)
        tm = forward_direct(f2, m, n, -lam)
        rhs = (tp - (-1.0) ** (n[0] + m[0]) * tm) / lam
        worst = max(worst, abs(lhs - rhs))
    return [_rec("c06.primitive", "vertical primitive maps to signed difference", worst, 0.0, 1e-4)]


def c07_wigner_symmetry(ctx):
    rng = ctx.fresh_rng(7)
    Ys = rng.normal(size=(20, 2)) * 1.8
    worst_sym = 0.0
    worst_mag = 0.0
    for lam in (0.3, -0.3, 1.0, -1.0, 2.7, -2.7):
        for n in range(5):
            for m in range(5):
                a = wigner_eval((n,), (m,), lam, Ys)
                b = wigner_eval((m,), (n,), -lam, Ys)
                worst_sym = max(worst_sym, float(np.abs(a - (-1.0) ** (n + m) * b).max()))
                worst_mag = max(worst_mag, float(np.abs(a).max()))
    return [
        _rec("c07.wigner-symmetry", "index swap with sign flip", worst_sym, 0.0, 1e-12),
        _rec("c07.wigner-bound", "modulus bounded by one", max(0.0, worst_mag - 1.0), 0.0, 1e-12,
             detail=f"max|W|={worst_mag:.6f}"),
    ]


def c08_boundary_limit(ctx):
    rng = ctx.fresh_rng(8)
    Ys = rng.normal(size=(5, 2)) * 1.2
    records = []
    worst_ratio = 0.0
    all_decreasing = True
    for xd in (0.5, 1.0, 2.0):
        for k in (0, 1, 2):
            K = np.array([boundary_kernel((xd,), (k,), Y) for Y in Ys])
            cs = []
            errs = []
            for nn in (8, 16, 32, 64, 128):
                lam = xd / (2 * nn + k + 1)
                W = np.array([wigner_eval((nn,), (nn + k,), lam, Y) for Y in Ys])
                err = float(np.abs(W - K).max())
                errs.append(err)
                cs.append(err / lam)
            all_decreasing &= all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
            coarse = max(cs[:2])
            fine = max(cs[2:])
            worst_ratio = max(worst_ratio, fine / coarse)
    detail = "first-order constant non-increasing along dyadic lambda"
    records.append(
        _rec("c08.boundary-limit", "symbol tends to boundary kernel",
             worst_ratio, 0.0, 1.10, also=all_decreasing, detail=detail)
    )
    return records


def c09_boundary_extensions(ctx):
    P = profile_exp_floor(0.5, lam_slope=0.5)
    th = profile_to_freq_function(P)
    worst_rel = 0.0
    orders = []
    for xd in (0.75, 1.5):
        for k in (0, 1, 2):
            extL, extD = boundary_diff(P, BoundaryPoint((xd,), (k,)))
            nn = np.rint((xd / np.array([4e-3, 2e-3, 1e-3]) - k - 1) / 2.0).astype(int)[:, None]
            lam = xd / (2 * nn[:, 0] + k + 1)
            gl = delta_hat(th, nn, nn + k, lam)
            gd = dlambda_hat(th, nn, nn + k, lam)
            rels = np.maximum(np.abs(gl - extL) / max(abs(extL), 1e-12),
                              np.abs(gd - extD) / max(abs(extD), 1e-12))
            worst_rel = max(worst_rel, rels[-1])
            orders.append(rels[1] / rels[2] if rels[2] > 0 else 2.0)
    detail = f"median halving ratio {np.median(orders):.2f} (first order ~ 2)"
    return [
        _rec("c09.boundary-extension", "interior calculus attains boundary formulas",
             worst_rel, 0.0, 2e-2, detail=detail)
    ]


def c10_ladder(ctx):
    gauss = lambda y, e, s: np.exp(-(y**2 + e**2 + s**2))
    X1 = _mkfield(ctx, lambda y, e, s: (-2 * y - 4 * e * s) * gauss(y, e, s))
    Xi1 = _mkfield(ctx, lambda y, e, s: (-2 * e + 4 * y * s) * gauss(y, e, s))
    Mp = _mkfield(ctx, lambda y, e, s: (y + 1j * e) * gauss(y, e, s))
    Mm = _mkfield(ctx, lambda y, e, s: (y - 1j * e) * gauss(y, e, s))
    fhat = ctx.unit_gauss_hat()
    n, m, lam = _spot_arrays(_SPOT_POINTS)
    w = [
        np.abs(_direct_at(X1, _SPOT_POINTS) + ladder_freq("mhat_plus", fhat, n, m, lam)).max(),
        # sign corrected relative to the stated form: the transform's
        # conjugation flips the purely imaginary coefficient
        np.abs(_direct_at(Xi1, _SPOT_POINTS) - ladder_freq("mhat_minus", fhat, n, m, lam)).max(),
        np.abs(_direct_at(Mp, _SPOT_POINTS) - ladder_freq("dhat_plus", fhat, n, m, lam)).max(),
        np.abs(_direct_at(Mm, _SPOT_POINTS) - ladder_freq("dhat_minus", fhat, n, m, lam)).max(),
    ]
    return [
        _rec("c10.ladder-x", "horizontal field maps to raising multiplier", w[0], 0.0, 1e-4),
        _rec("c10.ladder-xi", "conjugate field maps to signed multiplier", w[1], 0.0, 1e-4,
             detail="sign corrected for the transform conjugation"),
        _rec("c10.ladder-mplus", "y + i eta maps to branch multiplier", w[2], 0.0, 1e-4),
        _rec("c10.ladder-mminus", "y - i eta maps to branch multiplier", w[3], 0.0, 1e-4),
    ]


def c11_equivalence(ctx):
    from .transform import rep_matrix_coeff

    rng = ctx.fresh_rng(11)
    f = ctx.unit_gauss_field
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(0, 4))
        m = int(rng.integers(0, 4))
        lam = float(rng.uniform(0.5, 2.2)) * float(rng.choice([-1.0, 1.0]))
        a = forward_direct(f, (n,), (m,), lam)
        b = rep_matrix_coeff(f, lam, (n,), (m,))
        worst = max(worst, abs(a - b))
    return [_rec("c11.equivalence", "grid quadrature vs kernel route", worst, 0.0, 1e-6)]


def c12_distributions(ctx):
    records = []
    # trace functional on the heat profile
    I = Distribution.single("freq_identity_sum")
    res = pair(I, heat_profile(1.0), ctx.grid, atol=3e-6)
    records.append(
        _rec("c12.trace-heat", "transform of origin mass paired with heat",
             res.value.real, math.pi**2 / 64.0, 1e-4,
             detail=f"tail_estimate={res.tail_bound:.3g}")
    )
    # transform of the constant: integral of the transposed transform
    g = ctx.cfg.heat_phys_grid
    hfld, _ = ctx.heat_inverse_tall()
    val = math.pi**2 * hfld.integral().real
    records.append(
        _rec("c12.one-heat", "constant pairs as point mass at origin",
             val, math.pi**2 * 1.0, 1e-3, relative=True)
    )
    thg = profile_to_freq_function(profile_gauss(1.0))
    ginv, _ = inverse_on_grid(
        thg, ctx.grid, extents=g.extents, points=g.points,
        assume_symmetric=True, n_cap=600,
    )
    val2 = math.pi**2 * ginv.integral().real
    theta0 = thg.at_boundary((0.0,), (0,)).real
    records.append(
        _rec("c12.one-profile", "constant pairs as point mass at origin",
             val2, math.pi**2 * theta0, 1e-3, relative=True)
    )
    # boundary transform of the Y-Gaussian
    gY = YField.from_function(lambda y, e: np.exp(-(y**2 + e**2)), 1, (6.0, 6.0), (33, 33))
    worst = 0.0
    for xd in (0.25, 1.0, 4.0):
        got = g_hat_boundary(gY, (xd,), (0,))
        worst = max(worst, abs(got - math.pi * math.exp(-xd)))
    records.append(
        _rec("c12.boundary-transform", "Y-Gaussian boundary transform", worst, 0.0, 1e-6)
    )
    return records


def c13_moderate_growth(ctx):
    # gamma = 1: the weighted norm converges under lambda refinement; the
    # family declares no box, so each member is summed over the config's
    f1 = FreqFunction(make_f_gamma(1.0, 1), band=0, box=ctx.cfg.n_max, label="f_gamma(1.0)")
    sums = []
    for lam_min in (8e-4, 4e-4, 2e-4, 1e-4):
        grid = LambdaGrid(lam_min, ctx.grid.lambda_max, ctx.grid.points_per_sign)
        sums.append(l1m_norm(f1, 4, grid).value.real)
    deltas = [abs(sums[i + 1] - sums[i]) for i in range(3)]
    ratio = max(deltas[i + 1] / deltas[i] for i in range(2))
    # convergent: each halving of lambda_min changes the sum by at most
    # 0.85 of the change before
    rec1 = _rec("c13.growth-convergent", "subcritical power integrable",
                ratio, 0.0, 0.85, detail=f"refinement deltas {deltas}")
    # gamma = d + 1: logarithmic divergence at the printed rate
    f2 = FreqFunction(make_f_gamma(2.0, 1), band=0, box=ctx.cfg.n_max, label="f_gamma(2.0)")
    pts = []
    for lam_min in (1e-3, 1e-4, 1e-5):
        grid = LambdaGrid(lam_min, ctx.grid.lambda_max, ctx.grid.points_per_sign)
        pts.append(l1m_norm(f2, 4, grid).value.real)
    slope = (pts[2] - pts[0]) / math.log(1e-3 / 1e-5)
    # both signs of lambda contribute one logarithm each
    expected = 2.0 * sum((2.0 * n + 1.0) ** -2 for n in range(ctx.cfg.n_max + 1))
    rec2 = _rec("c13.growth-log", "critical power diverges at the log rate",
                slope, expected, 0.2, relative=True)
    return [rec1, rec2]


def c14_sqrt_modulus(ctx):
    fixtures = {
        "heat(1)": heat_profile(1.0),
        "heat(0.25)": heat_profile(0.25),
        "gauss_profile": profile_to_freq_function(profile_gauss(1.0)),
    }
    records = []
    for name, th in fixtures.items():
        theta0 = th.value_at_origin(ctx.grid)
        cs = []
        for refine in range(3):
            lam = LambdaGrid(ctx.grid.lambda_min / 4**refine, 4.0,
                             96 * (refine + 1)).lam
            lam = lam[lam > 0]
            n = np.arange(64)[:, None, None]
            x = lam * (2 * n[..., 0] + 1)
            vals = np.abs(th(n, n, lam) - theta0)
            cs.append(float(np.max(vals / np.sqrt(x))))
        drift = abs(cs[-1] - cs[0]) / cs[0]
        records.append(
            _rec(f"c14.sqrt-modulus[{name}]", "square-root modulus of continuity",
                 drift, 0.0, 0.10, detail=f"fitted constants {cs}")
        )
    return records


def c15_mollifier(ctx):
    from .distributions import _boundary_measure_pair, _diagonal_band_sum

    fine = LambdaGrid(1e-6, ctx.grid.lambda_max, 240)
    fixtures = {
        "heat(1)": heat_profile(1.0),
        "gauss_profile": profile_to_freq_function(profile_gauss(1.0)),
        "exp_floor": profile_to_freq_function(profile_exp_floor(0.5, lam_slope=0.5)),
    }
    records = []
    for name, th in fixtures.items():
        mu = _boundary_measure_pair(lambda xd, k: 1.0, th).real
        errs = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            def weighted(n, m, lam, _e=eps, _t=th):
                lam = np.asarray(lam, dtype=float)
                w = np.exp(-((lam / _e) ** 2)) / (_e * math.sqrt(math.pi))
                return w * _t(n, m, lam)

            wrapped = FreqFunction(weighted, d=1, band=th.band)
            v, _ = _diagonal_band_sum(wrapped, fine, 1, atol=1e-8)
            errs.append(abs(v.real - mu))
        decreasing = all(errs[i + 1] < errs[i] for i in range(3))
        records.append(
            _rec(f"c15.mollifier[{name}]", "concentrating profiles tend to the boundary measure",
                 errs[-1], 0.0, 5e-3, also=decreasing, detail=f"errors along eps: {errs}")
        )
    return records


def c16_heat(ctx):
    records = []
    # semigroup: exact diagonal algebra
    worst = 0.0
    n = np.arange(6)[:, None]
    for lam in (0.3, -1.1, 2.0):
        want = heat_profile(1.2)(n, n, lam)
        for i in range(6):
            v = spectral_product(heat_profile(0.7), heat_profile(0.5), (i,), (i,), lam)
            worst = max(worst, abs(v - want[i]))
    records.append(_rec("c16.semigroup", "heat semigroup composes", worst, 0.0, 1e-14))
    # scaling
    n = np.arange(5)[:, None, None]
    lam = np.array([0.25, 1.5, -0.7])
    worst = float(np.abs(heat_profile(2.0)(n, n, lam) - heat_profile(1.0)(n, n, 2.0 * lam)).max())
    records.append(_rec("c16.scaling", "time rescales the frequency", worst, 0.0, 1e-15))
    # kernel reconstruction
    hfld, tail = ctx.heat_inverse_tall()
    scale = float(np.abs(hfld.samples.real).max())
    imag = float(np.abs(hfld.samples.imag).max())
    records.append(_rec("c16.kernel-real", "heat kernel is real", imag / scale, 0.0, 1e-12))
    neg = max(0.0, -float(hfld.samples.real.min()))
    records.append(
        _rec("c16.kernel-positive", "heat kernel positive on the grid",
             neg / scale, 0.0, 1e-8,
             detail=f"grid minimum {float(hfld.samples.real.min()):.3e} "
                    "(boundary-kernel tail completion keeps the far field positive)")
    )
    mass = hfld.integral().real
    records.append(_rec("c16.kernel-mass", "heat kernel has unit mass", mass, 1.0, 1e-3))
    return records


SUITES = {
    "plancherel": [c01_plancherel],
    "inversion": [c02_inversion],
    "convolution": [c03_convolution],
    "sublaplacian": [c04_laplacian],
    "weights": [c05_weight_identities],
    "primitive": [c06_primitive],
    "wigner": [c07_wigner_symmetry],
    "boundary-limit": [c08_boundary_limit],
    "boundary-extension": [c09_boundary_extensions],
    "ladder": [c10_ladder],
    "equivalence": [c11_equivalence],
    "distributions": [c12_distributions],
    "moderate-growth": [c13_moderate_growth],
    "sqrt-modulus": [c14_sqrt_modulus],
    "mollifier": [c15_mollifier],
    "heat": [c16_heat],
}
SUITES["all"] = [fn for fns in SUITES.values() for fn in fns]


def run_suites(names, cfg=None, ctx=None, echo=False):
    """Run the named suites; returns (records, all_passed)."""
    ctx = ctx or VerifyContext(cfg)
    records = []
    seen = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        for fn in SUITES[name]:
            if fn in seen:
                continue
            seen.append(fn)
            for rec in fn(ctx):
                records.append(rec)
                if echo:
                    print(rec.line(), flush=True)
    return records, all(r.passed for r in records)
