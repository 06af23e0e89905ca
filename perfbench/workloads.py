"""The four benchmark workloads.

Each workload draws its inputs from the seed in ``draw``, samples and
writes them in ``setup`` (timed as set-up), computes its
references once in ``prepare_reference`` (untimed), and runs one round
of identical operations per ``run_round`` call.  Every program call is
one operation: an exception or a non-zero CLI exit counts it as failed;
a result that disagrees with its reference is recorded as a mismatch.
"""

import json
import math
import os
import struct
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

import hfourier.cli as cli
import hfourier.distributions as dist
import hfourier.fields as fields
import hfourier.freq_space as fs
import hfourier.profiles as profiles
import hfourier.transform as transform
import hfourier.wigner as wigner
import references as R


class RoundLog:
    """Operations, failures, mismatches and per-stage op times of one round."""

    def __init__(self):
        self.stage_s = defaultdict(float)     # wall time
        self.stage_cpu = defaultdict(float)   # process CPU time
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.mismatches = []
        self.worst = {}  # check -> (largest error seen, tolerance)

    def op(self, stage, fn, *args, **kw):
        self.attempted += 1
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result = fn(*args, **kw)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.stage_s[stage] += time.perf_counter() - t0
            self.stage_cpu[stage] += time.process_time() - c0
        return result

    def cli(self, stage, argv):
        def run():
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"hfourier {' '.join(argv)} exited with {rc}")
            return rc

        return self.op(stage, run) is not None

    def expect(self, what, err, tol):
        """Record a mismatch unless 0 <= err <= tol (NaN fails)."""
        seen = self.worst.get(what, (0.0, tol))[0]
        self.worst[what] = (err if not (err <= seen) else seen, tol)
        if not (err <= tol):
            self.mismatches.append(f"{what}: {err:.3e} > {tol:.3e}")

    @contextmanager
    def reading(self, what):
        """An output file that cannot be read is a mismatch, not a crash."""
        try:
            yield
        except (OSError, ValueError, KeyError) as exc:
            self.mismatches.append(f"{what}: {type(exc).__name__}: {exc}")

    @property
    def round_s(self):
        return sum(self.stage_s.values())

    @property
    def round_cpu_s(self):
        return sum(self.stage_cpu.values())


# ---- independent readers of the program's output files ----------------------

def read_hfld(path):
    """Samples of an HFLD1 container, parsed from its documented byte layout."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:6] != b"HFLD1\n":
        raise ValueError(f"{path}: bad magic")
    (d,) = struct.unpack_from("<I", raw, 6)
    shape = struct.unpack_from(f"<{2 * d + 1}I", raw, 10)
    offset = 10 + 4 * (2 * d + 1) + 48
    payload = np.frombuffer(raw, dtype="<c16", offset=offset)
    if payload.size != math.prod(shape):
        raise ValueError(f"{path}: payload holds {payload.size} values, header says {shape}")
    return payload.reshape(shape)


def read_table_csv(path, n_max, lam):
    """Table values indexed by the n0, m0, lambda columns, and whether every
    value token is the shortest round-trip repr of its float."""
    values = np.full((n_max + 1, n_max + 1, len(lam)), np.nan, dtype=complex)
    exact = True
    with open(path) as fh:
        if fh.readline().strip() != "n0,m0,lambda,re,im":
            raise ValueError(f"{path}: unexpected header")
        for line in fh:
            n, m, lt, re, im = line.rstrip("\n").split(",")
            lv = float(lt)
            il = int(np.argmin(np.abs(lam - lv)))
            if abs(lam[il] - lv) > 1e-9 * abs(lv):
                raise ValueError(f"{path}: lambda {lt} off the grid")
            values[int(n), int(m), il] = complex(float(re), float(im))
            exact = exact and repr(float(re)) == re and repr(float(im)) == im
    return values, exact


def geometric_lambda_grid(lambda_min, lambda_max, per_sign):
    pos = np.exp(np.linspace(math.log(lambda_min), math.log(lambda_max), per_sign))
    return np.concatenate([-pos[::-1], pos])


def rel_sup(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.trace = None
        self.draw(np.random.default_rng(seed))

    def draw(self, rng):
        """Draw the input parameters from the seeded generator."""

    def setup(self):
        """Sample inputs and write input files (timed as setup_s)."""

    def prepare_reference(self):
        """Compute the references once, untimed."""

    def run_round(self, log):
        raise NotImplementedError

    def report(self, stage_median):
        """Workload-specific end-to-end figures: [(name, value, unit)]."""
        return [(f"{k}_s", v, "s") for k, v in stage_median.items()]


class TableRoundtrip(Workload):
    """CLI forward transform, inverse of the written table, and heat flow.

    The config keeps the default 33^3 grid and shrinks the index box and
    lambda grid (n_max 16, 32 lambdas per sign) so one round takes seconds.
    """

    name = "table_roundtrip"
    N_MAX = 16
    LAMBDA = (1e-4, 16.0, 32)
    EXTENT, POINTS = 6.0, 33

    def draw(self, rng):
        self.a = float(rng.uniform(0.45, 0.55))
        self.b = float(rng.uniform(0.9, 1.1))
        self.t = float(rng.uniform(0.08, 0.12))

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.cfg = os.path.join(self.workdir, "config.json")
        lmin, lmax, per_sign = self.LAMBDA
        with open(self.cfg, "w") as fh:
            json.dump({
                "n_max": self.N_MAX,
                "lambda_grid": {"lambda_min": lmin, "lambda_max": lmax, "points_per_sign": per_sign},
                "phys_grid": {"extents": [self.EXTENT] * 3, "points": [self.POINTS] * 3},
            }, fh)
        a, b = self.a, self.b
        fld = fields.SampledField.from_function(
            lambda y, e, s: np.exp(-a * (y**2 + e**2) - b * s**2),
            1, (self.EXTENT,) * 3, (self.POINTS,) * 3)
        self.input = os.path.join(self.workdir, "input.hfld")
        fields.write_field(fld, self.input)

    def prepare_reference(self):
        axis = np.linspace(-self.EXTENT, self.EXTENT, self.POINTS)
        y, e, s = np.meshgrid(axis, axis, axis, indexing="ij")
        self.f0 = np.exp(-self.a * (y**2 + e**2) - self.b * s**2)
        self.mass = math.pi / self.a * math.sqrt(math.pi / self.b)
        r2 = (y**2 + e**2)[:, :, 0]
        self.heat_ref = R.heat_evolved_gauss(self.a, self.b, self.t, r2, axis)
        self.lam = geometric_lambda_grid(*self.LAMBDA)
        n = np.arange(self.N_MAX + 1)
        ref = np.zeros((self.N_MAX + 1, self.N_MAX + 1, len(self.lam)))
        ref[n, n] = R.gauss_hat_diagonal(self.a, self.b, n[:, None], self.lam[None, :])
        # the sampled s-axis resolves |lam| < pi / h_s; the program zeroes the rest
        h_s = 2.0 * self.EXTENT / (self.POINTS - 1)
        self.resolved = np.abs(self.lam) <= 0.98 * math.pi / h_s
        self.table_ref = ref
        self.cell = (2.0 * self.EXTENT / (self.POINTS - 1)) ** 3

    def run_round(self, log):
        out = self.workdir
        fwd, inv, heat = (os.path.join(out, d) for d in ("forward", "inverse", "heat"))
        csv = os.path.join(fwd, "table.csv")
        if log.cli("forward", ["transform", "--input", self.input, "--direction", "forward",
                               "--config", self.cfg, "--out", fwd]):
            with log.reading("forward output"):
                self._check_forward(log, fwd, csv)
        if log.cli("inverse", ["transform", "--input", csv, "--direction", "inverse",
                               "--config", self.cfg, "--out", inv]):
            with log.reading("inverse output"):
                got = read_hfld(os.path.join(inv, "field.hfld"))
                log.expect("inverse relative sup error", rel_sup(got, self.f0), 0.05)
        if log.cli("heat", ["heat", "--input", self.input, "--time", repr(self.t),
                            "--config", self.cfg, "--out", heat]):
            with log.reading("heat output"):
                got = read_hfld(os.path.join(heat, "evolved.hfld"))
                log.expect("heat relative sup error", rel_sup(got, self.heat_ref), 0.05)
                log.expect("heat mass", abs(got.sum().real * self.cell / self.mass - 1.0), 1e-2)

    def _check_forward(self, log, fwd, csv):
        values, exact = read_table_csv(csv, self.N_MAX, self.lam)
        err = np.abs(values - self.table_ref)
        diag = np.eye(self.N_MAX + 1, dtype=bool)
        log.expect("table diagonal error", float(err[diag][:, self.resolved].max()), 1e-6)
        log.expect("table off-diagonal error", float(err[~diag][:, self.resolved].max()), 1e-6)
        log.expect("table beyond Nyquist", float(np.abs(values[..., ~self.resolved]).max()), 0.0)
        with open(os.path.join(fwd, "summary.json")) as fh:
            ratio = json.load(fh)["plancherel_ratio"]
        log.expect("Plancherel ratio vs pi^2", abs(ratio / math.pi**2 - 1.0), 0.02)
        # round trip: the text holds round-trip-exact floats and the program's
        # reader returns exactly the values written
        with self.trace.paused() if self.trace else nullcontext():
            back = transform.table_from_csv(csv).values
        log.expect("CSV tokens round-trip exact", 0.0 if exact else 1.0, 0.0)
        log.expect("CSV reader bit-exact", 0.0 if np.array_equal(back, values) else 1.0, 0.0)


class HeatKernel(Workload):
    """The analytic diagonal inverse of heat(t) up to n_cap = 600 on a tall grid."""

    name = "heat_kernel"
    LAMBDA = (1e-3, 16.0, 48)
    EXTENTS = (6.0, 6.0, 20.0)
    POINTS = (17, 17, 107)

    def draw(self, rng):
        self.t = float(rng.uniform(0.9, 1.1))

    def setup(self):
        self.grid = fs.LambdaGrid(*self.LAMBDA)

    def prepare_reference(self):
        y = np.linspace(-self.EXTENTS[0], self.EXTENTS[0], self.POINTS[0])
        e = np.linspace(-self.EXTENTS[1], self.EXTENTS[1], self.POINTS[1])
        s = np.linspace(-self.EXTENTS[2], self.EXTENTS[2], self.POINTS[2])
        r2 = y[:, None] ** 2 + e[None, :] ** 2
        self.ref = R.heat_kernel_gaveau(self.t, r2, s)
        self.cell = (y[1] - y[0]) * (e[1] - e[0]) * (s[1] - s[0])

    def run_round(self, log):
        res = log.op("heat_kernel", lambda: transform.inverse_on_grid(
            profiles.heat_profile(self.t), self.grid, 24, extents=self.EXTENTS,
            points=self.POINTS, n_cap=600, assume_symmetric=True))
        if res is None:
            return
        k = res[0].samples
        peak = float(np.abs(k).max())
        log.expect("heat kernel imaginary part", float(np.abs(k.imag).max()) / peak, 1e-12)
        log.expect("heat kernel vs Gaveau", float(np.abs(k.real - self.ref).max()), 5e-5)
        log.expect("heat kernel negativity", max(0.0, -float(k.real.min())) / peak, 1e-3)
        log.expect("heat kernel mass", abs(k.real.sum() * self.cell - 1.0), 2e-3)


class Pairings(Workload):
    """Frequency-side distributions paired with heat, Gaussian and floor profiles,
    and the concentrating-profile band sums that tend to the boundary measure."""

    name = "pairings"
    GAMMAS = (2.1, 2.3, 2.45)
    EPS = (0.2, 0.1, 0.05)

    def draw(self, rng):
        self.t = float(rng.uniform(0.5, 2.0))
        self.sigma = float(rng.uniform(0.8, 1.25))

    def setup(self):
        self.grid = fs.LambdaGrid()
        self.fine = fs.LambdaGrid(1e-6, 16.0, 120)
        self.g = fields.YField.from_function(lambda y, e: np.exp(-(y**2 + e**2)), 1, (6.0, 6.0), (33, 33))

    def prepare_reference(self):
        t = self.t
        self.want_trace_heat = R.trace_heat(t)
        self.want_trace_gauss = R.trace_gauss_profile(self.sigma)
        self.want_fp = {g: R.finite_part_heat(g, t) for g in self.GAMMAS}
        self.want_mu_heat = R.boundary_measure_heat(t)
        self.want_mu_gauss = R.boundary_measure_gauss_profile()
        self.want_mu_floor = R.boundary_measure_exp_floor(0.5)
        self.want_g1 = R.g_tensor_one_heat(t)

    def run_round(self, log):
        D = dist.Distribution
        heat = profiles.heat_profile(self.t)
        gauss = profiles.profile_to_freq_function(profiles.profile_gauss(self.sigma))
        floor = profiles.profile_to_freq_function(profiles.profile_exp_floor(0.5, lam_slope=0.5))
        trace = D.single("freq_identity_sum")
        mu = D.single("freq_boundary_measure", payload=lambda xd, k: 1.0)
        origin = D.single("freq_dirac_origin")

        def pairing(what, T, theta, want, tol, relative=True):
            res = log.op("pairings", dist.pair, T, theta, self.grid)
            if res is not None:
                err = abs(res.value - want) / (abs(want) if relative else 1.0)
                log.expect(what, err, tol)

        pairing("<I, heat>", trace, heat, self.want_trace_heat, 1e-3)
        pairing("<I, gauss profile>", trace, gauss, self.want_trace_gauss, 1e-3)
        for g in self.GAMMAS:
            # loose: the finite part omits the strip |lam| < lambda_min (see CHANGES.md)
            pairing(f"<FP gamma={g}, heat>", D.single("freq_finite_part", payload=g), heat,
                    self.want_fp[g], 3e-2)
        pairing("<mu, heat>", mu, heat, self.want_mu_heat, 1e-9)
        pairing("<mu, gauss profile>", mu, gauss, self.want_mu_gauss, 1e-9)
        pairing("<mu, floor profile>", mu, floor, self.want_mu_floor, 1e-6)
        pairing("<delta_0, heat>", origin, heat, 1.0, 1e-15, relative=False)
        pairing("<delta_0, gauss profile>", origin, gauss, 1.0, 1e-15, relative=False)
        pairing("<delta_0, floor profile>", origin, floor, 0.0, 1e-15, relative=False)
        ft = log.op("pairings", dist.fourier_distribution,
                    D.single("phys_g_tensor_one", payload=self.g), self.grid)
        if ft is not None:
            pairing("<F(g x 1), heat>", ft, heat, self.want_g1, 1e-8)

        # concentrating profiles: eps^-1 psi(lam/eps) theta tends to <mu, theta>
        errs = []
        for eps in self.EPS:
            def weighted(n, m, lam, _e=eps):
                lam = np.asarray(lam, dtype=float)
                return np.exp(-((lam / _e) ** 2)) / (_e * math.sqrt(math.pi)) * heat(n, m, lam)

            wrapped = fs.FreqFunction(weighted, d=1, diagonal=True)
            res = log.op("mollifier", dist._diagonal_band_sum, wrapped, self.fine, 1, atol=1e-8)
            if res is not None:
                errs.append(abs(res[0].real - self.want_mu_heat))
        if len(errs) == len(self.EPS):
            worst_ratio = max(errs[i + 1] / errs[i] for i in range(len(errs) - 1))
            log.expect("mollifier error decreases as eps halves", worst_ratio, 0.75)
            log.expect("mollifier error at the smallest eps", errs[-1], 5e-3)

    def report(self, stage_median):
        return [("pairings_s", stage_median["pairings"], "s"),
                ("mollifier_s", stage_median["mollifier"], "s")]


class SymbolSpot(Workload):
    """Batches of the symbol W and the boundary kernel at seeded points, and
    spot values of the transform of e^{-|Y|^2 - s^2} by two routes.

    The cost of a W batch grows with its indices and |lam|, so the index
    pairs are a fixed design and each |lam| is drawn inside its own
    log-stratum: the seed moves the points, not the amount of work.
    """

    name = "symbol_spot"
    # (n, m) with n, m < 40, each evaluated at (n, m, lam) and its mirror (m, n, -lam)
    PAIRS = [(round(2.5 * i), (round(2.5 * i) * 7 + 11) % 40) for i in range(16)]
    POINTS = 64
    KERNELS = 32
    SPOT_PAIRS = [(i % 5, (3 * i + i // 5) % 5) for i in range(16)]  # forward_direct and rep_matrix_coeff each
    CHECKED = 4      # points per W batch checked against the Laguerre form

    def draw(self, rng):
        def signs(count):
            return rng.choice([-1.0, 1.0], size=count)

        def stratified(lo, hi, count):
            edges = np.log(np.geomspace(lo, hi, count + 1))
            return np.exp(rng.uniform(edges[:-1], edges[1:]))

        def disc(radius):
            r = radius * np.sqrt(rng.uniform(size=self.POINTS))
            phi = rng.uniform(-math.pi, math.pi, size=self.POINTS)
            return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)

        lams = signs(len(self.PAIRS)) * stratified(0.05, 3.0, len(self.PAIRS))
        self.triples = [(n, m, float(lam), disc(3.0)) for (n, m), lam in zip(self.PAIRS, lams)]
        xdots = signs(self.KERNELS) * stratified(0.05, 5.0, self.KERNELS)
        self.kernels = [(float(xd), i % 13 - 6, disc(4.0)) for i, xd in enumerate(xdots)]
        lams = signs(len(self.SPOT_PAIRS)) * stratified(0.4, 2.0, len(self.SPOT_PAIRS))
        self.spots = [(n, m, float(lam)) for (n, m), lam in zip(self.SPOT_PAIRS, lams)]

    def setup(self):
        self.fld = fields.SampledField.from_function(
            lambda y, e, s: np.exp(-(y**2 + e**2) - s**2), 1, (6.0, 6.0, 6.0), (33, 33, 33))

    def prepare_reference(self):
        self.w_ref = [[R.wigner_laguerre(n, m, lam, *Y[i]) for i in range(self.CHECKED)]
                      for n, m, lam, Y in self.triples]
        self.k_ref = [R.boundary_kernel_bessel(xd, k, Y[:, 0], Y[:, 1]) for xd, k, Y in self.kernels]
        self.spot_ref = [float(R.gauss_hat_diagonal(1.0, 1.0, n, lam)) if n == m else 0.0
                         for n, m, lam in self.spots]

    def run_round(self, log):
        for (n, m, lam, Y), ref in zip(self.triples, self.w_ref):
            w = log.op("symbol", wigner.wigner_eval, (n,), (m,), lam, Y)
            mirror = log.op("symbol", wigner.wigner_eval, (m,), (n,), -lam, Y)
            if w is None or mirror is None:
                continue
            log.expect("|W| <= 1", max(0.0, float(np.abs(w).max()) - 1.0), 1e-12)
            log.expect("W index/sign symmetry", float(np.abs(w - (-1.0) ** (n + m) * mirror).max()), 1e-12)
            log.expect("W vs Laguerre form", float(np.abs(w[: self.CHECKED] - ref).max()), 1e-10)
        for (xd, k, Y), ref in zip(self.kernels, self.k_ref):
            kv = log.op("kernel", wigner.boundary_kernel, (xd,), (k,), Y)
            if kv is not None:
                log.expect("boundary kernel vs Bessel form", float(np.abs(kv - ref).max()), 1e-12)
        for (n, m, lam), ref in zip(self.spots, self.spot_ref):
            for route in (lambda: transform.forward_direct(self.fld, (n,), (m,), lam),
                          lambda: transform.rep_matrix_coeff(self.fld, lam, (n,), (m,))):
                v = log.op("spot", route)
                if v is not None:
                    log.expect("spot transform vs Gaussian closed form", abs(v - ref), 1e-5)

    def report(self, stage_median):
        return [("symbol_evals_per_s", 2 * len(self.PAIRS) * self.POINTS / stage_median["symbol"], "1/s"),
                ("kernel_evals_per_s", self.KERNELS * self.POINTS / stage_median["kernel"], "1/s"),
                ("spot_transforms_per_s", 2 * len(self.SPOT_PAIRS) / stage_median["spot"], "1/s")]


WORKLOADS = {cls.name: cls for cls in (TableRoundtrip, HeatKernel, Pairings, SymbolSpot)}
