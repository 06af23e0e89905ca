"""Command-line front end.

Subcommands: ``transform`` (forward/inverse on field/table files),
``heat`` (multiplier evolution), ``pair`` (distribution pairings),
``kernel`` (tabulate the boundary kernel), ``verify`` (identity suites
with a machine-readable report).  All machine output is JSON (CSV for
tables); flags are long-form only.  Reports carry no timestamps so
repeated runs are byte-identical for a fixed configuration.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .config import default_config, load_config
from .distributions import Distribution, pair
from .fields import _write_csv, field_from_csv, read_field, write_field
from .profiles import heat_profile, profile_exp_floor, profile_gauss, profile_to_freq_function
from .transform import (
    forward_factored,
    inverse_on_grid,
    multiplier_apply,
    plancherel_norms,
    table_from_csv,
    table_to_csv,
)
from .verify import SUITES, run_suites
from .wigner import boundary_kernel


def _json_safe(obj):
    """``obj`` with every non-finite float as None: JSON has no inf or nan."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json_text(obj, indent=None):
    return json.dumps(_json_safe(obj), indent=indent, sort_keys=True, allow_nan=False)


def _json_dump(obj, path):
    with open(path, "w") as fh:
        fh.write(_json_text(obj, indent=2) + "\n")


def _load_field(path):
    if str(path).endswith(".csv"):
        return field_from_csv(path)
    return read_field(path)


def _finite(value, what):
    """float(value), refusing nan and inf."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


def _theta_fixture(spec, d):
    kind, _, arg = spec.partition(":")
    if kind == "heat":
        return heat_profile(_finite(arg or 1.0, "heat:T"), d=d)
    if kind == "gauss_profile":
        sigma = _finite(arg or 1.0, "gauss_profile:S")
        return profile_to_freq_function(profile_gauss(sigma, d=d))
    if kind == "exp_floor":
        r0 = _finite(arg or 0.5, "exp_floor:R0")
        return profile_to_freq_function(profile_exp_floor(r0, d=d, lam_slope=0.5))
    raise SystemExit(f"unknown test function {spec!r} (use heat:T, gauss_profile:S, exp_floor:R0)")


def _distribution(spec, d=1):
    kind, _, arg = spec.partition(":")
    if kind == "identity":
        return Distribution.single("freq_identity_sum", d=d)
    if kind == "dirac-origin":
        coeff = _finite(arg or 1.0, "dirac-origin:C")
        return Distribution.single("freq_dirac_origin", coeff=coeff, d=d)
    if kind == "finite-part":
        return Distribution.single("freq_finite_part", payload=_finite(arg, "finite-part:G"), d=d)
    if kind == "boundary-measure":
        return Distribution.single("freq_boundary_measure", payload=lambda xd, k: 1.0, d=d)
    raise SystemExit(
        f"unknown distribution {spec!r} "
        "(use identity, dirac-origin[:C], finite-part:GAMMA, boundary-measure)"
    )


# heat's output is an inverse transform, gated like ``transform --direction
# inverse`` at its default --tail-tol
_HEAT_TAIL_TOL = 1.0


def _within_tail_tol(tail, tol):
    """True for a finite tail estimate at most ``tol``; else report it."""
    if math.isfinite(tail) and tail <= tol:
        return True
    print(f"tail estimate {tail:.3g} above {tol:g}", file=sys.stderr)
    return False


def _conjugate_symmetric(table):
    """theta(n, m, -lam) == conj(theta(n, m, lam)) bit for bit, as for the
    table of a real field; the inverse then sums the positive branch only."""
    return np.array_equal(table.values[..., ::-1], np.conj(table.values))


def cmd_transform(args):
    if _finite(args.tail_tol, "--tail-tol") < 0:
        raise ValueError(f"--tail-tol must be non-negative, got {args.tail_tol!r}")
    cfg = load_config(args.config) if args.config else default_config()
    grid = cfg.lambda_grid
    os.makedirs(args.out, exist_ok=True)
    if args.direction == "forward":
        fld = _load_field(args.input)
        table = forward_factored(fld, cfg.n_max, grid)
        csv_path = os.path.join(args.out, "table.csv")
        table_to_csv(table, csv_path)
        phys, res = plancherel_norms(fld, table)
        summary = {
            "direction": "forward",
            "l2_physical_sq": phys,
            "l2_frequency_sq": res.value.real,
            "plancherel_ratio": res.value.real / phys if phys else float("nan"),
            "tail_estimate": res.tail_bound,
            "n_max": table.n_max,
            "table": "table.csv",
        }
        _json_dump(summary, os.path.join(args.out, "summary.json"))
        return 0 if _within_tail_tol(res.tail_bound, args.tail_tol) else 1
    table = table_from_csv(args.input)
    g = cfg.phys_grid
    fld, tail = inverse_on_grid(
        table.as_freq_function(), table.grid, extents=g.extents, points=g.points,
        assume_symmetric=_conjugate_symmetric(table),
    )
    out_path = os.path.join(args.out, "field.hfld")
    write_field(fld, out_path)
    summary = {
        "direction": "inverse",
        "sup_abs": float(np.abs(fld.samples).max()),
        "mass_re": fld.integral().real,
        "tail_estimate": tail,
        "field": "field.hfld",
    }
    _json_dump(summary, os.path.join(args.out, "summary.json"))
    return 0 if _within_tail_tol(tail, args.tail_tol) else 1


def cmd_heat(args):
    # a negative time grows like exp(+|t| r) and overflows
    if _finite(args.time, "--time") < 0:
        raise ValueError(f"--time must be non-negative, got {args.time!r}")
    cfg = load_config(args.config) if args.config else default_config()
    grid = cfg.lambda_grid
    fld = _load_field(args.input)
    table = forward_factored(fld, cfg.n_max, grid)
    evolved = multiplier_apply(lambda r: np.exp(-args.time * r), table.as_freq_function())
    g = cfg.phys_grid
    # the multiplier is real and even in lam, so it keeps the table's symmetry
    out_fld, tail = inverse_on_grid(
        evolved, grid, extents=g.extents, points=g.points,
        assume_symmetric=_conjugate_symmetric(table),
    )
    os.makedirs(args.out, exist_ok=True)
    write_field(out_fld, os.path.join(args.out, "evolved.hfld"))
    summary = {
        "time": args.time,
        "input_mass_re": fld.integral().real,
        "evolved_mass_re": out_fld.integral().real,
        "tail_estimate": tail,
        "field": "evolved.hfld",
    }
    _json_dump(summary, os.path.join(args.out, "summary.json"))
    return 0 if _within_tail_tol(tail, _HEAT_TAIL_TOL) else 1


def cmd_pair(args):
    cfg = load_config(args.config) if args.config else default_config()
    grid = cfg.lambda_grid
    theta = _theta_fixture(args.theta, cfg.d)
    dist = _distribution(args.distribution, d=cfg.d)
    res = pair(dist, theta, grid)
    record = {
        "distribution": args.distribution,
        "test_function": args.theta,
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "tail_bound": res.tail_bound,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _json_dump(record, os.path.join(args.out, "pairing.json"))
    print(_json_text(record))
    return 0


def cmd_kernel(args):
    _finite(args.xdot, "--xdot")
    cfg = load_config(args.config) if args.config else default_config()
    g = cfg.phys_grid
    y = np.linspace(-g.extents[0], g.extents[0], g.points[0])
    e = np.linspace(-g.extents[1], g.extents[1], g.points[1])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "kernel.csv")
    val = boundary_kernel((args.xdot,), (args.k,), np.stack(np.meshgrid(y, e, indexing="ij"), -1))
    _write_csv(path, "y,eta,re,im", [y[:, None], e, val.real, val.imag])
    print(path)
    return 0


def cmd_verify(args):
    cfg = load_config(args.config) if args.config else default_config()
    try:
        records, ok = run_suites([args.suite], cfg=cfg, echo=True)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = {
        "suite": args.suite,
        "passed": ok,
        "checks": [r.as_dict() for r in records],
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _json_dump(report, os.path.join(args.out, "report.json"))
    failures = [r.test_id for r in records if not r.passed]
    if failures:
        print("failed: " + ", ".join(failures), file=sys.stderr)
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(prog="hfourier", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="forward/inverse transform of a field/table file")
    t.add_argument("--input", required=True)
    t.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    t.add_argument("--config")
    t.add_argument("--out", required=True)
    t.add_argument("--tail-tol", type=float, default=1.0)
    t.set_defaults(fn=cmd_transform)

    h = sub.add_parser("heat", help="heat-flow multiplier evolution of a field")
    h.add_argument("--input", required=True)
    h.add_argument("--time", type=float, required=True)
    h.add_argument("--config")
    h.add_argument("--out", required=True)
    h.set_defaults(fn=cmd_heat)

    q = sub.add_parser("pair", help="pair a frequency distribution with a test function")
    q.add_argument("--distribution", required=True)
    q.add_argument("--theta", required=True)
    q.add_argument("--config")
    q.add_argument("--out")
    q.set_defaults(fn=cmd_pair)

    k = sub.add_parser("kernel", help="tabulate the boundary kernel over the Y grid")
    k.add_argument("--xdot", type=float, required=True)
    k.add_argument("--k", type=int, default=0)
    k.add_argument("--config")
    k.add_argument("--out", required=True)
    k.set_defaults(fn=cmd_kernel)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", default="all", help=f"one of {sorted(SUITES)}")
    v.add_argument("--config")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)
    return p


# built on the first call of main and reused by every later one
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
