import json
import math

import numpy as np
import pytest

import hfourier.cli as cli
import hfourier.transform as transform
from hfourier.cli import main
from hfourier.config import Config, PhysGridSpec, load_config
from hfourier.freq_space import LambdaGrid
from hfourier.fields import SampledField, field_to_csv, read_field, write_field
from hfourier.transform import SpectralTable, inverse_on_grid, table_from_csv, table_to_csv
from hfourier.wigner import boundary_kernel

SMALL_CFG = {
    "d": 1,
    "n_max": 8,
    "lambda_grid": {"lambda_min": 1e-3, "lambda_max": 6.0, "points_per_sign": 32},
    "phys_grid": {"extents": [5.0, 5.0, 5.0], "points": [21, 21, 21]},
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CFG))
    return str(path)


@pytest.fixture()
def gauss_file(tmp_path):
    f = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)), 1, (5, 5, 5), (21, 21, 21)
    )
    path = tmp_path / "gauss.hfld"
    write_field(f, path)
    return str(path)


def test_transform_forward_and_inverse(tmp_path, small_config, gauss_file):
    out1 = tmp_path / "fwd"
    rc = main([
        "transform", "--input", gauss_file, "--direction", "forward",
        "--config", small_config, "--out", str(out1),
    ])
    assert rc == 0
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["plancherel_ratio"] == pytest.approx(math.pi**2, rel=0.15)
    assert (out1 / "table.csv").exists() and (out1 / "table.csv.json").exists()

    out2 = tmp_path / "inv"
    rc = main([
        "transform", "--input", str(out1 / "table.csv"), "--direction", "inverse",
        "--config", small_config, "--out", str(out2),
    ])
    assert rc == 0
    rec = read_field(out2 / "field.hfld")
    truth = SampledField.from_function(
        lambda y, e, s: np.exp(-(y**2 + e**2 + s**2)), 1, (5, 5, 5), (21, 21, 21)
    )
    rel = np.abs(rec.samples - truth.samples).max() / np.abs(truth.samples).max()
    assert rel < 0.08  # coarse config round trip


def _spy_inverse(monkeypatch):
    """Record the assume_symmetric flag of every inverse the CLI runs."""
    seen = []

    def spy(*args, **kw):
        seen.append(kw.get("assume_symmetric", False))
        return inverse_on_grid(*args, **kw)

    monkeypatch.setattr(cli, "inverse_on_grid", spy)
    return seen


def test_inverse_of_real_field_table_sums_one_branch(tmp_path, monkeypatch, small_config,
                                                     gauss_file):
    fwd = tmp_path / "fwd"
    assert main(["transform", "--input", gauss_file, "--config", small_config,
                 "--out", str(fwd)]) == 0
    seen = _spy_inverse(monkeypatch)
    assert main(["transform", "--input", str(fwd / "table.csv"), "--direction", "inverse",
                 "--config", small_config, "--out", str(tmp_path / "inv")]) == 0
    assert seen == [True]
    got = read_field(tmp_path / "inv" / "field.hfld").samples
    table = table_from_csv(fwd / "table.csv")
    g = SMALL_CFG["phys_grid"]
    full, _ = inverse_on_grid(table.as_freq_function(), table.grid,
                              extents=g["extents"], points=g["points"], assume_symmetric=False)
    assert np.abs(got - full.samples).max() <= 1e-12 * np.abs(full.samples).max()

    # one perturbed entry breaks the symmetry: both branches are summed
    table.values[1, 2, 3] += 1e-9
    bent = tmp_path / "bent.csv"
    table_to_csv(SpectralTable(table.values, table.grid, 1, table.provenance), bent)
    assert main(["transform", "--input", str(bent), "--direction", "inverse",
                 "--config", small_config, "--out", str(tmp_path / "inv2")]) == 0
    assert seen == [True, False]


def test_heat_stays_on_the_table_index_box(tmp_path, monkeypatch, small_config, gauss_file):
    def no_probe(*args, **kw):
        raise AssertionError("the heat inverse probed past the table's index box")

    monkeypatch.setattr(transform, "_n_extent", no_probe)
    seen = _spy_inverse(monkeypatch)
    assert main(["heat", "--input", gauss_file, "--time", "0.2",
                 "--config", small_config, "--out", str(tmp_path / "heat")]) == 0
    assert seen == [True]


def test_transform_rejects_malformed(tmp_path, small_config):
    bad = tmp_path / "bad.hfld"
    bad.write_bytes(b"garbage")
    rc = main(["transform", "--input", str(bad), "--out", str(tmp_path / "o"),
               "--config", small_config])
    assert rc == 1


def test_transform_rejects_bad_field(tmp_path, small_config, gauss_file, capsys):
    bad = tmp_path / "short.hfld"
    bad.write_bytes(open(gauss_file, "rb").read()[:-16])
    capsys.readouterr()
    rc = main(["transform", "--input", str(bad), "--out", str(tmp_path / "o"),
               "--config", small_config])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "short.hfld" in err


def test_inverse_rejects_bad_table(tmp_path, small_config, gauss_file, capsys):
    fwd = tmp_path / "fwd"
    assert main(["transform", "--input", gauss_file, "--config", small_config,
                 "--out", str(fwd)]) == 0
    header, *rows = (fwd / "table.csv").read_text().splitlines()
    (fwd / "table.csv").write_text("\n".join([header] + rows[:-1] + [rows[0]]) + "\n")
    capsys.readouterr()
    rc = main(["transform", "--input", str(fwd / "table.csv"), "--direction", "inverse",
               "--config", small_config, "--out", str(tmp_path / "inv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_forward_of_a_csv_field_matches_its_hfld(tmp_path, small_config, gauss_file):
    # a .csv input goes through field_from_csv; its outputs are the .hfld's, byte for byte
    csv = tmp_path / "gauss.csv"
    field_to_csv(read_field(gauss_file), csv)
    for name, path in (("hfld", gauss_file), ("csv", str(csv))):
        assert main(["transform", "--input", path, "--config", small_config,
                     "--out", str(tmp_path / name)]) == 0
    for out in ("table.csv", "table.csv.json", "summary.json"):
        assert (tmp_path / "csv" / out).read_bytes() == (tmp_path / "hfld" / out).read_bytes()


def _sidecar_edit(key, value):
    def edit(meta):
        *path, last = key.split(".")
        target = meta
        for part in path:
            target = target[part]
        if value is None:
            del target[last]
        else:
            target[last] = value
        return json.dumps(meta)

    return edit


BAD_SIDECARS = [
    (_sidecar_edit("n_max", 2.7), "'n_max' must be an integer, got 2.7"),
    (_sidecar_edit("d", True), "'d' must be an integer, got True"),
    (_sidecar_edit("n_max", "2"), "'n_max' must be an integer, got '2'"),
    (_sidecar_edit("grid.points_per_sign", 4.0), "'grid.points_per_sign' must be an integer"),
    (_sidecar_edit("grid", [1, 2]), "'grid' must be a JSON object"),
    (_sidecar_edit("grid", None), "missing key 'grid'"),
    (_sidecar_edit("grid.lambda_min", None), "missing key 'grid.lambda_min'"),
    (lambda meta: json.dumps(meta).replace('"lambda_min": 0.1', '"lambda_min": NaN'),
     "non-standard JSON constant NaN"),
    (lambda meta: json.dumps(meta)[:-1], "Expecting ',' delimiter"),
    (lambda meta: "[]", "the top level must be a JSON object"),
    (_sidecar_edit("n_max", -1), "need d >= 1 and n_max >= 0"),
]


@pytest.mark.parametrize("edit, message", BAD_SIDECARS, ids=[
    "n_max-real", "d-bool", "n_max-string", "points-real", "grid-list", "no-grid",
    "no-lambda_min", "nan", "malformed", "top-level-list", "n_max-negative"])
def test_inverse_refuses_a_malformed_sidecar(edit, message, tmp_path, small_config, capsys):
    grid = LambdaGrid(0.1, 2.0, 3)
    table = tmp_path / "table.csv"
    table_to_csv(SpectralTable(np.ones((3, 3, len(grid.lam))), grid), table)
    sidecar = tmp_path / "table.csv.json"
    sidecar.write_text(edit(json.loads(sidecar.read_text())))
    capsys.readouterr()
    rc = main(["transform", "--input", str(table), "--direction", "inverse",
               "--config", small_config, "--out", str(tmp_path / "inv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and f"(in {sidecar})" in err


def test_heat_command(tmp_path, small_config, gauss_file):
    out = tmp_path / "heat"
    rc = main(["heat", "--input", gauss_file, "--time", "0.2",
               "--config", small_config, "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    # heat flow preserves mass and spreads the bump
    assert summary["evolved_mass_re"] == pytest.approx(summary["input_mass_re"], rel=0.05)
    fld = read_field(out / "evolved.hfld")
    assert np.abs(fld.samples).max() < 1.0


def test_inverse_and_heat_gate_on_tail(tmp_path, small_config, gauss_file, capsys, monkeypatch):
    fwd = tmp_path / "fwd"
    assert main(["transform", "--input", gauss_file, "--config", small_config,
                 "--out", str(fwd)]) == 0
    inverse = ["transform", "--input", str(fwd / "table.csv"), "--direction", "inverse"]
    heat = ["heat", "--input", gauss_file, "--time", "0.2"]
    for name, argv in {"inverse": inverse, "heat": heat}.items():
        out = tmp_path / name
        argv = argv + ["--config", small_config, "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        if name == "heat":
            monkeypatch.setattr(cli, "_HEAT_TAIL_TOL", 1e-12)
        else:
            argv = argv + ["--tail-tol", "1e-12"]
        assert main(argv) == 1
        assert "above 1e-12" in capsys.readouterr().err
        # the summary is still written, so the rejected tail can be read
        tail = json.loads((out / "summary.json").read_text())["tail_estimate"]
        assert 1e-12 < tail <= 1.0


def test_main_builds_the_parser_once_and_carries_no_flag_over(monkeypatch):
    builds, tolerances = [], []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    monkeypatch.setattr(cli, "_parser", None)
    # bound into the parser when it is built, so no transform runs
    monkeypatch.setattr(cli, "cmd_transform", lambda args: tolerances.append(args.tail_tol) or 0)
    argv = ["transform", "--input", "field.hfld", "--out", "out"]
    assert main(argv + ["--tail-tol", "1e-12"]) == 0
    assert main(argv) == 0
    assert builds == [1] and tolerances == [1e-12, 1.0]


def test_pair_command(tmp_path, capsys):
    rc = main(["pair", "--distribution", "identity", "--theta", "heat:1.0",
               "--out", str(tmp_path / "p")])
    assert rc == 0
    rec = json.loads((tmp_path / "p" / "pairing.json").read_text())
    assert rec["value_re"] == pytest.approx(math.pi**2 / 64.0, abs=2e-4)
    assert "tail_bound" in rec


def test_pair_command_at_d2(tmp_path, capsys):
    # every test function is built at the config's d, so d = 2 pairs without a mismatch
    config = tmp_path / "d2.json"
    config.write_text(json.dumps({"d": 2}))

    def run(distribution, theta):
        return main(["pair", "--distribution", distribution, "--theta", theta,
                     "--config", str(config)])

    assert run("dirac-origin", "heat:1.0") == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["value_re"], rec["value_im"], rec["tail_bound"]) == (1.0, 0.0, 0.0)
    # <I, heat(1)> = pi^2 / 768 at d = 2, within the finite tail
    assert run("identity", "heat:1.0") == 0
    rec = json.loads(capsys.readouterr().out)
    want = math.pi**2 / 768.0
    assert abs(rec["value_re"] - want) <= min(rec["tail_bound"], 1e-3 * want)
    # the finite part is summed at d = 1 only, and refused above
    for theta in ("heat:1.0", "gauss_profile:1.0", "exp_floor:0.5"):
        assert run("finite-part:3.2", theta) == 1
        assert "finite part implemented for d = 1" in capsys.readouterr().err


def _strict_json(text):
    """json.loads that refuses the non-standard Infinity, -Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def test_pair_output_is_strict_json_at_d2(tmp_path, capsys):
    # the printed record and pairing.json are the same strict JSON at d = 2,
    # where the identity pairing has a finite tail
    config = tmp_path / "d2.json"
    config.write_text(json.dumps({"d": 2}))
    assert main(["pair", "--distribution", "identity", "--theta", "heat:1.0",
                 "--config", str(config), "--out", str(tmp_path / "p")]) == 0
    printed = _strict_json(capsys.readouterr().out)
    written = _strict_json((tmp_path / "p" / "pairing.json").read_text())
    assert printed == written
    assert math.isfinite(printed["tail_bound"]) and math.isfinite(printed["value_re"])
    # a tail without a finite estimate is written as null
    record = {"tail_bound": math.inf, "value_re": 1.0, "nested": [math.nan, -math.inf]}
    assert _strict_json(cli._json_text(record)) == {"tail_bound": None, "value_re": 1.0,
                                                    "nested": [None, None]}
    with pytest.raises(ValueError):
        _strict_json('{"tail_bound": Infinity}')


BAD_CONFIGS = [
    ({"nmax": 8}, "'nmax'"),
    ({**SMALL_CFG, "phys_grid": {"extents": [5.0, 5.0, 5.0], "point": [21, 21, 21]}},
     "'phys_grid.point'"),
    ({**SMALL_CFG, "fixtures": {"exp_floor_r0": 0.5}}, "'fixtures'"),
]


@pytest.mark.parametrize("cfg, key", BAD_CONFIGS, ids=["nmax", "phys_grid-point", "fixtures"])
def test_config_rejects_unknown_keys(cfg, key, tmp_path, gauss_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["transform", "--input", gauss_file, "--config", str(path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key") and key in err
    assert not out.exists()


BOUNDARY_CONFIGS = [
    ('{"phys_grid": {"extents": [NaN, 6, 6]}}', "non-standard JSON constant NaN"),
    ('{"lambda_grid": {"lambda_min": 1e-3, "lambda_max": Infinity, "points_per_sign": 8}}',
     "non-standard JSON constant Infinity"),
    ('{"heat_phys_grid": {"points": [33, 33, 4]}}', "heat_phys_grid point counts"),
    ('{"n_max": 2.5}', "'n_max' must be an integer"),
    ('{"n_max": true}', "'n_max' must be an integer"),
    ('{"d": 1.0}', "'d' must be an integer"),
    ('{"seed": "x"}', "'seed' must be an integer"),
    ('{"lambda_grid": {"points_per_sign": 2.5}}', "'lambda_grid.points_per_sign' must be an integer"),
    ('{"lambda_grid": {"lambda_min": "1e-3"}}', "'lambda_grid.lambda_min' must be a real number"),
    ('{"phys_grid": {"extents": [6, 6]}}', "'phys_grid.extents' must be a list of 3 real numbers"),
    ('{"phys_grid": {"points": [33.0, 33, 33]}}', "'phys_grid.points' must be a list of 3 integers"),
    ('{"heat_phys_grid": [6, 6, 20]}', "'heat_phys_grid' must be a JSON object"),
    ('[1, 2]', "the top level must be a JSON object"),
]


@pytest.mark.parametrize("text, message", BOUNDARY_CONFIGS,
                         ids=["nan-extent", "infinite-lambda", "heat-grid-points", "float-n_max",
                              "bool-n_max", "float-d", "string-seed", "float-points_per_sign",
                              "string-lambda_min", "two-extents", "float-point", "list-grid",
                              "list-top-level"])
def test_config_refuses_out_of_bounds_values(text, message, tmp_path):
    path = tmp_path / "bounds.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        load_config(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("build", [
    lambda: Config(phys_grid=PhysGridSpec(extents=(math.nan, 6.0, 6.0))),
    lambda: Config(heat_phys_grid=PhysGridSpec(extents=(6.0, 6.0, math.inf))),
    lambda: Config(heat_phys_grid=PhysGridSpec(extents=(6.0, 0.0, 20.0))),
    lambda: LambdaGrid(1e-3, math.inf, 8),
], ids=["nan-extent", "infinite-heat-extent", "zero-heat-extent", "infinite-lambda"])
def test_grids_refuse_non_finite_bounds(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: Config(n_max=True), "'n_max' must be an integer, got True"),
    (lambda: Config(d=1.0), "'d' must be an integer"),
    (lambda: Config(seed="x"), "'seed' must be an integer"),
    (lambda: LambdaGrid(1e-3, 8.0, 2.5), "'points_per_sign' must be an integer, got 2.5"),
    (lambda: LambdaGrid("1e-3", 8.0, 8), "'lambda_min' must be a real number"),
    (lambda: Config(phys_grid=PhysGridSpec(extents=(6.0, 6.0))),
     "'phys_grid.extents' must be a list of 3 real numbers"),
    (lambda: Config(heat_phys_grid=PhysGridSpec(points=(33.0, 33, 107))),
     "'heat_phys_grid.points' must be a list of 3 integers"),
], ids=["bool-n_max", "float-d", "string-seed", "float-points_per_sign", "string-lambda_min",
        "two-extents", "float-point"])
def test_dataclasses_refuse_wrong_types(build, message):
    # library callers get the checks a config file gets
    with pytest.raises(ValueError, match=message):
        build()


def test_transform_names_an_out_of_bounds_input(tmp_path, small_config, gauss_file, capsys):
    nan_config = tmp_path / "nan_config.json"
    nan_config.write_text('{"phys_grid": {"extents": [NaN, 6, 6]}}')
    raw = bytearray(open(gauss_file, "rb").read())
    # d = 1: spacings then extents, six doubles after the three axis lengths
    raw[22:70] = np.full(6, np.inf).tobytes()
    inf_field = tmp_path / "inf_extent.hfld"
    inf_field.write_bytes(bytes(raw))
    for argv, name in (([gauss_file, "--config", str(nan_config)], "nan_config.json"),
                       ([str(inf_field), "--config", small_config], "inf_extent.hfld")):
        capsys.readouterr()
        assert main(["transform", "--input", *argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err


def test_config_accepts_every_field(tmp_path):
    cfg = {**SMALL_CFG, "seed": 7, "heat_phys_grid": {"extents": [5.0, 5.0, 9.0],
                                                       "points": [21, 21, 41]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(path)
    assert (loaded.n_max, loaded.seed, loaded.heat_phys_grid.points) == (8, 7, (21, 21, 41))
    assert loaded.lambda_grid.points_per_sign == 32


def test_kernel_command(tmp_path, small_config):
    out = tmp_path / "k"
    rc = main(["kernel", "--xdot", "1.0", "--k", "0", "--config", small_config,
               "--out", str(out)])
    assert rc == 0
    rows = (out / "kernel.csv").read_text().strip().splitlines()
    assert rows[0] == "y,eta,re,im"
    assert len(rows) == 1 + 21 * 21
    # every field is a plain float token equal, bit for bit, to the kernel
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    axis = np.linspace(-5.0, 5.0, 21)
    Y = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    want = boundary_kernel((1.0,), (0,), Y)
    assert np.array_equal(data, np.column_stack([Y, want.real, want.imag]))
    # y-major rows of shortest-repr tokens
    assert rows[1:] == [",".join(repr(float(v)) for v in (y, e, k.real, k.imag))
                        for (y, e), k in zip(Y, want)]


NON_FINITE = [
    ["pair", "--distribution", "identity", "--theta", "heat:nan"],
    ["pair", "--distribution", "identity", "--theta", "gauss_profile:inf"],
    ["pair", "--distribution", "identity", "--theta", "exp_floor:nan"],
    ["pair", "--distribution", "identity", "--theta", "exp_floor:0"],
    ["pair", "--distribution", "identity", "--theta", "exp_floor:-0.5"],
    ["pair", "--distribution", "identity", "--theta", "gauss_profile:0"],
    ["pair", "--distribution", "finite-part:nan", "--theta", "heat:1.0"],
    ["pair", "--distribution", "dirac-origin:inf", "--theta", "heat:1.0"],
    ["kernel", "--xdot", "nan"],
    ["heat", "--time", "nan"],
    ["heat", "--time", "inf"],
    ["heat", "--time", "-1.0"],
    ["transform", "--tail-tol", "nan"],
    ["transform", "--tail-tol", "-1.0"],
]


@pytest.mark.parametrize("argv", NON_FINITE, ids=" ".join)
def test_cli_rejects_non_finite_numbers(argv, tmp_path, small_config, gauss_file, capsys):
    out = tmp_path / "o"
    extra = ["--config", small_config, "--out", str(out)]
    if argv[0] in ("heat", "transform"):
        extra += ["--input", gauss_file]
    capsys.readouterr()
    assert main(argv + extra) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists() or not any(out.iterdir())


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "not-a-suite"]) == 2


def test_verify_suite_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["verify", "--suite", "wigner", "--out", str(out1)])
    rc2 = main(["verify", "--suite", "wigner", "--out", str(out2)])
    assert rc1 == 0 and rc2 == 0
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
