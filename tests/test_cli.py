"""Tests for the experiment command-line driver."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

import capa
from capa import C0, ConfigError, beamform_cg, build_expansion, cli, steered_gain_profile
from capa.cli import load_config, main

X_FIRST_NULL_EPS = 2.7437072699727789
X_FIRST_NULL_WL = 0.43667457441333718
Y_FIRST_NULL_EPS = 4.493409457909064
Y_FIRST_NULL_WL = 0.71514832656364891


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _config_echo(text):
    echo = {}
    for line in text.splitlines():
        if line.startswith("# config "):
            key, _, raw = line[len("# config "):].partition("=")
            echo[key] = json.loads(raw)
    return echo


def test_load_config_defaults():
    config = load_config()
    assert config.physical.frequency == 2.4e9
    assert config.aperture.length_x == 0.5
    assert config.order == 20
    assert config.power == 1.0
    assert config.inner_rule == "chebyshev"


def test_load_config_override_propagates():
    config = load_config(overrides=("frequency=3.0e9",))
    assert config.physical.wavenumber == pytest.approx(2.0 * np.pi * 3.0e9 / C0)


def test_load_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="aperture.L_x"):
        load_config(overrides=("aperture.L_x=-0.5",))
    with pytest.raises(ConfigError, match="unknown configuration key"):
        load_config(overrides=("aperture.L_z=0.5",))
    with pytest.raises(ConfigError, match="quadrature.M"):
        load_config(overrides=("quadrature.M=2.5",))
    with pytest.raises(ConfigError, match="quadrature.M"):
        load_config(overrides=("quadrature.M=600",))
    with pytest.raises(ConfigError, match="key=value"):
        load_config(overrides=("frequency",))


def test_nulls_reports_both_axes(capsys):
    code, out, err = _run(capsys, ["nulls"])
    assert code == 0 and err == ""
    header, rows = _csv_rows(out)
    assert header == ["axis", "index", "eps", "spacing_wl"]
    assert len(rows) == 6
    x1 = rows[0]
    assert x1[0] == "x" and x1[1] == "1"
    assert float(x1[2]) == pytest.approx(X_FIRST_NULL_EPS, abs=1e-10)
    assert float(x1[3]) == pytest.approx(X_FIRST_NULL_WL, abs=1e-10)
    y1 = rows[3]
    assert y1[0] == "y" and y1[1] == "1"
    assert float(y1[2]) == pytest.approx(Y_FIRST_NULL_EPS, abs=1e-10)
    assert float(y1[3]) == pytest.approx(Y_FIRST_NULL_WL, abs=1e-10)


def test_kernel_sign_changes_bracket_nulls(capsys):
    code, out, _ = _run(capsys, ["kernel"])
    assert code == 0
    _, rows = _csv_rows(out)
    sep = np.array([float(r[0]) for r in rows])
    val = np.array([float(r[2]) for r in rows])
    flips = np.nonzero(np.sign(val[:-1]) != np.sign(val[1:]))[0]
    crossings = sep[flips][:3]
    expected = np.array([2.7437072699727789, 6.1167642644429208,
                         9.3166156285653745]) / (2.0 * np.pi)
    assert np.allclose(crossings, expected, atol=0.003)


def test_gain_json_document(capsys):
    code, out, err = _run(capsys, ["gain", "--set", "quadrature.M=8"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["method"] == "both"
    assert doc["config"]["quadrature.M"] == 8
    assert "version" in doc
    for key in ("gain_ka", "gain_cg", "rel_diff", "uncoupled_bound",
                "cg_iterations", "cg_residual"):
        assert key in doc
    assert doc["gain_ka"] > 0.0
    assert doc["rel_diff"] == pytest.approx(
        abs(doc["gain_ka"] - doc["gain_cg"]) / abs(doc["gain_cg"]))


def test_outputs_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = main(["gain", "--set", "quadrature.M=6", "--set", "cg.init=random",
                     "--seed", "11", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_precedence_file_set_flag(tmp_path, capsys):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps({"frequency": 3.0e9, "kernel.samples": 50}))
    code, out, _ = _run(capsys, [
        "kernel", "--config", str(cfg_file),
        "--set", "kernel.samples=80", "--samples", "120"])
    assert code == 0
    echo = _config_echo(out)
    assert echo["frequency"] == 3.0e9
    assert echo["kernel.samples"] == 120
    _, rows = _csv_rows(out)
    assert len(rows) == 120


def test_flag_beats_set_only_when_given(capsys):
    code, out, _ = _run(capsys, ["kernel", "--set", "kernel.samples=80"])
    assert code == 0
    assert _config_echo(out)["kernel.samples"] == 80
    _, rows = _csv_rows(out)
    assert len(rows) == 80


def test_rmax_flag_accepts_wavelength_suffix(capsys):
    code, out, _ = _run(capsys, ["kernel", "--rmax", "1.5wl",
                                 "--set", "kernel.samples=10"])
    assert code == 0
    echo = _config_echo(out)
    assert echo["kernel.rmax_wl"] == 1.5


@pytest.mark.parametrize("argv, key, expected", [
    (["kernel", "--line", "y", "--samples", "5"], "kernel.line", "y"),
    (["kernel", "--rmax", "2λ", "--samples", "5"], "kernel.rmax_wl", 2.0),
    (["kernel", "--samples", "5"], "kernel.samples", 5),
    (["nulls", "--count", "2"], "nulls.count", 2),
    (["wavenumber", "--line", "y", "--samples", "5"], "wavenumber.line", "y"),
    (["wavenumber", "--samples", "5"], "wavenumber.samples", 5),
    (["gain", "--method", "ka", "--format", "csv", "--set", "quadrature.M=6"],
     "gain.method", "ka"),
    (["convergence", "--orders", "4,6", "--set", "quadrature.M=6"],
     "convergence.orders", [4, 6]),
    (["directivity", "--plane", "E", "--set", "directivity.step_deg=45",
      "--set", "quadrature.M=6"], "directivity.plane", "E"),
    (["spda-spacing", "--spacings", "0.5wl,0.25", "--set", "aperture.L_x=0.125",
      "--set", "aperture.L_y=0.125", "--set", "quadrature.M=6"],
     "spda.spacings_wl", [0.5, 0.25]),
    (["spda-aperture", "--sides", "0.125", "--set", "quadrature.M=6"],
     "spda.sides_m", [0.125]),
])
def test_each_flag_sets_its_key(capsys, argv, key, expected):
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert _config_echo(out)[key] == expected


def test_config_error_exit_code_and_record(capsys):
    code, out, err = _run(capsys, ["gain", "--set", "aperture.L_x=-1"])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["code"] == 2
    assert record["module"] == "cli"
    assert "aperture.L_x" in record["message"]


@pytest.mark.parametrize("setting", ["frequency=Infinity", "receiver.phi_deg=NaN",
                                     "receiver.theta_deg=-Infinity", "aperture.L_x=1e400",
                                     "spda.sides_m=[0.5, NaN]"])
def test_non_finite_value_is_config_error(capsys, setting):
    code, out, err = _run(capsys, ["gain", "--set", setting])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["code"] == 2
    assert record["module"] == "cli"
    assert setting.partition("=")[0] in record["message"]


@pytest.mark.parametrize("phi", ["120", "-91"])
def test_phi_outside_plus_minus_90_is_config_error(capsys, phi):
    code, out, err = _run(capsys, ["gain", "--set", f"receiver.phi_deg={phi}",
                                   "--method", "ka", "--set", "quadrature.M=8"])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["code"] == 2
    assert "receiver.phi_deg" in record["message"]
    with pytest.raises(ConfigError, match="receiver.phi_deg"):
        load_config(overrides=(f"receiver.phi_deg={phi}",))


@pytest.mark.parametrize("phi", [90.0, -90.0])
def test_phi_at_plus_minus_90_is_accepted(phi):
    config = load_config(overrides=(f"receiver.phi_deg={phi}",))
    assert config.values["receiver.phi_deg"] == phi


def test_numeric_error_exit_code_and_record(capsys):
    code, out, err = _run(capsys, [
        "gain", "--set", "gain.method=cg", "--set", "cg.max_iter=2",
        "--set", "quadrature.M=6"])
    assert code == 3 and out == ""
    record = json.loads(err)
    assert record["code"] == 3
    assert record["module"] == "cg_solver"


@pytest.mark.parametrize("argv", [["gain", "--method", "ka"], ["gain", "--method", "cg"],
                                  ["gain", "--method", "both"], ["beampattern"]])
def test_polarization_null_exits_two_with_record(capsys, argv):
    code, out, err = _run(capsys, argv + ["--set", "receiver.theta_deg=90",
                                          "--set", "receiver.phi_deg=90",
                                          "--set", "quadrature.M=6"])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["code"] == 2
    assert "polarization null" in record["message"]


def test_spda_aperture_checks_far_field_of_largest_side():
    small = ("quadrature.M=6", "spda.spacing_wl=1")
    # the 0.75 m side's boundary is 18 m; the configured 0.5 m aperture's is 8 m
    config = load_config(overrides=small + ("receiver.R0=12", "spda.sides_m=[0.25, 0.75]"))
    with pytest.warns(UserWarning, match="far-field boundary 18 m"):
        cli.run("spda-aperture", config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli.run("spda-aperture", load_config(overrides=small))


def test_warnings_print_as_json_records(capsys):
    # main reports the 18 m boundary warning as a JSON line, without a source path
    code, out, err = _run(capsys, ["spda-aperture", "--set", "quadrature.M=6",
                                   "--set", "spda.spacing_wl=1", "--set", "receiver.R0=12",
                                   "--sides", "0.25,0.75"])
    assert code == 0 and out
    lines = err.splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert record["warning"] == "UserWarning"
        assert "far-field boundary 18 m" in record["message"]
    assert ".py" not in err


def test_warning_records_precede_the_error_record(capsys):
    code, out, err = _run(capsys, ["spda-aperture", "--set", "quadrature.M=6",
                                   "--set", "spda.element_wl=0.8", "--set", "receiver.R0=12",
                                   "--sides", "0.25,0.75"])
    assert code == 2 and out == ""
    first, last = (json.loads(line) for line in err.splitlines())
    assert "far-field boundary 18 m" in first["message"]
    assert last == {"code": 2, "module": "spda",
                    "message": "element does not fit inside the lattice pitch"}


@pytest.mark.parametrize("command", ["spda-spacing", "spda-aperture"])
def test_spda_point_mode_runs_at_defaults(capsys, command):
    code, out, err = _run(capsys, [command, "--set", "spda.mode=point"])
    assert code == 0 and err == ""
    _, rows = _csv_rows(out)
    assert all(float(cell) > 0.0 for row in rows for cell in row)


def test_linalg_error_exits_three_with_record(capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "beamform_cg", singular)
    code, out, err = _run(capsys, ["gain", "--method", "cg", "--set", "quadrature.M=6"])
    assert code == 3 and out == ""
    record = json.loads(err)
    assert record == {"code": 3, "module": "cli", "message": "Singular matrix"}


def test_missing_config_file_is_config_error(capsys):
    code, _, err = _run(capsys, ["nulls", "--config", "/nonexistent/capa.json"])
    assert code == 2
    assert json.loads(err)["code"] == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_json_format_rows(capsys):
    code, out, _ = _run(capsys, ["nulls", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert len(rows) == 6
    assert rows[0]["axis"] == "x"
    assert rows[0]["spacing_wl"] == pytest.approx(X_FIRST_NULL_WL, abs=1e-10)


def test_wavenumber_profile(capsys):
    code, out, _ = _run(capsys, ["wavenumber", "--samples", "8"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["kappa_over_k0", "spectrum"]
    assert len(rows) == 8
    ratios = [float(r[0]) for r in rows]
    assert all(-1.0 < q < 1.0 for q in ratios)
    assert all(float(r[1]) > 0.0 for r in rows)


def test_convergence_series(capsys):
    code, out, _ = _run(capsys, [
        "convergence", "--orders", "4,6", "--set", "quadrature.M=6"])
    assert code == 0
    _, rows = _csv_rows(out)
    names = {r[0] for r in rows}
    assert names == {"gain_ka", "gain_cg", "cg_residual", "cg_functional"}
    ka_rows = [r for r in rows if r[0] == "gain_ka"]
    assert [int(r[1]) for r in ka_rows] == [4, 6]


@pytest.mark.parametrize("orders, solves", [("4,6", 2), ("4,5", 3)])
def test_convergence_solves_default_order_once(capsys, monkeypatch, orders, solves):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return beamform_cg(*args, **kwargs)

    monkeypatch.setattr(cli, "beamform_cg", counted)
    code, _, _ = _run(capsys, ["convergence", "--orders", orders,
                               "--set", "quadrature.M=6"])
    assert code == 0
    assert len(calls) == solves and calls.count(6) == 1


def test_directivity_smoke(capsys):
    code, out, _ = _run(capsys, [
        "directivity", "--set", "directivity.step_deg=30.0",
        "--set", "quadrature.M=6"])
    assert code == 0
    _, rows = _csv_rows(out)
    planes = {r[1] for r in rows}
    series = {r[0] for r in rows}
    assert planes == {"E", "H"}
    assert series == {"infinite_per_area", "steered_gain"}
    assert len(rows) == 2 * 2 * 3


def test_directivity_plane_outside_choices_exits_two(capsys):
    code, out, err = _run(capsys, ["directivity", "--set", "directivity.plane=X"])
    assert code == 2 and out == ""
    assert json.loads(err) == {"code": 2, "module": "cli",
                               "message": "directivity.plane must be one of: E, H, both"}


def test_beampattern_smoke(capsys):
    code, out, _ = _run(capsys, [
        "beampattern", "--set", "beampattern.phi_step_deg=30.0",
        "--set", "beampattern.theta_step_deg=90.0", "--set", "quadrature.M=6"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["pattern", "theta_deg", "phi_deg", "normalized", "absolute"]
    kinds = {r[0] for r in rows}
    assert kinds == {"coupled", "uncoupled"}
    norm = [float(r[3]) for r in rows]
    assert max(norm) == pytest.approx(1.0)


def test_spda_spacing_smoke(capsys):
    code, out, _ = _run(capsys, [
        "spda-spacing", "--spacings", "0.5,0.25",
        "--set", "aperture.L_x=0.125", "--set", "aperture.L_y=0.125",
        "--set", "quadrature.M=6"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header[:3] == ["spacing_wl", "spacing_m", "n_elements"]
    assert len(rows) == 2
    assert int(rows[1][2]) > int(rows[0][2])


def test_spda_spacing_runs_at_default_spacings(capsys):
    code, out, err = _run(capsys, [
        "spda-spacing", "--set", "aperture.L_x=0.125", "--set", "aperture.L_y=0.125",
        "--set", "quadrature.M=6"])
    assert code == 0 and err == ""
    _, rows = _csv_rows(out)
    assert [float(r[0]) for r in rows] == [1.0, 0.5, 0.25, 0.125]


def test_spda_aperture_smoke(capsys):
    code, out, _ = _run(capsys, [
        "spda-aperture", "--sides", "0.125,0.25", "--set", "quadrature.M=6"])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header[0] == "side_m"
    assert len(rows) == 2
    assert float(rows[1][3]) > float(rows[0][3])


def test_memory_error_exits_three_with_record(capsys, monkeypatch):
    def exhausted(config, seed):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setitem(cli._COMMANDS, "kernel", (exhausted, "kernel"))
    code, out, err = _run(capsys, ["kernel"])
    assert code == 3 and out == ""
    assert json.loads(err) == {"code": 3, "module": "cli",
                               "message": "Unable to allocate 7.28 TiB for an array"}


def test_unwritable_output_is_config_error(capsys, tmp_path):
    target = tmp_path / "missing" / "nulls.csv"
    code, out, err = _run(capsys, ["nulls", "--out", str(target)])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["code"] == 2 and record["module"] == "cli"
    assert record["message"].startswith("cannot write output file: ")
    assert not target.parent.exists()


def test_directivity_honors_inner_rule():
    base = ("quadrature.M=6", "directivity.step_deg=30")
    config = load_config(overrides=base + ("quadrature.inner_rule=legendre",))
    _, rows, _ = cli.run("directivity", config)
    _, default_rows, _ = cli.run("directivity", load_config(overrides=base))
    expansion = build_expansion(config.physical, 6, inner_rule="legendre")
    phi = np.deg2rad([0.0, 30.0, 60.0])
    for plane, theta in (("E", np.pi / 2), ("H", 0.0)):
        got = [r[3] for r in rows if r[:2] == ("steered_gain", plane)]
        default = [r[3] for r in default_rows if r[:2] == ("steered_gain", plane)]
        want = steered_gain_profile(config.physical, expansion, config.aperture, theta,
                                    phi, config.distance)
        assert got == pytest.approx(want, rel=1e-12)
        assert got != pytest.approx(default, rel=1e-6)


def test_spda_reference_honors_inner_rule():
    legendre = ("quadrature.inner_rule=legendre",)
    _, _, gain = cli.run("gain", load_config(overrides=legendre + ("gain.method=ka",)))
    _, rows, _ = cli.run("spda-spacing",
                         load_config(overrides=legendre + ("spda.spacings_wl=[1]",)))
    assert rows[0][5] == gain["gain_ka"]
    assert gain["gain_ka"] == pytest.approx(3.6153478804406984, rel=1e-9)
    assert gain["gain_ka"] != pytest.approx(3.614759790019557, rel=1e-6)


class _ReadLog(Mapping):
    """A configuration mapping that records every key read from it."""

    def __init__(self, values, log):
        self._values = values
        self._log = log

    def __getitem__(self, key):
        self._log.add(key)
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


# per subcommand, settings that keep its run small
_SMOKE = {
    "kernel": ("kernel.samples=8",),
    "nulls": (),
    "wavenumber": ("wavenumber.samples=8",),
    "gain": ("quadrature.M=6",),
    "convergence": ("quadrature.M=6", "convergence.orders=[4,6]"),
    "directivity": ("quadrature.M=6", "directivity.step_deg=30"),
    "beampattern": ("quadrature.M=6", "beampattern.phi_step_deg=30",
                    "beampattern.theta_step_deg=90"),
    "spda-spacing": ("quadrature.M=6", "aperture.L_x=0.125", "aperture.L_y=0.125",
                     "spda.spacings_wl=[0.5]"),
    "spda-aperture": ("quadrature.M=6", "spda.sides_m=[0.125]"),
}


def test_every_key_is_read():
    assert set(_SMOKE) == set(cli._COMMANDS)
    read = set()
    for command, overrides in _SMOKE.items():
        config = load_config(overrides=overrides)
        cli.run(command, dataclasses.replace(config, values=_ReadLog(config.values, read)))
    # load_config consumes the model keys when it builds the physical objects
    model = {key for key in cli._KEYS if key.startswith(("material.", "aperture."))}
    model |= {"frequency", "receiver.theta_deg", "receiver.phi_deg"}
    assert read | model == set(cli._KEYS)


def test_runtime_imports_no_scipy():
    # numpy is the only declared runtime dependency; scipy may be installed
    src = os.path.dirname(os.path.dirname(capa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, capa, capa.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert run.stdout.strip() == "[]"
