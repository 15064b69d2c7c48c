"""Tests for the experiment command-line driver."""

import ast
import dataclasses
import glob
import json
import os
import subprocess
import sys
import warnings
from collections.abc import Mapping

import numpy as np
import pytest

import capa
from capa import (C0, Aperture, ConfigError, beamform_cg, beamform_ka, build_expansion,
                  cg_solver, cli, far_field_channel, lattice_gains, steered_gain_profile)
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


@pytest.mark.parametrize("argv, message", [
    # at 1e300 wavelengths eps^2 overflowed: NaN kernel cells, warning records, exit 0
    (["kernel", "--rmax", "1e300", "--samples", "3"], "kernel.rmax_wl must lie in [0.0, 1e+100]"),
    # each null costs about 1 ms of bisection, so an unbounded count ran for minutes
    (["nulls", "--count", "1001"], "nulls.count must lie in [1, 1000]"),
])
def test_flag_past_its_bound_exits_two(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"code": 2, "module": "cli", "message": message}


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
    # the largest rmax runs without an overflow warning record
    (["kernel", "--rmax", "1e100", "--samples", "3"], "kernel.rmax_wl", 1e100),
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


@pytest.mark.parametrize("setting, command, code", [
    ("material.surface_resistance=1e-320", ["gain", "--method", "ka"], 3),
    ("material.surface_resistance=1e-320", ["directivity"], 3),
    ("material.surface_resistance=1e-320", ["spda-spacing"], 3),
    ("receiver.R0=1e-320", ["gain", "--method", "ka"], 2),
    ("receiver.R0=1e-320", ["spda-spacing"], 2),
    ("receiver.R0=1e-320", ["beampattern"], 2),
    ("material.sigma_s=1e-320", ["gain", "--method", "ka"], 2),
])
def test_overflowing_setting_exits_with_one_record(capsys, setting, command, code):
    # each of these printed NaN, Infinity or a zero gain and exited 0
    got, out, err = _run(capsys, command + ["--set", setting])
    assert got == code and out == ""
    record = json.loads(err)
    assert record["code"] == code
    assert "finite" in record["message"]


@pytest.mark.parametrize("setting, command", [
    ("frequency=1e300", ["kernel"]),
    ("frequency=1e200", ["gain", "--method", "ka"]),
    ("frequency=1e200", ["directivity"]),
    ("aperture.L_x=1e300", ["gain"]),
    ("aperture.L_x=1e300", ["spda-spacing"]),
    ("receiver.R0=1e300", ["gain", "--method", "ka"]),
    ("receiver.R0=1e300", ["gain", "--method", "cg"]),
    ("receiver.R0=1e300", ["beampattern"]),
    ("receiver.R0=1e300", ["spda-aperture"]),
    ("frequency=1e-300", ["gain", "--method", "ka"]),
    ("frequency=1e-300", ["gain", "--method", "cg"]),
    ("receiver.R0=1e-300", ["gain", "--method", "ka"]),
    ("receiver.R0=1e-300", ["directivity"]),
    ("frequency=1.2e161", ["kernel", "--samples", "3"]),
    ("spda.element_wl=1e-200", ["spda-aperture", "--sides", "0.3"]),
])
def test_extreme_setting_is_domain_error(capsys, setting, command):
    # an overflowing square ended in an OverflowError traceback (the first five
    # and the two receiver.R0=1e-300 rows); on the underflowed channel of the
    # six rows between, the closed form exited 3 and conjugate gradients 2; an
    # overflowing kernel prefactor (frequency=1.2e161) printed -inf rows and
    # exited 0; an element area that underflows to 0 (the last) exited 3 after
    # a RuntimeWarning record
    code, out, err = _run(capsys, command + ["--set", setting])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["code"] == 2


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


# the discrete gains of point coupling at defaults; gain_reference is not
# pinned, since the closed form's default order is under-resolved at 0.75 m
_POINT_GAINS = {
    "spda-spacing": ("gain_coupled", [0.47954961687282266, 2.4036695537740616,
                                      3.1471265702016904, 3.4651254559179208]),
    "spda-aperture": ("gain_discrete", [0.59743152694705715, 0.93751677090867869,
                                        1.8414499224627889, 2.4036695537740616,
                                        3.7589208101318525, 5.4149881617371252]),
}


@pytest.mark.parametrize("command", ["spda-spacing", "spda-aperture"])
def test_spda_point_mode_runs_at_defaults(capsys, command):
    code, out, err = _run(capsys, [command, "--set", "spda.mode=point"])
    assert code == 0 and err == ""
    header, rows = _csv_rows(out)
    assert all(float(cell) > 0.0 for row in rows for cell in row)
    column, want = _POINT_GAINS[command]
    got = [float(row[header.index(column)]) for row in rows]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("mode", ["exact", "point"])
def test_spda_rows_equal_direct_library_calls(capsys, mode):
    # each printed number, read back from its 17 significant digits, is the
    # lattice_gains or beamform_ka value bit for bit
    config = load_config(overrides=(f"spda.mode={mode}",))
    cfg, wl = config.physical, config.physical.wavelength
    order = {"exact": None, "point": 1}[mode]
    element = 0.1 * wl
    expansion = build_expansion(cfg, config.order, inner_rule=config.inner_rule)

    channel = far_field_channel(cfg, config.direction, config.distance, config.aperture)
    reference = beamform_ka(cfg, channel, expansion, config.aperture).gain
    want = []
    for spacing in (0.135 * wl, 0.3 * wl):
        gains = lattice_gains(cfg, channel, config.aperture, spacing, element, element, order)
        want.append([spacing / wl, spacing, *gains, reference])
    code, out, _ = _run(capsys, ["spda-spacing", "--spacings", "0.135,0.3",
                                 "--set", f"spda.mode={mode}"])
    assert code == 0
    got = [[float(cell) for cell in row] for row in _csv_rows(out)[1]]
    assert got == want
    # the pitch column is spacing_m / wavelength, not the configured 0.135
    assert got[0][0] != 0.135

    channel = far_field_channel(cfg, config.direction, config.distance, Aperture(0.31, 0.31))
    want = []
    for side in (0.3, 0.31):
        aperture = Aperture(side, side)
        n, coupled, _ = lattice_gains(cfg, channel, aperture, 0.5 * wl, element, element, order)
        want.append([side, aperture.area, n, coupled,
                     beamform_ka(cfg, channel, expansion, aperture).gain])
    code, out, _ = _run(capsys, ["spda-aperture", "--sides", "0.3,0.31",
                                 "--set", f"spda.mode={mode}"])
    assert code == 0
    assert [[float(cell) for cell in row] for row in _csv_rows(out)[1]] == want


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


def test_directivity_warns_once_inside_far_field(capsys):
    # inside the 8.01 m boundary directivity warns once, as gain does, and no
    # warning prints at the defaults
    code, out, err = _run(capsys, ["directivity"])
    assert code == 0 and out and err == ""
    code, out, err = _run(capsys, ["directivity", "--set", "receiver.R0=1",
                                   "--set", "quadrature.M=6"])
    assert code == 0 and out
    (record,) = (json.loads(line) for line in err.splitlines())
    assert record["warning"] == "UserWarning"
    assert "far-field boundary 8.01 m" in record["message"]


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


def _outputs_at_one_and_two_blas_threads(command):
    """stdout of command at defaults, at OPENBLAS_NUM_THREADS 1 and 2."""
    src = os.path.dirname(os.path.dirname(capa.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.Popen([sys.executable, "-m", "capa.cli", command], env=env,
                                     stdout=subprocess.PIPE, text=True))
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    return outputs


@pytest.mark.parametrize("command", ["spda-spacing", "spda-aperture"])
def test_discrete_gains_reproduce_across_blas_thread_counts(command):
    # each printed gain at OPENBLAS_NUM_THREADS 1 and 2; measured drift: one
    # gain_coupled by 1.4e-14, the others 0; the closed-form gain_reference
    # carries its factorization's rounding, up to 8.9e-11
    outputs = _outputs_at_one_and_two_blas_threads(command)
    (header, one), (_, two) = (_csv_rows(out) for out in outputs)
    assert len(one) == len(two) > 0
    bounds = {"gain_coupled": 5e-14, "gain_uncoupled": 5e-14, "gain_discrete": 5e-14,
              "gain_reference": 2e-10}
    for column, name in enumerate(header):
        if name.startswith("gain"):
            a, b = (np.array([float(row[column]) for row in rows]) for rows in (one, two))
            assert np.max(np.abs(a - b) / a) <= bounds[name], name


def _printed_numbers(command, text):
    """Every number a subcommand prints, grouped by its JSON key, or by its CSV
    column prefixed with the row's series where the first column names one."""
    if command == "gain":
        return {key: [value] for key, value in json.loads(text).items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)}
    header, rows = _csv_rows(text)
    numbers = {}
    for row in rows:
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                continue
            key = f"{row[0]}.{name}" if header[0] == "series" else name
            numbers.setdefault(key, []).append(value)
    return numbers


# relative drift of each printed value between 1 and 2 BLAS threads, by
# _printed_numbers key, at its measured size: convergence's closed-form
# gain_ka at order 30 moves 2.1e-11 (its resolvent factorization splits by
# thread), and every other value of these four subcommands, CG's included, is
# byte-identical.  A CG gain is -4 J of the last iterate, second order in its
# error, and moves at most 1.8e-14 when the kernel rounds differently
# (test_cg_gains_reproduce_under_kernel_rounding), inside the 5e-14 bar
_THREAD_DRIFT = {"convergence": {"gain_ka.value": 1e-10}}


@pytest.mark.parametrize("command", ["gain", "convergence", "directivity", "beampattern"])
def test_outputs_reproduce_across_blas_thread_counts(command):
    one, two = (_printed_numbers(command, out)
                for out in _outputs_at_one_and_two_blas_threads(command))
    assert one.keys() == two.keys() and one
    for key in one:
        a, b = np.array(one[key]), np.array(two[key])
        bound = _THREAD_DRIFT.get(command, {}).get(key, 5e-14)
        assert a.shape == b.shape and np.all(np.abs(a - b) <= bound * np.abs(a)), key


def test_cg_gains_reproduce_under_kernel_rounding(monkeypatch):
    # the kernel's values times 1 + u, |u| within one ulp, move CG's gains at
    # two default convergence orders by at most 1.8e-14 (measured): the gain
    # is -4 J of the last iterate, second order in CG's stopping error
    config = load_config()
    channel = cli._channel(config)
    kernel = cg_solver.radiation_kernel

    def gains():
        cg_solver._operator.cache_clear()
        return np.array([cli._solve_cg(config, channel, order, None).gain for order in (10, 25)])

    want = gains()
    try:
        for seed in range(4):
            rng = np.random.default_rng(seed)

            def perturbed(offsets, wavenumber):
                values = kernel(offsets, wavenumber)
                return values * (1.0 + rng.uniform(-2.2e-16, 2.2e-16, np.shape(values)))

            monkeypatch.setattr(cg_solver, "radiation_kernel", perturbed)
            assert np.all(np.abs(gains() - want) <= 1e-13 * want), seed
    finally:
        # no later solve may reuse an operator of the perturbed kernel
        cg_solver._operator.cache_clear()


def test_runtime_imports_no_scipy():
    # numpy is the only declared runtime dependency; scipy may be installed
    src = os.path.dirname(os.path.dirname(capa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, capa, capa.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert run.stdout.strip() == "[]"


def test_spda_imports_no_solver_analysis_or_driver():
    # discrete arrays build on physics and quadrature; the CLI pairs them
    # with the closed-form reference
    path = os.path.join(os.path.dirname(capa.__file__), "spda.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        parts.update(part for name in names for part in name.split("."))
    assert not parts & {"kernel_approx", "cg_solver", "analysis", "cli"}


def test_source_imports_only_numpy_and_stdlib():
    # also catches an import inside a function body, which importing capa never runs
    allowed = {"numpy", "capa"} | set(sys.stdlib_module_names)
    for path in glob.glob(os.path.join(os.path.dirname(capa.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path, name)
