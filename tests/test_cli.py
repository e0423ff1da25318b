"""End-to-end tests of the command-line interface."""

import os
import re
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from polphase import cli, fringes, plates, su2
from polphase.interferometer import visibility_plates


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_values(out):
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_decompose_identity_three_plates(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--xi", "0", "--eta", "0", "--zeta", "0",
        "--mode", "3", "--out-dir", str(tmp_path), "--out", "plates.txt",
    )
    assert code == 0
    array = plates.parse_plate_array((tmp_path / "plates.txt").read_text())
    assert [p.kind for p in array] == ["Q", "H", "Q"]
    np.testing.assert_allclose(
        [p.axis for p in array], [np.pi / 4, -np.pi / 4, np.pi / 4], atol=1e-12
    )
    assert "compose-verify max residual" in out
    residual = float(out.split("compose-verify max residual:")[1].strip())
    assert residual < 1e-12


def test_decompose_five_plate_identity(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--xi", "0", "--eta", "0", "--zeta", "0",
        "--mode", "5", "--phi", "0", "--out-dir", str(tmp_path),
    )
    assert code == 0
    array = plates.parse_plate_array((tmp_path / "plates.txt").read_text())
    assert len(array) == 5
    np.testing.assert_allclose(plates.compose(array), np.eye(2), atol=1e-12)


def test_decompose_random_residual_small(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--xi", "1.3", "--eta", "-0.8", "--zeta", "2.1",
        "--mode", "5", "--phi", "0.7", "--out-dir", str(tmp_path),
    )
    assert code == 0
    residual = float(out.split("compose-verify max residual:")[1].strip())
    assert residual < 1e-12


def test_decompose_degrees_flag(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "decompose", "--xi", "90", "--eta", "0", "--zeta", "0",
        "--mode", "3", "--degrees", "--out-dir", str(tmp_path),
    )
    assert code == 0
    array = plates.parse_plate_array((tmp_path / "plates.txt").read_text())
    np.testing.assert_allclose(
        plates.compose(array), su2.from_yzy(np.pi / 2, 0.0, 0.0), atol=1e-12
    )


def test_interf_sweep_identity(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "interf", "sweep", "--xi", "0", "--eta", "0", "--zeta", "0",
        "--samples", "256", "--out-dir", str(tmp_path), "--out", "sweep.csv",
    )
    assert code == 0
    values = stdout_values(out)
    assert abs(float(values["recovered_2delta"])) < 1e-6
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["phi", "I_V", "I_H"]
    assert len(rows) == 256
    # I_V = (1 - cos phi)/2 for the empty instrument
    phi, iv = float(rows[10][0]), float(rows[10][1])
    assert iv == pytest.approx(0.5 * (1 - np.cos(phi)), abs=1e-9)


def test_interf_sweep_recovers_shift(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "interf", "sweep", "--xi", "1.0", "--eta", "0.7", "--zeta", "-0.4",
        "--samples", "2048", "--out-dir", str(tmp_path),
    )
    assert code == 0
    values = stdout_values(out)
    got = float(values["recovered_2delta"])
    want = float(values["expected_2delta"])
    assert abs(su2.wrap_angle(got - want)) < 2 * np.pi / 2048


def test_interf_sweep_zero_visibility_reports_undefined(tmp_path, capsys):
    # beta = pi/2 (xi = pi, eta = zeta = 0): flat fringes, shift undefined
    code, out, err = run_cli(
        capsys, "interf", "sweep", "--xi", str(np.pi), "--eta", "0",
        "--zeta", "0", "--samples", "128", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "recovered_2delta=undefined" in out
    assert "warning" in err


def test_interf_surface_zeta_zero(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "interf", "surface", "--zeta", "0",
        "--xi-grid", "0:3.141592653589793:3", "--eta-grid", "0:6.283185307179586:9",
        "--out-dir", str(tmp_path), "--out", "surf.csv",
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "surf.csv")
    assert header == ["xi", "eta", "cos2_phase"]
    empties = 0
    for xi_s, eta_s, cos2_s in rows:
        if cos2_s == "":
            empties += 1  # beta = pi/2 cells (xi = pi) stay empty
            assert float(xi_s) == pytest.approx(np.pi)
            continue
        # at zeta = 0 the surface is cos^2(eta/2) along every xi row
        assert float(cos2_s) == pytest.approx(np.cos(float(eta_s) / 2) ** 2, abs=1e-9)
    assert empties > 0
    assert "undefined phase" in err


def test_polarimetry_zeta2pi_curve(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "polarimetry", "--mode", "zeta2pi", "--xi", "0.8",
        "--eta-steps", "16", "--n-grid", "1024",
        "--out-dir", str(tmp_path), "--out", "curve.csv",
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "curve.csv")
    assert header == ["eta", "cos2_measured", "cos2_expected"]
    for eta_s, measured_s, expected_s in rows:
        eta = float(eta_s)
        assert float(measured_s) == pytest.approx(np.cos(eta / 2) ** 2, abs=1e-5)
        assert float(expected_s) == pytest.approx(np.cos(eta / 2) ** 2, abs=1e-9)


def test_polarimetry_ximinuspi_curve(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "polarimetry", "--mode", "ximinuspi", "--zeta", "2.0",
        "--eta-steps", "8", "--n-grid", "1024",
        "--out-dir", str(tmp_path), "--out", "curve.csv",
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "curve.csv")
    for eta_s, measured_s, _ in rows:
        assert float(measured_s) == pytest.approx(
            np.cos(float(eta_s) / 2) ** 2, abs=1e-5
        )
    # eta = pi sits on the grid: cos^2 = 0 there
    eta_pi = [r for r in rows if abs(float(r[0]) - np.pi) < 1e-9]
    assert eta_pi and float(eta_pi[0][1]) == pytest.approx(0.0, abs=1e-5)


def test_polarimetry_user_plate_file_scan(tmp_path, capsys):
    # a plate list produced by decompose can be fed straight back in and
    # scanned; its extremum ratio gives cos^2 of the encoded phase
    run_cli(
        capsys, "decompose", "--xi", "1.0", "--eta", "0.7", "--zeta=-0.4",
        "--mode", "5", "--phi", "0", "--out-dir", str(tmp_path), "--out", "scan.txt",
    )
    code, out, _ = run_cli(
        capsys, "polarimetry", "--plates", str(tmp_path / "scan.txt"),
        "--n-grid", "2048", "--out-dir", str(tmp_path), "--out", "scan.csv",
    )
    assert code == 0
    values = stdout_values(out)
    expected = np.cos(su2.yzy_to_zyz(1.0, 0.7, -0.4).delta) ** 2
    assert float(values["cos2_phase"]) == pytest.approx(expected, abs=1e-5)
    header, rows = read_csv(tmp_path / "scan.csv")
    assert header == ["phi", "intensity"]
    assert len(rows) == 2048


@pytest.mark.parametrize("sigma, error", [
    ("inf", "NonFiniteInput: noise_sigma must be finite, got inf"),
    ("nan", "NonFiniteInput: noise_sigma must be finite, got nan"),
    ("-0.5", "ValueError: noise_sigma must be nonnegative"),
])
def test_polarimetry_refuses_a_non_finite_or_negative_noise_sigma(tmp_path, capsys, sigma, error):
    # inf used to clip the scans to 0 and 1 and report a wrong curve; nan and
    # -0.5 ran noise-free and recorded the sigma as if it had been applied
    (tmp_path / "scan.txt").write_text(plates.format_plate_array(plates.polarimetric_array(1.0, 0.7, -0.4, 0.0)))
    for argv in (["--mode", "zeta2pi"], ["--plates", str(tmp_path / "scan.txt")]):
        code, _, err = run_cli(capsys, "polarimetry", *argv, "--noise-sigma", sigma, "--n-grid", "256",
                               "--out-dir", str(tmp_path / "out"))
        assert (code, err) == (1, f"error: {error}\n")
        assert not (tmp_path / "out" / "polarimetry_config.txt").exists()


def test_polarimetry_raw_sweep_out(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "polarimetry", "--mode", "zeta2pi", "--xi", "0.4",
        "--eta-steps", "4", "--n-grid", "512", "--eta", "1.1",
        "--sweep-out", "raw.csv", "--out-dir", str(tmp_path), "--out", "curve.csv",
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "raw.csv")
    assert header == ["phi", "intensity"]
    phi, intensity = float(rows[7][0]), float(rows[7][1])
    from polphase.polarimetry import polarimetric_intensity

    assert intensity == pytest.approx(
        polarimetric_intensity(0.4, 1.1, 2 * np.pi, phi), abs=1e-9
    )


def test_fringe_generate_analyze_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "fringe", "generate", "--delta", "0.5", "--beta", "0.4",
        "--k0", "0.25", "--noise-sigma", "0.02", "--seed", "7",
        "--out-dir", str(tmp_path), "--out", "img.pgm",
    )
    assert code == 0
    assert (tmp_path / "img.pgm").exists()
    assert (tmp_path / "img.pgm.meta").exists()
    code, out, _ = run_cli(
        capsys, "fringe", "analyze", "--image", str(tmp_path / "img.pgm"),
        "--out-dir", str(tmp_path), "--out", "regions.csv",
        "--profiles-out", "profiles.csv",
    )
    assert code == 0
    values = stdout_values(out)
    assert abs(float(values["estimate_2delta"]) - 1.0) < 0.05
    assert float(values["abs_error"]) < 0.05
    assert "uncertainty" in values
    header, rows = read_csv(tmp_path / "regions.csv")
    assert len(rows) == 4
    header, rows = read_csv(tmp_path / "profiles.csv")
    assert header == ["column", "upper", "lower"]
    assert len(rows) == 384  # 60% of 640 columns


def test_fringe_analyze_single_region_uncertainty_undefined(tmp_path, capsys):
    run_cli(
        capsys, "fringe", "generate", "--delta", "0.3", "--beta", "0.2",
        "--k0", "0.2", "--out-dir", str(tmp_path), "--out", "img.pgm",
    )
    code, out, _ = run_cli(
        capsys, "fringe", "analyze", "--image", str(tmp_path / "img.pgm"),
        "--region", "100:540:100:380", "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "uncertainty=undefined" in out


def test_fringe_analyze_flat_image_fails_cleanly(tmp_path, capsys):
    # a zero-visibility (beta = pi/2) image carries no fringes at all
    from polphase import fringes

    flat = fringes.Interferogram(np.full((64, 64), 0.5), 32)
    fringes.save_interferogram(flat, tmp_path / "flat.pgm")
    code, _, err = run_cli(
        capsys, "fringe", "analyze", "--image", str(tmp_path / "flat.pgm"),
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert err.startswith("error: NoCarrier")


def test_fringe_analyze_reads_fourier_alone_by_default_and_refuses_minima(tmp_path, capsys):
    run_cli(capsys, "fringe", "generate", "--delta", "0.3", "--beta", "0.2", "--k0", "0.2",
            "--out-dir", str(tmp_path), "--out", "img.pgm")
    image = str(tmp_path / "img.pgm")
    code, out, _ = run_cli(capsys, "fringe", "analyze", "--image", image, "--out-dir", str(tmp_path / "d"))
    assert code == 0 and "method_disagreement" not in out
    assert "method=fourier\n" in (tmp_path / "d" / "fringe_analyze_config.txt").read_text()
    assert run_cli(capsys, "fringe", "analyze", "--image", image, "--method", "fourier",
                   "--out-dir", str(tmp_path / "f"))[1] == out
    code, _, err = run_cli(capsys, "fringe", "analyze", "--image", image, "--method", "minima",
                           "--out-dir", str(tmp_path / "m"))
    assert code == 1 and err.startswith("error: ValueError: argument --method: invalid choice: 'minima'")
    # a config file's value is not checked by the parser: retrieve_phase refuses it
    code, err, out_dir = _config_run(tmp_path, capsys, ["fringe", "analyze"], f"image={image}\nmethod=minima\n")
    assert (code, err) == (1, "error: ValueError: unknown method 'minima': expected 'fourier' or 'both'\n")
    assert not out_dir.exists() and not (tmp_path / "m").exists()


def test_fringe_analyze_reports_each_estimate_under_its_own_region(tmp_path, capsys):
    # the first region is five columns wide, too narrow for a carrier: the
    # estimate of the second region is region 1's, under region 1's bounds
    run_cli(capsys, "fringe", "generate", "--delta", "0.3", "--beta", "0.2", "--k0", "0.2",
            "--out-dir", str(tmp_path), "--out", "img.pgm")
    code, out, err = run_cli(capsys, "fringe", "analyze", "--image", str(tmp_path / "img.pgm"),
                             "--region", "100:105:200:280", "--region", "100:500:200:280",
                             "--out-dir", str(tmp_path), "--out", "regions.csv")
    assert code == 0
    assert err == "warning: 1 region(s) failed\n"
    values = stdout_values(out)
    assert "region_0_2delta" not in values
    assert values["region_1_2delta"] == values["estimate_2delta"]
    _, rows = read_csv(tmp_path / "regions.csv")
    assert rows == [["1", "100", "500", "200", "280", values["region_1_2delta"]]]


@pytest.mark.parametrize("first", ["600:700:200:280", "100:105:200:280"])  # outside the image, too narrow
def test_fringe_analyze_profiles_are_the_first_retrieved_regions(first, tmp_path, capsys):
    from polphase import fringes

    run_cli(capsys, "fringe", "generate", "--delta", "0.3", "--beta", "0.2", "--k0", "0.2",
            "--out-dir", str(tmp_path), "--out", "labels.pgm")
    code, out, err = run_cli(capsys, "fringe", "analyze", "--image", str(tmp_path / "labels.pgm"),
                             "--region", first, "--region", "100:500:200:280",
                             "--out-dir", str(tmp_path), "--profiles-out", "p.csv")
    assert code == 0, err
    assert "region_1_2delta" in stdout_values(out)
    header, rows = read_csv(tmp_path / "p.csv")
    assert header == ["column", "upper", "lower"]
    assert [row[0] for row in rows] == [str(c) for c in range(100, 500)]
    img, _ = fringes.load_interferogram(tmp_path / "labels.pgm")
    up, low = fringes.column_average(img, fringes.Region(100, 500, 200, 280))
    assert [row[1] for row in rows] == ["%.12g" % v for v in up]
    assert [row[2] for row in rows] == ["%.12g" % v for v in low]


def test_visibility_identity_plates(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "visibility", "--theta1", "0.7853981633974483",
        "--theta2", "-0.7853981633974483", "--theta3", "0.7853981633974483",
        "--out-dir", str(tmp_path), "--out", "vis.csv",
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "vis.csv")
    assert float(rows[0][3]) == pytest.approx(1.0)


def test_visibility_curve_with_check(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "visibility", "--theta1", "0.3", "--theta2=-1:1:7",
        "--theta3=-0.9", "--check", "--out-dir", str(tmp_path), "--out", "vis.csv",
    )
    assert code == 0
    header, rows = read_csv(tmp_path / "vis.csv")
    assert header[-1] == "visibility_sim"
    for row in rows:
        t1, t2, t3, vis, sim = map(float, row)
        assert vis == pytest.approx(visibility_plates(t1, t2, t3), abs=1e-12)
        assert sim == pytest.approx(vis, abs=1e-4)


def test_simulated_visibility_equals_the_closed_form():
    # the contrast of the fitted first harmonic, against the plate-angle formula
    t1, t2, t3 = np.meshgrid(np.linspace(-3, 3, 13), np.linspace(-1.5, 1.5, 7), [-0.9, 0.2, 1.3], indexing="ij")
    t1, t2, t3 = t1.ravel(), t2.ravel(), t3.ravel()
    np.testing.assert_allclose(cli._simulated_visibility(t1, t2, t3), visibility_plates(t1, t2, t3),
                               rtol=0, atol=1e-12)


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    # determinism: identical flags and seed give identical bytes
    pairs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        run_cli(
            capsys, "interf", "sweep", "--xi", "0.5", "--eta", "1.0",
            "--zeta", "-0.3", "--samples", "512", "--out-dir", str(d),
            "--out", "sweep.csv",
        )
        run_cli(
            capsys, "polarimetry", "--mode", "zeta2pi", "--xi", "0.4",
            "--eta-steps", "8", "--n-grid", "512", "--noise-sigma", "0.01",
            "--seed", "3", "--out-dir", str(d), "--out", "pol.csv",
        )
        run_cli(
            capsys, "fringe", "generate", "--delta", "0.2", "--beta", "0.3",
            "--k0", "0.2", "--noise-sigma", "0.05", "--seed", "11",
            "--out-dir", str(d), "--out", "img.pgm",
        )
        run_cli(
            capsys, "visibility", "--theta1", "0:1:5", "--theta2", "0.2",
            "--theta3", "0.1", "--out-dir", str(d), "--out", "vis.csv",
        )
        pairs.append({name: (d / name).read_bytes()
                      for name in ("sweep.csv", "pol.csv", "img.pgm", "vis.csv")})
    assert pairs[0] == pairs[1]


def test_config_file_and_flag_override(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("xi=0\neta=0\nzeta=0\nmode=3\nout=from_config.txt\n")
    code, _, _ = run_cli(
        capsys, "decompose", "--config", str(config), "--out-dir", str(tmp_path),
        "--eta", "1.5",  # flag wins over the config value
    )
    assert code == 0
    array = plates.parse_plate_array((tmp_path / "from_config.txt").read_text())
    np.testing.assert_allclose(
        plates.compose(array), su2.from_yzy(0.0, 1.5, 0.0), atol=1e-12
    )
    # the resolved config records the effective value
    resolved = (tmp_path / "decompose_config.txt").read_text()
    assert "eta=1.5" in resolved


def _config_run(tmp_path, capsys, argv, text):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--config", str(config), "--out-dir", str(out_dir))
    return code, err, out_dir


@pytest.mark.parametrize("key", ["xii", "samples", "degrees", "config", "out-dir", "out_dir"])
def test_config_key_outside_the_command_is_refused(tmp_path, capsys, key):
    # a typo, another command's option, a flag or a file option is refused
    # before anything runs, instead of silently leaving the default in place
    code, err, out_dir = _config_run(tmp_path, capsys, ["decompose"],
                                     f"xi=0.1\neta=0.2\nzeta=0.3\n{key}=1\n")
    assert code == 1
    assert err.startswith("error: UnknownConfigKey:") and err.count("\n") == 1
    assert repr(key) in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_config_line_without_a_value_is_refused(tmp_path, capsys):
    # 'zeta 1.0' used to be skipped, leaving zeta at its default of 0
    code, err, out_dir = _config_run(tmp_path, capsys, ["interf", "surface"], "# comment\n\nzeta 1.0\n")
    assert code == 1
    assert err.startswith("error: UnknownConfigKey:") and "'zeta 1.0'" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("argv", [
    ["interf", "sweep"], ["interf", "surface"], ["polarimetry"],
    ["fringe", "generate"], ["fringe", "analyze"], ["visibility"],
])
def test_degrees_in_a_config_file_is_refused_by_every_command(tmp_path, capsys, argv):
    code, err, out_dir = _config_run(tmp_path, capsys, argv, "degrees=true\n")
    assert code == 1
    assert err.startswith("error: UnknownConfigKey:")
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_every_value_option_is_a_config_key(tmp_path, capsys):
    # each command's own value-taking options, except --config and --out-dir
    plate_file = tmp_path / "scan.txt"
    plate_file.write_text("Q 0.3\nH -0.2\nQ 0.1\n")
    runs = [
        (["decompose"], "xi=0.1\neta=0.2\nzeta=0.3\nphi=0.4\nmode=5\nout=p.txt\n"),
        (["interf", "sweep"], "xi=0.1\neta=0.2\nzeta=0.3\nsamples=64\nout=s.csv\n"),
        (["interf", "surface"], "zeta=0.3\nxi-grid=0:1:3\neta-grid=0:1:3\nout=f.csv\n"),
        (["polarimetry"], "mode=full\nxi=0.1\neta=0.2\nzeta=0.3\neta-steps=4\nn-grid=256\n"
                          "noise-sigma=0.0\nseed=1\nsweep-out=w.csv\nout=c.csv\n"),
        (["polarimetry"], f"plates={plate_file}\nn-grid=256\nout=q.csv\n"),
        (["fringe", "generate"], "delta=0.3\nbeta=0.2\nk0=0.25\nwidth=128\nheight=64\nnoise-sigma=0.0\n"
                                 "envelope-width=200\nphi0=0.1\nseed=2\nout=img.pgm\n"),
        (["fringe", "analyze"], f"image={tmp_path / 'out' / 'img.pgm'}\nmethod=both\n"
                                "region=10:118:16:48;20:108:24:40\n"
                                "out=r.csv\nprofiles-out=pr.csv\n"),
        (["visibility"], "theta1=0:1:3\ntheta2=0.2\ntheta3=0.1\nout=v.csv\n"),
    ]
    for argv, text in runs:
        code, err, out_dir = _config_run(tmp_path, capsys, argv, text)
        assert (code, err) == (0, "")
    _, rows = read_csv(out_dir / "r.csv")
    assert [row[1:5] for row in rows] == [["10", "118", "16", "48"], ["20", "108", "24", "40"]]
    assert "regions=10:118:16:48;20:108:24:40\n" in (out_dir / "fringe_analyze_config.txt").read_text()


# one run per command over options of every parser type (int, float, text):
# a config value is read exactly as the same value given as a flag
TYPED_RUNS = {
    "decompose": (["decompose"], {"xi": "1.1", "eta": "0.4", "zeta": "-0.7", "phi": "0.3",
                                  "mode": "5", "out": "p.txt"}),
    "interf_sweep": (["interf", "sweep"], {"xi": "0.5", "eta": "1", "zeta": "0", "samples": "512",
                                           "out": "s.csv"}),
    "interf_surface": (["interf", "surface"], {"zeta": "0.25", "xi-grid": "0:3.14:5", "eta-grid": "1",
                                               "out": "f.csv"}),
    "polarimetry": (["polarimetry"], {"mode": "full", "xi": "1", "eta": "0.3", "zeta": "-0.4",
                                      "eta-steps": "8", "n-grid": "512", "noise-sigma": "0.01",
                                      "seed": "3", "sweep-out": "w.csv", "out": "c.csv"}),
    "polarimetry_plates": (["polarimetry"], {"plates": "plates.txt", "n-grid": "256",
                                             "noise-sigma": "0.02", "seed": "5", "out": "q.csv"}),
    "fringe_generate": (["fringe", "generate"], {"delta": "0.4", "beta": "0.3", "k0": "0.25",
                                                 "width": "160", "height": "64", "noise-sigma": "0.02",
                                                 "envelope-width": "300", "phi0": "0.1", "seed": "7",
                                                 "out": "g.pgm"}),
    "fringe_analyze": (["fringe", "analyze"], {"image": "img.pgm", "method": "both",
                                               "region": "10:150:4:28", "out": "r.csv",
                                               "profiles-out": "pr.csv"}),
    "visibility": (["visibility"], {"theta1": "0:1:3", "theta2": "-0.2", "theta3": "0.1", "out": "v.csv"}),
}


@pytest.mark.parametrize("name", sorted(TYPED_RUNS))
def test_a_config_value_is_read_exactly_as_its_flag(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plates.txt").write_text(plates.format_plate_array(plates.polarimetric_array(0.9, 0.5, -1.2, 0.0)))
    from polphase import fringes

    fringes.save_interferogram(fringes.generate(0.35, 0.2, 0.3, size=(32, 160), seed=1), tmp_path / "img.pgm")
    words, options = TYPED_RUNS[name]
    code, by_flags, err = run_cli(capsys, *words, *[f"--{k}={v}" for k, v in options.items()],
                                  "--out-dir", "flags")
    assert (code, err.startswith("error")) == (0, False)
    Path("run.cfg").write_text("".join(f"{k}={v}\n" for k, v in options.items()))
    code, by_config, err = run_cli(capsys, *words, "--config", "run.cfg", "--out-dir", "config")
    assert (code, err.startswith("error")) == (0, False)
    assert by_flags.replace("flags", "config") == by_config
    first, second = sorted(Path("flags").iterdir()), sorted(Path("config").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    outputs = {options[k] for k in ("out", "sweep-out", "profiles-out") if k in options}
    assert outputs < {p.name for p in first} and any(p.name.endswith("_config.txt") for p in first)
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_a_config_value_not_of_its_option_type_is_refused(tmp_path, capsys):
    code, err, out_dir = _config_run(tmp_path, capsys, ["interf", "sweep"],
                                     "xi=0.5\neta=1\nzeta=0\nsamples=64.5\n")
    assert code == 1
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# the run record is a config file: rerunning from it repeats every output byte

RECORDED_RUNS = {
    "decompose_3": ["decompose", "--xi", "1.1", "--eta", "0.4", "--zeta=-0.7", "--mode", "3"],
    "decompose_5_degrees": ["decompose", "--xi", "100", "--eta", "-35", "--zeta", "12.5", "--mode", "5",
                            "--phi", "30", "--degrees"],
    "interf_sweep": ["interf", "sweep", "--xi", repr(np.pi / 3), "--eta", "1.0", "--zeta=-0.3",
                     "--samples", "256"],
    "interf_sweep_degrees": ["interf", "sweep", "--xi", "50", "--eta", "-70", "--zeta", "20",
                             "--samples", "512", "--degrees"],
    "interf_surface_degrees": ["interf", "surface", "--zeta", "40", "--xi-grid", "0:180:4",
                               "--eta-grid", "10:350:5", "--degrees"],
    "interf_surface_default_degrees": ["interf", "surface", "--degrees"],
    "polarimetry_full": ["polarimetry", "--xi", "1", "--zeta", "2.141592653589793", "--eta-steps", "8",
                         "--n-grid", "512", "--eta", "0.3", "--sweep-out", "raw.csv"],
    "polarimetry_ximinuspi_degrees": ["polarimetry", "--mode", "ximinuspi", "--eta-steps", "6",
                                      "--n-grid", "256", "--noise-sigma", "0.01", "--seed", "4", "--degrees"],
    "polarimetry_plates": ["polarimetry", "--plates", "plates.txt", "--n-grid", "512",
                           "--noise-sigma", "0.02", "--seed", "5", "--out", "scan.csv"],
    "fringe_generate": ["fringe", "generate", "--delta", "0.4", "--beta", "0.3", "--k0", "0.25",
                        "--width", "160", "--height", "64", "--noise-sigma", "0.02", "--seed", "5",
                        "--envelope-width", "300"],
    "fringe_analyze_regions": ["fringe", "analyze", "--image", "img.pgm", "--region", "10:150:4:28",
                               "--region", "20:140:6:26", "--out", "r.csv", "--profiles-out", "p.csv"],
    "fringe_analyze_auto": ["fringe", "analyze", "--image", "img.pgm", "--method", "fourier", "--out", "r.csv"],
    "visibility_check": ["visibility", "--theta1", "0:1:3", "--theta2=-0.2", "--theta3", "0.1", "--check"],
    # a name outside ASCII is recorded, and read back, as UTF-8
    "fringe_generate_utf8_name": ["fringe", "generate", "--delta", "0.3", "--width", "64", "--height", "32",
                                  "--out", "café.pgm"],
    "interf_sweep_utf8_name": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0", "--samples", "64",
                               "--out", "ü.csv"],
    # whitespace inside a value, not at its ends, is recorded and read back as it is
    "interf_sweep_inner_space_name": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0", "--samples", "64",
                                      "--out", "a b.csv"],
    "polarimetry_inner_space_sweep_out": ["polarimetry", "--mode", "zeta2pi", "--eta-steps", "4", "--n-grid", "256",
                                          "--eta", "0.3", "--sweep-out", "raw scan.csv"],
}


@pytest.mark.parametrize("name", sorted(RECORDED_RUNS))
def test_a_run_reruns_from_its_record(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plates.txt").write_text(plates.format_plate_array(plates.polarimetric_array(0.9, 0.5, -1.2, 0.0)))
    from polphase import fringes

    fringes.save_interferogram(fringes.generate(0.35, 0.2, 0.3, size=(32, 160), seed=1), tmp_path / "img.pgm")
    argv = RECORDED_RUNS[name]
    code, _, err = run_cli(capsys, *argv, "--out-dir", "a")
    assert (code, err.startswith("error")) == (0, False)
    (record,) = Path("a").glob("*_config.txt")
    words = [a for a in argv[:2] if not a.startswith("-")]
    code, _, err = run_cli(capsys, *words, "--config", str(record), "--out-dir", "b")
    assert (code, err.startswith("error")) == (0, False)
    first, second = sorted(Path("a").iterdir()), sorted(Path("b").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_a_record_keeps_angles_and_flags_as_given(tmp_path, capsys):
    code, _, _ = run_cli(capsys, *RECORDED_RUNS["interf_sweep_degrees"], "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "interf_sweep_config.txt").read_text() == (
        "command=interf_sweep\ndegrees=True\neta=-70.0\nout=interf_sweep.csv\nsamples=512\n"
        "xi=50.0\nzeta=20.0\n")


def test_default_angles_are_radians_under_degrees(tmp_path, capsys):
    # --degrees converts the angles a user gives, not the defaults: the default
    # grids still span a full turn and the ximinuspi default is still zeta = pi
    code, _, _ = run_cli(capsys, *RECORDED_RUNS["interf_surface_default_degrees"], "--out-dir", str(tmp_path))
    assert code == 0
    _, rows = read_csv(tmp_path / "phase_surface.csv")
    assert float(rows[-1][0]) == float(rows[-1][1]) == pytest.approx(2 * np.pi, abs=1e-11)
    assert "xi-grid=0.0:360.0:33\n" in (tmp_path / "interf_surface_config.txt").read_text()
    for sub, flags in (("deg", ["--degrees"]), ("rad", [])):
        code, _, _ = run_cli(capsys, *RECORDED_RUNS["polarimetry_ximinuspi_degrees"][:-1], *flags,
                             "--out-dir", str(tmp_path / sub))
        assert code == 0
    assert "zeta=180.0\n" in (tmp_path / "deg" / "polarimetry_config.txt").read_text()
    assert (tmp_path / "deg" / "polarimetry.csv").read_bytes() == (tmp_path / "rad" / "polarimetry.csv").read_bytes()


def test_a_record_of_another_command_is_refused(tmp_path, capsys):
    code, _, _ = run_cli(capsys, *RECORDED_RUNS["interf_sweep"], "--out-dir", str(tmp_path / "a"))
    assert code == 0
    code, _, err = run_cli(capsys, "interf", "surface", "--config", str(tmp_path / "a" / "interf_sweep_config.txt"),
                           "--out-dir", str(tmp_path / "b"))
    assert code == 1
    assert err.startswith("error: UnknownConfigKey:") and "'interf_sweep'" in err
    assert not (tmp_path / "b").exists()


def test_a_recorded_flag_must_be_a_boolean(tmp_path, capsys):
    code, err, _ = _config_run(tmp_path, capsys, ["visibility"],
                               "command=visibility\ntheta1=0\ntheta2=0\ntheta3=0\ncheck=maybe\n")
    assert code == 1
    assert err.startswith("error: ValueError:") and "check" in err


def test_resolved_config_written_next_to_outputs(tmp_path, capsys):
    run_cli(
        capsys, "interf", "sweep", "--xi", "0", "--eta", "0", "--zeta", "0",
        "--samples", "256", "--out-dir", str(tmp_path),
    )
    text = (tmp_path / "interf_sweep_config.txt").read_text()
    assert "command=interf_sweep" in text
    assert "samples=256" in text


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envdir"))
    code, _, _ = run_cli(
        capsys, "decompose", "--xi", "0", "--eta", "0", "--zeta", "0", "--mode", "3"
    )
    assert code == 0
    assert (tmp_path / "envdir" / "plates.txt").exists()


def test_missing_parameter_is_machine_parsable_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "decompose", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ValueError:")


def test_non_finite_angle_is_machine_parsable_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "decompose", "--xi", "nan", "--eta", "0", "--zeta", "0", "--out-dir", str(tmp_path)
    )
    assert code == 1
    assert err.startswith("error: NonFiniteInput:")
    assert err.count("\n") == 1
    code, _, err = run_cli(
        capsys, "visibility", "--theta1", "nan", "--theta2", "0", "--theta3", "0", "--out-dir", str(tmp_path)
    )
    assert code == 1
    assert err.startswith("error: NonFiniteInput:")


def test_non_finite_parameter_is_named_in_the_error(tmp_path, capsys):
    angles = {"--xi": "0.3", "--eta": "0.1", "--zeta": "-0.4"}
    for name in ("xi", "eta", "zeta"):
        argv = [a for flag, value in angles.items()
                for a in (flag, "nan" if flag == f"--{name}" else value)]
        for mode in ("3", "5"):
            code, _, err = run_cli(capsys, "decompose", "--mode", mode, *argv, "--out-dir", str(tmp_path))
            assert code == 1
            assert err == f"error: NonFiniteInput: {name} must be finite, got nan\n"
    code, _, err = run_cli(capsys, "decompose", "--mode", "5", "--phi", "inf",
                           *[a for item in angles.items() for a in item], "--out-dir", str(tmp_path))
    assert code == 1
    assert err == "error: NonFiniteInput: phi must be finite, got inf\n"
    code, _, err = run_cli(capsys, "fringe", "generate", "--delta", "nan", "--out-dir", str(tmp_path))
    assert code == 1
    assert err == "error: NonFiniteInput: delta must be finite, got nan\n"
    assert not (tmp_path / "interferogram.pgm").exists()


# one run per command, each refused after its options were read: the output
# directory is made only once the inputs are checked, so none is left behind
REFUSED_RUNS = {
    "decompose": ["decompose", "--xi", "nan", "--eta", "0", "--zeta", "0"],
    "interf_sweep": ["interf", "sweep", "--xi", "0", "--eta", "0", "--zeta", "0", "--samples", "2"],
    "interf_surface": ["interf", "surface", "--zeta", "nan"],
    # a name no UTF-8 can record (an undecodable byte, as argv escapes it) fails as the record is encoded
    "interf_sweep_unencodable_name": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0",
                                      "--samples", "64", "--out", "\udcff.csv"],
    "polarimetry": ["polarimetry", "--mode", "zeta2pi", "--noise-sigma", "nan"],
    "polarimetry_sweep_out_without_eta": ["polarimetry", "--mode", "zeta2pi", "--eta-steps", "4",
                                          "--n-grid", "256", "--sweep-out", "scan.csv"],
    "polarimetry_plates": ["polarimetry", "--plates", "bad_plates.txt"],
    "fringe_generate": ["fringe", "generate", "--delta", "0.5", "--k0", "4"],
    "fringe_analyze": ["fringe", "analyze", "--image", "bad.pgm"],
    "visibility": ["visibility", "--theta1", "nan", "--theta2", "0", "--theta3", "0"],
    # an output that is a directory, an existing one ({cwd} is the run's directory) or the output
    # directory itself, is refused before the output directory and the record are made
    "interf_sweep_out_is_a_directory": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0",
                                        "--samples", "64", "--out", "{cwd}/isdir"],
    "interf_sweep_out_is_the_output_directory": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0",
                                                 "--samples", "64", "--out", "."],
    # a value the record cannot give back as it is: whitespace at an end, or a line break
    "interf_sweep_padded_name": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0", "--samples", "64",
                                 "--out", " sp.csv"],
    "interf_sweep_name_with_a_line_break": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0",
                                            "--samples", "64", "--out", "x\nseed=3.csv"],
    "polarimetry_padded_sweep_out": ["polarimetry", "--mode", "zeta2pi", "--eta-steps", "4", "--n-grid", "256",
                                     "--eta", "0.3", "--sweep-out", "raw.csv\t"],
}


@pytest.mark.parametrize("name", sorted(REFUSED_RUNS))
def test_a_refused_run_writes_nothing(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad_plates.txt").write_text("Q not-an-angle\n")
    (tmp_path / "bad.pgm").write_bytes(b"P5\n-4 -4 65535\n")
    (tmp_path / "isdir").mkdir()
    argv = [arg.replace("{cwd}", str(tmp_path)) for arg in REFUSED_RUNS[name]]
    code, out, err = run_cli(capsys, *argv, "--out-dir", "out")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, error", [
    (["visibility", "--theta1", "0:1", "--theta2", "0", "--theta3", "0"], "",
     "--theta1 must be 'value' or 'start:stop:count', got '0:1'"),
    (["interf", "surface", "--zeta", "0", "--xi-grid", "0:1:2:3"], "",
     "--xi-grid must be 'value' or 'start:stop:count', got '0:1:2:3'"),
    # argparse's choices guard only the flags; a config file's mode reaches the command
    (["decompose"], "xi=0\neta=0\nzeta=0\nmode=4\n", "--mode must be 3 or 5, got 4"),
    (["polarimetry"], "mode=bogus\n", "--mode must be full, zeta2pi or ximinuspi, got 'bogus'"),
    (["fringe", "analyze", "--image", "img.pgm", "--region", "100:500:200"], "",
     "region must be 'c0:c1:r0:r1', got '100:500:200'"),
    (["fringe", "analyze", "--image", "img.pgm", "--region", "100:500:200:x"], "",
     "region must be 'c0:c1:r0:r1', got '100:500:200:x'"),
    (["visibility", "--theta1", "0:1:x", "--theta2", "0", "--theta3", "0"], "",
     "--theta1 must be 'value' or 'start:stop:count', got '0:1:x'"),
    (["interf", "surface", "--zeta", "0", "--xi-grid", "0:1:2.5"], "",
     "--xi-grid must be 'value' or 'start:stop:count', got '0:1:2.5'"),
    (["visibility", "--theta1", "0:1:-1", "--theta2", "0", "--theta3", "0"], "",
     "--theta1 must be 'value' or 'start:stop:count', got '0:1:-1'"),
    (["interf", "sweep"], "xi=0\neta=0\nzeta=0\nsamples=abc\n", "argument --samples: invalid int value: 'abc'"),
    # argparse's own refusals are the same one line, not a usage block and exit 2
    (["interf", "sweep", "--xi", "abc", "--eta", "0", "--zeta", "0"], "", "argument --xi: invalid float value: 'abc'"),
    (["decompose", "--mode", "4", "--xi", "0", "--eta", "0", "--zeta", "0"], "",
     "argument --mode: invalid choice: 4 (choose from 3, 5)"),
    (["fringe", "generate", "--delta", "0.3", "--width", "-5"], "", "image must be at least 16x16, got 480x-5"),
    # a negative count, and a grid of no points, which would compute nothing and report success
    (["interf", "sweep", "--xi", "0", "--eta", "0", "--zeta", "0", "--samples", "-3"], "",
     "--samples must not be negative, got -3"),
    (["visibility", "--theta1", "0:1:0", "--theta2", "0", "--theta3", "0"], "",
     "--theta1 must be 'value' or 'start:stop:count', got '0:1:0'"),
    (["interf", "surface", "--xi-grid", "0:1:0"], "", "--xi-grid must be 'value' or 'start:stop:count', got '0:1:0'"),
    (["polarimetry", "--mode", "zeta2pi", "--eta-steps", "0"], "", "--eta-steps must be at least 1, got 0"),
    (["polarimetry", "--mode", "zeta2pi"], "eta-steps=-2\n", "--eta-steps must be at least 1, got -2"),
])
def test_a_malformed_value_is_refused_and_writes_nothing(argv, config, error, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fringes.save_interferogram(fringes.generate(0.3, 0.2, 0.4, size=(64, 96)), "img.pgm")
    Path("run.cfg").write_text(config)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(capsys, *argv, "--config", "run.cfg", "--out-dir", "out")
    assert (code, out, err) == (1, "", f"error: ValueError: {error}\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, error", [
    (["--out", " sp.csv"], "ValueError: --out cannot be recorded to rerun: ' sp.csv' has whitespace at an end "
                           "or a line break"),
    (["--out", "sp.csv\r"], "ValueError: --out cannot be recorded to rerun: 'sp.csv\\r' has whitespace at an end "
                            "or a line break"),
    # a line break inside a value would split the record's line and inject a key
    (["--out", "x\nseed=3.csv"], "ValueError: --out cannot be recorded to rerun: 'x\\nseed=3.csv' has whitespace "
                                 "at an end or a line break"),
    (["--out", "{cwd}/isdir"], "IsADirectoryError: cannot write '{cwd}/isdir': it is a directory"),
    (["--out", ".."], "IsADirectoryError: cannot write 'out/..': it is a directory"),
    (["--out", ""], "IsADirectoryError: cannot write 'out': it is a directory"),
], ids=["padded", "carriage-return", "line-break", "existing-directory", "parent-directory", "output-directory"])
def test_an_output_the_run_cannot_write_or_record_is_named_and_writes_nothing(argv, error, tmp_path, capsys,
                                                                              monkeypatch):
    # both used to fail only after the record was written, or to write a record that reruns another run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "isdir").mkdir()
    argv = [arg.replace("{cwd}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, "interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0", "--samples", "64",
                             *argv, "--out-dir", "out")
    assert (code, out, err) == (1, "", f"error: {error.replace('{cwd}', str(tmp_path))}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["isdir"] and not any((tmp_path / "isdir").iterdir())


def test_zero_sweep_samples_are_refused_by_the_fit(tmp_path, capsys):
    code, out, err = run_cli(capsys, "interf", "sweep", "--xi", "0", "--eta", "0", "--zeta", "0", "--samples", "0",
                             "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith("error: UnresolvableGrid: 0 phases cannot separate") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_grid, error", [
    ("-3", "ValueError: --n-grid must not be negative, got -3"),
    ("0", "UnresolvableGrid: 0 phases cannot separate"),
])
def test_a_plate_scan_of_no_points_is_refused_and_writes_nothing(n_grid, error, tmp_path, capsys):
    # a negative count used to reach numpy's linspace and fail with its own message
    (tmp_path / "h.txt").write_text("Q 0.3\nH -0.2\nQ 0.1\n")
    code, out, err = run_cli(capsys, "polarimetry", "--plates", str(tmp_path / "h.txt"), "--n-grid", n_grid,
                             "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {error}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_plate_scan_without_phase_contrast_reports_an_undefined_phase(tmp_path, capsys):
    # a lone half-wave plate swings the intensity over all of [0, 1]: 1 - I_max + I_min
    # vanishes, so the scan is written and its phase reported undefined, with a warning
    (tmp_path / "h.txt").write_text("H 0\n")
    code, out, err = run_cli(capsys, "polarimetry", "--plates", str(tmp_path / "h.txt"), "--n-grid", "256",
                             "--out-dir", str(tmp_path / "out"))
    assert code == 0
    assert stdout_values(out)["cos2_phase"] == "undefined"
    assert re.fullmatch(r"warning: 1 - I_max \+ I_min = \S+; phase contrast vanished\n", err)
    assert len(read_csv(tmp_path / "out" / "plate_scan.csv")[1]) == 256


def test_a_non_finite_one_point_grid_shows_its_value(tmp_path, capsys):
    # a one-point grid is a one-element array, reported like the scalar it stands for
    code, _, err = run_cli(capsys, "visibility", "--theta1", "nan", "--theta2", "0", "--theta3", "0",
                           "--out-dir", str(tmp_path))
    assert (code, err) == (1, "error: NonFiniteInput: theta1 must be finite, got nan\n")


# every output goes to a directory that exists or is the output directory itself;
# any other is refused before the output directory is made
MISSING_DIRECTORY_RUNS = {
    "interf_sweep": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0", "--samples", "64",
                     "--out", "missing/x.csv"],
    "polarimetry_sweep_out": ["polarimetry", "--mode", "zeta2pi", "--eta-steps", "4", "--n-grid", "256",
                              "--eta", "1", "--sweep-out", "missing/scan.csv"],
    "fringe_analyze_out": ["fringe", "analyze", "--image", "img.pgm", "--out", "missing/regions.csv"],
    "fringe_analyze_profiles_out": ["fringe", "analyze", "--image", "img.pgm",
                                    "--profiles-out", "missing/profiles.csv"],
    "decompose_absolute": ["decompose", "--xi", "0", "--eta", "0", "--zeta", "0", "--out", "{tmp}/missing/p.txt"],
    # above the new output directory, into a directory that is missing too
    "interf_sweep_above_the_output_directory": ["interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0",
                                                "--samples", "64", "--out", "../missing/x.csv"],
}


@pytest.mark.parametrize("name", sorted(MISSING_DIRECTORY_RUNS))
def test_an_output_in_a_missing_directory_is_refused_before_anything_is_written(name, tmp_path, capsys,
                                                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "fringe", "generate", "--delta", "0.5", "--k0", "0.25", "--width", "128",
                   "--height", "64", "--out", "img.pgm")[0] == 0
    argv = [a.replace("{tmp}", str(tmp_path)) for a in MISSING_DIRECTORY_RUNS[name]]
    code, out, err = run_cli(capsys, *argv, "--out-dir", "o")
    assert (code, out) == (1, "")
    assert err.startswith("error: MissingOutputDirectory: ") and err.count("\n") == 1
    assert "missing" in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "missing").exists()


def test_outputs_may_go_to_the_new_output_directory_or_an_existing_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept").mkdir()
    code, _, _ = run_cli(capsys, "polarimetry", "--mode", "zeta2pi", "--eta-steps", "4", "--n-grid", "256",
                         "--eta", "1", "--out", "./curve.csv", "--sweep-out", str(tmp_path / "kept" / "scan.csv"),
                         "--out-dir", "new/deeper")
    assert code == 0
    assert (tmp_path / "new" / "deeper" / "curve.csv").exists()
    assert (tmp_path / "kept" / "scan.csv").exists()
    code, _, _ = run_cli(capsys, "interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0", "--samples", "64",
                         "--out", "../kept/sweep.csv", "--out-dir", "new")
    assert code == 0 and (tmp_path / "kept" / "sweep.csv").exists()
    # a directory the output directory's making makes, or one above it, is there to write in
    for out_dir, out in (("fresh", "../x.csv"), ("a/b/c", "../../y.csv")):
        code, _, err = run_cli(capsys, "interf", "sweep", "--xi", "0", "--eta", "1", "--zeta", "0",
                               "--samples", "64", "--out", out, "--out-dir", out_dir)
        assert (code, err) == (0, "")
        assert (tmp_path / out_dir / "interf_sweep_config.txt").exists()
    assert (tmp_path / "x.csv").exists() and (tmp_path / "a" / "y.csv").exists()


# every output goes through fringes.write_file: written over in place, through
# whatever its name names, and cut to length only if it is a regular file
SWEEP_64 = ["interf", "sweep", "--xi", "0.5", "--eta", "1", "--zeta", "0", "--samples", "64"]


@pytest.mark.parametrize("target", ["longer file", "symlink", "device", "fifo"])
def test_an_output_is_written_over_in_place(target, tmp_path, capsys):
    assert run_cli(capsys, *SWEEP_64, "--out-dir", str(tmp_path / "fresh"))[0] == 0
    expected = (tmp_path / "fresh" / "interf_sweep.csv").read_bytes()
    real, out = tmp_path / "real.csv", tmp_path / "out.csv"
    real.write_bytes(b"x" * 10 * len(expected))
    received = []
    if target == "longer file":
        out = real
    elif target == "symlink":
        out.symlink_to(real)
    elif target == "device":
        out = Path(os.devnull)  # ftruncate refuses a character device
    else:
        os.mkfifo(out)  # and a FIFO: its reader gets the bytes as a stream
        reader = threading.Thread(target=lambda: received.append(out.read_bytes()), daemon=True)
        reader.start()
    inode = real.stat().st_ino
    code, _, err = run_cli(capsys, *SWEEP_64, "--out", str(out), "--out-dir", str(tmp_path))
    assert (code, err) == (0, "")
    if target == "fifo":
        reader.join(timeout=30)
        assert not reader.is_alive() and received == [expected]
    elif target != "device":
        assert real.read_bytes() == expected and real.stat().st_ino == inode
        assert out.is_symlink() == (target == "symlink")


# ---------------------------------------------------------------------------
# one process, many runs: nothing parsed carries over from one call to the next

def test_repeated_runs_do_not_share_parsed_options(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "fringe", "generate", "--delta", "0.4", "--k0", "0.25",
                         "--out-dir", str(tmp_path), "--out", "img.pgm")
    assert code == 0
    image = str(tmp_path / "img.pgm")
    regions = ["200:440:140:340", "220:420:160:320"]
    code, _, _ = run_cli(capsys, "fringe", "analyze", "--image", image, "--region", regions[0],
                         "--region", regions[1], "--out-dir", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run_cli(capsys, "fringe", "analyze", "--image", image, "--out-dir", str(tmp_path / "b"))
    assert code == 0
    assert "regions=" + ";".join(regions) + "\n" in (tmp_path / "a" / "fringe_analyze_config.txt").read_text()
    assert "regions=auto\n" in (tmp_path / "b" / "fringe_analyze_config.txt").read_text()

    for sub, xi, flags in (("deg", "90", ["--degrees"]), ("rad", repr(np.pi / 2), [])):
        code, _, _ = run_cli(capsys, "decompose", "--xi", xi, "--eta", "0", "--zeta", "0",
                             *flags, "--out-dir", str(tmp_path / sub))
        assert code == 0
        array = plates.parse_plate_array((tmp_path / sub / "plates.txt").read_text())
        np.testing.assert_allclose(plates.compose(array), su2.from_yzy(np.pi / 2, 0.0, 0.0), atol=1e-12)
    assert "degrees=False\n" in (tmp_path / "rad" / "decompose_config.txt").read_text()


# ---------------------------------------------------------------------------
# recorded outputs: every byte of stdout, stderr and the out-dir files, as
# written by the implementation each run was first recorded with: the per-eta
# polarimetry loop, the region-by-region fringe retrieval, and the compose fold
# of one su2.product per plate

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "polarimetry_zeta2pi_noisy": ["polarimetry", "--mode", "zeta2pi", "--noise-sigma", "0.01",
                                  "--eta-steps", "16"],
    # beta = pi/2 on every row: one warning line per eta, every measured cell empty
    "polarimetry_ximinuspi_degenerate": ["polarimetry", "--mode", "ximinuspi", "--zeta", "0",
                                         "--eta-steps", "8", "--n-grid", "512"],
    # xi + zeta = pi: only the eta = 0 row is degenerate; the others are ill-conditioned
    # ratios of ~1e-9 extrema, which show any change in the last bits of the scan
    "polarimetry_full_one_degenerate_row": ["polarimetry", "--xi", "1", "--zeta", "2.141592653589793",
                                            "--eta-steps", "8", "--n-grid", "512"],
    "polarimetry_noisy_plate_scan": ["polarimetry", "--plates", "plates.txt", "--n-grid", "512",
                                     "--noise-sigma", "0.02", "--seed", "5"],
    "interf_sweep": ["interf", "sweep", "--xi", "0.5", "--eta", "1.0", "--zeta=-0.3", "--samples", "256"],
    # 64x240 noisy images from `fringe generate`: regions of three widths, the last too
    # narrow for a carrier; and the default regions over a fast enveloped carrier
    "fringe_analyze/plain": ["fringe", "analyze", "--image", "plain.pgm", "--region", "20:220:8:56",
                             "--region", "40:200:16:48", "--region", "10:230:24:40",
                             "--region", "100:105:8:56", "--out", "regions.csv",
                             "--profiles-out", "profiles.csv"],
    "fringe_analyze/enveloped": ["fringe", "analyze", "--image", "enveloped.pgm", "--out", "regions.csv",
                                 "--profiles-out", "profiles.csv"],
    # compose of a plate list: the axes to 17 digits and the residual to the target
    "decompose_3": ["decompose", "--xi", "0.7", "--eta=-1.2", "--zeta", "2.5", "--mode", "3",
                    "--out", "array.txt"],
    "decompose_5": ["decompose", "--xi", "0.7", "--eta=-1.2", "--zeta", "2.5", "--mode", "5", "--phi=0",
                    "--out", "array.txt"],
    # compose of a (41 x 3 x 1, 3) QHQ stack, twice: the closed form and the simulated sweeps
    "visibility_check": ["visibility", "--theta1=-1.5:1.5:41", "--theta2=-1:1:3", "--theta3=-0.9", "--check",
                         "--out", "vis.csv"],
}
INPUTS = {"plates.txt", "plain.pgm", "plain.pgm.meta", "enveloped.pgm", "enveloped.pgm.meta"}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_outputs_match_the_recorded_bytes(name, tmp_path, capsys, monkeypatch):
    expected = GOLDEN / name
    for path in expected.iterdir():
        if path.name in INPUTS:
            shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert out == (expected / "stdout.txt").read_text()
    assert err == (expected / "stderr.txt").read_text()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in expected.iterdir() if p.name not in ("stdout.txt", "stderr.txt"))
    for file in written:
        assert (tmp_path / file).read_bytes() == (expected / file).read_bytes(), file


# ---------------------------------------------------------------------------
# the CSV writer: one printf pass over the columns writes the bytes the per-row
# writer it replaced wrote, kept here as the oracle

def _row_template(types: tuple) -> str:
    """printf template of a CSV line: None is an empty cell, a float (numpy's
    too) has 12 significant digits, anything else is str()."""
    return ",".join("%.0s" if t is type(None) else "%.12g" if issubclass(t, float) else "%s"
                    for t in types) + "\n"


def write_csv_by_rows(path, header, rows):
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([_row_template(tuple(map(type, row))) % row for row in map(tuple, rows)]))


def _mixed_table(n):
    """n rows of a Python float, a numpy float, an int and a float that is
    sometimes missing, as rows for the oracle and as columns for the writer."""
    rng = np.random.default_rng(n)
    floats = rng.normal(scale=10.0 ** rng.integers(-20, 20, n), size=n)
    specials = [0.0, -0.0, 1e300, -5e-324, np.pi, 2.0 ** 60, 1 / 3, 123456789012.5]
    floats[:min(n, len(specials))] = specials[:n]
    numpy_floats = rng.uniform(-1.0, 1.0, n)
    ints = rng.integers(-10**6, 10**6, n).tolist()
    defined = (rng.uniform(size=n) < 0.6).tolist()
    maybe = rng.uniform(size=n)
    rows = [(f, g, i, m if ok else None) for f, g, i, m, ok in
            zip(floats.tolist(), list(numpy_floats), ints, maybe.tolist(), defined)]
    columns = [floats, numpy_floats, ints, cli._cells(maybe.tolist(), defined)]
    return rows, columns


@pytest.mark.parametrize("n", [0, 1, 2, 57, 4096])
def test_the_csv_writer_writes_the_bytes_of_the_per_row_writer(n, tmp_path):
    rows, columns = _mixed_table(n)
    header = ["f", "g", "i", "maybe"]
    write_csv_by_rows(tmp_path / "rows.csv", header, rows)
    cli._write_csv(tmp_path / "columns.csv", header, columns)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert len((tmp_path / "columns.csv").read_text().splitlines()) == n + 1


def test_the_csv_writer_takes_ranges_and_numpy_ints_as_they_are(tmp_path):
    values = np.linspace(-1.0, 1.0, 5)
    write_csv_by_rows(tmp_path / "rows.csv", ["k", "n", "v"],
                      zip(range(3, 8), np.arange(5, dtype=np.int64), values))
    cli._write_csv(tmp_path / "columns.csv", ["k", "n", "v"], [range(3, 8), np.arange(5, dtype=np.int64), values])
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "ragged.csv", ["k", "v"], [range(4), values])
