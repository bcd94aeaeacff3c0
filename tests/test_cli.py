"""Configuration parsing, output writers, and the command-line workflow."""

import csv
import dataclasses
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nfem
from nfem.cli import main
from nfem.config import RunConfig, default_config_text, load_config
from nfem.errors import ConfigError, InvalidArgumentError
from nfem.lsm import build_sampling_grid, run_imaging
from nfem.measurement import (
    NoiseSpec,
    add_noise,
    assemble_nearfield,
    build_sphere_grid,
    crc64,
    read_nearfield,
)
from nfem.forward import LayeredCavityConfig, Shell
from nfem.output import write_cross_sections, write_imaging_csv, write_imaging_vtk

FAST_CONFIG = """\
[forward]
cavity_radius = 1.5
shells = 2.5 1.0 2.0
k = 0.75

[measurement]
rho = 1.0
n_theta = 6
n_phi = 12
noise_level = 0.02
seed = 7

[lsm]
polarization = 0.5773502691896258 -0.5773502691896258 0.5773502691896258
box = -2 2 -2 2 -2 2
spacing = 0.5
mask_radius = 1.0
alpha_mode = morozov

[output]
prefix = fast
formats = csv,vtk
"""


def read_vtk_scalars(path) -> np.ndarray:
    """Parse the scalar list back out of a file written by write_imaging_vtk."""
    with open(path) as f:
        lines = f.read().splitlines()
    try:
        start = lines.index("LOOKUP_TABLE default") + 1
        dims_line = next(l for l in lines if l.startswith("DIMENSIONS"))
    except (ValueError, StopIteration) as exc:
        raise InvalidArgumentError(f"{path}: not a structured-points file") from exc
    n = int(np.prod([int(v) for v in dims_line.split()[1:4]]))
    return np.array([float(v) for v in lines[start : start + n]])


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_CONFIG)
    return path


@pytest.fixture(scope="module")
def fast_data(tmp_path_factory):
    """A noisy NFEM1 file simulated from FAST_CONFIG."""
    out = tmp_path_factory.mktemp("fast")
    cfg = out / "fast.ini"
    cfg.write_text(FAST_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "fast_noisy.nfem"


# Every RunConfig value the template parses to.
TEMPLATE_VALUES = {
    "cavity_radius": 1.5,
    "shells": (Shell(2.5, 1.0, 2.0),),
    "k": 0.75,
    "n_max": None,
    "rho": 1.0,
    "n_theta": 12,
    "n_phi": 24,
    "noise_level": 0.02,
    "seed": 7,
    "polarization": (0.5773502691896258, -0.5773502691896258, 0.5773502691896258),
    "box": (-3.0, 3.0, -3.0, 3.0, -3.0, 3.0),
    "spacing": 0.1,
    "mask_radius": 1.0,
    "alpha_mode": "morozov",
    "alpha_fixed": 1e-8,
    "prefix": "ball",
    "formats": ("csv", "vtk"),
}


class TestConfigParsing:
    def test_defaults_roundtrip(self, tmp_path):
        path = tmp_path / "ball.ini"
        path.write_text(default_config_text())
        cfg = load_config(path)
        assert cfg.k == 0.75
        assert cfg.cavity_radius == 1.5
        assert cfg.shells == (Shell(2.5, 1.0, 2.0),)
        assert cfg.noise_level == 0.02
        assert cfg.polarization[0] == pytest.approx(1 / np.sqrt(3), rel=1e-15)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[forward]\nmystery = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[extras]\nx = 1\n")
        with pytest.raises(ConfigError, match="extras"):
            load_config(path)

    def test_semantic_validation(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[measurement]\nrho = 2.0\n")  # outside default cavity
        with pytest.raises(ConfigError, match="rho"):
            load_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[forward]\nk = banana\n")
        with pytest.raises(ConfigError, match="forward.k"):
            load_config(path)

    def test_multi_shell_parse(self, tmp_path):
        path = tmp_path / "two.ini"
        path.write_text("[forward]\nshells = 2.0 1.0 2.0 ; 2.5 0.5 3.0\n")
        cfg = load_config(path)
        assert cfg.shells == (Shell(2.0, 1.0, 2.0), Shell(2.5, 0.5, 3.0))

    def test_nonincreasing_shells_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[forward]\nshells = 2.5 1 1 ; 2.0 1 1\n")
        with pytest.raises(ConfigError, match="increasing"):
            load_config(path)

    def test_every_field_declares_section_and_parser(self):
        sections = ("forward", "measurement", "lsm", "output")
        for f in dataclasses.fields(RunConfig):
            assert f.metadata["section"] in sections, f.name
            assert callable(f.metadata["parse"]), f.name

    @pytest.mark.parametrize("text, changes", [
        (default_config_text(), {}),
        (FAST_CONFIG, {"n_theta": 6, "n_phi": 12, "box": (-2.0, 2.0) * 3,
                       "spacing": 0.5, "prefix": "fast"}),
        ("[forward]\nshells = 2.0 1.0 2.0 ; 2.5 0.5 3.0\n",
         {"shells": (Shell(2.0, 1.0, 2.0), Shell(2.5, 0.5, 3.0)), "prefix": "nfem"}),
    ], ids=["template", "fast", "two_shells"])
    def test_parsed_values(self, tmp_path, text, changes):
        path = tmp_path / "run.ini"
        path.write_text(text)
        cfg = load_config(path)
        expected = {**TEMPLATE_VALUES, **changes}
        got = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        assert got == expected
        assert {n: type(v) for n, v in got.items()} == {
            n: type(v) for n, v in expected.items()
        }


@pytest.fixture(scope="module")
def field():
    ball = LayeredCavityConfig(1.5, (Shell(2.5, 1.0, 2.0),), 0.75, 16)
    sphere = build_sphere_grid(6, 12, 1.0)
    noisy = add_noise(assemble_nearfield(ball, sphere), NoiseSpec(0.02, 7))
    grid = build_sampling_grid(np.array([[-2, 2]] * 3), 0.5, 1.0)
    pol = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    return run_imaging(noisy, grid, pol, 0.02, k=0.75)


class TestOutputs:
    def test_csv_contents(self, field, tmp_path):
        path = tmp_path / "img.csv"
        write_imaging_csv(field, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["z_x", "z_y", "z_z", "indicator", "log10_indicator",
                           "masked"]
        assert len(rows) == 1 + field.grid.n_points
        body = rows[1:]
        got_log = np.array([float(r[4]) for r in body])
        assert np.array_equal(got_log, field.log_indicator)
        masked = np.array([r[5] == "1" for r in body])
        assert np.array_equal(masked, ~field.grid.active)

    def test_vtk_cross_consistency(self, field, tmp_path):
        vtk_path = tmp_path / "img.vtk"
        write_imaging_vtk(field, vtk_path)
        scalars = read_vtk_scalars(vtk_path)
        assert np.max(np.abs(scalars - field.log_indicator)) <= 1e-12
        header = vtk_path.read_text().splitlines()
        assert header[3] == "DATASET STRUCTURED_POINTS"
        assert header[4] == "DIMENSIONS 9 9 9"

    def test_cross_sections(self, field, tmp_path):
        paths = write_cross_sections(field, tmp_path, "img")
        assert [p.split("_")[-1] for p in paths] == ["xy.csv", "yz.csv", "xz.csv"]
        with open(paths[0], newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["z_x", "z_y", "log10_indicator", "masked"]
        assert len(rows) == 1 + 9 * 9
        # The xy slice passes through z = 0; compare one entry to the cube.
        nx, ny, nz = field.grid.shape
        cube = field.log_indicator.reshape(nz, ny, nx)
        z_level = nz // 2
        got = float(rows[1][2])  # x = y = -2 corner
        assert got == cube[z_level, 0, 0]


class TestCliWorkflow:
    def test_simulate_reconstruct_probe(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        data = out / "fast_noisy.nfem"
        assert data.exists() and (out / "fast_clean.nfem").exists()
        assert (out / "fast_manifest.txt").exists()

        assert main(
            ["reconstruct", "--data", str(data), "--config", str(cfg_path),
             "--out", str(out)]
        ) == 0
        stats = re.search(
            r"alpha \(morozov\): (\d+) of (\d+) active points flagged; "
            r"min/median/max (\S+) / (\S+) / (\S+)\n",
            capsys.readouterr().out,
        )
        assert stats is not None
        n_active = int(np.sum(np.linalg.norm(
            build_sampling_grid(np.array([[-2, 2]] * 3), 0.5, 1.0).points, axis=1
        ) > 1.0 + 1e-9))
        assert int(stats[1]) == 0 and int(stats[2]) == n_active
        lo, mid, hi = (float(v) for v in stats.groups()[2:])
        assert 0 < lo <= mid <= hi
        for name in ("fast_imaging.csv", "fast_imaging.vtk", "fast_slice_xy.csv",
                     "fast_slice_yz.csv", "fast_slice_xz.csv"):
            assert (out / name).exists()

        assert main(
            ["probe", "--data", str(data), "--config", str(cfg_path),
             "--z", "1.5,0,0"]
        ) == 0
        text = capsys.readouterr().out
        assert "alpha" in text and "indicator" in text

    def test_simulate_deterministic(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
        main(["simulate", "--config", str(cfg_path), "--out", str(out2)])
        assert (out1 / "fast_noisy.nfem").read_bytes() == (
            out2 / "fast_noisy.nfem"
        ).read_bytes()

    def test_selfcheck_passes(self, cfg_path):
        assert main(["selfcheck", "--config", str(cfg_path)]) == 0

    def test_selfcheck_passes_for_far_probe_draw(self, tmp_path):
        # This seed draws the probe source at 1.035 rho, beyond where the
        # data series order converges; the source is pulled back inside.
        cfg = tmp_path / "far.ini"
        cfg.write_text(FAST_CONFIG.replace("seed = 7", "seed = 228819406"))
        assert main(["selfcheck", "--config", str(cfg)]) == 0

    def test_selfcheck_fails_on_eigenvalue(self, tmp_path):
        bad = tmp_path / "eig.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 4.4934094579"))
        assert main(["selfcheck", "--config", str(bad)]) == 4

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[forward]\nmystery = 1\n")
        assert main(["selfcheck", "--config", str(bad)]) == 2

    def test_data_error_exit_code(self, cfg_path, tmp_path, capsys):
        bad = tmp_path / "bad.nfem"
        bad.write_bytes(b"not a data file")
        assert main(
            ["reconstruct", "--data", str(bad), "--config", str(cfg_path),
             "--out", str(tmp_path)]
        ) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_simulate_refuses_non_finite_data(self, tmp_path, capsys):
        # n_max = 90 overflows the mode coefficients, so the matrix is all NaN.
        bad = tmp_path / "nan.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.75\nn_max = 90"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert list(out.glob("*.nfem")) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulate_overflow_is_one_error_line(self, tmp_path, capsys):
        # The mode coefficients overflow at n_max = 90: one error line and
        # exit 3, with no numpy warning before it and no data file after it.
        bad = tmp_path / "nan.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.75\nn_max = 90"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.glob("*.nfem")) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_selfcheck_overflow_fails(self, tmp_path):
        bad = tmp_path / "nan.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.75\nn_max = 90"))
        assert main(["selfcheck", "--config", str(bad)]) == 4

    def test_non_finite_entry_exit_code(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        blob = bytearray((out / "fast_noisy.nfem").read_bytes())
        # Overwrite the last matrix entry with NaN and restore a valid CRC.
        struct.pack_into("<dd", blob, len(blob) - 24, np.nan, 0.0)
        struct.pack_into("<Q", blob, len(blob) - 8, crc64(bytes(blob[6:-8])))
        bad = tmp_path / "nan.nfem"
        bad.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(
            ["reconstruct", "--data", str(bad), "--config", str(cfg_path),
             "--out", str(out)]
        ) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_wavenumber_mismatch_rejected(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        other = tmp_path / "other.ini"
        other.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.5"))
        code = main(
            ["reconstruct", "--data", str(out / "fast_noisy.nfem"),
             "--config", str(other), "--out", str(out)]
        )
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_fixed_alpha_is_used(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        data = str(out / "fast_noisy.nfem")
        images = []
        for value in ("1e-3", "1e+2"):
            cfg = tmp_path / f"fixed{value}.ini"
            cfg.write_text(FAST_CONFIG.replace(
                "alpha_mode = morozov", f"alpha_mode = fixed\nalpha_fixed = {value}"))
            img = tmp_path / f"img{value}"
            assert main(["reconstruct", "--data", data, "--config", str(cfg),
                         "--out", str(img)]) == 0
            images.append((img / "fast_imaging.csv").read_bytes())
            capsys.readouterr()
            assert main(["probe", "--data", data, "--config", str(cfg),
                         "--z", "1.6,0,0"]) == 0
            text = capsys.readouterr().out
            assert f"regularization alpha: {float(value):.6e}\n" in text
            assert "flagged" not in text
        assert images[0] != images[1]

    @pytest.mark.parametrize("command, edits", [
        ("simulate", [("n_theta = 6", "n_theta = 1")]),
        ("reconstruct", [("mask_radius = 1.0", "mask_radius = 0.5")]),
        ("simulate", [("prefix = fast", "prefix = out/fast")]),
        ("reconstruct", [("alpha_mode = morozov", "alpha_mode = fixed\nalpha_fixed = nan")]),
        ("reconstruct", [("box = -2 2 -2 2 -2 2", "box = -0.5 0.5 -0.5 0.5 -0.5 0.5")]),
        # The data series order for rho = 1.45 is 283, past the wavefunction
        # order cap of 200, so the run stops naming n_max.
        ("simulate", [("rho = 1.0", "rho = 1.45"), ("mask_radius = 1.0", "mask_radius = 1.45")]),
    ], ids=["n_theta", "mask_radius", "prefix", "alpha_fixed", "no_active_points",
            "degenerate"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejected_config_exit_code(self, cfg_path, tmp_path, capsys, command, edits):
        # Configs the parser reads but the run cannot honour end in one
        # error line and exit code 2, never in a traceback or a finished run.
        text = FAST_CONFIG
        for old, new in edits:
            text = text.replace(old, new)
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        args = ["--config", str(bad), "--out", str(tmp_path / "new")]
        if command == "reconstruct":
            out = tmp_path / "out"
            main(["simulate", "--config", str(cfg_path), "--out", str(out)])
            args += ["--data", str(out / "fast_noisy.nfem")]
        capsys.readouterr()
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, where, value", [
        ("simulate", "measurement.seed", "-1"),
        ("simulate", "measurement.seed", "18446744073709551616"),
        ("reconstruct", "lsm.box", "-inf 3 -3 3 -3 3"),
        ("simulate", "measurement.rho", "nan"),
        ("reconstruct", "lsm.spacing", "inf"),
        ("simulate", "forward.shells", "2.5 1.0 nan"),
        ("reconstruct", "lsm.polarization", "nan 0 0"),
        ("simulate", "measurement.noise_level", "inf"),
        ("simulate", "forward.k", "nan"),
    ], ids=["seed_negative", "seed_2_64", "box_inf", "rho_nan", "spacing_inf",
            "shell_nan", "polarization_nan", "noise_inf", "k_nan"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_value_exit_code(self, fast_data, tmp_path, capsys,
                                          command, where, value):
        # Each value is refused while the config is parsed: one error line
        # naming the key, exit code 2, no numpy warning and no output file.
        key = where.split(".")[1]
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", FAST_CONFIG,
                              flags=re.M)
        assert count == 1
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        out = tmp_path / "out"
        args = [command, "--config", str(bad), "--out", str(out)]
        if command == "reconstruct":
            args += ["--data", str(fast_data)]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert not out.exists()

    @pytest.mark.parametrize("command, edit, code", [
        # An order past the wavefunction order cap of 200 is refused, naming
        # n_max, before anything is written.
        ("simulate", ("k = 0.75", "k = 0.75\nn_max = 1000"), 2),
        ("simulate", ("k = 0.75", "k = 0.75\nn_max = 90"), 3),
        ("reconstruct", ("polarization = 0.5773502691896258 -0.5773502691896258 "
                         "0.5773502691896258", "polarization = 0 0 0"), 2),
    ], ids=["singular_system", "non_finite_data", "zero_rhs"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_run_leaves_no_output_dir(self, fast_data, tmp_path, capsys,
                                             command, edit, code):
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CONFIG.replace(*edit))
        out = tmp_path / "out"
        args = [command, "--config", str(bad), "--out", str(out)]
        if command == "reconstruct":
            args += ["--data", str(fast_data)]
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "probe"])
    @pytest.mark.parametrize("edit, code, where", [
        (("shells = 2.5 1.0 2.0", "shells ="), 3, "zero"),
        (("alpha_mode = morozov", "alpha_mode = fixed\nalpha_fixed = 1e308"), 2,
         "lsm.alpha_fixed"),
    ], ids=["vacuum_cavity", "huge_fixed_alpha"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_nan_image(self, tmp_path, capsys, command, edit, code, where):
        # A vacuum cavity gives all-zero data, and a huge fixed alpha gives
        # ||g|| = 0 everywhere: either would image as NaN.  Both end in one
        # error line and no output, with no numpy warning on the way.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(FAST_CONFIG.replace(*edit))
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        extra = {"reconstruct": ["--out", str(out)], "probe": ["--z", "1.6,0,0"]}
        assert main([command, "--config", str(cfg), "--data",
                     str(data / "fast_noisy.nfem"), *extra[command]]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert where in captured.err
        assert "nan" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "probe", "simulate"])
    def test_unusable_path_exit_code(self, cfg_path, tmp_path, capsys, command):
        # A missing data file, or an output directory under a regular file,
        # ends in one error line and exit code 2, not an OSError traceback.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        missing = str(tmp_path / "missing.nfem")
        extra = {
            "reconstruct": ["--data", missing, "--out", str(tmp_path / "out")],
            "probe": ["--data", missing, "--z", "1.6,0,0"],
            "simulate": ["--out", str(blocker / "out")],
        }[command]
        assert main([command, "--config", str(cfg_path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_probe_masked_point(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        assert main(
            ["probe", "--data", str(out / "fast_noisy.nfem"),
             "--config", str(cfg_path), "--z", "0.1,0,0"]
        ) == 0
        assert "masked" in capsys.readouterr().out

    def test_init_prints_template(self, capsys):
        assert main(["init"]) == 0
        assert "[forward]" in capsys.readouterr().out


def test_cli_import_leaves_out_scipy_optimize():
    # Every CLI run pays for what nfem.cli imports; nothing needs a root finder.
    paths = [str(Path(nfem.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, nfem.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
