"""Configuration parsing, output writers, and the command-line workflow."""

import contextlib
import csv
import dataclasses
import io
import math
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfem
from nfem import cli, lsm, measurement
from nfem.cli import EXIT_PIPE, main
from nfem.config import RunConfig, default_config_text, load_config
from nfem.errors import ConfigError, InvalidArgumentError
from nfem.lsm import ImagingField, build_sampling_grid, run_imaging
from nfem.measurement import (
    HEADER,
    MAGIC,
    NoiseSpec,
    add_noise,
    assemble_nearfield,
    build_sphere_grid,
    crc64,
    read_nearfield,
    write_nearfield,
)
from nfem.forward import LayeredCavityConfig, Shell, solve_modes
from nfem.output import write_cross_sections, write_imaging_csv, write_imaging_vtk
from nfem.specialfun import ORDER_CAP

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


# The template's polarization line.
POLARIZATION = ("polarization = 0.5773502691896258 -0.5773502691896258 "
                "0.5773502691896258")


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

    @pytest.mark.parametrize("raw", [
        b"[forward]\nk = 0.75\xff\n",
        b"k = 0.75\n[forward]\ncavity_radius = 1.5\n",
        b"[forward]\nk\n",
        b"[forward]\nk = 0.75\nk = 0.5\n",
        b"\xef\xbb\xbf[forward]\nk = 0.75\n",
    ], ids=["not_utf8", "key_before_section", "no_equals", "duplicate_key", "bom"])
    def test_reader_errors_are_one_line(self, tmp_path, capsys, raw):
        # Files are read as UTF-8, and a byte-order mark is skipped.  Every
        # other fault of the file itself is one error line naming it, even
        # where configparser's message spans several lines.
        path = tmp_path / "run.ini"
        path.write_bytes(raw)
        if raw.startswith(b"\xef\xbb\xbf"):
            assert load_config(path).k == 0.75
            return
        assert main(["selfcheck", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

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
    noisy = add_noise(assemble_nearfield(solve_modes(ball), sphere), NoiseSpec(0.02, 7))
    grid = build_sampling_grid(np.array([[-2, 2]] * 3), 0.5, 1.0)
    pol = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    return run_imaging(noisy, grid, pol)


def savetxt_oracle(field, out_dir):
    """The writers as np.savetxt and a line loop wrote them: the imaging CSV,
    the VTK and the three slices, as {file name: bytes}."""
    grid = field.grid
    nx, ny, nz = grid.shape
    files = {}
    buf = io.BytesIO()
    np.savetxt(buf, np.column_stack([grid.points, field.indicator, field.log_indicator,
                                     ~grid.active]),
               fmt=["%.17g"] * 5 + ["%d"], delimiter=",", newline="\r\n",
               header="z_x,z_y,z_z,indicator,log10_indicator,masked", comments="")
    files["img.csv"] = buf.getvalue()
    g = "%.17g".__mod__
    head = ["# vtk DataFile Version 3.0",
            "cavity imaging indicator (log10, masked points = 0)", "ASCII",
            "DATASET STRUCTURED_POINTS", f"DIMENSIONS {nx} {ny} {nz}",
            "ORIGIN " + " ".join(g(axis[0]) for axis in grid.axes),
            "SPACING " + " ".join([g(grid.spacing)] * 3), f"POINT_DATA {grid.n_points}",
            "SCALARS log10_indicator double 1", "LOOKUP_TABLE default"]
    files["img.vtk"] = "".join(line + "\n" for line in
                               head + [g(v) for v in field.log_indicator]).encode()
    axes = grid.axes
    cubes = field.log_indicator.reshape(nz, ny, nx), grid.active.reshape(nz, ny, nx)
    for name, (ax1, ax2), fixed in (("xy", (0, 1), 2), ("yz", (1, 2), 0), ("xz", (0, 2), 1)):
        level = int(np.argmin(np.abs(axes[fixed])))
        c2, c1 = np.meshgrid(axes[ax2], axes[ax1], indexing="ij")
        log_slice, active_slice = (np.take(c, level, axis=2 - fixed).ravel() for c in cubes)
        buf = io.BytesIO()
        np.savetxt(buf, np.column_stack([c1.ravel(), c2.ravel(), log_slice, ~active_slice]),
                   fmt=["%.17g"] * 3 + ["%d"], delimiter=",", newline="\r\n",
                   header=f"z_{'xyz'[ax1]},z_{'xyz'[ax2]},log10_indicator,masked",
                   comments="")
        files[f"img_slice_{name}.csv"] = buf.getvalue()
    return files


class TestOutputs:
    @pytest.mark.parametrize("spacing", [0.2, 0.3, 0.5])
    def test_files_match_the_savetxt_oracle(self, tmp_path, spacing):
        # Every byte of every file, on an indicator with exact zeros where
        # masked, values over many decades and a box off the origin.
        grid = build_sampling_grid(np.array([[-2.1, 1.9], [-1.7, 2.3], [-2.0, 2.0]]),
                                   spacing, 1.0)
        rng = np.random.default_rng(int(spacing * 10))
        indicator = np.where(grid.active, 10.0 ** rng.uniform(-6, 0, grid.n_points), 0.0)
        indicator[np.argmax(grid.active)] = 1.0
        log_ind = np.zeros(grid.n_points)
        log_ind[grid.active] = np.log10(indicator[grid.active])
        field = ImagingField(grid, indicator, log_ind, np.zeros(grid.n_points),
                             np.zeros(grid.n_points, bool))
        write_imaging_csv(field, tmp_path / "img.csv")
        write_imaging_vtk(field, tmp_path / "img.vtk")
        write_cross_sections(field, tmp_path, "img")
        want = savetxt_oracle(field, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
        for name, data in want.items():
            assert (tmp_path / name).read_bytes() == data, name

    def test_negative_zero_box_origin_matches_the_csv(self, tmp_path):
        # A box whose low end is -0 prints that coordinate as 0 in both files.
        grid = build_sampling_grid(np.array([[-0.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]),
                                   0.5, 1.0)
        n = grid.n_points
        field = ImagingField(grid, np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n, bool))
        write_imaging_csv(field, tmp_path / "img.csv")
        write_imaging_vtk(field, tmp_path / "img.vtk")
        with open(tmp_path / "img.csv", newline="") as f:
            first = list(csv.reader(f))[1][:3]
        origin = next(line for line in (tmp_path / "img.vtk").read_text().splitlines()
                      if line.startswith("ORIGIN "))
        assert origin == "ORIGIN " + " ".join(first) == "ORIGIN 0 -2 -2"

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

    # The 6x12 payload pads 63 of its 2048 CRC lanes, the 5x7 one 34 of 1024.
    @pytest.mark.parametrize("grid", ["n_theta = 6\nn_phi = 12", "n_theta = 5\nn_phi = 7"],
                             ids=["6x12", "5x7"])
    def test_simulate_files_match_serial_writes(self, tmp_path, grid):
        # The clean and the noisy file are written on two threads; their
        # bytes are those of the public functions called one after another.
        cfg = tmp_path / "run.ini"
        cfg.write_text(FAST_CONFIG.replace("n_theta = 6\nn_phi = 12", grid))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        run = load_config(cfg)
        clean = assemble_nearfield(solve_modes(run.cavity_config()),
                                   build_sphere_grid(run.n_theta, run.n_phi, run.rho))
        noisy = add_noise(clean, NoiseSpec(run.noise_level, run.seed))
        for name, matrix in (("clean", clean), ("noisy", noisy)):
            write_nearfield(matrix, tmp_path / "serial" / name)
            assert (tmp_path / "run" / f"fast_{name}.nfem").read_bytes() == (
                tmp_path / "serial" / name).read_bytes()

    @pytest.mark.parametrize("failing", ["clean", "noisy", "clean noisy"])
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_simulate_write_failure_is_one_error_line(self, cfg_path, tmp_path, capsys,
                                                      monkeypatch, failing):
        # A failed write on either thread, or on both, ends in one error line
        # and exit code 2, with no traceback, and removes the output
        # directory the run created, the other thread's file with it.
        write = cli.write_nearfield

        def flaky(matrix, path):
            if Path(path).stem.split("_")[-1] in failing.split():
                raise OSError(f"{path}: no space left on device")
            write(matrix, path)

        monkeypatch.setattr(cli, "write_nearfield", flaky)
        out = tmp_path / "new" / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no space left" in err and "Traceback" not in err
        assert not (tmp_path / "new").exists()

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_invariant_failure_while_the_noise_is_drawn(self, tmp_path, capsys, monkeypatch):
        # The helper draws the noise while this thread synthesizes the data.
        # Here the draw is still running when an invariant fails (n_max = 3,
        # exit 4): the run waits for it, prints one error line and leaves no
        # output directory.
        drawing, reported = threading.Event(), threading.Event()
        real_factor, real_synthesize = cli.noise_factor, cli._synthesize
        seen = {}

        def slow_factor(shape, spec):
            drawing.set()
            reported.wait(60)
            seen["drawn"] = True
            return real_factor(shape, spec)

        def synthesize(cfg, modes):
            assert drawing.wait(60)
            return real_synthesize(cfg, modes)

        def noting_print(*args, **kwargs):
            if kwargs.get("file") is sys.stderr:
                seen["in_flight"] = "drawn" not in seen
                reported.set()
            print(*args, **kwargs)

        monkeypatch.setattr(cli, "noise_factor", slow_factor)
        monkeypatch.setattr(cli, "_synthesize", synthesize)
        monkeypatch.setattr(cli, "print", noting_print, raising=False)
        bad = tmp_path / "low_order.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.75\nn_max = 3"))
        out = tmp_path / "new" / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: interface residual") and err.count("\n") == 1
        assert seen == {"in_flight": True, "drawn": True}
        assert not (tmp_path / "new").exists()

    def test_failed_solve_draws_no_noise(self, cfg_path, tmp_path, capsys, monkeypatch):
        # simulate hands the noise draw to its helper only once the modes are
        # solved, so a solve that fails waits for no draw: one error line,
        # exit 2 and no output directory.
        calls = []
        monkeypatch.setattr(cli, "noise_factor", lambda *args: calls.append(args))

        def failing(config):
            raise InvalidArgumentError("singular transmission system at degree n=5, family TM")

        monkeypatch.setattr(cli, "solve_modes", failing)
        out = tmp_path / "new" / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: singular transmission system at degree n=5, family TM\n")
        assert calls == [] and not (tmp_path / "new").exists()

    def test_config_refused_at_load_draws_no_noise(self, tmp_path, capsys, monkeypatch):
        # An order past the cap is refused when the config is read, before
        # simulate hands the noise draw to its helper thread.
        calls = []
        for module in (cli, measurement):
            monkeypatch.setattr(module, "noise_factor", lambda *args: calls.append(args))
        bad = tmp_path / "past_cap.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.75\nn_max = 1000"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert "forward.n_max" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("writer", ["write_imaging_csv", "write_imaging_vtk"])
    def test_reconstruct_write_failure_leaves_no_directory(self, cfg_path, fast_data,
                                                           tmp_path, capsys, monkeypatch,
                                                           writer):
        # A writer that fails part way through its file, the first one or
        # the last: one error line, exit code 2, and no directory left.
        def partial(field, path, **_):
            Path(path).write_text("x,y,z\n0.0,")
            raise OSError(f"{path}: file too large")

        monkeypatch.setattr(cli, writer, partial)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(cfg_path), "--data", str(fast_data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "file too large" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_failed_write_keeps_an_existing_out(self, cfg_path, fast_data, tmp_path, capsys,
                                                monkeypatch, command):
        # An --out that existed before the run is never deleted, nor is what
        # it held.
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept")

        def failing(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "write_nearfield", failing)
        monkeypatch.setattr(cli, "write_imaging_csv", failing)
        args = [command, "--config", str(cfg_path), "--out", str(out)]
        if command == "reconstruct":
            args += ["--data", str(fast_data)]
        assert main(args) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert (out / "keep.txt").read_text() == "kept"

    def test_failed_overwrite_keeps_the_complete_file(self, cfg_path, fast_data, tmp_path):
        # A rerun into the same --out whose CSV write is cut short by the
        # file size limit exits 2 and leaves the earlier files whole, with
        # no temporary file beside them.
        out = tmp_path / "out"
        args = [sys.executable, "-m", "nfem.cli", "reconstruct", "--config", str(cfg_path),
                "--data", str(fast_data), "--out", str(out)]
        subprocess.run(args, env=_package_env(), check=True, capture_output=True)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before["fast_imaging.csv"]) > 20_000
        proc = subprocess.run(args, env=_package_env(), capture_output=True, text=True,
                              preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_FSIZE, (20_000, 20_000)))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_simulate_memory_stays_near_the_output(self, tmp_path, capsys):
        # At its peak simulate holds the clean matrix, the clean file's buffer
        # and CRC rows on the main thread, and the noisy matrix (the noise
        # draw, multiplied in place) and its file's buffer on the helper:
        # 4.4-4.8 times the matrix at 18x36, as the two threads interleave.
        # One more full copy would pass 5.
        cfg = tmp_path / "fine.ini"
        cfg.write_text(FAST_CONFIG.replace("n_theta = 6\nn_phi = 12", "n_theta = 18\nn_phi = 36"))
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * (2 * 18 * 36) ** 2 * 16

    def test_selfcheck_passes(self, cfg_path):
        assert main(["selfcheck", "--config", str(cfg_path)]) == 0

    def test_selfcheck_passes_for_far_probe_draw(self, tmp_path):
        # This seed draws the probe source at 1.035 rho, beyond where the
        # data series order converges; the source is pulled back inside.
        cfg = tmp_path / "far.ini"
        cfg.write_text(FAST_CONFIG.replace("seed = 7", "seed = 228819406"))
        assert main(["selfcheck", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("seed, radius", [(7, 0.122), (57120, 0.01), (228819406, 0.5)])
    def test_probe_source_stays_between_rho_over_100_and_rho_over_2(self, seed, radius):
        # Seed 7 draws 0.122 rho and keeps its bits; 57120 draws 0.0067 rho
        # and is pushed out, 228819406 draws 1.035 rho and is pulled in,
        # each along its own direction.
        draw = 0.3 * np.random.default_rng(seed).standard_normal(3)
        y = cli._probe_source(RunConfig(seed=seed))
        assert np.linalg.norm(y) == pytest.approx(radius, abs=5e-4)
        assert np.allclose(y / np.linalg.norm(y), draw / np.linalg.norm(draw), rtol=0, atol=1e-15)
        assert seed != 7 or np.array_equal(y, draw)

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
    def test_simulate_refuses_unconverged_data(self, tmp_path, capsys):
        # At n_max = 3 the series is far from converged: the interface
        # residual at the probe source is 5.1e-3.  Exit 4, one error line
        # with the check, its value and its limit, and no output directory.
        bad = tmp_path / "low_order.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.75\nn_max = 3"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: interface residual 5.1") and err.count("\n") == 1
        assert "limit 1e-06" in err
        assert not out.exists()

    def test_simulate_nan_invariant_fails(self, cfg_path, tmp_path, capsys,
                                          monkeypatch):
        # A NaN reciprocity defect or a NaN series tail on finite data fails
        # its check: exit 4, nothing written.
        for name, check in (("reciprocity_defect", "reciprocity defect"),
                            ("series_tail", "series convergence (order +5)")):
            with monkeypatch.context() as patch:
                patch.setattr(cli, name, lambda *args: float("nan"))
                out = tmp_path / name
                assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 4
            err = capsys.readouterr().err
            assert err.startswith(f"error: {check} nan") and err.count("\n") == 1
            assert not out.exists()

    SERIES = "series convergence (order +5)"

    @pytest.mark.parametrize("k, n_max, check", [
        pytest.param("0.75", 3, "interface residual", id="3"),
        pytest.param("0.75", 12, SERIES, id="12"),
        pytest.param("0.75", 20, SERIES, id="20"),
        pytest.param("0.75", 85, SERIES, id="85"),
        pytest.param("0.75", None, None, id="None"),
        pytest.param("4.4934094579", None, "eigenvalue margin", id="k=4.4934094579"),
        pytest.param("27.0310618214", None, "eigenvalue margin", id="k=27.0310618214"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulate_and_selfcheck_agree(self, tmp_path, capsys, k, n_max, check):
        # simulate writes data exactly when selfcheck passes them.  At n_max
        # = 12 and 20 the series tail fails, and at 85 it is NaN (R_n is
        # finite only to degree 87), while the data and the interface
        # residual are fine; None derives the order 34.  k = 4.4934094579 and
        # 27.0310618214 are Maxwell eigenvalues of the measurement ball, zeros
        # of j_1 and j_21: the data are sound, and the eigenvalue margin fails.
        cfg = tmp_path / "run.ini"
        order = "" if n_max is None else f"\nn_max = {n_max}"
        cfg.write_text(FAST_CONFIG.replace("k = 0.75", f"k = {k}{order}"))
        out = tmp_path / "out"
        simulated = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert (simulated == 0) == (main(["selfcheck", "--config", str(cfg)]) == 0)
        assert simulated == (0 if check is None else 4)
        if check:
            assert err.startswith(f"error: {check} ")
            assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_derived_order_past_cap_names_rho(self, tmp_path, capsys):
        # With no n_max, rho = 1.45 derives the series order 283, past the cap
        # of 200: the one error line blames measurement.rho, which the user
        # set, and gives the derived order and the cap.
        bad = tmp_path / "near_wall.ini"
        bad.write_text(FAST_CONFIG.replace("rho = 1.0", "rho = 1.45")
                       .replace("mask_radius = 1.0", "mask_radius = 1.45"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "measurement.rho" in err and "283" in err and "200" in err
        assert "n_max" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edits", [
        (("rho = 1.0", "rho = 1.4"), ("mask_radius = 1.0", "mask_radius = 1.4")),
        (("k = 0.75", "k = 1e-4"),),
        (("shells = 2.5 1.0 2.0", "shells = 2.5 1.0 1000"),),
    ], ids=["rho_near_wall", "tiny_wavenumber", "dense_shell"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulate_at_range_edges(self, tmp_path, capsys, edits):
        # Degree-sized factors that leave the double range: R_n at the
        # derived order 145, y_n at k = 1e-4, j_n in a shell of N = 1000.
        # Either finite data (exit 0) or one error line and no data (exit 3);
        # never a numpy warning, never a non-finite file.
        text = FAST_CONFIG
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "edge.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 3)
        if code == 0:
            for path in out.glob("*.nfem"):
                assert np.all(np.isfinite(read_nearfield(path)[0].entries))
        else:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert list(out.glob("*.nfem")) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulate_at_order_cap_is_one_error_line(self, tmp_path, capsys):
        # At n_max = 200, y_n overflows inside vswf_fields on the way to the
        # interface residual: still one error line and exit 3, no warning.
        bad = tmp_path / "cap.ini"
        bad.write_text(FAST_CONFIG.replace("k = 0.75", "k = 0.75\nn_max = 200"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.glob("*.nfem")) == []

    @pytest.mark.parametrize("n_max, step", [(197, "+3"), (200, None)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_selfcheck_convergence_stays_below_cap(self, tmp_path, capsys, n_max, step):
        # The reference order is n_max + 5 clipped to the cap; at the cap
        # there is none, which is a FAIL line naming the cap, never an error
        # about an order the user did not set.
        cfg = tmp_path / "cap.ini"
        cfg.write_text(FAST_CONFIG.replace("k = 0.75", f"k = 0.75\nn_max = {n_max}"))
        assert main(["selfcheck", "--config", str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert err == ""
        line = next(l for l in out.splitlines() if "series convergence" in l)
        assert line.startswith("[FAIL]")
        assert (f"order {step}" in line) if step else ("cap" in line and "200" in line)

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

    @pytest.mark.parametrize("command", ["reconstruct", "probe"])
    def test_small_wavenumber_mismatch_rejected(self, fast_data, tmp_path, capsys, command):
        # Below k = 1 the check is relative too: a file at k = 5e-13 does not
        # pass for a config at k = 1e-13.
        matrix, _ = read_nearfield(fast_data)
        far = tmp_path / "far.nfem"
        write_nearfield(dataclasses.replace(matrix, k=5e-13), far)
        cfg = tmp_path / "small.ini"
        cfg.write_text(FAST_CONFIG.replace("k = 0.75", "k = 1e-13"))
        out = tmp_path / "out"
        extra = {"reconstruct": ["--out", str(out)], "probe": ["--z", "1.6,0,0"]}[command]
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--data", str(far), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "k=5e-13" in captured.err and "k=1e-13" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "probe"])
    def test_data_within_tolerance_images_at_the_files_k(self, cfg_path, fast_data,
                                                          tmp_path, monkeypatch, command):
        # A file whose k is 4e-13 relative off the config's passes the check,
        # and every right-hand side is formed at the file's k.
        matrix, _ = read_nearfield(fast_data)
        k_file = 0.75 * (1 + 4e-13)
        near = tmp_path / "near.nfem"
        write_nearfield(dataclasses.replace(matrix, k=k_file), near)
        seen = []

        def spy(z, h_pol, grid, k, real=lsm.rhs_matrix):
            seen.append(k)
            return real(z, h_pol, grid, k)

        monkeypatch.setattr(lsm, "rhs_matrix", spy)  # the sweep's binding
        monkeypatch.setattr(cli, "rhs_matrix", spy)  # probe's
        extra = {"reconstruct": ["--out", str(tmp_path / "out")],
                 "probe": ["--z", "1.6,0,0"]}[command]
        assert main([command, "--config", str(cfg_path), "--data", str(near), *extra]) == 0
        assert seen and set(seen) == {k_file}

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

    # Rejected configs: (command, the key the error line must name, edits),
    # one boundary value for each rule RunConfig.validate checks itself or
    # through the constructor that owns it.
    REJECTED = {
        # validate's own rules
        "rho_at_cavity_radius": ("simulate", "measurement.rho",
                                 [("rho = 1.0", "rho = 1.5"),
                                  ("mask_radius = 1.0", "mask_radius = 1.5")]),
        "rho_below_floor": ("simulate", "measurement.rho", [("rho = 1.0", "rho = 9.99e-10")]),
        "mask_radius": ("reconstruct", "lsm.mask_radius",
                        [("mask_radius = 1.0", "mask_radius = 0.9999999999999999")]),
        "polarization_small": ("reconstruct", "lsm.polarization",
                               [(POLARIZATION, "polarization = 9.99e-101 0 0")]),
        "polarization_large": ("reconstruct", "lsm.polarization",
                               [(POLARIZATION, "polarization = 1.01e100 0 0")]),
        "alpha_mode": ("reconstruct", "lsm.alpha_mode",
                       [("alpha_mode = morozov", "alpha_mode = tikhonov")]),
        "alpha_fixed": ("reconstruct", "lsm.alpha_fixed",
                        [("alpha_mode = morozov", "alpha_mode = fixed\nalpha_fixed = nan")]),
        "alpha_fixed_zero": ("reconstruct", "lsm.alpha_fixed",
                             [("alpha_mode = morozov", "alpha_mode = fixed\nalpha_fixed = 0")]),
        "box_order": ("reconstruct", "lsm.box", [("box = -2 2 -2 2 -2 2", "box = -2 2 2 2 -2 2")]),
        "box_coordinate": ("reconstruct", "lsm.box",
                           [("box = -2 2 -2 2 -2 2", "box = 1e150 2e150 1e150 2e150 1e150 2e150"),
                            ("spacing = 0.5", "spacing = 1e150")]),
        "prefix": ("simulate", "output.prefix", [("prefix = fast", "prefix = out/fast")]),
        "formats": ("reconstruct", "output.formats", [("formats = csv,vtk", "formats = csv,png")]),
        # build_sphere_grid
        "n_theta": ("simulate", "measurement.n_theta", [("n_theta = 6", "n_theta = 1")]),
        "n_phi": ("simulate", "measurement.n_phi", [("n_phi = 12", "n_phi = 3")]),
        "grid_cap": ("simulate", "measurement.n_phi",
                     [("n_theta = 6", "n_theta = 17"), ("n_phi = 12", "n_phi = 241")]),
        "grid_radius": ("simulate", "measurement.rho",
                        [("cavity_radius = 1.5", "cavity_radius = 1e155"),
                         ("shells = 2.5 1.0 2.0", "shells = 2e155 1.0 2.0"),
                         ("k = 0.75", "k = 0.75\nn_max = 10"), ("rho = 1.0", "rho = 1e154"),
                         ("mask_radius = 1.0", "mask_radius = 1e154")]),
        # NoiseSpec
        "noise_level": ("simulate", "measurement.noise_level",
                        [("noise_level = 0.02", "noise_level = -5e-324")]),
        # lattice_shape
        "spacing": ("reconstruct", "lsm.spacing", [("spacing = 0.5", "spacing = 0")]),
        "lattice_cap": ("reconstruct", "lsm.spacing",
                        [("box = -2 2 -2 2 -2 2", "box = 0 10 0 909090 0 0.1"),
                         ("spacing = 0.5", "spacing = 1")]),
        # RunConfig.cavity_config, LayeredCavityConfig and the series order
        "n_max_zero": ("simulate", "forward.n_max", [("k = 0.75", "k = 0.75\nn_max = 0")]),
        **{f"n_max_201-{command}": (command, "forward.n_max",
                                    [("k = 0.75", "k = 0.75\nn_max = 201")])
           for command in ("simulate", "reconstruct", "probe", "selfcheck")},
        "shell_order": ("simulate", "forward.shells",
                        [("shells = 2.5 1.0 2.0", "shells = 1.5 1.0 2.0")]),
        "wavenumber": ("simulate", "forward.k", [("k = 0.75", "k = 0")]),
        "overflowing_shell": ("simulate", "forward.shells",
                              [("shells = 2.5 1.0 2.0", "shells = 2.5 1e-300 1e300")]),
        # k sqrt(N/A) = k sqrt(1e-600) underflows to 0.
        **{f"underflowing_shell-{command}": (command, "forward.shells",
                                             [("shells = 2.5 1.0 2.0",
                                               "shells = 2.5 1e300 1e-300")])
           for command in ("simulate", "reconstruct", "probe", "selfcheck")},
        "overflowing_order": ("selfcheck", "forward.k",
                              [("cavity_radius = 1.5", "cavity_radius = 1e200"),
                               ("shells = 2.5 1.0 2.0", "shells = 2e200 1.0 1.0"),
                               ("k = 0.75", "k = 1e200")]),
        "rho_one_ulp": ("simulate", "forward.cavity_radius",
                        [("cavity_radius = 1.5", "cavity_radius = 1e10"),
                         ("shells = 2.5 1.0 2.0", "shells = 2e10 1.0 2.0"),
                         ("rho = 1.0", "rho = 9999999999.999998"),
                         ("mask_radius = 1.0", "mask_radius = 1e10")]),
        # The data series order for rho = 1.45 is 283, past the wavefunction
        # order cap of 200, so the config is refused naming measurement.rho.
        "degenerate": ("simulate", "measurement.rho",
                       [("rho = 1.0", "rho = 1.45"), ("mask_radius = 1.0", "mask_radius = 1.45")]),
        # Not a config rule: the sweep finds every sampling point masked.
        "no_active_points": ("reconstruct", "no active points",
                             [("box = -2 2 -2 2 -2 2", "box = -0.5 0.5 -0.5 0.5 -0.5 0.5")]),
    }

    @pytest.mark.parametrize("command, where, edits", REJECTED.values(), ids=REJECTED.keys())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejected_config_exit_code(self, fast_data, tmp_path, capsys, command, where,
                                       edits):
        # Configs the parser reads but the run cannot honour end in one
        # error line naming the key and exit code 2: never a traceback, a
        # numpy warning, a finished run or an output directory.
        text = FAST_CONFIG
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        out = tmp_path / "new"
        extra = {"simulate": ["--out", str(out)],
                 "reconstruct": ["--data", str(fast_data), "--out", str(out)],
                 "probe": ["--data", str(fast_data), "--z", "1.6,0,0"],
                 "selfcheck": []}[command]
        capsys.readouterr()
        assert main([command, "--config", str(bad), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert not out.exists()

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
        ("simulate", "measurement.n_theta", "-1"),
        ("simulate", "forward.shells", "2.5 0 2.0"),
        ("simulate", "forward.shells", "2.5 1.0 0"),
        ("simulate", "forward.shells", "0 1.0 2.0"),
        ("reconstruct", "lsm.box", "-2 2 -2 2 -2"),
    ], ids=["seed_negative", "seed_2_64", "box_inf", "rho_nan", "spacing_inf",
            "shell_nan", "polarization_nan", "noise_inf", "k_nan", "count_negative",
            "shell_A_zero", "shell_N_zero", "shell_radius_zero", "box_five_numbers"])
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
        # An order past the wavefunction order cap of 200 is refused when the
        # config is read, naming forward.n_max, before anything is written.
        ("simulate", ("k = 0.75", "k = 0.75\nn_max = 1000"), 2),
        ("simulate", ("k = 0.75", "k = 0.75\nn_max = 90"), 3),
        ("reconstruct", ("polarization = 0.5773502691896258 -0.5773502691896258 "
                         "0.5773502691896258", "polarization = 0 0 0"), 2),
    ], ids=["order_past_cap", "non_finite_data", "zero_rhs"])
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

    @pytest.mark.parametrize("z", ["1.6,0,nan", "inf,0,0", "1e200,0,0"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_probe_refuses_point_out_of_range(self, cfg_path, fast_data, capsys, z):
        # A non-finite point, or one so far out that |z|^2 overflows, is
        # refused naming --z, before the Green kernel turns it into NaN.
        assert main(["probe", "--config", str(cfg_path), "--data", str(fast_data),
                     "--z", z]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --z ") and err.count("\n") == 1

    @pytest.mark.parametrize("box, spacing, message", [
        ("-1e200 1e200 -3 3 -3 3", "0.5",
         "lsm.box and lsm.spacing: the sampling lattice would have 6.76e+202 points"),
        ("-1e6 1e6 -3 3 -3 3", "0.5",
         "lsm.box and lsm.spacing: the sampling lattice would have 6.76e+08 points"),
        ("1e200 2e200 1e200 2e200 1e200 2e200", "2e199",
         "lsm.box entries must be below 1e+150 in magnitude"),
    ], ids=["huge_span", "large_span", "far_box"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sampling_lattice_refused(self, fast_data, tmp_path, capsys, box, spacing,
                                      message):
        # Counted before anything is allocated: no traceback, no MemoryError.
        bad = tmp_path / "bad.ini"
        bad.write_text(FAST_CONFIG.replace("box = -2 2 -2 2 -2 2", f"box = {box}")
                       .replace("spacing = 0.5", f"spacing = {spacing}"))
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(bad), "--data", str(fast_data),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["1e-100", "1e100"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_polarization_at_its_bounds_images(self, fast_data, tmp_path, scale):
        # The smallest and largest polarization lsm.polarization accepts:
        # the residual check, the image and the probe run without a warning.
        cfg = tmp_path / "pol.ini"
        cfg.write_text(re.sub(r"^polarization = .*$", f"polarization = {scale} 0 0",
                              FAST_CONFIG, flags=re.M))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["reconstruct", "--config", str(cfg), "--data", str(fast_data),
                     "--out", str(out)]) == 0
        assert np.all(np.isfinite(read_vtk_scalars(out / "fast_imaging.vtk")))
        assert main(["probe", "--config", str(cfg), "--data", str(fast_data),
                     "--z", "1.6,0,0"]) == 0

    def test_probe_masked_point(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        assert main(
            ["probe", "--data", str(out / "fast_noisy.nfem"),
             "--config", str(cfg_path), "--z", "0.1,0,0"]
        ) == 0
        assert "masked" in capsys.readouterr().out

    def test_probe_masks_what_the_lattice_masks(self, cfg_path, fast_data, capsys):
        # On both sides of the guard band past mask_radius = 1, probe calls a
        # point masked exactly where the one-point lattice there is inactive.
        edge = 1.0 + lsm.SPHERE_GUARD
        seen = set()
        for x in (1.0 + 0.5e-9, np.nextafter(edge, 0), edge, np.nextafter(edge, 2),
                  1.0 + 2e-9, -1.0 - 0.5e-9, -1.0 - 2e-9):
            active = build_sampling_grid(np.array([[x, x], [0, 0], [0, 0]]), 1.0,
                                         1.0).active
            assert main(["probe", "--data", str(fast_data), "--config", str(cfg_path),
                         f"--z={float(x)!r},0,0"]) == 0
            assert ("masked" in capsys.readouterr().out) == (not active[0]), x
            seen.add(bool(active[0]))
        assert seen == {False, True}

    def test_init_prints_template(self, capsys):
        assert main(["init"]) == 0
        assert "[forward]" in capsys.readouterr().out


def _package_env(**extra):
    """The environment, with this package importable in a child interpreter."""
    paths = [str(Path(nfem.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


def test_cli_import_leaves_out_scipy():
    # Every CLI run pays for what nfem.cli imports, and the package needs no
    # scipy module: the radial functions are its own.
    code = ("import sys, nfem.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=_package_env()).returncode == 0


def test_every_traced_layer_keeps_a_binding():
    # The benchmark's tracer wraps each layer in the namespaces its callers
    # look it up in.  A refactor that removes every binding of one layer
    # fails here, not only in the benchmark's smoke run.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (f"import sys; sys.path.insert(0, {str(perfbench)!r}); import tracer; "
            "recorder = tracer.Recorder(); recorder.install(); "
            "print(tracer.absent_layers(recorder.missing))")
    proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# Offsets into an NFEM1 file: the noisy flag and noise level in the header,
# and the (theta, phi, weight) columns of node 5's row in the node table.
FLAG_AT = len(MAGIC) + struct.calcsize("<ddI")
LEVEL_AT = FLAG_AT + 1
NODE_AT = len(MAGIC) + HEADER.size + 5 * 24


@pytest.mark.parametrize("command", ["reconstruct", "probe"])
@pytest.mark.parametrize("offset, fmt, value", [
    (NODE_AT + 16, "<d", np.nan), (NODE_AT + 16, "<d", -1.0), (NODE_AT + 16, "<d", 0.0),
    (NODE_AT + 16, "<d", np.inf), (NODE_AT, "<d", np.inf), (NODE_AT, "<d", -0.1),
    (NODE_AT, "<d", 3.2), (NODE_AT + 8, "<d", np.nan), (NODE_AT + 8, "<d", -np.inf),
    (LEVEL_AT, "<d", np.nan), (LEVEL_AT, "<d", np.inf), (LEVEL_AT, "<d", -0.1),
    (LEVEL_AT, "<d", 0.0), (FLAG_AT, "<B", 2), (FLAG_AT, "<B", 0),
], ids=["weight_nan", "weight_negative", "weight_zero", "weight_inf", "theta_inf",
        "theta_negative", "theta_past_pi", "phi_nan", "phi_inf", "level_nan", "level_inf",
        "level_negative", "level_zero", "noisy_flag_2", "noisy_flag_0"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reader_refuses_file_defects(cfg_path, fast_data, tmp_path, capsys, command,
                                     offset, fmt, value):
    # Each edit, with the CRC re-packed, once ended in a traceback, a flood of
    # warnings, an error that blamed the config, or silent use.
    blob = bytearray(fast_data.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    struct.pack_into("<Q", blob, len(blob) - 8, crc64(bytes(blob[len(MAGIC):-8])))
    bad = tmp_path / "bad.nfem"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "out"
    extra = {"reconstruct": ["--out", str(out)], "probe": ["--z", "1.6,0,0"]}
    assert main([command, "--config", str(cfg_path), "--data", str(bad),
                 *extra[command]]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("level", [1e155, 1e300, 1.7e308])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_finite_noise_level_images_flagged(cfg_path, fast_data, tmp_path, capsys, level):
    # A header noise level so large that h^2 overflows: no Morozov root lies
    # in the bracket, so every point is clamped to sigma_1^2 and flagged,
    # with no warning on the way.
    blob = bytearray(fast_data.read_bytes())
    struct.pack_into("<d", blob, LEVEL_AT, level)
    struct.pack_into("<Q", blob, len(blob) - 8, crc64(bytes(blob[len(MAGIC):-8])))
    data = tmp_path / "loud.nfem"
    data.write_bytes(bytes(blob))
    assert main(["reconstruct", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    n = re.search(r"swept (\d+) active", out.out).group(1)
    assert f"alpha (morozov): {n} of {n} active points flagged" in out.out
    assert main(["probe", "--config", str(cfg_path), "--data", str(data),
                 "--z", "1.6,0,0"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and "(flagged: bracket endpoint" in out.out


def test_reconstruct_into_closed_pipe(cfg_path, fast_data, tmp_path):
    # `nfem reconstruct ... | head -1`: the reader of stdout is gone before
    # the summary is printed.  The files are written all the same, and the
    # run ends quietly with the documented code instead of a traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "out"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nfem.cli", "reconstruct", "--config", str(cfg_path),
             "--data", str(fast_data), "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=_package_env())
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE
    assert proc.stderr == b""
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fast_imaging.csv", "fast_imaging.vtk", "fast_slice_xy.csv",
                     "fast_slice_xz.csv", "fast_slice_yz.csv"]
    assert len(read_vtk_scalars(out / "fast_imaging.vtk")) == 9**3


@pytest.mark.parametrize("command, key, value", [
    # The forward section only simulate and selfcheck solve: at these rho,
    # the probe source would sit within 1e-12 of the origin, and at 1e-200
    # (rho / a)^2 underflows too.
    *[(command, "rho", value) for value in ("1e-200", "1e-12")
      for command in ("simulate", "selfcheck")],
    *[(command, key, value)
      for key, value in [("cavity_radius", "1e200"), ("polarization", "0 0 0"),
                         ("polarization", "1e-300 0 0"), ("polarization", "1e300 0 0"),
                         ("n_phi", "20000")]
      for command in ("simulate", "reconstruct", "probe", "selfcheck")],
])
def test_extreme_value_is_one_stderr_line(fast_data, tmp_path, command, key, value):
    # A child interpreter that shows every warning, so a warning on the way
    # to the error line shows as a second stderr line.
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", FAST_CONFIG, flags=re.M)
    assert count == 1
    cfg = tmp_path / "extreme.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    extra = {"simulate": ["--out", str(out)],
             "reconstruct": ["--data", str(fast_data), "--out", str(out)],
             "probe": ["--data", str(fast_data), "--z", "1.6,0,0"],
             "selfcheck": []}[command]
    proc = subprocess.run([sys.executable, "-m", "nfem.cli", command, "--config", str(cfg),
                           *extra], capture_output=True, text=True,
                          env=_package_env(PYTHONWARNINGS="always"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    if key == "rho":
        # Refused by its floor, not by the probe source it would place.
        assert "measurement.rho" in proc.stderr and "dipole" not in proc.stderr
    if key == "n_phi":
        # Refused by the grid cap when the config is read, long before the
        # assembly would ask for a 920 GB matrix.
        assert all(word in proc.stderr
                   for word in ("measurement.n_theta", "measurement.n_phi", "120,000"))
    assert not out.exists()


def test_image_agrees_across_blas_thread_counts(tmp_path):
    # LAPACK's SVD rounds differently with one and two OpenBLAS threads, so
    # the image moves in the last bits; it must stay within 1e-12 decades.
    cfg = tmp_path / "ref.ini"
    cfg.write_text(FAST_CONFIG.replace("n_theta = 6", "n_theta = 12")
                   .replace("n_phi = 12", "n_phi = 24"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    logs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        subprocess.run([sys.executable, "-m", "nfem.cli", "reconstruct", "--config", str(cfg),
                        "--data", str(tmp_path / "fast_noisy.nfem"), "--out", str(out)],
                       env=_package_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True)
        logs.append(np.loadtxt(out / "fast_imaging.csv", delimiter=",", skiprows=1,
                               usecols=4))
    assert np.max(np.abs(logs[0] - logs[1])) <= 1e-12


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def run_configs(draw):
    """A config on a tiny grid: any wavenumber, contrast and measurement
    radius the parser accepts, including a Maxwell eigenvalue of the unit
    measurement ball, a derived or explicit series order, and either alpha."""
    rho = 1.5 * draw(st.one_of(st.just(2 / 3), st.floats(1e-6, 0.99)))
    radius, shells = 1.5, []
    for width, a, n in draw(st.lists(st.tuples(st.floats(0.05, 1.0), log_uniform(1e-3, 1e3),
                                               log_uniform(1e-3, 1e3)), max_size=2)):
        radius += width
        shells.append(f"{radius!r} {a!r} {n!r}")
    n_max = draw(st.one_of(st.none(), st.integers(1, ORDER_CAP)))
    return f"""\
[forward]
cavity_radius = 1.5
shells = {" ; ".join(shells)}
k = {draw(st.one_of(st.just(4.4934094579), log_uniform(1e-4, 5.0)))!r}
{"" if n_max is None else f"n_max = {n_max}"}
[measurement]
rho = {rho!r}
n_theta = {draw(st.integers(2, 4))}
n_phi = {draw(st.integers(4, 8))}
noise_level = {draw(st.one_of(st.just(0.0), log_uniform(1e-6, 1e3)))!r}
[lsm]
box = -2 2 -2 2 -2 2
spacing = {draw(st.floats(0.75, 1.5))!r}
mask_radius = {rho!r}
alpha_mode = {draw(st.sampled_from(["morozov", "fixed"]))}
alpha_fixed = {draw(log_uniform(1e-12, 1e2))!r}
[output]
prefix = prop
"""


def run_under_contract(argv):
    """Run one command in process and hold what every run must meet: a
    documented exit code, at most one stderr line, an `error:` one, no
    RuntimeWarning, and no NaN or inf printed on success.  Warnings are
    recorded, not raised, so the run reaches its exit code and a warning
    fails the contract with its message."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv[0], err)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not warned, (argv[0], warned)
    assert code or not re.search(r"\b(nan|inf)\b", out.getvalue(), re.I), out.getvalue()
    return code


def written_numbers_are_finite(out_dir):
    for path in Path(out_dir).iterdir():
        if path.suffix == ".nfem":
            values = read_nearfield(path)[0].entries
        elif path.suffix == ".csv":
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        elif path.suffix == ".vtk":
            values = read_vtk_scalars(path)
        else:
            continue
        if not np.all(np.isfinite(values)):
            return False
    return True


@settings(max_examples=25, deadline=None)
@given(text=run_configs())
def test_cli_contract_holds_on_random_configs(text):
    # simulate -> selfcheck -> reconstruct -> probe: every run exits with a
    # documented code, says at most one error line, warns nothing, and
    # writes or prints only finite numbers when it succeeds.  When simulate
    # writes data, selfcheck passes them, and a failed simulate leaves no
    # directory.
    with tempfile.TemporaryDirectory() as tmp:
        cfg, data, image = f"{tmp}/run.ini", Path(tmp, "data"), Path(tmp, "image")
        Path(cfg).write_text(text)
        simulated = run_under_contract(["simulate", "--config", cfg, "--out", str(data)])
        checked = run_under_contract(["selfcheck", "--config", cfg])
        if simulated:
            assert not data.exists()
            return
        assert checked == 0
        assert written_numbers_are_finite(data)
        noisy = data / "prop_noisy.nfem"
        source = str(noisy if noisy.exists() else data / "prop_clean.nfem")
        if run_under_contract(["reconstruct", "--config", cfg, "--data", source,
                               "--out", str(image)]) == 0:
            assert written_numbers_are_finite(image)
        run_under_contract(["probe", "--config", cfg, "--data", source, "--z", "1.6,0,0"])
