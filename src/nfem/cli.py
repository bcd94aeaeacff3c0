"""Command-line entry point.

Subcommands
    simulate     synthesize near-field data files from a config
    reconstruct  run the sampling sweep on a data file and write CSV/VTK
    selfcheck    run internal consistency checks for a config
    probe        inspect the regularized solve at a single sampling point

Exit codes: 0 success, 2 configuration error (including arguments the
numerics reject, degenerate transmission systems, and files or directories
that cannot be read or written), 3 data-format error (including all-zero
and non-finite data), 4 a failed invariant check of the synthesized data:
reciprocity, interface residual, series tail or eigenvalue margin
(`selfcheck`, or `simulate` before writing), 141 standard output closed by
its reader before the run finished printing (its files are written).  A
failed run leaves no output directory it created.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, default_config_text, load_config
from .errors import ConfigError, DataFormatError, InvalidArgumentError
from .forward import (
    DATA_SERIES_TOL,
    interface_residual,
    maxwell_eigenvalue_margin,
    series_tail,
    solve_modes,
    tail_order,
)
from .lsm import (
    MAX_COORDINATE,
    build_sampling_grid,
    mask_active,
    regularized_solve,
    rhs_matrix,
    run_imaging,
    single_layer_eval,
    svd_factorize,
)
from .measurement import (
    NearFieldMatrix,
    NoiseSpec,
    add_noise,
    assemble_nearfield,
    block_column,
    build_sphere_grid,
    noise_factor,
    read_nearfield,
    reciprocity_defect,
    write_manifest,
    write_nearfield,
)
from .output import (
    format_log_indicator,
    write_cross_sections,
    write_imaging_csv,
    write_imaging_vtk,
)
from .specialfun import ORDER_CAP

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4
# What a shell reports for a process that SIGPIPE ended (128 + 13).
EXIT_PIPE = 141

# Margin below which the wavenumber counts as sitting on a Maxwell
# eigenvalue of the measurement ball, where the sampling method degenerates.
MARGIN_FLOOR = 1e-3

# Limits of the invariants of synthesized data, which `simulate` enforces
# before it writes and `selfcheck` reports: the reciprocity defect relative
# to the largest entry, and the interface residual at the probe source.
RECIPROCITY_LIMIT = 1e-8
RESIDUAL_LIMIT = 1e-6


def _fixed_alpha(cfg: RunConfig) -> float | None:
    """The configured alpha in fixed mode; None selects the Morozov root."""
    return cfg.alpha_fixed if cfg.alpha_mode == "fixed" else None


def _probe_source(cfg: RunConfig) -> np.ndarray:
    """Seeded dipole position for the interface-residual check.

    Draws beyond half the measurement radius are pulled back onto that
    radius: the data series order is sized for sources well inside the
    measurement sphere, and a source near or past it would not converge.
    Draws inside rho/100 are pushed out to it, which keeps the source off
    the expansion center for every rho the config accepts.
    """
    y = cfg.rho * 0.3 * np.random.default_rng(cfg.seed).standard_normal(3)
    r = np.linalg.norm(y)
    return y * (np.clip(r, 0.01 * cfg.rho, 0.5 * cfg.rho) / r)


def _synthesize(cfg: RunConfig, modes) -> tuple:
    """Clean data from the modes solved for the run's config and the checks
    made on it: (clean matrix, seconds spent in the assembly, the
    ``_invariants`` table)."""
    config = modes.config
    grid = build_sphere_grid(cfg.n_theta, cfg.n_phi, cfg.rho)
    t0 = time.perf_counter()
    clean = assemble_nearfield(modes, grid)
    elapsed = time.perf_counter() - t0
    residual = interface_residual(modes, _probe_source(cfg), np.asarray(cfg.polarization))
    scale = max(float(np.max(np.abs(block_column(clean)))), 1e-300)
    defect = reciprocity_defect(clean) / scale
    tail = series_tail(config, cfg.rho) / scale
    margin = maxwell_eigenvalue_margin(cfg.k, cfg.rho)
    table = _invariants(config.n_max, defect, residual, tail, margin)
    return clean, elapsed, table


def _invariants(n_max: int, defect: float, residual: float, tail: float,
                margin: float) -> tuple:
    """(passed, check, reading, what a failure means) for each invariant of
    the synthesized data: the reciprocity defect and the series tail
    relative to the largest entry, and the interface residual at the probe
    source, each below its limit; and the eigenvalue margin of the
    measurement ball, above its floor.  Each verdict is a comparison that
    NaN fails."""
    step = tail_order(n_max) - n_max
    series = (f"series convergence (order +{step})" if step else
              f"series convergence (n_max = {n_max} is the order cap {ORDER_CAP})")
    limits = (
        ("reciprocity defect", defect, RECIPROCITY_LIMIT,
         "near-field matrix is not reciprocity-symmetric"),
        ("interface residual", residual, RESIDUAL_LIMIT,
         "transmission conditions violated beyond tolerance"),
        (series, tail, DATA_SERIES_TOL, "near-field matrix not converged in series order"),
    )
    return tuple((value < limit, check, f"{value:.3e} (limit {limit:.0e})", failure)
                 for check, value, limit, failure in limits) + (
        (margin > MARGIN_FLOOR, "eigenvalue margin of measurement ball",
         f"{margin:.6f} (floor {MARGIN_FLOOR})", "wavenumber sits on a Maxwell eigenvalue"),
    )


@contextlib.contextmanager
def _removed_on_failure(out: Path):
    """If the block raises, removes the outermost directory of ``out`` that
    did not exist when it began, then re-raises: an existing ``out`` stays."""
    missing = [path for path in (out, *out.parents) if not path.exists()]
    try:
        yield
    except BaseException:
        if missing:
            shutil.rmtree(missing[-1], ignore_errors=True)
        raise


def _simulate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    noise = NoiseSpec(cfg.noise_level, cfg.seed)
    paths = [out / f"{cfg.prefix}_clean.nfem"]
    # The noise depends on the config alone, so once the modes are solved a
    # helper thread draws it while this one assembles the data: a failed
    # solve waits for no draw.  Every check runs before the first file is
    # written: finiteness (a data error), then the invariants.  Then the
    # helper multiplies the draw in place into the noisy matrix and writes the
    # noisy file while this thread writes the clean one; run back to back on
    # one core, the two halves made `fine_simulate` slower and its medians
    # spread wider.  Leaving the block waits for the helper, so a failed run's
    # directory goes only after both writes have stopped; a failed noisy
    # write raises at `result()`.
    with _removed_on_failure(out), ThreadPoolExecutor(max_workers=1) as helper:
        t0 = time.perf_counter()
        modes = solve_modes(cfg.cavity_config())
        solved = time.perf_counter() - t0
        if cfg.noise_level > 0:
            paths.append(out / f"{cfg.prefix}_noisy.nfem")
            size = 2 * cfg.n_theta * cfg.n_phi
            drawn = helper.submit(noise_factor, (size, size), noise)
        clean, assembled, invariants = _synthesize(cfg, modes)
        if not np.all(np.isfinite(block_column(clean))):
            raise DataFormatError(f"{paths[0]}: refusing to write non-finite matrix entries")
        for passed, check, reading, failure in invariants:
            if not passed:
                print(f"error: {check} {reading}: {failure}; no file written", file=sys.stderr)
                return EXIT_INVARIANT
        if cfg.noise_level > 0:
            noisy = helper.submit(lambda: write_nearfield(
                add_noise(clean, noise, drawn.result()), paths[1]))
        write_nearfield(clean, paths[0])
        if cfg.noise_level > 0:
            noisy.result()
        write_manifest(
            out / f"{cfg.prefix}_manifest.txt",
            {
                "tool": f"nfem {__version__}",
                "k": cfg.k,
                "cavity_radius": cfg.cavity_radius,
                "shells": ";".join(f"{s.outer_radius} {s.A} {s.N}" for s in cfg.shells),
                "n_max": modes.config.n_max,
                "rho": cfg.rho,
                "n_theta": cfg.n_theta,
                "n_phi": cfg.n_phi,
                "noise_level": cfg.noise_level,
                "seed": cfg.seed,
                "files": ";".join(p.name for p in paths),
            },
        )
    print(f"assembled {clean.entries.shape[0]}x{clean.entries.shape[1]} "
          f"near-field matrix in {solved + assembled:.2f} s (n_max={modes.config.n_max})")
    for _, check, reading, _ in invariants:
        print(f"{check}: {reading}")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _load_data(args) -> tuple[RunConfig, NearFieldMatrix]:
    """The run's config and data file, whose wavenumbers may differ by at
    most 1e-12 times the config's k; the run images at the file's."""
    cfg = load_config(args.config)
    matrix, _ = read_nearfield(args.data)
    if abs(matrix.k - cfg.k) > 1e-12 * cfg.k:
        raise ConfigError(
            f"wavenumber mismatch: data file has k={matrix.k}, config has k={cfg.k}"
        )
    return cfg, matrix


def _reconstruct(args) -> int:
    cfg, matrix = _load_data(args)
    out = Path(args.out)
    grid = build_sampling_grid(cfg.box, cfg.spacing, cfg.mask_radius)
    t0 = time.perf_counter()
    field = run_imaging(matrix, grid, np.asarray(cfg.polarization), alpha=_fixed_alpha(cfg))
    elapsed = time.perf_counter() - t0
    written = []
    with _removed_on_failure(out):
        out.mkdir(parents=True, exist_ok=True)
        # The CSV and the VTK file print the same log10 column.
        log_text = format_log_indicator(field)
        if "csv" in cfg.formats:
            csv_path = out / f"{cfg.prefix}_imaging.csv"
            write_imaging_csv(field, csv_path, log_text=log_text)
            written.append(csv_path)
            written.extend(Path(p) for p in write_cross_sections(field, out, cfg.prefix))
        if "vtk" in cfg.formats:
            vtk_path = out / f"{cfg.prefix}_imaging.vtk"
            write_imaging_vtk(field, vtk_path, log_text=log_text)
            written.append(vtk_path)
    # The summary comes after the files, so a reader of stdout that goes
    # away early loses only these lines.
    active = grid.active
    lo = float(np.min(field.log_indicator[active]))
    hi = float(np.max(field.log_indicator[active]))
    alphas = field.alpha[active]
    print(f"swept {int(np.sum(active))} active sampling points in {elapsed:.1f} s")
    print(f"log10 indicator range over active points: [{lo:.3f}, {hi:.3f}]")
    print(f"alpha ({cfg.alpha_mode}): {int(np.sum(field.flagged))} of "
          f"{alphas.size} active points flagged; min/median/max "
          f"{np.min(alphas):.3e} / {np.median(alphas):.3e} / {np.max(alphas):.3e}")
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def _selfcheck(args) -> int:
    cfg = load_config(args.config)
    failures = []
    *_, invariants = _synthesize(cfg, solve_modes(cfg.cavity_config()))
    for passed, check, reading, failure in invariants:
        print(f"[{'PASS' if passed else 'FAIL'}] {check}: {reading}")
        if not passed:
            failures.append(failure)

    if failures:
        print("selfcheck FAILED: " + "; ".join(failures))
        return EXIT_INVARIANT
    print("selfcheck passed")
    return EXIT_OK


def _probe(args) -> int:
    cfg, matrix = _load_data(args)
    try:
        z = np.array([float(v) for v in args.z.split(",")])
        if z.shape != (3,):
            raise ValueError("need exactly three components")
    except ValueError as exc:
        raise ConfigError(f"--z must be X,Y,Z: {exc}") from exc
    if not np.all(np.abs(z) < MAX_COORDINATE):
        raise ConfigError(f"--z must be finite and below {MAX_COORDINATE:g} in magnitude, "
                          f"got {args.z}")

    if not mask_active(z, cfg.mask_radius):
        print(f"point {z.tolist()} lies inside the measurement ball "
              f"(|z| <= {cfg.mask_radius}); the indicator is masked there")
        return EXIT_OK

    svd = svd_factorize(matrix)
    b = rhs_matrix(z[None], np.asarray(cfg.polarization), matrix.grid, matrix.k)
    sol = regularized_solve(svd, b, matrix.noise_level, _fixed_alpha(cfg), want_g=True)
    print(f"sampling point: {z.tolist()}")
    print(f"regularization alpha: {sol.alpha[0]:.6e}"
          + ("  (flagged: bracket endpoint or unconverged)" if sol.flagged[0] else ""))
    print(f"discrepancy ||A g - b||_w: {sol.discrepancy[0]:.6e}")
    print(f"density norm ||g||_w: {sol.g_norm[0]:.6e}")
    print(f"indicator 1/||g||_w: {1.0 / sol.g_norm[0]:.6e}")
    # Herglotz-style sanity readout: the reconstructed single layer potential
    # along a short outward ray from the sampling point.
    direction = z / np.linalg.norm(z)
    print("single-layer field magnitude along outward ray:")
    for step in (0.0, 0.1, 0.2):
        x = z + step * direction
        val = single_layer_eval(sol.g[:, 0], x, matrix.grid, matrix.k)
        print(f"  |V g|({np.linalg.norm(x):.3f}) = {np.linalg.norm(val):.6e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfem",
        description="Interior near-field simulation and cavity-shape imaging.",
    )
    parser.add_argument("--version", action="version", version=f"nfem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize near-field data files")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_simulate)

    p = sub.add_parser("reconstruct", help="image the cavity from a data file")
    p.add_argument("--data", required=True, help="NFEM1 near-field data file")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=_reconstruct)

    p = sub.add_parser("selfcheck", help="run internal consistency checks")
    p.add_argument("--config", required=True, help="run configuration file")
    p.set_defaults(func=_selfcheck)

    p = sub.add_parser("probe", help="inspect the solve at one sampling point")
    p.add_argument("--data", required=True, help="NFEM1 near-field data file")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--z", required=True, help="sampling point as X,Y,Z")
    p.set_defaults(func=_probe)

    p = sub.add_parser("init", help="print a template configuration file")
    p.set_defaults(func=lambda args: (print(default_config_text(), end=""), EXIT_OK)[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`nfem ... | head`).  Every file is
        # written by now; point stdout at devnull so that the flush at exit
        # does not fail again (the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ConfigError, InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
