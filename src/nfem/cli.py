"""Command-line entry point.

Subcommands
    simulate     synthesize near-field data files from a config
    reconstruct  run the sampling sweep on a data file and write CSV/VTK
    selfcheck    run internal consistency checks for a config
    probe        inspect the regularized solve at a single sampling point

Exit codes: 0 success, 2 configuration error (including arguments the
numerics reject, degenerate transmission systems, and files or directories
that cannot be read or written), 3 data-format error (including all-zero
data), 4 selfcheck failure.  A failed run creates no output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, default_config_text, load_config
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateConfigError,
    InvalidArgumentError,
)
from .forward import interface_residual, maxwell_eigenvalue_margin, solve_modes
from .lsm import (
    build_sampling_grid,
    regularized_solve,
    rhs_vector,
    run_imaging,
    single_layer_eval,
    svd_factorize,
)
from .measurement import (
    NearFieldMatrix,
    NoiseSpec,
    add_noise,
    assemble_nearfield,
    build_sphere_grid,
    read_nearfield,
    write_manifest,
    write_nearfield,
)
from .output import write_cross_sections, write_imaging_csv, write_imaging_vtk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SELFCHECK = 4

# Margin below which the wavenumber counts as sitting on a Maxwell
# eigenvalue of the measurement ball, where the sampling method degenerates.
MARGIN_FLOOR = 1e-3


def _fixed_alpha(cfg: RunConfig) -> float | None:
    """The configured alpha in fixed mode; None selects the Morozov root."""
    return cfg.alpha_fixed if cfg.alpha_mode == "fixed" else None


def _probe_source(cfg: RunConfig) -> np.ndarray:
    """Seeded dipole position for the interface-residual check.

    Draws beyond half the measurement radius are pulled back onto that
    radius: the data series order is sized for sources well inside the
    measurement sphere, and a source near or past it would not converge.
    """
    y = cfg.rho * 0.3 * np.random.default_rng(cfg.seed).standard_normal(3)
    r = np.linalg.norm(y)
    return y if r <= 0.5 * cfg.rho else y * (0.5 * cfg.rho / r)


def _synthesize(cfg: RunConfig) -> tuple:
    """Clean data for the run's config and the checks made on it: (forward
    config, grid, clean matrix, largest entry magnitude, seconds spent in the
    mode solve and the assembly, reciprocity defect relative to that
    magnitude, interface residual at the probe source)."""
    config = cfg.cavity_config()
    grid = build_sphere_grid(cfg.n_theta, cfg.n_phi, cfg.rho)
    t0 = time.perf_counter()
    coeffs = solve_modes(config)
    clean = assemble_nearfield(config, grid, coeffs)
    elapsed = time.perf_counter() - t0
    scale = max(np.max(np.abs(clean.entries)), 1e-300)
    defect = np.max(np.abs(clean.entries - clean.entries.T)) / scale
    residual = interface_residual(config, _probe_source(cfg),
                                  np.asarray(cfg.polarization), coeffs=coeffs)
    return config, grid, clean, scale, elapsed, defect, residual


def _simulate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    config, _, clean, _, elapsed, defect, residual = _synthesize(cfg)

    clean_path = out / f"{cfg.prefix}_clean.nfem"
    write_nearfield(clean, clean_path, cfg.k)
    paths = [clean_path]
    if cfg.noise_level > 0:
        noisy = add_noise(clean, NoiseSpec(cfg.noise_level, cfg.seed))
        noisy_path = out / f"{cfg.prefix}_noisy.nfem"
        write_nearfield(noisy, noisy_path, cfg.k)
        paths.append(noisy_path)
    write_manifest(
        out / f"{cfg.prefix}_manifest.txt",
        {
            "tool": f"nfem {__version__}",
            "k": cfg.k,
            "cavity_radius": cfg.cavity_radius,
            "shells": ";".join(f"{s.outer_radius} {s.A} {s.N}" for s in cfg.shells),
            "n_max": config.n_max,
            "rho": cfg.rho,
            "n_theta": cfg.n_theta,
            "n_phi": cfg.n_phi,
            "noise_level": cfg.noise_level,
            "seed": cfg.seed,
            "files": ";".join(p.name for p in paths),
        },
    )
    print(f"assembled {clean.entries.shape[0]}x{clean.entries.shape[1]} "
          f"near-field matrix in {elapsed:.2f} s (n_max={config.n_max})")
    print(f"reciprocity defect (relative): {defect:.3e}")
    print(f"interface residual at probe source: {residual:.3e}")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _load_data(args) -> tuple[RunConfig, NearFieldMatrix]:
    """The run's config and data file, which must agree on the wavenumber."""
    cfg = load_config(args.config)
    matrix, k_data = read_nearfield(args.data)
    if abs(k_data - cfg.k) > 1e-12 * max(1.0, cfg.k):
        raise ConfigError(
            f"wavenumber mismatch: data file has k={k_data}, config has k={cfg.k}"
        )
    return cfg, matrix


def _reconstruct(args) -> int:
    cfg, matrix = _load_data(args)
    out = Path(args.out)
    grid = build_sampling_grid(cfg.box, cfg.spacing, cfg.mask_radius)
    t0 = time.perf_counter()
    field = run_imaging(
        matrix, grid, np.asarray(cfg.polarization), matrix.noise_level, k=cfg.k,
        alpha=_fixed_alpha(cfg),
    )
    elapsed = time.perf_counter() - t0
    active = grid.active
    lo = float(np.min(field.log_indicator[active]))
    hi = float(np.max(field.log_indicator[active]))
    alphas = field.alpha[active]
    print(f"swept {int(np.sum(active))} active sampling points in {elapsed:.1f} s")
    print(f"log10 indicator range over active points: [{lo:.3f}, {hi:.3f}]")
    print(f"alpha ({cfg.alpha_mode}): {int(np.sum(field.flagged))} of "
          f"{alphas.size} active points flagged; min/median/max "
          f"{np.min(alphas):.3e} / {np.median(alphas):.3e} / {np.max(alphas):.3e}")
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in cfg.formats:
        csv_path = out / f"{cfg.prefix}_imaging.csv"
        write_imaging_csv(field, csv_path)
        written.append(csv_path)
        written.extend(Path(p) for p in write_cross_sections(field, out, cfg.prefix))
    if "vtk" in cfg.formats:
        vtk_path = out / f"{cfg.prefix}_imaging.vtk"
        write_imaging_vtk(field, vtk_path)
        written.append(vtk_path)
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def _selfcheck(args) -> int:
    cfg = load_config(args.config)
    failures = []

    margin = maxwell_eigenvalue_margin(cfg.k, cfg.rho)
    ok = margin > MARGIN_FLOOR
    print(f"[{'PASS' if ok else 'FAIL'}] eigenvalue margin of measurement ball: "
          f"{margin:.6f} (floor {MARGIN_FLOOR})")
    if not ok:
        failures.append("wavenumber sits on a Maxwell eigenvalue")

    config, grid, matrix, scale, _, defect, residual = _synthesize(cfg)
    ok = defect < 1e-8
    print(f"[{'PASS' if ok else 'FAIL'}] reciprocity defect: {defect:.3e} "
          "(limit 1e-08)")
    if not ok:
        failures.append("near-field matrix is not reciprocity-symmetric")

    ok = residual < 1e-6
    print(f"[{'PASS' if ok else 'FAIL'}] interface residual: {residual:.3e} "
          "(limit 1e-06)")
    if not ok:
        failures.append("transmission conditions violated beyond tolerance")

    ref = assemble_nearfield(dataclasses.replace(config, n_max=config.n_max + 5), grid)
    diff = np.max(np.abs(ref.entries - matrix.entries))
    ok = diff / scale < 1e-8
    print(f"[{'PASS' if ok else 'FAIL'}] series convergence (order +5): "
          f"{diff / scale:.3e} (limit 1e-08)")
    if not ok:
        failures.append("near-field matrix not converged in series order")

    if failures:
        print("selfcheck FAILED: " + "; ".join(failures))
        return EXIT_SELFCHECK
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

    if np.linalg.norm(z) <= cfg.mask_radius + 1e-9:
        print(f"point {z.tolist()} lies inside the measurement ball "
              f"(|z| <= {cfg.mask_radius}); the indicator is masked there")
        return EXIT_OK

    svd = svd_factorize(matrix, k=cfg.k)
    b = rhs_vector(z, np.asarray(cfg.polarization), matrix.grid, cfg.k)
    sol = regularized_solve(svd, b[:, None], matrix.noise_level, _fixed_alpha(cfg),
                            want_g=True)
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
        val = single_layer_eval(sol.g[:, 0], x, matrix.grid, cfg.k)
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
        return args.func(args)
    except (ConfigError, InvalidArgumentError, DegenerateConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
