"""Output checks for the benchmark, run outside the timed window.

Files are read with numpy from their documented layouts, never through the
program's own readers, so a check costs the same whatever the program does.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

MAGIC = b"NFEM1\x00"
# Little-endian header after the magic: k, rho, n_nodes, noisy, noise level, seed.
HEADER = struct.Struct("<ddIBdQ")

# Radial bands of the wall/exterior separation, as in the acceptance suite.
WALL_BAND = (1.15, 1.35)
OUTER_BAND = (1.7, 2.2)


def digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_nearfield(path, k, n_nodes, noise_level, clean) -> list[str]:
    """NFEM1 file: header, size, finite entries, reciprocity of clean data."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw[: len(MAGIC)].tobytes() != MAGIC:
        return [f"{path}: bad magic"]
    k_file, _, n, noisy, level, _ = HEADER.unpack_from(raw, len(MAGIC))
    entries_at = len(MAGIC) + HEADER.size + 24 * n
    problems = []
    if raw.size != entries_at + 64 * n * n + 8:
        return [f"{path}: {raw.size} bytes, wrong for n={n}"]
    if n != n_nodes or k_file != k:
        problems.append(f"{path}: header n={n}, k={k_file}, expected {n_nodes}, {k}")
    if bool(noisy) == clean or (not clean and level != noise_level):
        problems.append(f"{path}: header noisy={noisy}, level={level}")
    entries = np.frombuffer(raw, dtype="<c16", count=4 * n * n, offset=entries_at)
    entries = entries.reshape(2 * n, 2 * n)
    if not np.all(np.isfinite(entries)):
        problems.append(f"{path}: non-finite entries")
    elif clean:
        defect = np.max(np.abs(entries - entries.T)) / np.max(np.abs(entries))
        if not defect < 1e-8:
            problems.append(f"{path}: reciprocity defect {defect:.3e} >= 1e-8")
    return problems


def wall_gap(points, log_indicator, active) -> float:
    """10th percentile of log10 indicator in the outer band minus the 90th
    percentile in the wall band, in decades, over active lattice points."""
    radii = np.linalg.norm(points, axis=1)
    wall = active & (radii >= WALL_BAND[0]) & (radii <= WALL_BAND[1])
    outer = active & (radii >= OUTER_BAND[0]) & (radii <= OUTER_BAND[1])
    return float(np.percentile(log_indicator[outer], 10)
                 - np.percentile(log_indicator[wall], 90))


def check_image(csv_path, vtk_path, min_gap) -> tuple[list[str], float, int]:
    """Imaging CSV and VTK: peak exactly 1, masked points 0, VTK matches CSV,
    and the wall gap at least ``min_gap``.

    Returns (problems, gap, number of active points)."""
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    points, indicator, log_ind = table[:, :3], table[:, 3], table[:, 4]
    active = table[:, 5] == 0
    problems = []
    if not np.all(np.isfinite(table)):
        problems.append(f"{csv_path}: non-finite values")
    if not active.any() or np.max(indicator[active]) != 1.0:
        problems.append(f"{csv_path}: indicator peak over active points is not 1")
    if np.any(indicator[~active] != 0) or np.any(log_ind[~active] != 0):
        problems.append(f"{csv_path}: masked points are not 0")
    vtk = np.loadtxt(vtk_path, skiprows=10)
    if vtk.shape != log_ind.shape or np.any(vtk != log_ind):
        problems.append(f"{vtk_path}: scalars differ from the CSV log10 indicator")
    gap = wall_gap(points, log_ind, active)
    if min_gap is not None and not gap >= min_gap:
        problems.append(f"{csv_path}: wall gap {gap:.3f} below {min_gap}")
    return problems, gap, int(active.sum())
