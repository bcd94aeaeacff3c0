"""Result writers: imaging CSV, legacy-ASCII VTK structured points, and
axis-plane cross-section CSVs.

All numeric values are written with repr-faithful precision (%.17g) so the
CSV and VTK outputs agree to rounding and reruns diff cleanly.
"""

from __future__ import annotations

import csv

import numpy as np

from .lsm import ImagingField

_FMT = "%.17g"


def _g(value: float) -> str:
    return _FMT % value


def write_imaging_csv(field: ImagingField, path) -> None:
    """One row per lattice point: position, indicator, log indicator, mask."""
    grid = field.grid
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["z_x", "z_y", "z_z", "indicator", "log10_indicator", "masked"])
        for pt, ind, log_ind, active in zip(
            grid.points, field.indicator, field.log_indicator, grid.active
        ):
            writer.writerow(
                [
                    _g(pt[0]),
                    _g(pt[1]),
                    _g(pt[2]),
                    _g(ind),
                    _g(log_ind),
                    "0" if active else "1",
                ]
            )


def write_imaging_vtk(field: ImagingField, path) -> None:
    """Legacy ASCII VTK STRUCTURED_POINTS of the masked log indicator.

    The lattice is stored x-fastest, matching VTK's point ordering, so the
    scalar list is exactly ``field.log_indicator`` in storage order.
    """
    grid = field.grid
    nx, ny, nz = grid.shape
    origin = grid.bounds[:, 0]
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("cavity imaging indicator (log10, masked points = 0)\n")
        f.write("ASCII\n")
        f.write("DATASET STRUCTURED_POINTS\n")
        f.write(f"DIMENSIONS {nx} {ny} {nz}\n")
        f.write(f"ORIGIN {_g(origin[0])} {_g(origin[1])} {_g(origin[2])}\n")
        f.write(
            f"SPACING {_g(grid.spacing)} {_g(grid.spacing)} {_g(grid.spacing)}\n"
        )
        f.write(f"POINT_DATA {grid.n_points}\n")
        f.write("SCALARS log10_indicator double 1\n")
        f.write("LOOKUP_TABLE default\n")
        for value in field.log_indicator:
            f.write(_g(value) + "\n")


# Cross-sections through the origin: (plane name, in-plane axes, fixed axis).
_PLANES = (
    ("xy", (0, 1), 2),
    ("yz", (1, 2), 0),
    ("xz", (0, 2), 1),
)


def write_cross_sections(field: ImagingField, out_dir, prefix: str) -> list[str]:
    """CSV slice per coordinate plane at the lattice level nearest the origin.

    Returns the written file paths.  Each row is (coordinate 1, coordinate 2,
    log10 indicator, masked), coordinate 1 running fastest.
    """
    grid = field.grid
    nx, ny, nz = grid.shape
    log_cube = field.log_indicator.reshape(nz, ny, nx)  # z outer, x inner
    active_cube = grid.active.reshape(nz, ny, nx)
    axes = [
        grid.bounds[i, 0] + grid.spacing * np.arange(n)
        for i, n in enumerate((nx, ny, nz))
    ]
    paths = []
    for name, (ax1, ax2), fixed in _PLANES:
        level = int(np.argmin(np.abs(axes[fixed])))
        # Cube axis 2 - i is coordinate i, so the slice is (ax2, ax1) since ax1 < ax2.
        c2, c1 = np.meshgrid(axes[ax2], axes[ax1], indexing="ij")
        rows = np.column_stack([
            c1.ravel(), c2.ravel(), np.take(log_cube, level, axis=2 - fixed).ravel(),
            ~np.take(active_cube, level, axis=2 - fixed).ravel(),
        ])
        path = f"{out_dir}/{prefix}_slice_{name}.csv"
        # "\r\n" ends rows as csv.writer does in write_imaging_csv (RFC 4180).
        with open(path, "w", newline="") as f:
            np.savetxt(f, rows, fmt=[_FMT] * 3 + ["%d"], delimiter=",", newline="\r\n",
                       header=f"z_{'xyz'[ax1]},z_{'xyz'[ax2]},log10_indicator,masked",
                       comments="")
        paths.append(path)
    return paths
