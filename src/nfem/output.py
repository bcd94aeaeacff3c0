"""Result writers: imaging CSV, legacy-ASCII VTK structured points, and
axis-plane cross-section CSVs.

All numeric values are written with repr-faithful precision (%.17g) so the
CSV and VTK outputs agree to rounding and reruns diff cleanly.  Each value
is formatted once, the log10 column once for both the CSV and the VTK file
when the caller passes ``format_log_indicator``'s strings to both, and each
file is built as one string and written whole
(``measurement.write_whole``): a failed write leaves any earlier file as it
was.
"""

from __future__ import annotations

import numpy as np

from .lsm import ImagingField
from .measurement import write_whole

_FMT = "%.17g"


def _g(values) -> list[str]:
    return list(map(_FMT.__mod__, np.asarray(values, dtype=float).ravel().tolist()))


def _csv(header: str, columns) -> str:
    """CSV text of string columns, with CRLF row ends as RFC 4180 asks."""
    return "\r\n".join([header, *map(",".join, zip(*columns))]) + "\r\n"


def _masked(active: np.ndarray) -> list[str]:
    return np.where(np.ravel(active), "0", "1").tolist()


def format_log_indicator(field: ImagingField) -> list[str]:
    """The log10 indicator as the writers print it, one string per point."""
    return _g(field.log_indicator)


def write_imaging_csv(field: ImagingField, path, log_text: list[str] | None = None) -> None:
    """One row per lattice point: position, indicator, log indicator, mask.
    ``log_text``, if given, is ``format_log_indicator(field)``."""
    grid = field.grid
    # The lattice is x-fastest, so z is the outer loop.
    xs, ys, zs = map(_g, grid.axes)
    points = [f"{x},{y},{z}" for z in zs for y in ys for x in xs]
    write_whole(path, _csv("z_x,z_y,z_z,indicator,log10_indicator,masked",
                           (points, _g(field.indicator),
                            format_log_indicator(field) if log_text is None else log_text,
                            _masked(grid.active))))


def write_imaging_vtk(field: ImagingField, path, log_text: list[str] | None = None) -> None:
    """Legacy ASCII VTK STRUCTURED_POINTS of the masked log indicator.

    The lattice is stored x-fastest, matching VTK's point ordering, so the
    scalar list is exactly ``field.log_indicator`` in storage order.
    ``log_text``, if given, is ``format_log_indicator(field)``.
    """
    grid = field.grid
    nx, ny, nz = grid.shape
    origin = " ".join(_g([a[0] for a in grid.axes]))
    spacing = " ".join(_g([grid.spacing] * 3))
    write_whole(path, "\n".join([
        "# vtk DataFile Version 3.0",
        "cavity imaging indicator (log10, masked points = 0)",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {nx} {ny} {nz}",
        f"ORIGIN {origin}",
        f"SPACING {spacing}",
        f"POINT_DATA {grid.n_points}",
        "SCALARS log10_indicator double 1",
        "LOOKUP_TABLE default",
        *(format_log_indicator(field) if log_text is None else log_text),
    ]) + "\n")


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
    paths = []
    for name, (ax1, ax2), fixed in _PLANES:
        level = int(np.argmin(np.abs(grid.axes[fixed])))
        # Cube axis 2 - i is coordinate i, so the slice is (ax2, ax1) since ax1 < ax2.
        c1, c2 = _g(grid.axes[ax1]), _g(grid.axes[ax2])
        path = f"{out_dir}/{prefix}_slice_{name}.csv"
        write_whole(path, _csv(
            f"z_{'xyz'[ax1]},z_{'xyz'[ax2]},log10_indicator,masked",
            ([f"{a},{b}" for b in c2 for a in c1],
             _g(np.take(log_cube, level, axis=2 - fixed)),
             _masked(np.take(active_cube, level, axis=2 - fixed)))))
        paths.append(path)
    return paths
