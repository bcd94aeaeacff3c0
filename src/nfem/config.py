"""Run configuration: INI-style sectioned key = value files, strictly parsed.

Each key is declared once, on its RunConfig field, with its INI section
and the parser of its value.  Unknown sections or keys, non-finite numbers
and negative counts are rejected.  Defaults reproduce the reference ball:
cavity radius 1.5 with one shell to 2.5 (A = 1, N = 2), k = 0.75,
unit measurement sphere, 2% noise, polarization (1, -1, 1)/sqrt(3),
sampling box [-3, 3]^3 at spacing 0.1.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .forward import LayeredCavityConfig, Shell, data_truncation_order
from .lsm import MAX_COORDINATE, lattice_shape
from .measurement import MAX_SPHERE_NODES
from .specialfun import ORDER_CAP

# Smallest measurement radius: the interface-residual check draws its probe
# source at rho/100 or more from the origin, which must stay clear of the
# expansion center guard (1e-12) of `forward.source_expansion`.
RHO_FLOOR = 1e-9


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _seed(text: str) -> int:
    value = _count(text)
    if value >= 2**64:  # NFEM1 stores the seed as <Q
        raise ValueError("must be below 2**64")
    return value


def _finites(count: int):
    def parse(text: str) -> tuple[float, ...]:
        vals = tuple(_finite(v) for v in text.replace(",", " ").split())
        if len(vals) != count:
            raise ValueError(f"expected {count} numbers, got {len(vals)}")
        return vals

    return parse


def _shells(text: str) -> tuple[Shell, ...]:
    shells = tuple(
        Shell(*_finites(3)(part)) for part in text.split(";") if part.strip()
    )
    radii = [s.outer_radius for s in shells]
    if radii != sorted(radii) or len(set(radii)) != len(radii):
        raise ValueError("outer radii must be strictly increasing")
    return shells


def _words(text: str) -> tuple[str, ...]:
    return tuple(w.strip() for w in text.split(",") if w.strip())


def _key(section: str, parse, default):
    """A config key: its INI section, the parser of its value and its default."""
    return field(default=default, metadata={"section": section, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    cavity_radius: float = _key("forward", _finite, 1.5)
    shells: tuple[Shell, ...] = _key("forward", _shells, (Shell(2.5, 1.0, 2.0),))
    k: float = _key("forward", _finite, 0.75)
    n_max: int | None = _key("forward", _count, None)

    rho: float = _key("measurement", _finite, 1.0)
    n_theta: int = _key("measurement", _count, 12)
    n_phi: int = _key("measurement", _count, 24)
    noise_level: float = _key("measurement", _finite, 0.02)
    seed: int = _key("measurement", _seed, 7)

    polarization: tuple[float, float, float] = _key(
        "lsm", _finites(3), tuple(np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0))
    )
    box: tuple[float, ...] = _key("lsm", _finites(6), (-3.0, 3.0, -3.0, 3.0, -3.0, 3.0))
    spacing: float = _key("lsm", _finite, 0.1)
    mask_radius: float = _key("lsm", _finite, 1.0)
    alpha_mode: str = _key("lsm", str.strip, "morozov")
    alpha_fixed: float = _key("lsm", _finite, 1e-8)

    prefix: str = _key("output", str.strip, "nfem")
    formats: tuple[str, ...] = _key("output", _words, ("csv", "vtk"))

    def validate(self) -> "RunConfig":
        if self.rho >= self.cavity_radius:
            raise ConfigError(
                "measurement.rho must be smaller than forward.cavity_radius"
            )
        if not self.rho >= RHO_FLOOR:
            raise ConfigError(f"measurement.rho must be at least {RHO_FLOOR:g}")
        if self.n_theta < 2 or self.n_phi < 4:
            raise ConfigError("measurement.n_theta must be >= 2 and n_phi >= 4")
        if self.n_theta * self.n_phi > MAX_SPHERE_NODES:
            raise ConfigError(
                f"measurement.n_theta x measurement.n_phi = {self.n_theta * self.n_phi:,} "
                f"nodes, above the cap of {MAX_SPHERE_NODES:,}")
        if self.noise_level < 0:
            raise ConfigError("measurement.noise_level must be nonnegative")
        if self.mask_radius < self.rho:
            raise ConfigError(
                "lsm.mask_radius must be at least measurement.rho: sampling "
                "points on the measurement sphere have a singular right-hand side"
            )
        if self.spacing <= 0:
            raise ConfigError("lsm.spacing must be positive")
        # Outside this range the dipole's fields and the sampling right-hand
        # side underflow or overflow on the way to the checks and the image.
        if not 1e-100 <= max(abs(v) for v in self.polarization) <= 1e100:
            raise ConfigError("lsm.polarization must be nonzero, with its largest "
                              "component between 1e-100 and 1e100 in magnitude")
        if self.alpha_mode not in ("morozov", "fixed"):
            raise ConfigError("lsm.alpha_mode must be 'morozov' or 'fixed'")
        if self.alpha_mode == "fixed" and self.alpha_fixed <= 0:
            raise ConfigError("lsm.alpha_fixed must be positive")
        if any(self.box[2 * i] >= self.box[2 * i + 1] for i in range(3)):
            raise ConfigError("lsm.box must be six numbers lo hi per axis, lo < hi")
        try:
            lattice_shape(self.box, self.spacing)
        except InvalidArgumentError as exc:
            raise ConfigError(f"lsm.box and lsm.spacing: {exc}") from exc
        if any(abs(v) >= MAX_COORDINATE for v in self.box):
            raise ConfigError(f"lsm.box entries must be below {MAX_COORDINATE:g} in magnitude")
        if any(sep in self.prefix for sep in ("/", "\\")):
            raise ConfigError("output.prefix must not contain a path separator")
        bad = [f for f in self.formats if f not in ("csv", "vtk")]
        if bad:
            raise ConfigError(f"output.formats entries must be csv/vtk, got {bad}")
        try:
            self.cavity_config()
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"invalid forward section: {exc}") from exc
        return self

    def cavity_config(self) -> LayeredCavityConfig:
        """The forward config that synthesizes this run's data: n_max, or by
        default the series order converged for sources and receivers on the
        measurement sphere."""
        n_max = self.n_max
        if n_max is None:
            n_max = data_truncation_order(
                self.cavity_radius, self.shells, self.k, self.rho
            )
            if n_max > ORDER_CAP:
                raise ConfigError(
                    f"measurement.rho = {self.rho} needs series order {n_max} "
                    f"to converge, above the cap of {ORDER_CAP}; move the "
                    "measurement sphere away from the cavity wall"
                )
        return LayeredCavityConfig(
            cavity_radius=self.cavity_radius,
            shells=self.shells,
            k=self.k,
            n_max=n_max,
        )


_KEYS = {f.name: f.metadata for f in fields(RunConfig)}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc

    kwargs = {}
    for section in parser.sections():
        if section not in {key["section"] for key in _KEYS.values()}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for name, raw in parser[section].items():
            key = _KEYS.get(name)
            if key is None or key["section"] != section:
                raise ConfigError(f"{path}: unknown key {name!r} in [{section}]")
            try:
                kwargs[name] = key["parse"](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad value for {section}.{name}: {raw!r} ({exc})"
                ) from exc
    return RunConfig(**kwargs).validate()


def default_config_text() -> str:
    """A config file reproducing the reference ball experiment."""
    return """\
[forward]
cavity_radius = 1.5
shells = 2.5 1.0 2.0
k = 0.75

[measurement]
rho = 1.0
n_theta = 12
n_phi = 24
noise_level = 0.02
seed = 7

[lsm]
polarization = 0.5773502691896258 -0.5773502691896258 0.5773502691896258
box = -3 3 -3 3 -3 3
spacing = 0.1
mask_radius = 1.0
alpha_mode = morozov

[output]
prefix = ball
formats = csv,vtk
"""
