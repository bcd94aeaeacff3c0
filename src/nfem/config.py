"""Run configuration: INI-style sectioned key = value files, strictly parsed.

Unknown sections or keys are rejected so experiment files stay
diff-auditable.  Defaults reproduce the reference ball experiment:
cavity radius 1.5 with one shell to 2.5 (A = 1, N = 2), k = 0.75,
unit measurement sphere, 2% noise, polarization (1, -1, 1)/sqrt(3),
sampling box [-3, 3]^3 at spacing 0.1.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .forward import LayeredCavityConfig, Shell, data_truncation_order


@dataclass(frozen=True)
class RunConfig:
    cavity_radius: float = 1.5
    shells: tuple[Shell, ...] = (Shell(2.5, 1.0, 2.0),)
    k: float = 0.75
    n_max: int | None = None

    rho: float = 1.0
    n_theta: int = 12
    n_phi: int = 24
    noise_level: float = 0.02
    seed: int = 7

    polarization: tuple[float, float, float] = field(
        default_factory=lambda: tuple(np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0))
    )
    box: tuple[float, ...] = (-3.0, 3.0, -3.0, 3.0, -3.0, 3.0)
    spacing: float = 0.1
    mask_radius: float = 1.0
    alpha_mode: str = "morozov"
    alpha_fixed: float = 1e-8

    prefix: str = "nfem"
    formats: tuple[str, ...] = ("csv", "vtk")

    def validate(self) -> "RunConfig":
        if self.rho >= self.cavity_radius:
            raise ConfigError(
                "measurement.rho must be smaller than forward.cavity_radius"
            )
        if self.rho <= 0:
            raise ConfigError("measurement.rho must be positive")
        if self.n_theta < 2 or self.n_phi < 4:
            raise ConfigError("measurement.n_theta must be >= 2 and n_phi >= 4")
        if self.noise_level < 0:
            raise ConfigError("measurement.noise_level must be nonnegative")
        if self.mask_radius < self.rho:
            raise ConfigError(
                "lsm.mask_radius must be at least measurement.rho: sampling "
                "points on the measurement sphere have a singular right-hand side"
            )
        if self.spacing <= 0:
            raise ConfigError("lsm.spacing must be positive")
        if self.alpha_mode not in ("morozov", "fixed"):
            raise ConfigError("lsm.alpha_mode must be 'morozov' or 'fixed'")
        if self.alpha_mode == "fixed" and self.alpha_fixed <= 0:
            raise ConfigError("lsm.alpha_fixed must be positive")
        if len(self.box) != 6 or any(
            self.box[2 * i] >= self.box[2 * i + 1] for i in range(3)
        ):
            raise ConfigError("lsm.box must be six numbers lo hi per axis, lo < hi")
        if any(sep in self.prefix for sep in ("/", "\\")):
            raise ConfigError("output.prefix must not contain a path separator")
        bad = [f for f in self.formats if f not in ("csv", "vtk")]
        if bad:
            raise ConfigError(f"output.formats entries must be csv/vtk, got {bad}")
        try:
            self.cavity_config()
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
        return LayeredCavityConfig(
            cavity_radius=self.cavity_radius,
            shells=self.shells,
            k=self.k,
            n_max=n_max,
        )


_SCHEMA = {
    "forward": {"cavity_radius", "shells", "k", "n_max"},
    "measurement": {"rho", "n_theta", "n_phi", "noise_level", "seed"},
    "lsm": {
        "polarization",
        "box",
        "spacing",
        "mask_radius",
        "alpha_mode",
        "alpha_fixed",
    },
    "output": {"prefix", "formats"},
}


def _parse_shells(text: str) -> tuple[Shell, ...]:
    shells = []
    for part in filter(None, (p.strip() for p in text.split(";"))):
        fields = part.split()
        if len(fields) != 3:
            raise ConfigError(
                f"forward.shells: each shell needs 'outer_radius A N', got {part!r}"
            )
        r, a, n = (float(v) for v in fields)
        shells.append(Shell(r, a, n))
    radii = [s.outer_radius for s in shells]
    if radii != sorted(radii) or len(set(radii)) != len(radii):
        raise ConfigError("forward.shells: outer radii must be strictly increasing")
    return tuple(shells)


def _floats(text: str, count: int, where: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in text.replace(",", " ").split())
    if len(vals) != count:
        raise ConfigError(f"{where}: expected {count} numbers, got {len(vals)}")
    return vals


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    kwargs = {}

    def grab(section, key, conv, name=None):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                kwargs[name or key] = conv(raw)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(
                    f"{path}: bad value for {section}.{key}: {raw!r} ({exc})"
                ) from exc

    grab("forward", "cavity_radius", float)
    grab("forward", "shells", _parse_shells)
    grab("forward", "k", float)
    grab("forward", "n_max", int)
    grab("measurement", "rho", float)
    grab("measurement", "n_theta", int)
    grab("measurement", "n_phi", int)
    grab("measurement", "noise_level", float)
    grab("measurement", "seed", int)
    grab("lsm", "polarization", lambda s: _floats(s, 3, "lsm.polarization"))
    grab("lsm", "box", lambda s: _floats(s, 6, "lsm.box"))
    grab("lsm", "spacing", float)
    grab("lsm", "mask_radius", float)
    grab("lsm", "alpha_mode", str.strip)
    grab("lsm", "alpha_fixed", float)
    grab("output", "prefix", str.strip)
    grab(
        "output",
        "formats",
        lambda s: tuple(f.strip() for f in s.split(",") if f.strip()),
    )

    try:
        return RunConfig(**kwargs).validate()
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
