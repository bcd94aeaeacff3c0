"""Interior electromagnetic near-field simulation and sampling-method imaging.

A dipole source inside a penetrable spherical cavity generates measurable
tangential near fields on a sphere inside the cavity; the linear sampling
machinery in this package turns such measurements back into an image of the
cavity boundary.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DataFormatError,
    InvalidArgumentError,
    NfemError,
)
from .green import Dipole, curl_incident_field, green_apply, incident_field
from .forward import (
    LayeredCavityConfig,
    ModeCoefficients,
    Shell,
    data_truncation_order,
    effective_wavenumber,
    interface_residual,
    maxwell_eigenvalue_margin,
    scattered_field,
    solve_modes,
    source_expansion,
    truncation_order,
)
from .measurement import (
    NearFieldMatrix,
    NoiseSpec,
    SphereGrid,
    add_noise,
    assemble_nearfield,
    build_sphere_grid,
    read_nearfield,
    write_manifest,
    write_nearfield,
)
from .lsm import (
    ImagingField,
    RegularizedBatch,
    SamplingGrid,
    SvdFactorization,
    build_sampling_grid,
    morozov_alpha,
    regularized_solve,
    rhs_matrix,
    rhs_vector,
    run_imaging,
    single_layer_eval,
    svd_factorize,
)
from .config import RunConfig, default_config_text, load_config
from .output import write_cross_sections, write_imaging_csv, write_imaging_vtk

__version__ = "0.1.0"

# Every imported name that is not a submodule is public.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
