"""Eigenfrequency sensitivity of resonant cavities under geometry uncertainty.

Subpackages are organized along the pipeline: ``splines`` and ``geometry``
describe the domain, ``assembly`` produces matrix pencils, ``eigen`` solves
them, ``tracking`` follows eigenpairs through parameter changes, ``uq``
handles model reduction and collocation, ``oracle`` provides closed-form
references, and ``cli`` drives batch studies.
"""

from .assembly import DiscreteSpace, MatrixPencil, assemble
from .eigen import Eigenpair, solve_smallest
from .errors import CavityError
from .geometry import (
    BoundarySampler,
    DeformationModel,
    build_disk_patch,
    deform,
    deformation_from_kl,
    refine_patch,
)
from .pencil import HomotopyPencil, build_pillbox_pencil, eigenvalue_to_frequency
from .tracking import TrackConfig, track, track_modes
from .uq import (
    build_smolyak_grid,
    build_tensor_grid,
    estimate_moments,
    fit_kl,
    rule_1d,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySampler",
    "CavityError",
    "DeformationModel",
    "DiscreteSpace",
    "Eigenpair",
    "HomotopyPencil",
    "MatrixPencil",
    "TrackConfig",
    "assemble",
    "build_disk_patch",
    "build_pillbox_pencil",
    "build_smolyak_grid",
    "build_tensor_grid",
    "deform",
    "deformation_from_kl",
    "eigenvalue_to_frequency",
    "estimate_moments",
    "fit_kl",
    "refine_patch",
    "rule_1d",
    "solve_smallest",
    "track",
    "track_modes",
]
