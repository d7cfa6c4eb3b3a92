"""Numerical analysis of conformal immersions of the punctured disk.

Evaluates the constrained Willmore equation in strong and divergence form,
extracts the circulation residues controlling branch-point regularity, fits
the local asymptotic expansions of the immersion and its mean curvature, and
classifies point removability.
"""

from willmore.grid import PolarGrid
from willmore.surface import (ImmersionField, FrameField, catalog_surface,
                              conformal_factor, frame_and_gauss)
from willmore.curvature import CurvatureField, curvature, willmore_energy
from willmore.multiplier import MultiplierSpec

__all__ = [
    "PolarGrid", "ImmersionField", "FrameField", "catalog_surface",
    "conformal_factor", "frame_and_gauss", "CurvatureField", "curvature",
    "willmore_energy", "MultiplierSpec",
]

__version__ = "0.1.0"
