"""Pointwise 3D energy densities of an incompressible nematic elastomer.

The entropic (trace-form) density depends on the deformation gradient F
and the director n through the step-length tensor; minimizing out the
director gives the purely elastic density used by the membrane theory.
Off the incompressibility shell every density is the floating-point
infinity, which is treated as a value and never mixed into arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DET_TOL",
    "MaterialParams",
    "bulk_energy",
    "entropic_energy",
    "frank_energy",
    "growth_constant",
    "step_length_tensor",
]

# Width of the incompressibility shell |det F - 1| accepted as det F = 1.
DET_TOL = 1e-9

_UNIT_TOL = 1e-12


def _finite(x, name, shape):
    """``x`` as a float array of ``shape``; ``ValueError`` when its shape
    differs (a 2x2 ``F`` would pass the shell test and get a value below
    the density's minimum) or an entry is not finite (a NaN would slip
    past every shell and unit-length test)."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


@dataclass(frozen=True)
class MaterialParams:
    """Material constants: finite shear modulus mu > 0 (pressure units),
    finite chain anisotropy r >= 1 (dimensionless, r = 1 is neo-Hookean),
    and an optional curvature modulus kappa >= 0 for director gradients."""

    mu: float
    r: float
    kappa: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.mu < math.inf):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (1.0 <= self.r < math.inf):
            raise ValueError(f"r must be >= 1 and finite, got {self.r}")
        if not (self.kappa >= 0.0):
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")


def step_length_tensor(n, params):
    """Step-length tensor r^(-1/3) (I + (r - 1) n x n).

    Symmetric positive definite with unit determinant; encodes the
    anisotropic chain statistics along the director.

    Parameters
    ----------
    n : ndarray, shape (3,)
        Unit director.
    params : MaterialParams

    Returns
    -------
    ndarray, shape (3, 3)

    Raises
    ------
    ValueError
        When ``n`` is not a finite unit 3-vector.
    """
    n = _finite(n, "director", (3,))
    if abs(np.linalg.norm(n) - 1.0) > _UNIT_TOL:
        raise ValueError(f"director must be a unit vector, |n| = {np.linalg.norm(n)}")
    r = params.r
    return r ** (-1.0 / 3.0) * (np.eye(3) + (r - 1.0) * np.outer(n, n))


def entropic_energy(F, n, params):
    """Entropic energy density of the nematic chain network.

    Returns (mu/2) (r^(1/3) (|F|^2 - ((r-1)/r) |F^T n|^2) - 3) on the
    incompressibility shell |det F - 1| <= DET_TOL with a unit director,
    and +inf otherwise (infinity is a value, not an error).  Non-finite
    entries of ``F`` or ``n``, or shapes other than (3, 3) and (3,), raise
    ``ValueError``.

    Parameters
    ----------
    F : ndarray, shape (3, 3)
    n : ndarray, shape (3,)
    params : MaterialParams

    Returns
    -------
    float
    """
    F = _finite(F, "F", (3, 3))
    n = _finite(n, "director", (3,))
    if abs(np.linalg.det(F) - 1.0) > DET_TOL:
        return np.inf
    if abs(np.linalg.norm(n) - 1.0) > _UNIT_TOL:
        return np.inf
    r = params.r
    alpha = (r - 1.0) / r
    frob2 = float(np.sum(F * F))
    fn2 = float(np.sum((F.T @ n) ** 2))
    return 0.5 * params.mu * (r ** (1.0 / 3.0) * (frob2 - alpha * fn2) - 3.0)


def bulk_energy(F, params):
    """Director-minimized elastic density.

    Equals ``inf over unit n of entropic_energy(F, n)``; the optimal
    director is the largest left singular direction, so the closed form
    uses the largest singular value of F.  +inf off the shell; non-finite
    entries of ``F``, or a shape other than (3, 3), raise ``ValueError``.

    Parameters
    ----------
    F : ndarray, shape (3, 3)
    params : MaterialParams

    Returns
    -------
    float
    """
    F = _finite(F, "F", (3, 3))
    if abs(np.linalg.det(F) - 1.0) > DET_TOL:
        return np.inf
    r = params.r
    alpha = (r - 1.0) / r
    frob2 = float(np.sum(F * F))
    lam_max = float(np.linalg.svd(F, compute_uv=False)[0])
    return 0.5 * params.mu * (r ** (1.0 / 3.0) * (frob2 - alpha * lam_max**2) - 3.0)


def frank_energy(grad_n, adj_F, params):
    """Equal-modulus curvature penalty (kappa/2) |grad_n adj_F|^2.

    ``grad_n`` is the reference gradient of the director and ``adj_F``
    the adjugate of the deformation gradient, so the product is the
    spatial director gradient for volume-preserving deformations.
    """
    grad_n = np.asarray(grad_n, dtype=float)
    adj_F = np.asarray(adj_F, dtype=float)
    if params.kappa == 0.0:
        return 0.0
    prod = grad_n @ adj_F
    return 0.5 * params.kappa * float(np.sum(prod * prod))


def growth_constant(params):
    """Constant c >= 1 with (1/c)|F|^2 - c <= entropic energy <= c(|F|^2 + 1)
    on the shell, independent of the director.

    The bounds follow from the eigenvalues of the inverse step-length
    tensor, r^(1/3) transverse and r^(-2/3) along the director.
    """
    mu, r = params.mu, params.r
    upper = 0.5 * mu * r ** (1.0 / 3.0)
    lower_slope = 2.0 / (mu * r ** (-2.0 / 3.0))
    offset = 1.5 * mu
    return max(1.0, upper, lower_slope, offset)
