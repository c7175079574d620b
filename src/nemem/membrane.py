"""Relaxed membrane energy, region classification, and effective stress.

Minimizing the 3D density over the thickness direction and the director
leaves a plane energy that depends on a 3x2 gradient only through its
largest singular value ``lamM`` and areal stretch ``delta``.  Its
relaxation admits a closed form with four regimes:

* ``L`` -- liquid: fine-scale wrinkling plus director oscillation drive
  the energy (and stress) to zero;
* ``M`` -- microstructure: in-plane director stripes, equi-biaxial tension;
* ``W`` -- wrinkling: out-of-plane oscillation, uniaxial tension;
* ``S`` -- solid: no relaxation, biaxial tension.

All evaluators accept scalars or arrays in the invariant plane.  A
pair of Python floats is evaluated on floats, with no numpy call;
anything else (arrays, 0-d arrays, numpy scalars) on arrays; each
formula is written once for both.  The matrix-level entry points go
through :func:`nemem.algebra.svd32`, whose one-matrix invariants are
floats, so one material point stays on floats.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import adj2, svd32
from .constitutive import _INVARIANT_MAX, step_length_tensor

__all__ = [
    "DomainError",
    "MembraneEval",
    "RankDeficientError",
    "Region",
    "classify",
    "membrane_stress",
    "minimize_thickness_vector",
    "plane_energy",
    "plane_energy_values",
    "principal_stresses",
    "psi",
    "region_tags",
    "relaxed_energy",
    "relaxed_energy_grad_fd",
    "relaxed_growth_constant",
    "StressState",
]

# Relative slack accepted before (lamM, delta) is declared unrealizable.
_INVALID_TOL = 1e-12
# A 3x2 matrix counts as rank two when delta exceeds this relative floor.
_RANK_TOL = 1e-12
# Closed comparison tolerance for the finite window of the third branch.
_GATE_TOL = 1e-14


class DomainError(ValueError):
    """Raised for evaluations requested outside their proven domain."""


class RankDeficientError(ValueError):
    """Raised when an operation needs a rank-two 3x2 matrix."""


class Region(enum.Enum):
    L = "L"
    M = "M"
    W = "W"
    S = "S"
    INVALID = "Invalid"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class MembraneEval:
    """Relaxed energy together with its classification.

    ``energy`` is zero exactly on region ``L`` (up to rounding near the
    region boundary)."""

    region: Region
    energy: float
    lamM: float
    delta: float


@dataclass(frozen=True)
class StressState:
    """Effective Cauchy stress of the membrane.

    ``sigma`` is the 3x3 plane-stress tensor assembled in the deformed
    principal frame; the principal values are never compressive."""

    sigma: np.ndarray
    classification: str
    principal_values: tuple
    principal_dirs: tuple
    region: Region


# Regions in precedence order: a pair lies in the first one whose test in
# ``_region_tests`` holds, so boundary points go to L, then S, then W.
_PRECEDENCE = (Region.INVALID, Region.L, Region.S, Region.W, Region.M)


def _region_tests(lamM, delta, r):
    """Tests of the regions in ``_PRECEDENCE``, on floats or arrays.

    The one copy of the region logic: ``classify``, ``region_tags`` and
    the masks of ``psi`` all read it.  M's test is ``True`` because M is
    whatever the others leave.  Invariants must be finite and
    non-negative.
    """
    # math.sqrt keeps scalar classify free of numpy calls; both round exactly.
    root = math.sqrt(lamM) if lamM.__class__ is float else np.sqrt(lamM)
    square = lamM * lamM
    return (
        delta > square * (1.0 + _INVALID_TOL),
        (lamM <= r ** (1.0 / 3.0)) & (delta <= r ** (1.0 / 6.0)),
        (root <= delta) & (delta <= square / math.sqrt(r)),
        delta < root,
        True,
    )


def _plane_brackets(lamM, delta, r, out=None):
    """Brackets ``b1``, ``b2``, ``b3`` of the plane energy's branches, then
    the third branch's ``window``, one at a time, on floats or arrays.

    The one copy of the branch formulas: branch ``k`` is
    ``r**(1/3) * bk - 3`` (``_plane_branches``), and the plane energy is
    ``mu/2`` times the least of branches 1, 2 and, where the closed test
    ``window`` holds, 3.  ``lamM`` and ``delta`` must be positive and, as
    arrays, of one shape.  Each bracket is built in place (``b1`` in
    ``out`` when given, an array of that shape), and a shared term is
    dropped once the last bracket that reads it is made, so a caller that
    folds the brackets as they come holds few arrays at once.
    """
    sqr = math.sqrt(r)
    # Squares are products: float ** 2 calls libm pow, array ** 2 multiplies.
    ratio2 = delta / lamM
    ratio2 *= ratio2
    inv_t2 = 1.0 / (delta * delta)
    square = lamM * lamM
    bracket = square / r if out is None else np.divide(square, r, out=out)
    bracket += ratio2
    bracket += inv_t2
    yield bracket
    square += ratio2
    inv_t2 /= r
    square += inv_t2
    del inv_t2
    yield square
    del square
    bracket = 2.0 * lamM
    bracket /= sqr * delta
    ratio2 += bracket
    del bracket
    yield ratio2
    prod = lamM * delta
    yield (prod >= (1.0 - _GATE_TOL) / sqr) & (prod <= (1.0 + _GATE_TOL) * sqr)


def _plane_branches(lamM, delta, r):
    """Branches ``(phi1, phi2, phi3, window)`` of the plane energy, on
    floats or arrays of one shape, from ``_plane_brackets``."""
    rc = r ** (1.0 / 3.0)
    b1, b2, b3, window = _plane_brackets(lamM, delta, r)
    return rc * b1 - 3.0, rc * b2 - 3.0, rc * b3 - 3.0, window


def _soft_stretches(r):
    """The ends ``r^(-1/6)``, ``r^(1/3)`` and geometric midpoint ``r^(1/12)``
    of the soft segment ``lamm = r^(-1/6)``, ``lamM`` in ``[r^(-1/6),
    r^(1/3)]``, where the plane energy is 0: the third bracket is ``3
    r^(-1/3)`` there and ``lamM * delta`` is in its window."""
    return r ** (-1.0 / 6.0), r ** (1.0 / 12.0), r ** (1.0 / 3.0)


def _check_invariants(lamM, delta):
    # A pair of Python floats comes back as floats, anything else as float
    # arrays.  Written so that NaN fails the comparison too.
    floats = lamM.__class__ is float and delta.__class__ is float
    if floats:
        bounded = lamM <= _INVARIANT_MAX and delta <= _INVARIANT_MAX
        negative = lamM < 0.0 or delta < 0.0
    else:
        lamM = np.asarray(lamM, dtype=float)
        delta = np.asarray(delta, dtype=float)
        # One reduction per test and array; a NaN extreme fails the bound.
        bounded = (
            lamM.max(initial=0.0) <= _INVARIANT_MAX and delta.max(initial=0.0) <= _INVARIANT_MAX
        )
        negative = lamM.min(initial=0.0) < 0.0 or delta.min(initial=0.0) < 0.0
    if bounded and not negative:
        return lamM, delta
    # A float pair is named in the message.
    got = f", got ({lamM}, {delta})" if floats else ""
    if not bounded:
        raise ValueError(f"stretch invariants must be finite and at most {_INVARIANT_MAX:g}{got}")
    raise ValueError(f"stretch invariants must be non-negative{got}")


def classify(lamM, delta, params):
    """Region of the pair (lamM, delta).

    Boundary points are resolved with the fixed precedence L, S, W, M;
    the energy formulas agree on shared boundaries, so the precedence
    only fixes the reported tag.  Pairs with ``delta > lamM**2`` are not
    realizable by any 3x2 matrix and classify as ``Region.INVALID``.

    Parameters
    ----------
    lamM, delta : float
        Largest singular value and areal stretch, both >= 0 and at most
        ``_INVARIANT_MAX``.
    params : MaterialParams

    Returns
    -------
    Region

    Raises
    ------
    ValueError
        For a negative, infinite, NaN or too large invariant.
    """
    lamM, delta = _check_invariants(float(lamM), float(delta))
    return _PRECEDENCE[_region_tests(lamM, delta, params.r).index(True)]


def region_tags(lamM, delta, params):
    """Region tags (the ``Region`` values) of arrays of invariant pairs.

    The vectorized ``classify``: same tests, same precedence, and the
    same rejection of negative, non-finite and too large input.
    """
    lamM, delta = _check_invariants(lamM, delta)
    tests = _region_tests(lamM, delta, params.r)
    tags = [region.value for region in _PRECEDENCE]
    return np.select(tests[:-1], tags[:-1], tags[-1])


def psi(lamM, delta, params):
    """Scalar representative of the relaxed energy on the invariant plane.

    Vectorized over numpy arrays; a pair of Python floats is evaluated
    on floats, with the same bits.  For realizable pairs
    (``delta <= lamM**2``) this is the four-regime closed form.  Pairs
    above the equi-biaxial line are not realizable by any matrix; there
    the convex representative is continued constantly in ``lamM`` (the
    value at ``lamM = sqrt(delta)``), which keeps the polyconvexity test
    function total.  Matrix-level callers never reach that branch.

    Parameters
    ----------
    lamM, delta : array_like
        Non-negative invariants, at most ``_INVARIANT_MAX``.
    params : MaterialParams

    Returns
    -------
    ndarray or float

    Raises
    ------
    ValueError
        If any invariant is negative, infinite, NaN or above
        ``_INVARIANT_MAX``.
    """
    lamM, delta = _check_invariants(lamM, delta)
    if lamM.__class__ is float:  # both are, after the check
        s = max(lamM, math.sqrt(delta))  # constant continuation above delta = lamM^2
        tests = _region_tests(s, delta, params.r)
        return _region_energy(s, delta, _PRECEDENCE[1 + tests[1:].index(True)], params)
    scalar = lamM.ndim == 0 and delta.ndim == 0
    s, t = np.broadcast_arrays(np.atleast_1d(lamM), np.atleast_1d(delta))
    s = np.maximum(s, np.sqrt(t))

    _, in_L, solid, wrinkled, _ = _region_tests(s, t, params.r)
    in_S = ~in_L & solid
    in_W = ~(in_L | in_S) & wrinkled
    in_M = ~(in_L | in_S | in_W)

    out = np.zeros_like(s)
    for region, mask in ((Region.S, in_S), (Region.W, in_W), (Region.M, in_M)):
        if np.any(mask):
            out[mask] = _region_energy(s[mask], t[mask], region, params)
    return float(out[0]) if scalar else out.reshape(np.broadcast(lamM, delta).shape)


def _region_energy(lamM, delta, region, params):
    """Relaxed energy of pairs in ``region``, on floats or arrays.

    The one copy of the per-region closed forms, read by ``psi`` and
    ``relaxed_energy``: S is the first plane-energy branch, W and M the
    relaxed ones, and L (with anything else) is zero.  The pairs must
    all lie in ``region``.
    """
    r = params.r
    rc = r ** (1.0 / 3.0)
    if region is Region.S:
        phi = rc * next(_plane_brackets(lamM, delta, r)) - 3.0
    elif region is Region.W:
        phi = rc * (lamM * lamM / r + 2.0 / lamM) - 3.0
    elif region is Region.M:
        phi = rc * (2.0 * delta / math.sqrt(r) + 1.0 / (delta * delta)) - 3.0
    else:
        return 0.0
    return 0.5 * params.mu * phi


def plane_energy_values(lamM, delta, params):
    """Unrelaxed plane energy on the invariant plane (vectorized; a pair
    of Python floats is evaluated on floats, with the same bits).

    The minimum of the three candidate branches produced by the exact
    thickness/director minimization; +inf where ``lamM = 0`` or ``delta <=
    _RANK_TOL max(1, lamM^2)``, with ``_RANK_TOL = 1e-12``, which is
    ``lamm <= 1e-12 lamM`` once ``lamM >= 1`` (so also at full-rank pairs
    such as ``(1e20, 1e20)``), and on the closed complement of the finite
    window of the third branch.  Never below 0.
    """
    lamM, delta = _check_invariants(lamM, delta)
    # The least bracket, then the shared rc * x - 3 and mu/2: the same bits
    # as the least branch, as both maps are monotone under round-to-nearest.
    # The energy is never negative in exact arithmetic; on its zero set (the
    # soft segment) the branches round below 0, so both lanes clamp at 0.
    rc = params.r ** (1.0 / 3.0)
    if lamM.__class__ is float:  # both are, after the check
        # lamM = 0 above the floor is unrealizable: +inf, as delta / 0 gives on arrays.
        if not (delta > _RANK_TOL * max(1.0, lamM * lamM) and lamM > 0.0):
            return math.inf
        b1, b2, b3, window = _plane_brackets(lamM, delta, params.r)
        return max(0.0, 0.5 * params.mu * (rc * min(b1, b2, b3 if window else math.inf) - 3.0))
    if lamM.shape != delta.shape:
        lamM, delta = np.broadcast_arrays(lamM, delta)

    def energy(s, t, out):
        brackets = _plane_brackets(s, t, params.r, out)
        least = next(brackets)
        np.minimum(least, next(brackets), out=least)
        b3 = next(brackets)
        np.minimum(least, b3, out=least, where=next(brackets))
        np.multiply(least, rc, out=least)
        np.subtract(least, 3.0, out=least)
        np.multiply(0.5 * params.mu, least, out=least)
        return np.maximum(least, 0.0, out=least)

    # Rank-deficient pairs (and lamM = 0, as on floats) are +inf: a mask,
    # skipped when every pair is rank two.  The output is allocated before
    # the branch temporaries: the other order raised the oracle's peak RSS
    # by about 3 MiB.
    rank_ok = (delta > _RANK_TOL * np.maximum(1.0, lamM * lamM)) & (lamM > 0.0)
    out = np.full(lamM.shape, np.inf)
    if np.count_nonzero(rank_ok) == rank_ok.size:
        energy(lamM, delta, out)
    elif np.any(rank_ok):
        out[rank_ok] = energy(lamM[rank_ok], delta[rank_ok], None)
    return float(out) if lamM.ndim == 0 else out


def plane_energy(Ft, params):
    """Plane energy of a 3x2 gradient: thickness- and director-minimized
    3D density.  +inf where ``delta <= 1e-12 max(1, lamM^2)``
    (``plane_energy_values``): at rank-deficient input, and also at a
    full-rank one with ``lamm <= 1e-12 lamM`` and ``lamM >= 1``, such as
    ``diag_embed(1e20, 1.0)``.

    Agrees with direct two-variable numerical minimization of the 3D
    density over the thickness vector and the director.

    Raises
    ------
    ValueError
        For another shape or a non-finite entry (``svd32``), and for a
        stretch invariant above ``_INVARIANT_MAX``.
    """
    sd = svd32(Ft)
    return plane_energy_values(sd.lamM, sd.delta, params)


def relaxed_energy(Ft, params):
    """Relaxed (effective) membrane energy of a 3x2 gradient.

    Finite for every finite matrix whose invariants are at most
    ``_INVARIANT_MAX``, including rank-deficient matrices, and zero
    exactly on region ``L``.

    Returns
    -------
    MembraneEval

    Raises
    ------
    ValueError
        For another shape or a non-finite entry (``svd32``), and for a
        stretch invariant above ``_INVARIANT_MAX``.
    """
    sd = svd32(Ft)
    region = classify(sd.lamM, sd.delta, params)
    # delta = lamM * lamm with lamm <= lamM: psi's continuation above
    # delta = lamM^2 can only act where lamM^2 underflows, deep in L, so
    # this is psi's region and energy.
    return MembraneEval(
        region=region,
        energy=_region_energy(sd.lamM, sd.delta, region, params),
        lamM=sd.lamM,
        delta=sd.delta,
    )


def minimize_thickness_vector(Ft, n, params):
    """Optimal thickness vector of the constrained 3D minimization.

    For a rank-two 3x2 gradient and unit director the minimizer of the
    entropic density over the third column, subject to unit determinant,
    is ``l a / |l^(1/2) a|^2`` with ``a = adj2(Ft)`` and ``l`` the
    step-length tensor.  The result satisfies ``det (Ft | c) = 1``.

    Raises
    ------
    RankDeficientError
        If ``Ft`` has numerical rank below two.
    """
    Ft = np.asarray(Ft, dtype=float)
    sd = svd32(Ft)
    if sd.delta <= _RANK_TOL * max(1.0, sd.lamM * sd.lamM):
        raise RankDeficientError(
            "thickness minimizer needs rank(Ft) = 2; "
            f"areal stretch {sd.delta:.3e} is at rounding scale"
        )
    ell = step_length_tensor(n, params)
    a = adj2(Ft)
    la = ell @ a
    return la / float(a @ la)  # a . l a = |l^(1/2) a|^2


def membrane_stress(Ft, params):
    """Effective Cauchy stress of the membrane.

    Defined on the open set 0 < delta < lamM^2 (distinct, nonzero
    singular values).  The tensor is assembled in the deformed principal
    frame; principal values are non-negative, with zero / uniaxial /
    equi-biaxial / biaxial tension on regions L / W / M / S.

    Raises
    ------
    DomainError
        Outside the open set, naming the violated strict inequality.
    """
    sd = svd32(Ft)
    lamM, delta = sd.lamM, sd.delta
    if not delta > 0.0:
        raise DomainError(
            f"stress is defined for 0 < delta; got delta = {delta} (violates 0 < delta)"
        )
    if not delta < lamM * lamM:
        raise DomainError(
            f"stress is defined for delta < lamM^2; got delta = {delta}, "
            f"lamM^2 = {lamM * lamM} (violates delta < lamM^2)"
        )
    region = classify(lamM, delta, params)
    s1, s2 = principal_stresses(lamM, delta, region, params)
    e1, e2 = sd.e1, sd.e2
    sigma = s1 * np.outer(e1, e1) + s2 * np.outer(e2, e2)
    labels = {
        Region.L: "zero",
        Region.M: "equibiaxial",
        Region.W: "uniaxial",
        Region.S: "biaxial",
    }
    return StressState(
        sigma=sigma,
        classification=labels[region],
        principal_values=(float(s1), float(s2)),
        principal_dirs=(e1.copy(), e2.copy()),
        region=region,
    )


def principal_stresses(lamM, delta, region, params):
    """Principal Cauchy stresses ``(sigma1, sigma2)`` of pairs in ``region``.

    Floats or arrays of pairs that all lie in ``region`` and in the open
    set 0 < delta < lamM^2; zero, uniaxial, equi-biaxial and biaxial
    tension on L, W, M and S.  A zero stress comes back as the float 0.0.
    """
    r = params.r
    scale = params.mu * r ** (1.0 / 3.0)
    # Squares are products, as in _plane_branches, so floats and arrays agree.
    if region is Region.M:
        s = scale * (delta / math.sqrt(r) - 1.0 / (delta * delta))
        return s, s
    if region is Region.W:
        return scale * (lamM * lamM / r - 1.0 / lamM), 0.0
    if region is Region.S:
        ratio = delta / lamM
        return (
            scale * (lamM * lamM / r - 1.0 / (delta * delta)),
            scale * (ratio * ratio - 1.0 / (delta * delta)),
        )
    return 0.0, 0.0


def relaxed_energy_grad_fd(Ft, params, h=None):
    """Central finite-difference gradient of the relaxed energy.

    Intended for points at distance greater than ~10 h from a region
    boundary in the invariant plane, where the energy is smooth.

    Parameters
    ----------
    Ft : ndarray, shape (3, 2)
    params : MaterialParams
    h : float, optional
        Step; defaults to 1e-5 * max(1, |Ft|).
    """
    Ft = np.asarray(Ft, dtype=float)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(Ft)))
    return _central_difference(lambda G: relaxed_energy(G, params).energy, Ft, h)


def _central_difference(energy, Ft, h):
    # Entrywise central differences of ``energy`` at the 3x2 matrix ``Ft``.
    grad = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            Fp = Ft.copy()
            Fm = Ft.copy()
            Fp[i, j] += h
            Fm[i, j] -= h
            grad[i, j] = (energy(Fp) - energy(Fm)) / (2.0 * h)
    return grad


def relaxed_growth_constant(params):
    """Constant c' with (1/c')|Ft|^2 - c' <= relaxed energy <= c'(|Ft|^2 + 1).

    Assembled from per-region bounds: the energy is at most
    (mu/2)(r^(1/3)|Ft|^2 + 1) everywhere and at least
    (mu/2)(r^(-2/3)|Ft|^2 - 3) outside L, while on L the norm itself is
    bounded by 2 r^(2/3).
    """
    mu, r = params.mu, params.r
    upper = max(0.5 * mu * (r ** (1.0 / 3.0) + 1.0), mu * (r ** (-1.0 / 6.0) + 1.0))
    lower_slope = 2.0 * r ** (2.0 / 3.0) / mu
    lower_offset = 0.5 * mu * (r ** (-2.0 / 3.0) + 3.0)
    liquid = np.sqrt(2.0) * r ** (1.0 / 3.0)
    return max(1.0, upper, lower_slope, lower_offset, liquid)
