"""Explicit minimizing laminates (discrete gradient Young measures).

Two building blocks generate every construction: a wrinkle split that
moves the areal stretch at fixed largest stretch, and a shear split that
moves the largest stretch at fixed areal stretch.  Conjugating them into
the singular frame of a target gradient yields, region by region, a
measure whose atoms average to the target and whose plane-energy pairing
equals the relaxed energy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import adj2, diag_embed, svd32
from .membrane import Region, classify

__all__ = [
    "DiscreteYoungMeasure",
    "SupportReport",
    "check_support_M",
    "check_support_W",
    "laminate_shear",
    "laminate_wrinkle",
    "measure_pairing",
    "measure_to_json_dict",
    "young_measure_for",
]

_WEIGHT_PRUNE = 1e-14
_SHEAR_TINY = 1e-15
# Largest deviation of an atom's invariants, normal or fiber from the
# support law that the support checks accept.
_SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteYoungMeasure:
    """Finite list of (weight, 3x2 matrix) atoms with split provenance.

    ``tree`` records one entry per lamination split:
    ``{"level", "a", "b", "magnitude", "weight"}`` (built by ``_split``)
    where the two branch matrices differ by ``magnitude * outer(a, b)``
    and ``weight`` is the fraction carried by the "+" branch.  A measure
    has at least one atom.
    """

    atoms: tuple
    tree: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValueError("a Young measure needs at least one atom")

    def barycenter(self):
        out = np.zeros((3, 2))
        for w, G in self.atoms:
            out += w * G
        return out

    def total_weight(self):
        return sum(w for w, _ in self.atoms)


def _split(level, a, b, magnitude, weight):
    """The one form of a split record: the level as an int, the directions
    as float arrays, the magnitude and weight as floats."""
    return {
        "level": int(level),
        "a": np.asarray(a, dtype=float),
        "b": np.asarray(b, dtype=float),
        "magnitude": float(magnitude),
        "weight": float(weight),
    }


def _require_finite(**values):
    for name, x in values.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {name} = {x}")


def _pruned(atoms):
    kept = [(w, np.asarray(G, dtype=float)) for w, G in atoms if w > _WEIGHT_PRUNE]
    total = sum(w for w, _ in kept)
    return tuple((w / total, G) for w, G in kept)


def measure_pairing(nu, f):
    """Pairing sum_i w_i f(G_i) of a measure with a function of gradients.

    ``f`` may return a scalar (possibly +inf: any positively weighted
    infinite atom makes the pairing +inf) or an array, in which case the
    weighted sum is taken elementwise.
    """
    values = [(w, f(G)) for w, G in nu.atoms]
    first = np.asarray(values[0][1], dtype=float)
    if first.ndim == 0:
        if any(np.isinf(v) and w > 0.0 for w, v in values):
            return np.inf
        return float(sum(w * v for w, v in values))
    out = np.zeros_like(first)
    for w, v in values:
        out += w * np.asarray(v, dtype=float)
    return out


def laminate_wrinkle(q, d, delta_bar):
    """Rank-one pair trading areal stretch at fixed largest stretch.

    Atoms ``diag_embed(q, +d/q)`` and ``diag_embed(q, -d/q)`` (both with
    invariants ``(q, d)``) mixed with weight ``(1 + delta_bar/d)/2`` on
    the "+" atom average to ``diag_embed(q, delta_bar/q)``.

    Parameters
    ----------
    q : float
        Largest stretch of the atoms, > 0 with q**2 >= d.
    d : float
        Areal stretch of the atoms, > 0.
    delta_bar : float
        Target areal stretch, in [0, d].

    Returns
    -------
    DiscreteYoungMeasure
    """
    _require_finite(q=q, d=d, delta_bar=delta_bar)
    if not q > 0.0:
        raise ValueError(f"wrinkle laminate needs q > 0, got q = {q}")
    if not d > 0.0:
        raise ValueError(f"wrinkle laminate needs d > 0, got d = {d}")
    if q * q < d * (1.0 - 1e-12):
        raise ValueError(f"wrinkle laminate needs q^2 >= d, got q = {q}, d = {d}")
    if not (-1e-15 <= delta_bar <= d * (1.0 + 1e-12)):
        raise ValueError(f"target delta_bar = {delta_bar} outside [0, d = {d}]")
    delta_bar = min(max(delta_bar, 0.0), d)
    theta = 0.5 * (1.0 + delta_bar / d)
    atoms = _pruned([(theta, diag_embed(q, d / q)), (1.0 - theta, diag_embed(q, -d / q))])
    # A pruned atom leaves a Dirac, with no split.
    tree = (_split(1, [0.0, 1.0, 0.0], [0.0, 1.0], 2.0 * d / q, theta),) if len(atoms) == 2 else ()
    return DiscreteYoungMeasure(atoms=atoms, tree=tree)


def laminate_shear(q, d, c):
    """Rank-one pair trading largest stretch at fixed areal stretch.

    Atoms ``[[c, +xi], [0, d/c], [0, 0]]`` and its mirror, with
    ``xi^2 = d^2/q^2 + q^2 - d^2/c^2 - c^2``, both have invariants
    ``(q, d)`` and average with equal weights to ``diag_embed(c, d/c)``.
    The degenerate case ``c = d = 0`` shears the zero matrix.

    Parameters
    ----------
    q : float
        Largest stretch of the atoms, with q**2 >= d.
    d : float
        Areal stretch of the atoms, >= 0.
    c : float
        Largest stretch of the target, in [sqrt(d), q].

    Returns
    -------
    DiscreteYoungMeasure
    """
    _require_finite(q=q, d=d, c=c)
    if d < 0.0:
        raise ValueError(f"shear laminate needs d >= 0, got d = {d}")
    if q * q < d * (1.0 - 1e-12):
        raise ValueError(f"shear laminate needs q^2 >= d, got q = {q}, d = {d}")
    if c == 0.0 and d == 0.0:
        if not q > 0.0:
            raise ValueError("zero-target shear needs q > 0")
        c, lo, xi = 0.0, 0.0, q
    else:
        if not (np.sqrt(d) * (1.0 - 1e-12) <= c <= q * (1.0 + 1e-12)):
            raise ValueError(
                f"shear target c = {c} outside [sqrt(d) = {np.sqrt(d)}, q = {q}]"
            )
        # q^2 (1 - (c / q)^2)(1 - (d / qc)^2), factored so that no terms of
        # size q^2 cancel, and scaled by q so that nothing underflows.
        lo = d / c
        xi = q * np.sqrt(max((q - c) / q * ((q + c) / q) * (1.0 - lo / q) * (1.0 + lo / q), 0.0))
    plus = np.array([[c, xi], [0.0, lo], [0.0, 0.0]])
    minus = np.array([[c, -xi], [0.0, lo], [0.0, 0.0]])
    if xi <= _SHEAR_TINY * q:
        # Target already on the atom set: Dirac.
        return DiscreteYoungMeasure(atoms=((1.0, plus),), tree=())
    split = _split(1, [1.0, 0.0, 0.0], [0.0, 1.0], 2.0 * xi, 0.5)
    return DiscreteYoungMeasure(atoms=((0.5, plus), (0.5, minus)), tree=(split,))


def _conjugate(nu, Q, R, level_offset=0):
    # Map a diagonal-frame measure through G -> Q G R; split directions
    # transform as a -> Q a, b -> R^T b.
    atoms = tuple((w, Q @ G @ R) for w, G in nu.atoms)
    tree = tuple(
        _split(s["level"] + level_offset, Q @ s["a"], R.T @ s["b"], s["magnitude"], s["weight"])
        for s in nu.tree
    )
    return DiscreteYoungMeasure(atoms=atoms, tree=tree)


def young_measure_for(Ft, params):
    """Minimizing Young measure for a 3x2 gradient, region by region.

    * ``S``: Dirac mass at ``Ft`` (no relaxation).
    * ``W``: wrinkle pair at areal stretch ``lamM**(1/2)``.
    * ``M``: shear pair at largest stretch ``r**(1/4) delta**(1/2)``.
    * ``L``: shear to largest stretch ``r**(1/3)`` at fixed areal
      stretch, then a wrinkle of each endpoint to areal stretch
      ``r**(1/6)`` -- up to four atoms on the zero set.

    Atoms are conjugated into the singular frame of ``Ft``; second-level
    splits are applied in each endpoint's own frame.  The barycenter
    reproduces ``Ft`` and the plane-energy pairing equals the relaxed
    energy.

    Returns
    -------
    DiscreteYoungMeasure
    """
    Ft = np.asarray(Ft, dtype=float)
    sd = svd32(Ft)
    region = classify(sd.lamM, sd.delta, params)
    if region is Region.S:
        return DiscreteYoungMeasure(atoms=((1.0, Ft.copy()),), tree=())
    r = params.r
    if region is Region.W:
        base = laminate_wrinkle(q=sd.lamM, d=np.sqrt(sd.lamM), delta_bar=sd.delta)
        return _conjugate(base, sd.Q, sd.R)
    if region is Region.M:
        base = laminate_shear(q=r**0.25 * np.sqrt(sd.delta), d=sd.delta, c=sd.lamM)
        return _conjugate(base, sd.Q, sd.R)

    # Region L: shear-then-wrinkle, two levels.
    q1 = r ** (1.0 / 3.0)
    d2 = r ** (1.0 / 6.0)
    level1 = _conjugate(laminate_shear(q=q1, d=sd.delta, c=sd.lamM), sd.Q, sd.R)
    atoms = []
    tree = list(level1.tree)
    # One svd32 call for every endpoint; tolist() gives the floats (and
    # bits) of one-matrix calls.
    sde = svd32(np.array([G for _, G in level1.atoms]))
    for (w_end, _), lam, dlt, Q, R in zip(
        level1.atoms, sde.lamM.tolist(), sde.delta.tolist(), sde.Q, sde.R
    ):
        wrinkle = laminate_wrinkle(q=lam, d=d2, delta_bar=dlt)
        conj = _conjugate(wrinkle, Q, R, level_offset=1)
        atoms.extend((w_end * w, G) for w, G in conj.atoms)
        tree.extend(conj.tree)
    return DiscreteYoungMeasure(atoms=_pruned(atoms), tree=tuple(tree))


@dataclass(frozen=True)
class SupportReport:
    """Outcome of a support check: violations are human-readable and
    ``worst`` is the largest deviation encountered."""

    passed: bool
    violations: tuple
    worst: float


def _support_report(nu, q_t, d_t, own_test):
    """The support checks' one per-atom loop: each atom's largest and areal
    stretch against ``q_t`` and ``d_t``, then the check's own ``(error,
    text)`` pairs from ``own_test(G, sde)`` (an error of None is a violation
    without a size).  A deviation is a violation unless it is at most
    ``_SUPPORT_TOL``, so a NaN one is, and ``worst`` is then NaN."""
    violations = []
    errors = [0.0]
    for idx, (_, G) in enumerate(nu.atoms):
        sde = svd32(G)
        tests = [
            (abs(sde.lamM - q_t), f"largest stretch {sde.lamM!r} differs from {q_t!r} by"),
            (abs(sde.delta - d_t), f"areal stretch {sde.delta!r} differs from {d_t!r} by"),
            *own_test(G, sde),
        ]
        for err, text in tests:
            if err is None:
                violations.append(f"atom {idx}: {text}")
                continue
            errors.append(err)
            if not err <= _SUPPORT_TOL:
                violations.append(f"atom {idx}: {text} {err:.3e}")
    return SupportReport(
        passed=not violations, violations=tuple(violations), worst=float(np.max(errors))
    )


def check_support_M(nu, delta_bar, params):
    """Check the support law of an equi-biaxial (region M) measure.

    Every atom must carry invariants ``(r**(1/4) sqrt(delta_bar),
    delta_bar)`` and map the reference plane into one common deformed
    plane (the oriented unit normals ``adj2(G)/delta(G)`` agree).  Raises
    ``ValueError`` unless ``delta_bar`` is finite and >= 0.
    """
    if not (math.isfinite(delta_bar) and delta_bar >= 0.0):
        raise ValueError(f"delta_bar must be finite and >= 0, got {delta_bar}")
    normals = []

    def common_normal(G, sde):
        if sde.delta <= 0.0:
            return [(None, "rank-deficient, no deformed plane")]
        normals.append(adj2(G) / sde.delta)
        if len(normals) == 1:
            return []
        return [(float(np.linalg.norm(normals[-1] - normals[0])), "deformed-plane normal deviates by")]

    return _support_report(nu, params.r**0.25 * math.sqrt(delta_bar), delta_bar, common_normal)


def check_support_W(nu, Ft):
    """Check the support law of a wrinkling (region W) measure.

    With ``(e_M, f_M)`` the leading singular pair of ``Ft``, every atom
    ``G`` must carry invariants ``(lamM, lamM**(1/2))`` and satisfy
    ``G f_M = lamM e_M`` (the stretched fiber is common to all atoms).
    """
    sd = svd32(np.asarray(Ft, dtype=float))
    lam = sd.lamM

    def fixed_fiber(G, sde):
        return [(float(np.linalg.norm(np.asarray(G) @ sd.f1 - lam * sd.e1)), "stretched fiber moves by")]

    return _support_report(nu, lam, math.sqrt(lam), fixed_fiber)


def measure_to_json_dict(nu):
    """JSON-ready dict: barycenter, atoms, and the lamination tree."""
    return {
        "barycenter": nu.barycenter().tolist(),
        "atoms": [
            {"weight": float(w), "matrix": np.asarray(G).tolist()} for w, G in nu.atoms
        ],
        "tree": [{k: np.asarray(v).tolist() for k, v in _split(**s).items()} for s in nu.tree],
    }
