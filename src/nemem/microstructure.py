"""Explicit minimizing laminates (discrete gradient Young measures).

Two building blocks generate every construction: a wrinkle split that
moves the areal stretch at fixed largest stretch, and a shear split that
moves the largest stretch at fixed areal stretch.  Conjugating them into
the singular frame of a target gradient yields, region by region, a
measure whose atoms average to the target and whose plane-energy pairing
equals the relaxed energy.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import adj2, diag_embed, svd32
from .membrane import Region, classify, plane_energy

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
    ``{"level", "a", "b", "magnitude", "weight"}`` where the two branch
    matrices differ by ``magnitude * outer(a, b)`` and ``weight`` is the
    fraction carried by the "+" branch.
    """

    atoms: tuple
    tree: tuple = field(default_factory=tuple)

    def barycenter(self):
        out = np.zeros((3, 2))
        for w, G in self.atoms:
            out += w * G
        return out

    def total_weight(self):
        return sum(w for w, _ in self.atoms)


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
    plus = diag_embed(q, d / q)
    minus = diag_embed(q, -d / q)
    atoms = _pruned([(theta, plus), (1.0 - theta, minus)])
    if len(atoms) == 1:
        return DiscreteYoungMeasure(atoms=atoms, tree=())
    split = {
        "level": 1,
        "a": np.array([0.0, 1.0, 0.0]),
        "b": np.array([0.0, 1.0]),
        "magnitude": 2.0 * d / q,
        "weight": theta,
    }
    return DiscreteYoungMeasure(atoms=atoms, tree=(split,))


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
    if d < 0.0:
        raise ValueError(f"shear laminate needs d >= 0, got d = {d}")
    if q * q < d * (1.0 - 1e-12):
        raise ValueError(f"shear laminate needs q^2 >= d, got q = {q}, d = {d}")
    if c == 0.0 and d == 0.0:
        if not q > 0.0:
            raise ValueError("zero-target shear needs q > 0")
        xi = q
        plus = np.array([[0.0, xi], [0.0, 0.0], [0.0, 0.0]])
        minus = np.array([[0.0, -xi], [0.0, 0.0], [0.0, 0.0]])
    else:
        if not (np.sqrt(d) * (1.0 - 1e-12) <= c <= q * (1.0 + 1e-12)):
            raise ValueError(
                f"shear target c = {c} outside [sqrt(d) = {np.sqrt(d)}, q = {q}]"
            )
        xi2 = d * d / (q * q) + q * q - d * d / (c * c) - c * c
        xi = np.sqrt(max(xi2, 0.0))
        plus = np.array([[c, xi], [0.0, d / c], [0.0, 0.0]])
        minus = np.array([[c, -xi], [0.0, d / c], [0.0, 0.0]])
    if xi <= _SHEAR_TINY * max(1.0, q):
        # Target already on the atom set: Dirac.
        return DiscreteYoungMeasure(atoms=((1.0, plus),), tree=())
    split = {
        "level": 1,
        "a": np.array([1.0, 0.0, 0.0]),
        "b": np.array([0.0, 1.0]),
        "magnitude": 2.0 * xi,
        "weight": 0.5,
    }
    return DiscreteYoungMeasure(atoms=((0.5, plus), (0.5, minus)), tree=(split,))


def _conjugate(nu, Q, R, level_offset=0):
    # Map a diagonal-frame measure through G -> Q G R; split directions
    # transform as a -> Q a, b -> R^T b.
    atoms = tuple((w, Q @ G @ R) for w, G in nu.atoms)
    tree = []
    for s in nu.tree:
        tree.append(
            {
                "level": s["level"] + level_offset,
                "a": Q @ s["a"],
                "b": R.T @ s["b"],
                "magnitude": s["magnitude"],
                "weight": s["weight"],
            }
        )
    return DiscreteYoungMeasure(atoms=atoms, tree=tuple(tree))


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
        base = laminate_shear(
            q=r**0.25 * np.sqrt(sd.delta), d=sd.delta, c=sd.lamM
        )
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


def _report(violations, worst):
    return SupportReport(
        passed=not violations, violations=tuple(violations), worst=float(worst)
    )


def check_support_M(nu, delta_bar, params):
    """Check the support law of an equi-biaxial (region M) measure.

    Every atom must carry invariants ``(r**(1/4) sqrt(delta_bar),
    delta_bar)`` and map the reference plane into one common deformed
    plane (the oriented unit normals ``adj2(G)/delta(G)`` agree).
    """
    r = params.r
    q_t = r**0.25 * np.sqrt(delta_bar)
    violations = []
    worst = 0.0
    normal0 = None
    for idx, (w, G) in enumerate(nu.atoms):
        sde = svd32(G)
        err_q = abs(sde.lamM - q_t)
        err_d = abs(sde.delta - delta_bar)
        worst = max(worst, err_q, err_d)
        if err_q > _SUPPORT_TOL:
            violations.append(
                f"atom {idx}: largest stretch {sde.lamM!r} differs from "
                f"{q_t!r} by {err_q:.3e}"
            )
        if err_d > _SUPPORT_TOL:
            violations.append(
                f"atom {idx}: areal stretch {sde.delta!r} differs from "
                f"{delta_bar!r} by {err_d:.3e}"
            )
        if sde.delta <= 0.0:
            violations.append(f"atom {idx}: rank-deficient, no deformed plane")
            continue
        normal = adj2(G) / sde.delta
        if normal0 is None:
            normal0 = normal
        else:
            err_n = float(np.linalg.norm(normal - normal0))
            worst = max(worst, err_n)
            if err_n > _SUPPORT_TOL:
                violations.append(
                    f"atom {idx}: deformed-plane normal deviates by {err_n:.3e}"
                )
    return _report(violations, worst)


def check_support_W(nu, Ft):
    """Check the support law of a wrinkling (region W) measure.

    With ``(e_M, f_M)`` the leading singular pair of ``Ft``, every atom
    ``G`` must carry invariants ``(lamM, lamM**(1/2))`` and satisfy
    ``G f_M = lamM e_M`` (the stretched fiber is common to all atoms).
    """
    sd = svd32(np.asarray(Ft, dtype=float))
    lam = sd.lamM
    target_d = np.sqrt(lam)
    violations = []
    worst = 0.0
    for idx, (w, G) in enumerate(nu.atoms):
        sde = svd32(G)
        err_q = abs(sde.lamM - lam)
        err_d = abs(sde.delta - target_d)
        err_f = float(np.linalg.norm(np.asarray(G) @ sd.f1 - lam * sd.e1))
        worst = max(worst, err_q, err_d, err_f)
        if err_q > _SUPPORT_TOL:
            violations.append(
                f"atom {idx}: largest stretch {sde.lamM!r} differs from "
                f"{lam!r} by {err_q:.3e}"
            )
        if err_d > _SUPPORT_TOL:
            violations.append(
                f"atom {idx}: areal stretch {sde.delta!r} differs from "
                f"{target_d!r} by {err_d:.3e}"
            )
        if err_f > _SUPPORT_TOL:
            violations.append(
                f"atom {idx}: stretched fiber moves by {err_f:.3e}"
            )
    return _report(violations, worst)


def measure_to_json_dict(nu):
    """JSON-ready dict: barycenter, atoms, and the lamination tree."""
    return {
        "barycenter": nu.barycenter().tolist(),
        "atoms": [
            {"weight": float(w), "matrix": np.asarray(G).tolist()} for w, G in nu.atoms
        ],
        "tree": [
            {
                "level": int(s["level"]),
                "a": np.asarray(s["a"]).tolist(),
                "b": np.asarray(s["b"]).tolist(),
                "magnitude": float(s["magnitude"]),
                "weight": float(s["weight"]),
            }
            for s in nu.tree
        ],
    }
