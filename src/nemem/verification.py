"""Executable verification suites for the closed-form results.

Each suite samples a deterministic grid or seeded point cloud, measures
the worst violation of the identities it covers, and reports a
machine-readable :class:`SuiteReport`.  Semantics of ``worst_violation``:

* ``energy_bounds``  -- raw signed excess (lhs - rhs) of the branch
  inequalities, tolerance 1e-12;
* all other suites   -- largest error normalized by its own tolerance,
  so the suite tolerance is 1.0.

``worst_check`` names the check that holds the worst violation, and
``worst_point`` its ``(lamM, delta)``.  ``by_check`` gives each check its
own worst violation, point and region tag.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import svd32
from .constitutive import entropic_energy, growth_constant
from .membrane import (
    Region,
    _central_difference,
    _plane_branches,
    classify,
    membrane_stress,
    plane_energy,
    psi,
    relaxed_energy_grad_fd,
    relaxed_growth_constant,
)
from .microstructure import measure_pairing, young_measure_for
from .relaxation import OracleConfig, relax_lamination

__all__ = [
    "CheckReport",
    "SuiteReport",
    "region_window",
    "regions_for",
    "run_suites",
    "sample_region_matrix",
    "verify_energy_bounds",
    "verify_envelope_chain",
    "verify_frame_and_growth",
    "verify_stress_identities",
]

DEFAULT_R_VALUES = (1.01, 2.0, 8.0, 100.0)


def _json_point(point):
    return [x if np.isfinite(x) else None for x in point]


@dataclass(frozen=True)
class CheckReport:
    """The worst violation of one check, its ``(lamM, delta)`` and the
    region of that point (None where the check has no point)."""

    name: str
    worst_violation: float
    worst_point: tuple
    region: Region | None

    def to_json_dict(self):
        return {
            "worst_violation": self.worst_violation,
            "worst_point": _json_point(self.worst_point),
            "region": None if self.region is None else self.region.value,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite_name: str
    samples: int
    worst_violation: float
    worst_check: str
    worst_point: tuple
    passed: bool
    tolerance: float
    by_check: tuple

    @property
    def checks(self):
        """The names of the suite's checks, in the order they first report."""
        return tuple(c.name for c in self.by_check)

    def to_json_dict(self):
        return {
            "suite_name": self.suite_name,
            "samples": self.samples,
            "worst_violation": self.worst_violation,
            "worst_check": self.worst_check,
            "worst_point": _json_point(self.worst_point),
            "pass": self.passed,
            "tolerance": self.tolerance,
            "checks": list(self.checks),
            "by_check": {c.name: c.to_json_dict() for c in self.by_check},
        }


class _Worst:
    """The worst violation of a suite, with its check and point, and the
    worst of each check; the suite's checks are listed in the order they
    first report.  With ``params``, each check's point gets its region."""

    def __init__(self, params=None):
        self.params = params
        self.value = -np.inf
        self.check = None
        self.point = (np.nan, np.nan)
        self.checks = {}
        self.samples = 0

    def update(self, check, violation, lam, dlt):
        own = self.checks.setdefault(check, [-np.inf, (np.nan, np.nan)])
        violation = np.asarray(violation, dtype=float)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), violation.shape)
        dlt = np.broadcast_to(np.asarray(dlt, dtype=float), violation.shape)
        self.samples += violation.size
        if violation.size == 0:
            return
        k = int(np.argmax(violation))
        v = float(violation.ravel()[k])
        if v > own[0]:
            # A missing coordinate is the one NaN object, so that equal
            # reports compare equal.
            point = (float(lam.ravel()[k]), float(dlt.ravel()[k]))
            own[:] = v, tuple(x if x == x else np.nan for x in point)
        if v > self.value:
            self.value, self.check, self.point = v, check, own[1]

    def _region(self, point):
        if self.params is None or not np.all(np.isfinite(point)):
            return None
        return classify(*point, self.params)

    def report(self, suite_name, samples, tolerance):
        """The suite's report: it passes when the worst violation is at
        most ``tolerance``."""
        return SuiteReport(
            suite_name=suite_name,
            samples=samples,
            worst_violation=self.value,
            worst_check=self.check,
            worst_point=self.point,
            passed=self.value <= tolerance,
            tolerance=tolerance,
            by_check=tuple(
                CheckReport(name, v, point, self._region(point))
                for name, (v, point) in self.checks.items()
            ),
        )


def verify_energy_bounds(params, grid_n=200):
    """Bound the relaxed energy by each candidate branch, region by region.

    Grids cover the window of the invariant plane where each branch is
    the active minimum, plus the one-dimensional reduced inequalities
    obtained from the boundary evaluations and the cubic substitution.
    Requires r > 1 (the branches coincide as r -> 1).
    """
    r, mu = params.r, params.mu
    if not r > 1.0:
        raise ValueError("energy-bound suite needs r > 1")
    sqr = np.sqrt(r)
    worst = _Worst(params)

    lam = np.linspace(0.05 * r ** (1.0 / 3.0), 2.5 * r ** (1.0 / 3.0), grid_n)
    frac = np.linspace(1e-3, 1.0, grid_n)
    L, Frac = np.meshgrid(lam, frac, indexing="ij")
    Dlt = Frac * L**2
    W = psi(L, Dlt, params)
    phi1, phi2, phi3 = (0.5 * mu * phi for phi in _plane_branches(L, Dlt, r)[:3])
    prod = L * Dlt

    m1 = prod >= sqr
    worst.update("relaxed-le-branch1-grid", (W - phi1)[m1], L[m1], Dlt[m1])
    m2 = prod <= 1.0 / sqr
    worst.update("relaxed-le-branch2-grid", (W - phi2)[m2], L[m2], Dlt[m2])
    m3 = (prod > 1.0 / sqr) & (prod < sqr)
    worst.update("relaxed-le-branch3-grid", (W - phi3)[m3], L[m3], Dlt[m3])

    # Wrinkling branch vs branch 2 minimized over its admissible areal
    # stretches (inner minimization on a grid plus the critical value).
    lam_w = np.linspace(r ** (1.0 / 3.0) * (1.0 + 1e-9), 4.0 * r ** (1.0 / 3.0), grid_n)
    w_branch = lam_w**2 / r + 2.0 / lam_w
    crit = lam_w**2 + 2.0 / (sqr * lam_w)
    worst.update(
        "w-branch-le-branch2-critical",
        0.5 * mu * r ** (1.0 / 3.0) * (w_branch - crit),
        lam_w,
        np.nan,
    )
    d_edge = 1.0 / (sqr * lam_w)
    for frac_d in (0.25, 0.5, 0.75, 1.0):
        dd = frac_d * d_edge
        inner = lam_w**2 + (dd / lam_w) ** 2 + 1.0 / (r * dd**2)
        worst.update(
            "w-branch-le-branch2-inner-grid",
            0.5 * mu * r ** (1.0 / 3.0) * (w_branch - inner),
            lam_w,
            dd,
        )

    # Microstructure branch vs branch 3 evaluated on the two boundary
    # curves of its admissible smaller stretch.
    d_m = np.linspace(r ** (1.0 / 6.0) * (1.0 + 1e-9), r ** (1.0 / 3.0) * (1.0 - 1e-9), grid_n)
    m_branch = 2.0 * d_m / sqr + 1.0 / d_m**2
    edge_sqrt = d_m + 2.0 / (sqr * np.sqrt(d_m))
    worst.update(
        "m-branch-le-branch3-sqrt-edge",
        0.5 * mu * r ** (1.0 / 3.0) * (m_branch - edge_sqrt),
        np.nan,
        d_m,
    )
    edge_quad = d_m**4 / r + 2.0 / d_m**2
    worst.update(
        "m-branch-le-branch3-curved-edge",
        0.5 * mu * r ** (1.0 / 3.0) * (m_branch - edge_quad),
        np.nan,
        d_m,
    )

    # Cubic substitution y = delta^(3/2) of the sqrt-edge inequality:
    # re-derive instead of trusting the algebra, then assert the
    # substituted polynomial is non-negative.
    y = d_m**1.5
    poly = y**2 * (sqr - 2.0) + 2.0 * y - sqr
    original_scaled = -(sqr * d_m**2) * (m_branch - edge_sqrt)
    agree = np.abs(poly - original_scaled) - 1e-10 * np.maximum(1.0, np.abs(poly))
    worst.update("cubic-substitution-consistency", agree, np.nan, d_m)
    worst.update("cubic-substitution-nonneg", -poly, np.nan, d_m)

    # Equality locus: along delta = lamM^(1/2) in the wrinkling closure
    # the relaxed energy meets branch 1 exactly.
    lam_e = np.linspace(r ** (1.0 / 3.0), 3.0 * r ** (1.0 / 3.0), grid_n)
    d_e = np.sqrt(lam_e)
    w_e = psi(lam_e, d_e, params)
    p1_e = 0.5 * mu * _plane_branches(lam_e, d_e, r)[0]
    worst.update("equality-on-wrinkle-edge", np.abs(w_e - p1_e), lam_e, d_e)

    return worst.report("appendixA", worst.samples, 1e-12)


def region_window(region, r):
    """Parametrization of an interior patch of a region.

    Returns ``((lam_lo, lam_hi), delta_fn)`` where ``delta_fn(lam, v)``
    maps ``v`` in [0, 1] to an areal stretch strictly inside the region
    (geometric interpolation for the wedge-shaped regions, so margins
    survive r -> 1), or ``None`` when the region is empty at this ``r``
    (the microstructure wedge closes in the isotropic limit).
    """
    rc = r ** (1.0 / 3.0)
    rs = r ** (1.0 / 6.0)
    if region is Region.L:
        return (0.3 * rc, 0.95 * rc), lambda l, v: (0.1 + 0.8 * v) * min(l * l, rs)
    if region is Region.W:
        return (1.3 * rc, 3.0 * rc), lambda l, v: (0.15 + 0.7 * v) * np.sqrt(l)
    if region is Region.S:

        def d_solid(l, v):
            s = 0.05 + 0.9 * v
            lo = np.sqrt(l)
            hi = l * l / np.sqrt(r)
            return lo ** (1.0 - s) * hi**s

        return (1.3 * rc, 3.0 * rc), d_solid
    if region is Region.M:
        if r <= 1.0 + 1e-9:
            return None

        def d_micro(l, v):
            s = 0.1 + 0.8 * v
            return l * l * r ** (0.5 * (s - 1.0))

        return (1.1 * rc, 2.5 * rc), d_micro
    raise ValueError(f"no sampling window for {region}")


def regions_for(params):
    """Regions that are non-empty for this material: those with a window."""
    regions = (Region.L, Region.M, Region.W, Region.S)
    return tuple(g for g in regions if region_window(g, params.r) is not None)


def _random_frames(rng):
    M = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(M)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    ang = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    if rng.uniform() < 0.5:
        R = R @ np.diag([1.0, -1.0])
    return Q, R


def sample_region_matrix(region, params, rng):
    """Random full-rank 3x2 matrix whose invariants lie inside ``region``
    with a safety margin from the boundaries."""
    window = region_window(region, params.r)
    if window is None:
        raise ValueError(f"region {region} is empty at r = {params.r}")
    (l_lo, l_hi), delta_fn = window
    lam = rng.uniform(l_lo, l_hi)
    dlt = delta_fn(lam, rng.uniform())
    Q, R = _random_frames(rng)
    D = np.array([[lam, 0.0], [0.0, dlt / lam], [0.0, 0.0]])
    return Q @ D @ R


def _region_samples(params, per_region, seed):
    """Pairs ``(Ft, svd32(Ft))``, ``per_region`` from each non-empty region."""
    rng = np.random.default_rng(seed)
    for region in regions_for(params):
        for _ in range(per_region):
            Ft = sample_region_matrix(region, params, rng)
            yield Ft, svd32(Ft)


def _fd_plane_gradient(G, params):
    G = np.asarray(G, dtype=float)
    h = 1e-7 * max(1.0, float(np.linalg.norm(G)))
    return _central_difference(lambda X: plane_energy(X, params), G, h)


def verify_stress_identities(params, n_samples=50, seed=0):
    """Finite-difference and measure-side checks of the effective stress.

    (a) the gradient of the relaxed energy contracted with Ft^T matches
    the closed-form stress (rel tol 1e-5); (b) the pairing of the plane
    energy gradient over the minimizing measure reproduces both the
    gradient and the stress (rel tol 1e-4).
    """
    worst = _Worst(params)
    count = 0
    for Ft, sd in _region_samples(params, n_samples, seed):
        # Natural stress scale; keeps the checks relative where the
        # reference is O(mu) and absolute where the identity
        # degenerates to 0 = 0 (the liquid region).
        floor = 0.05 * params.mu * max(1.0, float(np.sum(Ft * Ft)))
        grad = relaxed_energy_grad_fd(Ft, params)
        sigma = membrane_stress(Ft, params).sigma
        err_a = np.linalg.norm(grad @ Ft.T - sigma) / max(np.linalg.norm(sigma), floor)
        worst.update("fd-gradient-vs-stress", err_a / 1e-5, sd.lamM, sd.delta)

        nu = young_measure_for(Ft, params)
        grad_nu = measure_pairing(nu, lambda G: _fd_plane_gradient(G, params))
        err_b = np.linalg.norm(grad_nu - grad) / max(np.linalg.norm(grad), floor)
        sigma_nu = measure_pairing(
            nu, lambda G: _fd_plane_gradient(G, params) @ np.asarray(G).T
        )
        err_c = np.linalg.norm(sigma_nu - sigma) / max(np.linalg.norm(sigma), floor)
        worst.update("measure-pairing-gradient", err_b / 1e-4, sd.lamM, sd.delta)
        worst.update("measure-pairing-stress", err_c / 1e-4, sd.lamM, sd.delta)
        count += 1
    return worst.report("stress", count, 1.0)


def verify_envelope_chain(params, n_samples=12, seed=0):
    """Computable ends of the envelope chain.

    The relaxed energy never exceeds the plane energy, and the
    lamination oracle lands within [-1e-9, 5e-3] of the closed form with
    a witness whose pairing reproduces its value to 1e-12.
    """
    cfg = OracleConfig()
    worst = _Worst(params)
    count = 0
    for Ft, sd in _region_samples(params, max(1, n_samples // 4), seed):
        w2d = plane_energy(Ft, params)
        wm = psi(sd.lamM, sd.delta, params)
        worst.update("relaxed-le-plane", (wm - w2d) / 1e-12, sd.lamM, sd.delta)
        res = relax_lamination(Ft, params, cfg)
        worst.update("oracle-gap", res.gap / 5e-3, sd.lamM, sd.delta)
        worst.update("oracle-gap", -res.gap / 1e-9, sd.lamM, sd.delta)
        paired = measure_pairing(res.best_measure, lambda G: plane_energy(G, params))
        worst.update("oracle-witness", abs(paired - res.value) / 1e-12, sd.lamM, sd.delta)
        count += 1
    return worst.report("envelope", count, 1.0)


def verify_frame_and_growth(params, n_samples=1000, seed=0):
    """Frame indifference and the quadratic growth sandwich.

    Plane and relaxed energies (and the region tag) are invariant under
    rotations of the deformed configuration and orthogonal changes of
    the reference frame (tol 1e-12); the relaxed energy sits inside the
    quadratic sandwich with the explicitly computed constant, as does
    the 3D entropic density with its own constant.
    """
    rng = np.random.default_rng(seed)
    worst = _Worst(params)
    cp = relaxed_growth_constant(params)
    ce = growth_constant(params)
    for _ in range(n_samples):
        Ft = rng.normal(size=(3, 2)) * rng.choice([0.3, 1.0, 3.0])
        sd = svd32(Ft)
        Q, R = _random_frames(rng)
        Gt = Q @ Ft @ R
        sdg = svd32(Gt)
        w_f = psi(sd.lamM, sd.delta, params)
        w_g = psi(sdg.lamM, sdg.delta, params)
        worst.update("frame-indifference", abs(w_f - w_g) / 1e-12, sd.lamM, sd.delta)
        p_f = plane_energy(Ft, params)
        p_g = plane_energy(Gt, params)
        if np.isfinite(p_f) or np.isfinite(p_g):
            rel = abs(p_f - p_g) / max(1.0, abs(p_f))
            worst.update("frame-indifference", rel / 1e-12, sd.lamM, sd.delta)
        tag_f = classify(sd.lamM, sd.delta, params)
        tag_g = classify(sdg.lamM, sdg.delta, params)
        worst.update("region-tag-invariance", 0.0 if tag_f is tag_g else 2.0, sd.lamM, sd.delta)

    for scale in (1e-2, 1.0, 1e2):
        for _ in range(50):
            Ft = rng.normal(size=(3, 2))
            Ft *= scale / max(np.linalg.norm(Ft), 1e-12)
            sd = svd32(Ft)
            w = psi(sd.lamM, sd.delta, params)
            n2 = float(np.sum(Ft * Ft))
            worst.update("quadratic-growth", (n2 / cp - cp - w) / 1e-12, sd.lamM, sd.delta)
            worst.update("quadratic-growth", (w - cp * (n2 + 1.0)) / 1e-12, sd.lamM, sd.delta)
            F3 = rng.normal(size=(3, 3))
            det = np.linalg.det(F3)
            if abs(det) > 1e-6:
                F3 = F3 / np.sign(det) / abs(det) ** (1.0 / 3.0)
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                we = entropic_energy(F3, n, params)
                m2 = float(np.sum(F3 * F3))
                worst.update("quadratic-growth", (m2 / ce - ce - we) / 1e-12, np.nan, np.nan)
                worst.update("quadratic-growth", (we - ce * (m2 + 1.0)) / 1e-12, np.nan, np.nan)
    return worst.report("frame", n_samples, 1.0)


_SUITES = {
    "appendixA": lambda params, grid, samples, seed: verify_energy_bounds(params, grid),
    "stress": lambda params, grid, samples, seed: verify_stress_identities(
        params, samples, seed
    ),
    "envelope": lambda params, grid, samples, seed: verify_envelope_chain(
        params, samples, seed
    ),
    "frame": lambda params, grid, samples, seed: verify_frame_and_growth(
        params, max(samples, 200), seed
    ),
}


def run_suites(suite, params_list, grid_n=200, n_samples=50, seed=0):
    """Run one named suite (or ``"all"``) for each material; returns the
    list of reports in deterministic order.

    Raises ``KeyError`` for an unknown suite, and ``ValueError`` for
    ``n_samples < 1`` or ``grid_n < 2``, which would check nothing and
    still pass."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise KeyError(f"unknown suite {suite!r}; choose from "
                       f"{sorted(_SUITES)} or 'all'")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    reports = []
    for name in names:
        applicable = list(params_list)
        if name == "appendixA":
            applicable = [p for p in applicable if p.r > 1.0]
            if suite == "appendixA" and not applicable:
                raise ValueError("the energy-bound suite needs r > 1")
        for params in applicable:
            reports.append(_SUITES[name](params, grid_n, n_samples, seed))
    return reports
