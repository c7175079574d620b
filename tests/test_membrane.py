"""Relaxed energy, region map, thickness minimizer, and effective stress."""

import numpy as np
import pytest

from nemem.algebra import adj2, diag_embed, singular_values, svd32
from nemem.constitutive import MaterialParams
from nemem.membrane import (
    _RANK_TOL,
    DomainError,
    RankDeficientError,
    Region,
    classify,
    membrane_stress,
    minimize_thickness_vector,
    plane_energy,
    plane_energy_values,
    principal_stresses,
    psi,
    relaxed_energy,
    relaxed_energy_grad_fd,
)
from nemem.verification import region_window

from helpers import (
    analytic_solid_gradient,
    matrix_from_invariants,
    plane_energy_direct,
    random_orthogonal2,
    random_rotation,
    sample_invariants,
)

P8 = MaterialParams(mu=2.0, r=8.0)


@pytest.mark.parametrize(
    "lam, dlt, tag",
    [
        (1.5, 1.0, Region.L),
        (3.0, 1.0, Region.W),
        (1.6, 2.0, Region.M),
        (2.5, 2.0, Region.S),
        (0.0, 0.0, Region.L),
        (1.0, 2.0, Region.INVALID),
    ],
)
def test_classify_examples(lam, dlt, tag):
    assert classify(lam, dlt, P8) is tag


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify(-1.0, 0.5, P8)
    with pytest.raises(ValueError):
        classify(1.0, -0.5, P8)


@pytest.mark.parametrize(
    "lam, dlt",
    [(1.0, np.nan), (np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf), (1e200, 1.0), (1.0, 1e200)],
)
def test_non_finite_invariants_are_rejected(lam, dlt):
    with pytest.raises(ValueError, match="finite"):
        classify(lam, dlt, P8)
    with pytest.raises(ValueError, match="finite"):
        psi(lam, dlt, P8)
    with pytest.raises(ValueError, match="finite"):
        psi(np.array([1.0, lam]), np.array([0.5, dlt]), P8)
    with pytest.raises(ValueError, match="finite"):
        plane_energy_values(lam, dlt, P8)


@pytest.mark.parametrize("lam, dlt", [(-1.0, 0.5), (1.0, -0.5)])
def test_negative_invariants_are_rejected_on_both_lanes(lam, dlt):
    for f in (psi, plane_energy_values):
        with pytest.raises(ValueError, match="non-negative"):
            f(lam, dlt, P8)
        with pytest.raises(ValueError, match="non-negative"):
            f(np.array([lam]), np.array([dlt]), P8)


@pytest.mark.parametrize("f", [relaxed_energy, plane_energy])
@pytest.mark.parametrize(
    "F, match",
    [(diag_embed(1e60, 1e60), "at most 1e\\+100"), (np.full((3, 2), np.nan), "entries must be finite")],
    ids=["1e60", "nan"],
)
def test_matrix_energies_raise_value_error_not_domain_error(f, F, match):
    # A delta above _INVARIANT_MAX and a NaN entry are bad input, not an
    # evaluation outside the proven domain: the CLI exits 2 for them.
    with pytest.raises(ValueError, match=match) as exc:
        f(F, P8)
    assert type(exc.value) is ValueError


def _float_lane_pairs(r):
    """Invariant pairs where the float and array lanes could part: seeded
    interior pairs, region boundaries, the closed edges of the third
    branch's window, the rank floor, pairs in S and M where
    ``float ** 2`` (libm pow) and ``x * x`` give different energies, and
    unrealizable pairs."""
    rng = np.random.default_rng(17)
    rc, r6 = r ** (1.0 / 3.0), r ** (1.0 / 6.0)
    lam = rng.uniform(0.0, 3.0 * rc, 3000)
    dlt = rng.uniform(0.0, 1.0, lam.size) * lam * lam
    lam_b = rng.uniform(0.2, 3.0 * rc, 200)
    # lamM = r^(1/3), delta = r^(1/6), delta = sqrt(lamM), delta = lamM^2/sqrt(r),
    # delta = lamM^2.
    pairs = [(lam, dlt), (np.full(50, rc), np.linspace(0.0, rc * rc, 50))]
    pairs += [(np.sqrt(r6) + lam_b, np.full(lam_b.size, r6))]
    pairs += [(lam_b, f(lam_b)) for f in (np.sqrt, lambda x: x * x / np.sqrt(r), lambda x: x * x)]
    prods = [(1.0 + k * 1e-14) * e for k in (-1, 1) for e in (1.0 / np.sqrt(r), np.sqrt(r))]
    lam_e = np.array([(p / f) ** (1.0 / 3.0) for p in prods for f in (0.2, 0.5, 0.9)])
    pairs += [(lam_e, np.repeat(prods, 3) / lam_e)]
    lam_f = np.array([2e-6, 0.5, 1.0, 3.0, 40.0])
    floor = _RANK_TOL * np.maximum(1.0, lam_f * lam_f)
    pairs += [(lam_f, floor * (1.0 + k * 1e-9)) for k in (-1, 0, 1)]
    # M pairs: delta where 1 / delta**2 changes the energy's last bit.
    pow_M = {
        1.01: 1.7431158505874857,
        2.0: 1.4216359935920622,
        8.0: 1.5028579899068701,
        100.0: 2.6827442313031455,
    }
    pairs += [(np.array([26.146989511878616]), np.array([87.61719504097738]))]  # S at r = 8
    pairs += [(np.sqrt(pow_M[r]) * r**0.125 * np.ones(1), np.array([pow_M[r]]))]
    pairs += [(lam_b, lam_b * lam_b * 1.5), (np.zeros(3), np.array([1e-13, 1e-3, 5.0]))]
    return tuple(np.concatenate(x) for x in zip(*pairs))


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_float_lane_matches_array_lane(r):
    # psi and plane_energy_values on two Python floats take their own
    # lane; it must give the array lane's value exactly.
    params = MaterialParams(mu=2.0, r=r)
    L, D = _float_lane_pairs(r)
    pairs = list(zip(L.tolist(), D.tolist()))
    assert type(psi(*pairs[0], params)) is type(plane_energy_values(*pairs[0], params)) is float
    np.testing.assert_array_equal([psi(l, d, params) for l, d in pairs], psi(L, D, params))
    array = plane_energy_values(L, D, params)
    np.testing.assert_array_equal([plane_energy_values(l, d, params) for l, d in pairs], array)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_plane_energy_array_shapes_match_float_lane(r):
    # The array lane takes every pair at once when all are rank two and
    # masks the others (rank-deficient, lamM = 0); either way each element
    # is the float lane's value, with no numpy warning.
    params = MaterialParams(mu=2.0, r=r)
    L, D = _float_lane_pairs(r)
    ok = (D > _RANK_TOL * np.maximum(1.0, L * L)) & (L > 0.0)
    for lam, dlt in ((L[ok], D[ok]), (L, D), (L[~ok], D[~ok])):
        expected = [plane_energy_values(l, d, params) for l, d in zip(lam.tolist(), dlt.tolist())]
        got = plane_energy_values(lam.reshape(-1, 1), dlt.reshape(-1, 1), params)
        assert got.shape == (lam.size, 1)
        np.testing.assert_array_equal(got[:, 0], expected)
    # A scalar against an array, both ways, and 0-d arrays.
    lam, dlt = float(L[ok][0]), D[ok][:50]
    np.testing.assert_array_equal(
        plane_energy_values(lam, dlt, params),
        [plane_energy_values(lam, d, params) for d in dlt.tolist()],
    )
    np.testing.assert_array_equal(
        plane_energy_values(L[:50], float(D[0]), params),
        [plane_energy_values(l, float(D[0]), params) for l in L[:50].tolist()],
    )
    for l, d in zip(L[::97].tolist(), D[::97].tolist()):
        value = plane_energy_values(np.array(l), np.array(d), params)
        assert type(value) is float and value == plane_energy_values(l, d, params)


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_relaxed_energy_matches_array_psi(r):
    # relaxed_energy evaluates its region's formula on floats; it must
    # equal psi on the invariants of a batched svd32 call.
    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(23)
    generic = rng.normal(size=(300, 3, 2)) * 10.0 ** rng.uniform(-1.0, 1.0, (300, 1, 1))
    rank_one = rng.normal(size=(100, 3, 1)) * rng.normal(size=(100, 1, 2))
    lam = rng.uniform(0.1, 3.0 * r ** (1.0 / 3.0), 100)
    near = lam * (1.0 - 10.0 ** rng.uniform(-15.0, -3.0, 100))
    biaxial = [random_rotation(rng) @ diag_embed(a, b) @ random_orthogonal2(rng) for a, b in zip(lam, near)]
    F = np.concatenate([generic, rank_one, biaxial])
    sd = svd32(F)
    expected = psi(sd.lamM, sd.delta, params)
    np.testing.assert_array_equal([relaxed_energy(G, params).energy for G in F], expected)


def test_classify_partition_is_total():
    # Everything with delta <= lamM^2 lands in exactly one of L/M/W/S.
    rng = np.random.default_rng(0)
    for r in (1.01, 2.0, 8.0, 100.0):
        p = MaterialParams(mu=1.0, r=r)
        for _ in range(500):
            lam = rng.uniform(0.0, 3.0 * r ** (1.0 / 3.0))
            dlt = rng.uniform(0.0, 1.0) * lam * lam
            assert classify(lam, dlt, p) in (Region.L, Region.M, Region.W, Region.S)


def test_thickness_minimizer_examples():
    np.testing.assert_allclose(
        minimize_thickness_vector(diag_embed(1.0, 1.0), [1, 0, 0], P8),
        [0.0, 0.0, 1.0],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        minimize_thickness_vector(diag_embed(2.0, 1.0), [1, 0, 0], P8),
        [0.0, 0.0, 0.5],
        atol=1e-14,
    )
    p1 = MaterialParams(mu=1.0, r=1.0)
    a, b = 1.7, 0.6
    np.testing.assert_allclose(
        minimize_thickness_vector(diag_embed(a, b), [0, 0, 1], p1),
        [0.0, 0.0, 1.0 / (a * b)],
        atol=1e-14,
    )


def test_thickness_minimizer_unit_determinant():
    rng = np.random.default_rng(1)
    for _ in range(300):
        F = rng.normal(size=(3, 2))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        c = minimize_thickness_vector(F, n, P8)
        assert abs(adj2(F) @ c - 1.0) <= 1e-10


def test_thickness_minimizer_rank_deficient():
    with pytest.raises(RankDeficientError):
        minimize_thickness_vector(np.outer([1.0, 0, 0], [1.0, 0]), [1, 0, 0], P8)


@pytest.mark.parametrize(
    "F, expected",
    [
        (diag_embed(2.0, 2.0**-0.5), 0.0),
        (diag_embed(1.0, 1.0), 0.41421356237309492),
        (diag_embed(2.5, 0.8), 0.3425),
    ],
)
def test_plane_energy_examples(F, expected):
    assert abs(plane_energy(F, P8) - expected) <= 1e-8


def test_plane_energy_rank_deficient_is_infinite():
    assert plane_energy(np.outer([1.0, 2.0, 0.5], [0.3, 1.0]), P8) == np.inf


@pytest.mark.parametrize(
    "F, energy, tags",
    [
        # The spontaneous state sits on the liquid boundary: the energy
        # vanishes but rounding decides the reported side.
        (diag_embed(2.0, 2.0**-0.5), 0.0, (Region.L, Region.M)),
        (diag_embed(3.0, 1.0 / 3.0), 0.58333333, (Region.W,)),
        (diag_embed(1.6, 1.25), 0.32842712, (Region.M,)),
        (diag_embed(2.5, 0.8), 0.3425, (Region.S,)),
        (np.zeros((3, 2)), 0.0, (Region.L,)),
    ],
)
def test_relaxed_energy_examples(F, energy, tags):
    ev = relaxed_energy(F, P8)
    assert ev.region in tags
    assert abs(ev.energy - energy) <= 1e-8
    assert ev.energy >= 0.0


def test_psi_matches_matrix_evaluation():
    rng = np.random.default_rng(2)
    for _ in range(300):
        F = rng.normal(size=(3, 2)) * rng.choice([0.5, 1.0, 3.0])
        sd = svd32(F)
        assert relaxed_energy(F, P8).energy == psi(sd.lamM, sd.delta, P8)


@pytest.mark.parametrize(
    "lam, dlt, expected",
    [(3.0, 1.0, 0.58333333), (1.6, 2.0, 0.32842712), (2.5, 2.0, 0.3425)],
)
def test_psi_invariant_spots(lam, dlt, expected):
    assert abs(psi(lam, dlt, P8) - expected) <= 1e-8


def test_psi_at_r_1_is_pipkins_relaxed_membrane_energy():
    # At r = 1 the relaxed energy is the relaxed incompressible neo-Hookean
    # membrane energy of the tension-field limit (Pipkin, "The relaxed
    # energy density for isotropic elastic membranes", IMA J. Appl. Math.
    # 36 (1986) 85-99), written here from the principal stretches l1 >= l2
    # with W(a, b) = (mu/2)(a^2 + b^2 + (a b)^-2 - 3): 0 when l1 <= 1 (slack),
    # W(l1, l1^(-1/2)) when l2 < l1^(-1/2) (tense in one direction,
    # wrinkled), and W(l1, l2) otherwise (taut).
    mu = 2.0
    l = 10.0 ** np.random.default_rng(55).uniform(-3.0, 3.0, (2, 20000))
    l1, l2 = l.max(axis=0), l.min(axis=0)

    def W(a, b):
        return 0.5 * mu * (a * a + b * b + 1.0 / (a * b) ** 2 - 3.0)

    slack, wrinkled = l1 <= 1.0, l2 < l1**-0.5
    assert slack.sum() > 4000 and (wrinkled & ~slack).sum() > 4000 and (~wrinkled).sum() > 4000
    ref = np.where(slack, 0.0, np.where(wrinkled, W(l1, l1**-0.5), W(l1, l2)))
    got = psi(l1, l1 * l2, MaterialParams(mu=mu, r=1.0))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_stress_zero_in_liquid_region():
    st = membrane_stress(matrix_from_invariants(1.5, 1.0), P8)
    assert st.classification == "zero"
    np.testing.assert_allclose(st.sigma, np.zeros((3, 3)), atol=1e-15)


def test_stress_equibiaxial_example():
    st = membrane_stress(diag_embed(1.6, 1.25), P8)
    assert st.classification == "equibiaxial"
    np.testing.assert_allclose(st.principal_values, [1.82842712, 1.82842712], atol=1e-8)


def test_stress_uniaxial_example():
    st = membrane_stress(diag_embed(3.0, 1.0 / 3.0), P8)
    assert st.classification == "uniaxial"
    np.testing.assert_allclose(st.principal_values, [3.16666667, 0.0], atol=1e-8)


def test_stress_biaxial_example():
    st = membrane_stress(diag_embed(2.5, 0.8), P8)
    assert st.classification == "biaxial"
    np.testing.assert_allclose(st.principal_values, [2.125, 1.56], atol=1e-8)


def test_stress_structure():
    # Symmetric plane-stress tensor, tension only, deformed normal in the
    # kernel.
    rng = np.random.default_rng(3)
    for region in (Region.L, Region.M, Region.W, Region.S):
        for _ in range(50):
            u, v = rng.uniform(size=2)
            lam, dlt = sample_invariants(region, 8.0, u, v)
            F = matrix_from_invariants(lam, dlt, rng)
            st = membrane_stress(F, P8)
            np.testing.assert_allclose(st.sigma, st.sigma.T, atol=1e-10)
            assert min(st.principal_values) >= -1e-10
            normal = adj2(F)
            normal = normal / np.linalg.norm(normal)
            assert np.linalg.norm(st.sigma @ normal) <= 1e-10 * max(
                1.0, np.linalg.norm(st.sigma)
            )


def test_stress_outside_domain_errors():
    with pytest.raises(DomainError, match="0 < delta"):
        membrane_stress(np.outer([1.0, 0, 0], [1.0, 0]), P8)
    with pytest.raises(DomainError, match="delta < lamM\\^2"):
        membrane_stress(diag_embed(1.3, 1.3), P8)


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_principal_stresses_float_lane_matches_array_lane(r):
    # membrane_stress evaluates principal_stresses on floats, nemem scan
    # on arrays; every stress must have the same bits on both.
    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(29)
    for region in (Region.S, Region.W, Region.M):
        if region_window(region, r) is None:
            continue
        L, D = sample_invariants(region, r, *rng.uniform(size=(2, 3000)))
        if region is Region.S and r == 2.0:
            # float ** 2 (libm pow) gave this pair a different last bit.
            L = np.append(L, 3.3137630469881736)
            D = np.append(D, 2.7456009177459806)
        s1, s2 = np.broadcast_arrays(*principal_stresses(L, D, region, params))
        for lam, dlt, a1, a2 in zip(L.tolist(), D.tolist(), s1.tolist(), s2.tolist()):
            assert principal_stresses(lam, dlt, region, params) == (a1, a2), (lam, dlt)

def test_fd_gradient_vanishes_at_energy_well():
    # The well sits on the liquid boundary where the energy is C^1 but
    # kinked in curvature; a small step keeps the one-sided O(h) term
    # below tolerance.
    g = relaxed_energy_grad_fd(diag_embed(2.0, 2.0**-0.5), P8, h=1e-8)
    assert np.abs(g).max() <= 1e-6


def test_fd_gradient_matches_analytic_in_solid_region():
    rng = np.random.default_rng(4)
    for _ in range(20):
        u, v = rng.uniform(size=2)
        lam, dlt = sample_invariants(Region.S, 8.0, u, v)
        F = matrix_from_invariants(lam, dlt, rng)
        g_fd = relaxed_energy_grad_fd(F, P8)
        g_an = analytic_solid_gradient(F, P8)
        assert np.linalg.norm(g_fd - g_an) <= 1e-6 * max(1.0, np.linalg.norm(g_an))


@pytest.mark.parametrize(
    "F",
    [
        matrix_from_invariants(1.5, 1.0),
        diag_embed(1.6, 1.25),
        diag_embed(3.0, 1.0 / 3.0),
        diag_embed(2.5, 0.8),
    ],
)
def test_fd_gradient_contraction_matches_stress(F):
    g = relaxed_energy_grad_fd(F, P8)
    sigma = membrane_stress(F, P8).sigma
    assert np.linalg.norm(g @ F.T - sigma) <= 1e-6 * max(1.0, np.linalg.norm(sigma))


def test_frame_indifference():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        F = rng.normal(size=(3, 2)) * rng.choice([0.5, 1.0, 2.0])
        Q = random_rotation(rng)
        R = random_orthogonal2(rng)
        a = relaxed_energy(F, P8)
        b = relaxed_energy(Q @ F @ R, P8)
        assert abs(a.energy - b.energy) <= 1e-12 * max(1.0, a.energy)
        assert a.region is b.region


def test_relaxation_bound_on_grid():
    # Relaxed <= plane energy wherever finite, equality on the solid
    # region; 200 x 200 invariant grid.
    lam = np.linspace(0.05, 2.5 * 2.0, 200)
    frac = np.linspace(1e-3, 1.0, 200)
    L, Frac = np.meshgrid(lam, frac, indexing="ij")
    D = Frac * L**2
    w_mem = psi(L, D, P8)
    w_2d = plane_energy_values(L, D, P8)
    finite = np.isfinite(w_2d)
    assert np.all(w_mem[finite] - w_2d[finite] <= 1e-12)
    solid = finite & (np.sqrt(L) <= D) & (D <= L * L / np.sqrt(8.0))
    assert np.all(np.abs(w_mem[solid] - w_2d[solid]) <= 1e-12)


def test_zero_set_is_liquid_region():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        lam = rng.uniform(0.0, 5.0)
        dlt = rng.uniform(0.0, 1.0) * lam * lam
        region = classify(lam, dlt, P8)
        w = psi(lam, dlt, P8)
        if region is Region.L:
            assert w == 0.0
        else:
            # Positive away from the liquid boundary.
            rc, rs = 8.0 ** (1 / 3), 8.0 ** (1 / 6)
            margin = max(lam - rc, dlt - rs)
            if margin > 1e-3:
                assert w > 0.0


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_plane_energy_zero_set_is_the_soft_segment(r):
    # The plane energy vanishes on lamm = r^(-1/6), lamM in [r^(-1/6),
    # r^(1/3)] (its ends and geometric midpoint checked) and is clearly
    # positive 1e-3 relative off it: in lamm, or beyond either end.  At
    # r = 1.01 the segment is only 5e-3 long.  Arrays, then floats; on the
    # segment the rounding error is absolute, up to 4.4e-16 above 0.
    params = MaterialParams(mu=2.0, r=r)
    m = r ** (-1.0 / 6.0)
    on = [(c, m) for c in (m, r ** (1.0 / 12.0), r ** (1.0 / 3.0))]
    off = [(c, m * f) for c, _ in on for f in (1.0 - 1e-3, 1.0 + 1e-3) if m * f <= c]
    off += [(m * (1.0 - 1e-3), m * (1.0 - 1e-3)), (on[-1][0] * (1.0 + 1e-3), m)]
    for pairs, low, high in ((on, -1e-15, 1e-15), (off, 1e-6 * params.mu, np.inf)):
        lam, lamm = np.array(pairs).T
        for w in (plane_energy_values(lam, lam * lamm, params),
                  [plane_energy_values(a, a * b, params) for a, b in pairs]):
            assert low <= min(w) and max(w) <= high


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_plane_energy_is_never_negative_on_the_soft_segment(r):
    # On 2001 points of the soft segment the least branch rounds to either
    # side of 0 (below it at 891, 87, 7 and 1842 of them for these r); the
    # plane energy is clamped at 0, with the same bits on floats and arrays.
    params = MaterialParams(mu=2.0, r=r)
    m = r ** (-1.0 / 6.0)
    lam = np.linspace(m, r ** (1.0 / 3.0), 2001)
    delta = lam * m
    w = plane_energy_values(lam, delta, params)
    floats = [plane_energy_values(a, b, params) for a, b in zip(lam.tolist(), delta.tolist())]
    assert np.array(floats).tobytes() == w.tobytes()
    assert 0.0 <= w.min() and w.max() <= 1e-15


def test_continuity_across_region_boundaries():
    # Jump of the invariant representative across each boundary.
    rng = np.random.default_rng(7)
    r = 8.0
    rc, rs = r ** (1 / 3), r ** (1 / 6)
    eps = 1e-12
    worst = 0.0
    for _ in range(1000):
        which = rng.integers(0, 4)
        if which == 0:  # L/M: delta = rs at lam <= rc
            lam = rng.uniform(np.sqrt(rs), rc)
            pair = ((lam, rs - eps), (lam, rs + eps))
        elif which == 1:  # L/W: lam = rc at delta <= rs
            dlt = rng.uniform(0.05, rs)
            pair = ((rc - eps, dlt), (rc + eps, dlt))
        elif which == 2:  # W/S: delta = sqrt(lam)
            lam = rng.uniform(1.05 * rc, 3.0 * rc)
            d = np.sqrt(lam)
            pair = ((lam, d - eps), (lam, d + eps))
        else:  # S/M: delta = lam^2 / sqrt(r)
            lam = rng.uniform(1.05 * rc, 3.0 * rc)
            d = lam * lam / np.sqrt(r)
            pair = ((lam, d - eps), (lam, d + eps))
        a = psi(*pair[0], P8)
        b = psi(*pair[1], P8)
        worst = max(worst, abs(a - b))
    assert worst <= 1e-9


def test_plane_energy_matches_direct_minimization():
    # Reduced version of the oracle-agreement acceptance run.
    rng = np.random.default_rng(8)
    for r in (2.0, 8.0):
        p = MaterialParams(mu=2.0, r=r)
        for _ in range(20):
            F = rng.normal(size=(3, 2)) * rng.choice([0.5, 1.0, 2.0])
            closed = plane_energy(F, p)
            if not np.isfinite(closed):
                continue
            direct = plane_energy_direct(F, p)
            assert abs(direct - closed) <= 1e-6 * max(abs(closed), 1e-6)


def test_polyconvex_representative_midpoint_convexity():
    rng = np.random.default_rng(9)
    n = 2000
    X1 = rng.normal(size=(n, 3, 2)) * 1.5
    X2 = rng.normal(size=(n, 3, 2)) * 1.5
    A1 = rng.normal(size=(n, 3)) * 1.5
    A2 = rng.normal(size=(n, 3)) * 1.5

    def g(X, A):
        lam, _ = singular_values(X)
        return psi(lam, np.linalg.norm(A, axis=-1), P8)

    g1, g2 = g(X1, A1), g(X2, A2)
    for t in (0.25, 0.5, 0.75):
        gm = g(t * X1 + (1 - t) * X2, t * A1 + (1 - t) * A2)
        assert np.max(gm - (t * g1 + (1 - t) * g2)) <= 1e-10


def test_rank_one_convexity_along_lines():
    rng = np.random.default_rng(10)
    h = 1e-3
    for _ in range(1000):
        F = rng.normal(size=(3, 2)) * rng.choice([0.5, 1.0, 2.0])
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=2)
        b /= np.linalg.norm(b)
        D = np.outer(a, b)
        w0 = relaxed_energy(F, P8).energy
        wp = relaxed_energy(F + h * D, P8).energy
        wm = relaxed_energy(F - h * D, P8).energy
        assert wp + wm - 2.0 * w0 >= -1e-8


def test_psi_componentwise_monotone():
    lam = np.linspace(0.0, 6.0, 400)
    dlt = np.linspace(0.0, 6.0, 400)
    L, D = np.meshgrid(lam, dlt, indexing="ij")
    W = psi(L, D, P8)
    assert np.min(np.diff(W, axis=0)) >= -1e-10
    assert np.min(np.diff(W, axis=1)) >= -1e-10


def test_stress_tension_only_in_open_domain():
    rng = np.random.default_rng(11)
    for _ in range(500):
        lam = rng.uniform(0.1, 6.0)
        dlt = rng.uniform(1e-3, 1.0 - 1e-3) * lam * lam
        st = membrane_stress(matrix_from_invariants(lam, dlt, rng), P8)
        assert min(st.principal_values) >= -1e-10
