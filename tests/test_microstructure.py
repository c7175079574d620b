"""Laminate constructions and their support/compatibility laws."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemem.algebra import adj2, diag_embed, rank_one_gap, singular_values, svd32
from nemem.constitutive import MaterialParams
from nemem.membrane import Region, plane_energy, psi, relaxed_energy
from nemem.microstructure import (
    DiscreteYoungMeasure,
    check_support_M,
    check_support_W,
    laminate_shear,
    laminate_wrinkle,
    measure_pairing,
    measure_to_json_dict,
    young_measure_for,
)

from helpers import matrix_from_invariants, sample_invariants, split_gaps

P8 = MaterialParams(mu=2.0, r=8.0)


def test_wrinkle_example():
    nu = laminate_wrinkle(2.0, 1.0, 0.5)
    assert len(nu.atoms) == 2
    weights = sorted(w for w, _ in nu.atoms)
    np.testing.assert_allclose(weights, [0.25, 0.75], atol=1e-15)
    np.testing.assert_allclose(
        nu.atoms[0][1], [[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]], atol=1e-15
    )
    np.testing.assert_allclose(
        nu.atoms[1][1], [[2.0, 0.0], [0.0, -0.5], [0.0, 0.0]], atol=1e-15
    )
    np.testing.assert_allclose(nu.barycenter(), diag_embed(2.0, 0.25), atol=1e-15)


def test_wrinkle_degenerate_targets():
    assert len(laminate_wrinkle(2.0, 1.0, 1.0).atoms) == 1  # target on atom set
    nu = laminate_wrinkle(2.0, 1.0, 0.0)
    assert [w for w, _ in nu.atoms] == [0.5, 0.5]


def test_wrinkle_invalid_inputs():
    with pytest.raises(ValueError):
        laminate_wrinkle(2.0, 0.0, 0.5)  # zero atom stretch with target above
    with pytest.raises(ValueError):
        laminate_wrinkle(2.0, 0.0, 0.0)  # atoms need positive areal stretch
    with pytest.raises(ValueError):
        laminate_wrinkle(1.0, 2.0, 0.5)  # unrealizable atoms (d > q^2)
    with pytest.raises(ValueError):
        laminate_wrinkle(2.0, 1.0, 1.5)  # target outside [0, d]


def test_shear_examples():
    nu = laminate_shear(2.0, 1.0, 1.2)
    assert abs(abs(nu.atoms[0][1][0, 1]) - 1.45449494) <= 1e-8
    nu = laminate_shear(2.0, 1.0, 1.0)
    assert abs(abs(nu.atoms[0][1][0, 1]) - 1.5) <= 1e-14
    assert len(laminate_shear(2.0, 1.0, 2.0).atoms) == 1  # already on target set


def test_shear_atoms_have_target_invariants():
    nu = laminate_shear(2.0, 1.0, 1.2)
    for w, G in nu.atoms:
        lam, lamm = singular_values(G)
        assert abs(lam - 2.0) <= 1e-12
        assert abs(lam * lamm - 1.0) <= 1e-12
    np.testing.assert_allclose(nu.barycenter(), diag_embed(1.2, 1.0 / 1.2), atol=1e-15)


def test_shear_invalid_target():
    with pytest.raises(ValueError):
        laminate_shear(2.0, 1.0, 0.5)  # below sqrt(d)
    with pytest.raises(ValueError):
        laminate_shear(2.0, 1.0, 3.0)  # above q


def test_shear_keeps_tiny_stretches():
    # Below stretches of about 1e-154, q^2 underflows: the shear is scaled
    # by q, so the laminate still has two atoms of largest stretch q.
    q, c = 2e-170, 1e-170
    nu = laminate_shear(q, 0.0, c)
    assert len(nu.atoms) == 2
    for _, G in nu.atoms:
        assert abs(svd32(G).lamM - q) <= 1e-12 * q
    assert np.array_equal(nu.barycenter(), diag_embed(c, 0.0))


def test_shear_zero_case():
    nu = laminate_shear(1.26, 0.0, 0.0)
    assert len(nu.atoms) == 2
    np.testing.assert_allclose(nu.barycenter(), np.zeros((3, 2)), atol=1e-15)
    for w, G in nu.atoms:
        lam, _ = singular_values(G)
        assert abs(lam - 1.26) <= 1e-12


def test_young_measure_solid_is_dirac():
    F = diag_embed(2.5, 0.8)
    nu = young_measure_for(F, P8)
    assert len(nu.atoms) == 1 and nu.atoms[0][0] == 1.0
    np.testing.assert_allclose(nu.atoms[0][1], F)
    paired = measure_pairing(nu, lambda G: plane_energy(G, P8))
    assert abs(paired - relaxed_energy(F, P8).energy) <= 1e-12


def test_young_measure_liquid_identity():
    nu = young_measure_for(diag_embed(1.0, 1.0), P8)
    assert len(nu.atoms) == 4
    weights = sorted(w for w, _ in nu.atoms)
    np.testing.assert_allclose(
        weights, [0.07322330, 0.07322330, 0.42677670, 0.42677670], atol=1e-8
    )
    for w, G in nu.atoms:
        lam, lamm = singular_values(G)
        assert abs(lam - 2.0) <= 1e-12
        assert abs(lam * lamm - np.sqrt(2.0)) <= 1e-12
    assert measure_pairing(nu, lambda G: plane_energy(G, P8)) <= 1e-10
    np.testing.assert_allclose(nu.barycenter(), diag_embed(1.0, 1.0), atol=1e-12)


def test_young_measure_wrinkling_example():
    F = diag_embed(3.0, 1.0 / 3.0)
    nu = young_measure_for(F, P8)
    assert len(nu.atoms) == 2
    theta = max(w for w, _ in nu.atoms)
    assert abs(theta - 0.5 * (1.0 + 1.0 / np.sqrt(3.0))) <= 1e-12
    np.testing.assert_allclose(nu.barycenter(), F, atol=1e-12)
    paired = measure_pairing(nu, lambda G: plane_energy(G, P8))
    assert abs(paired - 0.58333333) <= 1e-8


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_young_measure_postconditions(region):
    rng = np.random.default_rng(hash(region.value) % 2**32)
    for _ in range(25):
        u, v = rng.uniform(size=2)
        lam, dlt = sample_invariants(region, 8.0, u, v)
        F = matrix_from_invariants(lam, dlt, rng)
        nu = young_measure_for(F, P8)
        assert abs(nu.total_weight() - 1.0) <= 1e-14
        assert np.abs(nu.barycenter() - F).max() <= 1e-12
        paired = measure_pairing(nu, lambda G: plane_energy(G, P8))
        assert abs(paired - relaxed_energy(F, P8).energy) <= 1e-10
        # Splits recorded in the tree are rank-one.
        for s in nu.tree:
            assert abs(np.linalg.norm(s["a"]) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(s["b"]) - 1.0) <= 1e-12


def test_young_measure_splits_are_rank_one():
    rng = np.random.default_rng(12)
    for region in (Region.M, Region.W):
        for _ in range(10):
            u, v = rng.uniform(size=2)
            lam, dlt = sample_invariants(region, 8.0, u, v)
            nu = young_measure_for(matrix_from_invariants(lam, dlt, rng), P8)
            (w1, G1), (w2, G2) = nu.atoms
            assert rank_one_gap(G1, G2) <= 1e-12


def test_equibiaxial_support_holds_near_isotropy():
    # Region M is a wedge of relative width about (r - 1) / 2 below the
    # equi-biaxial line.  Its shear atoms keep the largest stretch
    # r^(1/4) delta^(1/2) only if xi^2, many orders below delta there, is
    # not computed as a difference of terms of size delta.
    params = MaterialParams(mu=2.0, r=1.0 + 1e-9)
    rng = np.random.default_rng(4)
    lam = rng.uniform(1.1, 2.5)
    F = matrix_from_invariants(lam, lam * lam * (1.0 - 2.5e-10), rng)
    ev = relaxed_energy(F, params)
    assert ev.region is Region.M
    assert check_support_M(young_measure_for(F, params), ev.delta, params).passed


def _near_boundary(kind, r, u, t, sign):
    """Invariants ``(lamM, delta)`` at relative distance ``10**-t`` from one
    region boundary (``sign`` picks the side) or from rank deficiency, at
    the point ``u`` in [0, 1] along it; delta is clipped to lamM^2."""
    rc, rs, eps = r ** (1.0 / 3.0), r ** (1.0 / 6.0), sign * 10.0**-t
    if kind == "liquid-side":  # lamM = r^(1/3)
        lam = rc * (1.0 + eps)
        dlt = (0.05 + 0.95 * u) * min(lam * lam, rs)
    elif kind == "liquid-top":  # delta = r^(1/6)
        lam = rs**0.5 + u * (rc - rs**0.5)
        dlt = rs * (1.0 + eps)
    elif kind == "liquid-corner":  # both, near the isotropic point at r = 1
        lam = rc * (1.0 + eps)
        dlt = min(rs, lam * lam) * (1.0 - 10.0 ** -(2.0 + 13.0 * u))
    elif kind == "solid-wrinkled":  # delta = lamM^(1/2)
        lam = rc * (1.0 + 2.0 * u)
        dlt = np.sqrt(lam) * (1.0 + eps)
    elif kind == "solid-micro":  # delta = lamM^2 / sqrt(r)
        lam = rc * (1.0 + 2.0 * u)
        dlt = lam * lam / np.sqrt(r) * (1.0 + eps)
    elif kind == "equibiaxial":  # delta = lamM^2
        lam = rc * (0.5 + 2.5 * u)
        dlt = lam * lam * (1.0 - abs(eps))
    else:  # rank deficiency
        lam = rc * (0.3 + 2.7 * u)
        dlt = abs(eps) * lam * lam
    return lam, min(dlt, lam * lam)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["liquid-side", "liquid-top", "liquid-corner", "solid-wrinkled",
                          "solid-micro", "equibiaxial", "rank"]),
    r=st.sampled_from([1.0, 1.0 + 1e-9, 1.01, 2.0, 8.0, 100.0]),
    u=st.floats(0.0, 1.0),
    t=st.floats(2.0, 15.0),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_laminates_near_region_boundaries(kind, r, u, t, sign, seed):
    # The closed-form laminates next to every region boundary and near rank
    # deficiency, down to the isotropic limit r = 1: the barycenter, the
    # pairing with the relaxed energy, rank-one splits and the support laws.
    params = MaterialParams(mu=2.0, r=r)
    F = matrix_from_invariants(*_near_boundary(kind, r, u, t, sign), np.random.default_rng(seed))
    nu = young_measure_for(F, params)
    scale = max(1.0, float(np.linalg.norm(F)))
    assert np.abs(nu.barycenter() - F).max() <= 1e-12 * scale
    ev = relaxed_energy(F, params)
    assert abs(measure_pairing(nu, lambda G: plane_energy(G, params)) - ev.energy) <= 1e-10
    atom_scale = max(1.0, max(float(np.linalg.norm(G)) for _, G in nu.atoms))
    assert split_gaps(nu) <= 1e-12 * atom_scale
    if ev.region is Region.M:
        assert check_support_M(nu, ev.delta, params).passed
    if ev.region is Region.W:
        assert check_support_W(nu, F).passed


def test_young_measure_rank_deficient_wrinkling():
    # delta = 0 in the wrinkling region still laminates (atoms carry
    # positive areal stretch).
    F = np.zeros((3, 2))
    F[0, 0] = 3.0
    nu = young_measure_for(F, P8)
    np.testing.assert_allclose(nu.barycenter(), F, atol=1e-12)
    paired = measure_pairing(nu, lambda G: plane_energy(G, P8))
    assert abs(paired - relaxed_energy(F, P8).energy) <= 1e-10


def test_support_law_microstructure_region():
    rng = np.random.default_rng(13)
    for _ in range(10):
        u, v = rng.uniform(size=2)
        lam, dlt = sample_invariants(Region.M, 8.0, u, v)
        F = matrix_from_invariants(lam, dlt, rng)
        nu = young_measure_for(F, P8)
        assert check_support_M(nu, dlt, P8).passed


def test_support_law_microstructure_rejects_dirac():
    F = diag_embed(1.6, 1.25)
    bad = DiscreteYoungMeasure(atoms=((1.0, F),))
    rep = check_support_M(bad, 2.0, P8)
    assert not rep.passed
    assert any("largest stretch" in v for v in rep.violations)


def test_support_law_microstructure_rejects_mismatched_delta():
    nu = young_measure_for(diag_embed(1.6, 1.25), P8)
    rep = check_support_M(nu, 1.9, P8)
    assert not rep.passed


def test_support_law_wrinkling_region():
    rng = np.random.default_rng(14)
    for _ in range(10):
        u, v = rng.uniform(size=2)
        lam, dlt = sample_invariants(Region.W, 8.0, u, v)
        F = matrix_from_invariants(lam, dlt, rng)
        nu = young_measure_for(F, P8)
        assert check_support_W(nu, F).passed


def test_support_law_wrinkling_rejects_unrelaxed():
    F = diag_embed(3.0, 1.0 / 3.0)
    bad = DiscreteYoungMeasure(atoms=((1.0, F),))
    assert not check_support_W(bad, F).passed


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_liquid_laminate_matches_one_frame_per_endpoint(r):
    # Region L decomposes its first-level endpoints in one batched svd32
    # call; atoms and tree must equal, bit for bit, a reference that
    # takes each endpoint's frame from its own scalar call.
    from nemem.microstructure import _conjugate, _pruned

    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(31)
    rc = r ** (1.0 / 3.0)
    pairs = [sample_invariants(Region.L, r, *rng.uniform(size=2)) for _ in range(40)]
    pairs.append((rc, 0.5))  # lamM = r^(1/3): the first level is a Dirac
    for lam, dlt in pairs:
        F = matrix_from_invariants(lam, dlt, rng)
        nu = young_measure_for(F, params)
        sd = svd32(F)
        level1 = _conjugate(laminate_shear(q=rc, d=sd.delta, c=sd.lamM), sd.Q, sd.R)
        atoms, tree = [], list(level1.tree)
        for w_end, endpoint in level1.atoms:
            sde = svd32(endpoint)
            wrinkle = laminate_wrinkle(q=sde.lamM, d=r ** (1.0 / 6.0), delta_bar=sde.delta)
            conj = _conjugate(wrinkle, sde.Q, sde.R, level_offset=1)
            atoms.extend((w_end * w, G) for w, G in conj.atoms)
            tree.extend(conj.tree)
        atoms = _pruned(atoms)
        assert len(nu.atoms) == len(atoms) and len(nu.tree) == len(tree)
        for (w, G), (w_ref, G_ref) in zip(nu.atoms, atoms):
            assert type(w) is type(w_ref) and w == w_ref
            np.testing.assert_array_equal(G, G_ref)
        for split, ref in zip(nu.tree, tree):
            assert split.keys() == ref.keys()
            for key in split:
                assert type(split[key]) is type(ref[key])
                np.testing.assert_array_equal(split[key], ref[key])


def test_pairing_identity_map_gives_barycenter():
    nu = laminate_wrinkle(2.0, 1.0, 0.5)
    np.testing.assert_allclose(
        measure_pairing(nu, lambda G: G), nu.barycenter(), atol=1e-15
    )


def test_pairing_minors_commute():
    nu = laminate_wrinkle(2.0, 1.0, 0.5)
    np.testing.assert_allclose(measure_pairing(nu, adj2), [0.0, 0.0, 0.5], atol=1e-14)
    np.testing.assert_allclose(
        measure_pairing(nu, adj2), adj2(nu.barycenter()), atol=1e-14
    )


def test_pairing_minor_commutation_all_constructions():
    rng = np.random.default_rng(15)
    for region in (Region.L, Region.M, Region.W, Region.S):
        for _ in range(10):
            u, v = rng.uniform(size=2)
            lam, dlt = sample_invariants(region, 8.0, u, v)
            F = matrix_from_invariants(lam, dlt, rng)
            nu = young_measure_for(F, P8)
            np.testing.assert_allclose(
                measure_pairing(nu, adj2), adj2(nu.barycenter()), atol=1e-12
            )


def test_pairing_propagates_infinity():
    rank_one = np.outer([1.0, 0.0, 0.0], [1.0, 0.0])
    nu = DiscreteYoungMeasure(atoms=((0.5, rank_one), (0.5, diag_embed(1.0, 1.0))))
    assert measure_pairing(nu, lambda G: plane_energy(G, P8)) == np.inf


def test_jensen_chain_with_equality():
    rng = np.random.default_rng(16)
    for region in (Region.L, Region.M, Region.W, Region.S):
        for _ in range(10):
            u, v = rng.uniform(size=2)
            lam, dlt = sample_invariants(region, 8.0, u, v)
            F = matrix_from_invariants(lam, dlt, rng)
            nu = young_measure_for(F, P8)
            lam_avg = measure_pairing(nu, lambda G: float(singular_values(G)[0]))
            dlt_avg = measure_pairing(
                nu, lambda G: float(np.prod(singular_values(G)))
            )
            a = psi(lam, dlt, P8)
            b = psi(lam_avg, dlt_avg, P8)
            c = measure_pairing(
                nu, lambda G: psi(*_invariants(G), P8)
            )
            d = measure_pairing(nu, lambda G: plane_energy(G, P8))
            assert a <= b + 1e-10 and b <= c + 1e-10 and c <= d + 1e-10
            assert abs(d - a) <= 1e-10  # end-to-end equality for minimizers


def _invariants(G):
    lam, lamm = singular_values(G)
    return float(lam), float(lam * lamm)


def test_dirac_rigidity_of_degenerate_laminates():
    # Barycenter on the atom set with distinct singular values collapses
    # to a single unit weight.
    nu = laminate_wrinkle(2.0, 1.0, 1.0)
    assert [w for w, _ in nu.atoms] == [1.0]
    nu = laminate_shear(2.0, 1.0, 2.0)
    assert [w for w, _ in nu.atoms] == [1.0]


def test_json_serialization_schema():
    nu = young_measure_for(diag_embed(1.0, 1.0), P8)
    d = measure_to_json_dict(nu)
    assert set(d) == {"barycenter", "atoms", "tree"}
    assert all(set(a) == {"weight", "matrix"} for a in d["atoms"])
    assert all(
        set(s) == {"level", "a", "b", "magnitude", "weight"} for s in d["tree"]
    )
    text = json.dumps(d)
    parsed = json.loads(text)
    # Shortest round-trip float printing: weights survive a JSON cycle
    # bit-for-bit.
    assert parsed["atoms"][0]["weight"] == nu.atoms[0][0]
    levels = sorted(s["level"] for s in d["tree"])
    assert levels[0] == 1 and levels[-1] == 2


def _support_cases():
    # One measure per kind of violation: a Dirac off the M support (largest
    # stretch), an M measure against the wrong delta (areal stretch), a
    # rank-deficient atom, an atom tilted out of the common plane (normal),
    # a W measure against a target spun in its plane (fiber), and a wrinkle
    # at the wrong areal stretch (W areal stretch).
    c, s = np.cos(0.3), np.sin(0.3)
    tilt = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    (w0, G0), (w1, G1) = young_measure_for(diag_embed(1.6, 1.25), P8).atoms
    wrinkle = young_measure_for(diag_embed(3.0, 1.0 / 3.0), P8)
    return {
        "largest": lambda: check_support_M(
            DiscreteYoungMeasure(atoms=((1.0, diag_embed(1.6, 1.25)),)), 2.0, P8
        ),
        "areal": lambda: check_support_M(DiscreteYoungMeasure(atoms=((w0, G0), (w1, G1))), 1.9, P8),
        "rank": lambda: check_support_M(
            DiscreteYoungMeasure(atoms=((0.5, G0), (0.5, diag_embed(2.0, 0.0)))), 2.0, P8
        ),
        "normal": lambda: check_support_M(DiscreteYoungMeasure(atoms=((w0, G0), (w1, tilt @ G1))), 2.0, P8),
        "fiber": lambda: check_support_W(wrinkle, spin @ diag_embed(3.0, 1.0 / 3.0)),
        "W-areal": lambda: check_support_W(laminate_wrinkle(3.0, 1.5, 1.0 / 3.0), diag_embed(3.0, 1.0 / 3.0)),
    }


# (worst as hex, violations) of each case, word for word.
_SUPPORT_PINS = {
    "largest": (
        "0x1.8e8c4f593a920p-1",
        ("atom 0: largest stretch 1.6 differs from 2.378414230005442 by 7.784e-01",),
    ),
    "areal": (
        "0x1.99999999999a0p-4",
        (
            "atom 0: largest stretch 2.378414230005442 differs from 2.318191436663021 by 6.022e-02",
            "atom 0: areal stretch 2.0 differs from 1.9 by 1.000e-01",
            "atom 1: largest stretch 2.378414230005442 differs from 2.318191436663021 by 6.022e-02",
            "atom 1: areal stretch 2.0 differs from 1.9 by 1.000e-01",
        ),
    ),
    "rank": (
        "0x1.0000000000000p+1",
        (
            "atom 1: largest stretch 2.0 differs from 2.378414230005442 by 3.784e-01",
            "atom 1: areal stretch 0.0 differs from 2.0 by 2.000e+00",
            "atom 1: rank-deficient, no deformed plane",
        ),
    ),
    "normal": ("0x1.320c9e9dfed22p-2", ("atom 1: deformed-plane normal deviates by 2.989e-01",)),
    "fiber": (
        "0x1.cb12edecfe3b2p-1",
        (
            "atom 0: stretched fiber moves by 8.966e-01",
            "atom 1: stretched fiber moves by 8.966e-01",
        ),
    ),
    "W-areal": (
        "0x1.db3d742c26550p-3",
        (
            "atom 0: areal stretch 1.5 differs from 1.7320508075688772 by 2.321e-01",
            "atom 1: areal stretch 1.5 differs from 1.7320508075688772 by 2.321e-01",
        ),
    ),
}


@pytest.mark.parametrize("case", list(_SUPPORT_PINS))
def test_support_check_reports_are_pinned(case):
    rep = _support_cases()[case]()
    assert not rep.passed
    assert (rep.worst.hex(), rep.violations) == _SUPPORT_PINS[case]


@pytest.mark.parametrize("delta_bar", [float("nan"), float("inf"), -1.0])
def test_support_law_microstructure_rejects_bad_delta(delta_bar):
    nu = young_measure_for(diag_embed(1.6, 1.25), P8)
    with pytest.raises(ValueError, match="delta_bar"):
        check_support_M(nu, delta_bar, P8)


def test_support_loop_counts_a_nan_deviation():
    # A NaN deviation is a violation, and the worst deviation keeps it.
    from nemem.microstructure import _support_report

    nu = young_measure_for(diag_embed(1.6, 1.25), P8)
    rep = _support_report(nu, float("nan"), 2.0, lambda G, sde: [])
    assert not rep.passed and np.isnan(rep.worst)
    assert rep.violations == (
        "atom 0: largest stretch 2.378414230005442 differs from nan by nan",
        "atom 1: largest stretch 2.378414230005442 differs from nan by nan",
    )


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: laminate_wrinkle(np.inf, 1.0, 0.5), "q"),
        (lambda: laminate_wrinkle(2.0, np.inf, 0.5), "d"),
        (lambda: laminate_wrinkle(2.0, 1.0, np.nan), "delta_bar"),
        (lambda: laminate_shear(np.inf, 1.0, 1.0), "q"),
        (lambda: laminate_shear(2.0, np.nan, 1.0), "d"),
        (lambda: laminate_shear(2.0, 1.0, -np.inf), "c"),
    ],
)
def test_laminates_reject_non_finite_arguments(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


def test_empty_measure_is_refused():
    with pytest.raises(ValueError, match="at least one atom"):
        DiscreteYoungMeasure(atoms=())
