"""Lamination oracle: witnessed upper bounds on the rank-one envelope."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    grid_search_reference,
    lower_hull_at_zero,
    matrix_from_invariants,
    pattern_search_reference,
    sample_invariants,
)
from nemem import relaxation
from nemem.algebra import diag_embed, rank_one_gap, singular_values, svd32
from nemem.constitutive import MaterialParams
from nemem.membrane import (
    _INVARIANT_MAX,
    _RANK_TOL,
    DomainError,
    Region,
    classify,
    plane_energy,
    plane_energy_values,
    psi,
)
from nemem.microstructure import measure_pairing
from nemem.relaxation import (
    _CHUNK,
    _GRID_LADDER,
    _LIGHT_LADDER,
    _NORM_MAX,
    OracleConfig,
    OracleResult,
    _angles_of,
    _dyads,
    _endpoint_depth1_estimate,
    _frame_directions,
    _grid_directions,
    _grid_search,
    _ladder_chords,
    _pattern_search,
    _split_endpoints,
    _split_values,
    _two_level,
    _w2d,
    relax_along_line,
    relax_lamination,
)

P8 = MaterialParams(mu=2.0, r=8.0)
CFG = OracleConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(depth=0)


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_scalar_plane_energy_matches_array_kernel(r):
    # The oracle's plane-energy path _w2d, called on one matrix at a time,
    # against plane_energy_values on the invariants directly.  _w2d takes
    # its singular values (algebra.singular_values) from the Gram
    # matrix, whose smaller one loses relative accuracy like
    # eps * (lamM / lamm)^2, so the random pairs keep
    # lamm / lamM = delta / lamM^2 >= 0.1.
    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(11)
    lam = rng.uniform(0.2, 3.0 * r ** (1.0 / 3.0), 2000)
    dlt = rng.uniform(0.1, 1.0, lam.size) * lam * lam
    # lamM * delta on both closed edges of the third branch's window.
    prods = [(1.0 + k * 1e-14) * e for k in (-1, 1) for e in (1.0 / np.sqrt(r), np.sqrt(r))]
    lam_e = np.array([(p / f) ** (1.0 / 3.0) for p in prods for f in (0.2, 0.5, 0.9)])
    dlt_e = np.repeat(prods, 3) / lam_e
    # delta at the rank floor, and just around it where lamM is small
    # enough (lamM < 1) for the Gram matrix to resolve delta.
    lam_f = np.array([2e-6, 2.5e-6, 3e-6])
    L = np.concatenate([lam, lam_e, lam[:50], lam_f, lam_f])
    D = np.concatenate(
        [
            dlt,
            dlt_e,
            _RANK_TOL * np.maximum(1.0, lam[:50] ** 2),
            _RANK_TOL * (1.0 + 1e-9) * np.ones(3),
            _RANK_TOL * (1.0 - 1e-9) * np.ones(3),
        ]
    )
    expect_finite = np.arange(L.size) < lam.size + lam_e.size
    expect_finite[-6:-3] = True

    scalar = np.array([_w2d(diag_embed(l, d / l), params) for l, d in zip(L, D)])
    array = plane_energy_values(L, D, params)
    np.testing.assert_array_equal(np.isfinite(array), expect_finite)
    np.testing.assert_array_equal(np.isfinite(scalar), expect_finite)
    # The branches subtract 3, so near the energy well the rounding error
    # is absolute, on the scale of mu.
    finite = np.isfinite(array)
    np.testing.assert_allclose(scalar[finite], array[finite], rtol=1e-13, atol=1e-13 * params.mu)


def test_identity_relaxes_to_zero():
    res = relax_lamination(diag_embed(1.0, 1.0), P8, CFG)
    assert res.closed_form == 0.0
    assert res.value <= 1e-3
    assert len(res.best_measure.atoms) >= 2


def test_solid_point_has_no_beneficial_split():
    F = diag_embed(2.5, 0.8)
    res = relax_lamination(F, P8, CFG)
    assert abs(res.value - plane_energy(F, P8)) <= 1e-12
    assert abs(res.value - 0.3425) <= 1e-8


def test_wrinkling_point_value():
    res = relax_lamination(diag_embed(3.0, 1.0 / 3.0), P8, CFG)
    assert abs(res.value - 0.58333333) <= 1e-3


def test_witness_reproduces_value():
    for F in (diag_embed(1.0, 1.0), diag_embed(1.6, 1.25), diag_embed(3.0, 1.0 / 3.0)):
        res = relax_lamination(F, P8, CFG)
        paired = measure_pairing(res.best_measure, lambda G: plane_energy(G, P8))
        assert abs(paired - res.value) <= 1e-12
        np.testing.assert_allclose(res.best_measure.barycenter(), F, atol=1e-9)


def test_witness_splits_are_rank_one():
    res = relax_lamination(diag_embed(1.0, 1.0), P8, CFG)
    for s in res.best_measure.tree:
        D = s["magnitude"] * np.outer(s["a"], s["b"])
        assert rank_one_gap(D, np.zeros((3, 2))) <= 1e-12


def test_gap_window():
    rng = np.random.default_rng(0)
    for _ in range(6):
        F = rng.normal(size=(3, 2))
        res = relax_lamination(F, P8, CFG)
        assert -1e-9 <= res.gap <= 5e-3


def test_monotone_in_depth():
    F = diag_embed(1.0, 1.0)
    v1 = relax_lamination(F, P8, OracleConfig(depth=1)).value
    v2 = relax_lamination(F, P8, OracleConfig(depth=2)).value
    v3 = relax_lamination(F, P8, OracleConfig(depth=3)).value
    assert v2 <= v1 + 1e-12
    assert v3 <= v2 + 1e-12


def test_two_level_tree_needed_below_the_soft_segment():
    # Small largest stretch in the liquid region: no single split reaches
    # the zero set, the two-level tree does.
    F = diag_embed(0.44, 0.08 / 0.44)
    r2 = MaterialParams(mu=2.0, r=2.0)
    v1 = relax_lamination(F, r2, OracleConfig(depth=1)).value
    res = relax_lamination(F, r2, OracleConfig(depth=2))
    assert v1 > 0.1
    assert res.value <= 5e-3
    assert res.closed_form == 0.0


def test_deterministic_under_seed():
    F = diag_embed(1.7, 0.9)
    a = relax_lamination(F, P8, OracleConfig(seed=5))
    b = relax_lamination(F, P8, OracleConfig(seed=5))
    assert a.value == b.value and a.gap == b.gap
    assert len(a.best_measure.atoms) == len(b.best_measure.atoms)
    for (wa, Ga), (wb, Gb) in zip(a.best_measure.atoms, b.best_measure.atoms):
        assert wa == wb and np.array_equal(Ga, Gb)


def test_result_type():
    res = relax_lamination(diag_embed(2.0, 1.0), P8, CFG)
    assert isinstance(res, OracleResult)
    assert res.gap == res.value - res.closed_form


@pytest.mark.parametrize(
    "F", [np.zeros((3, 2)), diag_embed(0.5, 1e-13), diag_embed(1e-8, 1e-8)]
)
def test_rank_deficient_target_without_witness_is_a_domain_error(F):
    # The plane energy is +inf at F, and no searched split reaches finite
    # endpoints: an unwitnessed value must not come back as a result.
    with pytest.raises(DomainError, match="witness"):
        relax_lamination(F, P8, CFG)


def test_rank_deficient_target_is_a_domain_error_at_depth_three():
    # The deeper passes split the witness atoms, and there are none.
    with pytest.raises(DomainError, match="witness"):
        relax_lamination(np.zeros((3, 2)), P8, OracleConfig(depth=3))


def test_line_relaxation_convex_direction_returns_value():
    F = diag_embed(2.5, 0.8)
    v = relax_along_line(F, np.array([1.0, 0, 0]), np.array([1.0, 0]), P8)
    assert abs(v - plane_energy(F, P8)) <= 1e-10


def test_line_relaxation_shear_direction_drops_below_value():
    F = diag_embed(1.0, 1.0)
    v = relax_along_line(F, np.array([1.0, 0, 0]), np.array([0.0, 1.0]), P8)
    assert v < 0.41421356
    assert v <= 1e-6  # the soft segment is reachable along this line


def test_line_relaxation_through_infinite_point():
    F = np.outer([1.0, 0.0, 0.0], [1.0, 0.0])
    v = relax_along_line(F, np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0]), P8)
    assert np.isfinite(v)


def test_line_relaxation_rejects_non_unit_directions():
    with pytest.raises(ValueError):
        relax_along_line(diag_embed(1.0, 1.0), np.array([2.0, 0, 0]), np.array([1.0, 0]), P8)


def test_huge_target_is_a_domain_error_before_the_search():
    # The target's own invariants are below _INVARIANT_MAX, but the search
    # offsets would leave it.
    F = diag_embed(9e49, 9e49)
    with pytest.raises(DomainError) as err:
        relax_lamination(F, P8, CFG)
    assert f"{_NORM_MAX:.6g}" in str(err.value) and f"{_INVARIANT_MAX:g}" in str(err.value)


def test_large_target_keeps_a_witness():
    F = diag_embed(9e30, 9e30)
    res = relax_lamination(F, P8, CFG)
    paired = measure_pairing(res.best_measure, lambda G: plane_energy(G, P8))
    assert np.isfinite(res.value) and paired == pytest.approx(res.value, rel=1e-12)
    np.testing.assert_allclose(res.best_measure.barycenter(), F, atol=1e-9 * np.linalg.norm(F))


_unit_entries = st.floats(-1.0, 1.0, allow_subnormal=False)


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    F=st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=6, max_size=6),
    a=st.lists(_unit_entries, min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 0.1),
    b=st.lists(_unit_entries, min_size=2, max_size=2).filter(lambda v: np.linalg.norm(v) > 0.1),
)
def test_line_relaxation_matches_lower_hull_reference(r, F, a, b):
    # The lowest chord through 0 against the lower convex hull of the same
    # samples, built independently and read at 0.
    params = MaterialParams(mu=2.0, r=r)
    F = np.reshape(F, (3, 2))
    a = np.array(a) / np.linalg.norm(a)
    b = np.array(b) / np.linalg.norm(b)
    v = relax_along_line(F, a, b, params)
    ts = np.linspace(-1.0, 1.0, 1601) * 10.0 * max(1.0, float(np.linalg.norm(F)))
    lamM, lamm = singular_values(F[None] + ts[:, None, None] * np.outer(a, b)[None])
    ref = lower_hull_at_zero(ts, plane_energy_values(lamM, lamM * lamm, params))
    if np.isinf(ref):
        assert v == ref
    else:
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(v))


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_grid_candidates_are_the_splits_of_their_chords(region):
    # Each candidate's value is the weighted plane energy of the split it
    # names: weight theta on F + (1 - theta) t a b^T.
    rng = np.random.default_rng(5)
    lamM, delta = sample_invariants(region, 8.0, 0.4, 0.6)
    assert classify(lamM, delta, P8) is region
    F = matrix_from_invariants(lamM, delta, rng)
    offsets = np.geomspace(1e-3, 10.0, 40) * max(1.0, float(np.linalg.norm(F)))
    dirs = [np.concatenate(d) for d in zip(_frame_directions(F), _grid_directions(0))]
    candidates = _grid_search(F, P8, dirs, offsets, 6)
    assert len(candidates) == 6
    for value, (a, b, t, theta) in candidates:
        assert t > 0.0 and 0.0 < theta < 1.0
        D = np.outer(a, b)
        split = theta * plane_energy(F + (1.0 - theta) * t * D, P8) + (
            1.0 - theta
        ) * plane_energy(F - theta * t * D, P8)
        assert abs(value - split) <= 1e-12 * max(1.0, abs(split))


def _budget(F, full):
    # The two grid scans of the oracle's single splits: frame directions
    # plus the seeded grid, 40 offsets, top 6; frame directions only, 16
    # offsets, top 3.
    scale = max(1.0, float(np.linalg.norm(F)))
    dirs = _frame_directions(F)
    if full:
        dirs = [np.concatenate(d) for d in zip(dirs, _grid_directions(0))]
        return dirs, _GRID_LADDER * scale, 6
    return dirs, _LIGHT_LADDER * scale, 3


def _bits(candidates):
    return [(v.hex(), a.tobytes(), b.tobytes(), t.hex(), th.hex()) for v, (a, b, t, th) in candidates]


@pytest.mark.parametrize("full", [True, False], ids=["grid", "frame"])
@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_bounded_grid_search_matches_exhaustive_reference(region, r, full):
    # The bounded scan skips the chord tables of directions whose lowest
    # ladder sample is above the top candidates; the candidates, values
    # and splits must be those of the exhaustive scan, bit for bit.
    params = MaterialParams(mu=2.0, r=r)
    lamM, delta = sample_invariants(region, r, 0.4, 0.6)
    assert classify(lamM, delta, params) is region
    F = matrix_from_invariants(lamM, delta, np.random.default_rng(5))
    dirs, offsets, top_k = _budget(F, full)
    got = _grid_search(F, params, dirs, offsets, top_k)
    assert len(got) == top_k
    assert _bits(got) == _bits(grid_search_reference(F, params, dirs, offsets, top_k))


def test_bounded_grid_search_breaks_ties_on_the_lower_index():
    # Every direction twice, the second copy as (-a, -b): the same dyad, so
    # the same ladder and chords, but a candidate that names its copy.  An
    # odd top_k splits the last tied pair, which the first copy must win.
    F = matrix_from_invariants(*sample_invariants(Region.M, 8.0, 0.4, 0.6), np.random.default_rng(5))
    (a, b), offsets, _ = _budget(F, True)
    dirs = [np.concatenate([a, -a]), np.concatenate([b, -b])]
    got = _grid_search(F, P8, dirs, offsets, 5)
    assert _bits(got) == _bits(grid_search_reference(F, P8, dirs, offsets, 5))
    picked = [
        int(np.flatnonzero((dirs[0] == ca).all(axis=1) & (dirs[1] == cb).all(axis=1))[0])
        for _, (ca, cb, _, _) in got
    ]
    first = picked[0::2]
    assert all(d < len(a) for d in first)
    assert picked[1::2] == [d + len(a) for d in first[:2]]


@pytest.mark.parametrize("F", [diag_embed(0.5, 1e-13), np.zeros((3, 2))], ids=["thin", "zero"])
def test_bounded_grid_search_with_fewer_finite_directions_than_top_k(F):
    # Most ladders of a rank-deficient target are +inf everywhere (every
    # frame ladder of the zero matrix is), so fewer than top_k directions
    # have a finite chord: every one of them is a candidate.
    dirs, offsets, _ = _budget(F, False)
    finite = np.isfinite(_ladder_chords(lambda G: _w2d(G, P8), F, _dyads(*dirs), offsets))
    n_finite = int(np.count_nonzero(finite.any(axis=(1, 2))))
    assert n_finite < 6
    got = _grid_search(F, P8, dirs, offsets, 6)
    assert len(got) == n_finite
    assert _bits(got) == _bits(grid_search_reference(F, P8, dirs, offsets, 6))


def test_grid_search_builds_few_small_chord_tables(monkeypatch):
    # Bit identity cannot tell whether the bound is on: count the chord
    # tables of one full-grid scan of a liquid target.
    F = matrix_from_invariants(*sample_invariants(Region.L, 8.0, 0.4, 0.6), np.random.default_rng(5))
    dirs, offsets, top_k = _budget(F, True)
    tables = []
    chords = relaxation._chords

    def recording(w_pos, w_neg, s_pos, s_neg):
        out = chords(w_pos, w_neg, s_pos, s_neg)
        tables.append(out.shape)
        return out

    monkeypatch.setattr(relaxation, "_chords", recording)
    assert len(_grid_search(F, P8, dirs, offsets, top_k)) == top_k
    assert len(dirs[0]) == 1036 and tables
    assert all(shape == (shape[0], 40, 40) and shape[0] <= _CHUNK for shape in tables)
    assert sum(shape[0] for shape in tables) < len(dirs[0]) // 2


# (estimate, a, b, t, theta) of the two-level scan, pinned bit for bit.
_TWO_LEVEL_PINS = [
    (
        diag_embed(1.0, 1.0),
        8.0,
        (5.3069448391340757e-08, [1.0, 0.0, 0.0], [-0.0, 1.0], 1.617169830541779, 0.5),
    ),
    (
        diag_embed(0.44, 0.08 / 0.44),
        2.0,
        (1.6086464862397065e-06, [0.0, 0.0, 1.0], [-0.0, 1.0], 2.3445125572794394, 0.5),
    ),
    (
        np.array([[1.2, 0.3], [-0.4, 0.9], [0.5, 0.2]]),
        8.0,
        (
            1.6544493552927975e-09,
            [0.898280455039458, -0.22028534876224184, 0.3802191331519258],
            [-0.10795950712881482, 0.994155292105063],
            2.160986190540832,
            0.5,
        ),
    ),
]


@pytest.mark.parametrize("F, r, pinned", _TWO_LEVEL_PINS)
def test_two_level_scan_is_pinned(F, r, pinned):
    est, (a, b, t, theta) = _two_level(F, MaterialParams(mu=2.0, r=r))
    assert (float(est), a.tolist(), b.tolist(), t, theta) == pinned


# One whole solve per region at r = 8 and a two-level tree at r = 2:
# (F, or the region and frame seed of an interior target; r; value;
# [(level, magnitude, weight)] of the tree), floats as hex.
_SOLVE_PINS = {
    "L": (
        (Region.L, 11),
        8.0,
        "-0x1.0000000000000p-51",
        [(1, "0x1.062c407fe916fp+1", "0x1.e94a0975298b4p-1")],
    ),
    "M": (
        (Region.M, 11),
        8.0,
        "0x1.c72bae8220088p+2",
        [(1, "0x1.53db28bc24d47p+2", "0x1.0a21d0d0e8916p-1")],
    ),
    "W": (
        (Region.W, 11),
        8.0,
        "0x1.ee35506f47602p+0",
        [(1, "0x1.a96aac6672859p-1", "0x1.1c57b790e8914p-1")],
    ),
    "S": (
        (Region.S, 11),
        8.0,
        "0x1.61b2bccffe5cep+1",
        [(1, "0x1.14c884253a5dep-31", "0x1.d000000000000p-2")],
    ),
    "two-level": (
        diag_embed(0.44, 0.08 / 0.44),
        2.0,
        "0x1.a708cc2000000p-23",
        [
            (1, "0x1.2c18fccb49cb6p+1", "0x1.0000000000000p-1"),
            (2, "0x1.aab107cea9e7ep+0", "0x1.0000000000000p-1"),
            (2, "0x1.aab107cea9e7ep+0", "0x1.0000000000000p-1"),
        ],
    ),
}


@pytest.mark.parametrize("name", list(_SOLVE_PINS))
def test_whole_solve_is_pinned(name):
    # The search path of a full solve, bit for bit: a change that only
    # speeds the oracle up must leave these equal.
    F, r, value, tree = _SOLVE_PINS[name]
    if isinstance(F, tuple):
        region, seed = F
        F = matrix_from_invariants(
            *sample_invariants(region, r, 0.4, 0.6), np.random.default_rng(seed)
        )
    res = relax_lamination(F, MaterialParams(mu=2.0, r=r), CFG)
    assert res.value.hex() == value
    got = [(e["level"], e["magnitude"].hex(), e["weight"].hex()) for e in res.best_measure.tree]
    assert got == tree


def test_split_endpoints_match_the_two_expressions():
    # One broadcast gives both endpoints with the bits of the written-out
    # F + (1 - theta) t a b^T and F - theta t a b^T.
    rng = np.random.default_rng(9)
    F = rng.normal(size=(3, 2))
    a, b = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
    t = 10.0 ** rng.uniform(-3, 1, 40)
    theta = rng.uniform(0.0, 1.0, 40)
    ends = _split_endpoints(F, (a, b, t, theta))
    assert ends.shape == (2, 40, 3, 2)
    for i in range(40):
        D = np.outer(a[i], b[i])
        one = _split_endpoints(F, (a[i], b[i], float(t[i]), float(theta[i])))
        assert one.shape == (2, 3, 2)
        for got in (ends[:, i], one):
            assert got[0].tobytes() == (F + (1.0 - theta[i]) * t[i] * D).tobytes()
            assert got[1].tobytes() == (F - theta[i] * t[i] * D).tobytes()
    # One direction, a batch of magnitudes and weights (the two-level polish).
    ends = _split_endpoints(F, (a[0], b[0], t, theta))
    D = np.outer(a[0], b[0])
    assert ends[0].tobytes() == (F + ((1.0 - theta) * t)[:, None, None] * D).tobytes()
    assert ends[1].tobytes() == (F - (theta * t)[:, None, None] * D).tobytes()


def test_endpoint_estimate_matches_one_frame_per_endpoint():
    # The estimate takes every endpoint's six frame dyads Q[:, i] R[j, :]
    # (i outer) from one batched svd32 call; the reference scores each
    # endpoint alone, its dyads from its own svd32 call.
    rng = np.random.default_rng(8)
    E = rng.normal(size=(2, 24, 6, 3, 2)) * rng.choice([0.1, 1.0, 3.0], size=(2, 24, 6, 1, 1))
    E[0, 0, 0] = diag_embed(1.0, 1.0)
    E[0, 0, 1] = np.outer([1.0, -2.0, 0.5], [0.3, 1.0])
    est = _endpoint_depth1_estimate(E, P8)
    assert est.shape == (2, 24, 6)
    for idx in np.ndindex(*E.shape[:-2]):
        G = E[idx]
        sd = svd32(G)
        D = np.array([np.outer(sd.Q[:, i], sd.R[j, :]) for i in range(3) for j in range(2)])
        s = max(1.0, np.linalg.norm(G.reshape(6), axis=-1)) * np.geomspace(1e-2, 8.0, 14)
        chords = _ladder_chords(lambda X: _w2d(X, P8), G[None], D, s[None, :])
        assert est[idx] == min(_w2d(G, P8), chords.min()), idx


@pytest.mark.parametrize("x", [1e15, 1e16, 9e30])
def test_two_level_estimate_is_not_below_the_closed_form(x):
    # Every estimate is a weighted sum of chords of plane energies, so it
    # bounds the rank-one convex envelope from above also where those
    # energies are huge.
    est, _ = _two_level(diag_embed(x, x), P8)
    assert est >= (1.0 - 1e-12) * psi(x, x * x, P8)


def _plateau_objective(rng, dim):
    # A rounded quadratic with coupled coordinates (plateaus, so ties, and
    # moves that depend on the order of the sweep) that is +inf beyond a
    # wall.
    center = rng.uniform(-1.0, 1.0, dim)
    A = rng.normal(size=(dim, dim))
    M = A @ A.T + 0.1 * np.eye(dim)
    wall = center[0] + rng.uniform(0.5, 1.5)

    def values(X):
        Y = X - center
        # Elementwise only, so a row's value does not depend on the batch.
        q = sum(M[i, j] * Y[:, i] * Y[:, j] for i in range(dim) for j in range(dim))
        q = np.floor(16.0 * q) / 16.0
        return np.where(X[:, 0] > wall, np.inf, q)

    return values


@pytest.mark.parametrize("seed", range(40))
def test_pattern_search_matches_serial_reference(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    values = _plateau_objective(rng, dim)
    starts = rng.uniform(-2.0, 2.0, (3, dim)).tolist()
    steps = rng.uniform(0.05, 0.5, dim).tolist()
    active = rng.permutation(dim)[: int(rng.integers(1, dim + 1))].tolist()
    # The three searches run side by side; each must take its own path.
    for x0, (best, x) in zip(starts, _pattern_search(values, starts, steps, 30, active)):
        ref_best, ref_x = pattern_search_reference(
            lambda xs: values(np.array([xs]))[0], x0, steps, 30, active
        )
        assert best == ref_best and x.tolist() == ref_x


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_split_polish_matches_serial_reference(region):
    # The polish of the oracle's grid candidates, batched and one row per
    # call of the same objective.
    rng = np.random.default_rng(7)
    F = matrix_from_invariants(*sample_invariants(region, 8.0, 0.3, 0.7), rng)
    offsets = np.geomspace(1e-3, 10.0, 16) * max(1.0, float(np.linalg.norm(F)))
    steps = [0.1, 0.1, 0.1, 0.35, 1.0 / 32]
    starts = [
        [*_angles_of(a, b), np.log(t), theta]
        for _, (a, b, t, theta) in _grid_search(F, P8, _frame_directions(F), offsets, 3)
    ]
    found = _pattern_search(lambda X: _split_values(F, P8, X), starts, steps, 50, range(5))
    for x0, (best, x) in zip(starts, found):
        ref_best, ref_x = pattern_search_reference(
            lambda xs: _split_values(F, P8, np.array([xs]))[0], x0, steps, 50, range(5)
        )
        assert best == ref_best and x.tolist() == ref_x
