"""Lamination oracle: witnessed upper bounds on the rank-one envelope."""

import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    STEP_MIN,
    angle_polish_reference,
    bench_targets,
    endpoint_estimate_reference,
    frame_lows_reference,
    frame_scan_reference,
    gap_table,
    halton,
    lower_hull_at_zero,
    matrix_from_invariants,
    pattern_search,
    pattern_search_reference,
    random_orthogonal2,
    random_rotation,
    sample_invariants,
    solve_digest,
    well_offsets_reference,
    work_counts,
)
from nemem import membrane, microstructure, relaxation
from nemem.algebra import diag_embed, rank_one_gap, svd32
from nemem.constitutive import MaterialParams
from nemem.membrane import (
    _INVARIANT_MAX,
    _RANK_TOL,
    DomainError,
    _soft_stretches,
    Region,
    classify,
    plane_energy,
    plane_energy_values,
    psi,
)
from nemem.microstructure import measure_pairing
from nemem.relaxation import (
    _LINE_NORM_MAX,
    _LINES,
    _NORM_MAX,
    _PAIR_LADDER,
    _SCAN_LADDER,
    _SPLIT_TOP,
    OracleConfig,
    OracleResult,
    _best_splits,
    _chords,
    _dyads,
    _energies,
    _endpoint_estimate,
    _frame_chords,
    _frame_lines,
    _frame_split,
    _frame_tables,
    _lower,
    _split_endpoints,
    _two_level,
    _w2d,
    _wells,
    _zoom,
    relax_along_line,
    relax_lamination,
)

P8 = MaterialParams(mu=2.0, r=8.0)
CFG = OracleConfig()


def test_config_validation():
    # A depth other than 1 or 2 is refused at construction, not after a
    # whole search; so is a boolean, which would run at depth 1, and a
    # float.
    for depth in (0, 3, 2.5, 2.0, float("nan"), "2", True, False):
        with pytest.raises(ValueError, match="depth"):
            OracleConfig(depth=depth)


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_scalar_plane_energy_matches_array_kernel(r):
    # The oracle's plane-energy path _w2d, called on one matrix at a time,
    # against plane_energy_values on the invariants directly.  The random
    # pairs keep lamm / lamM = delta / lamM^2 >= 0.1.
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
    # _w2d reads delta as the rounded product l * (d / l) of the matrix's
    # singular values, which on the exact-floor block can land just above
    # the floor: there it is finite exactly when that product is.
    floor = slice(lam.size + lam_e.size, lam.size + lam_e.size + 50)
    areal = L[floor] * (D[floor] / L[floor])
    expect_finite[floor] = areal > _RANK_TOL * np.maximum(1.0, L[floor] * L[floor])
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
    # Depth two keeps the single split unless a two-level tree is lower.
    for F in (diag_embed(1.0, 1.0), diag_embed(0.44, 0.08 / 0.44), diag_embed(2.5, 0.8)):
        v1 = relax_lamination(F, P8, OracleConfig(depth=1)).value
        v2 = relax_lamination(F, P8, OracleConfig(depth=2)).value
        assert v2 <= v1 + 1e-12


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


def test_deterministic():
    # The search has no random part: two solves give the same bits.
    F = diag_embed(1.7, 0.9)
    a = relax_lamination(F, P8, CFG)
    b = relax_lamination(F, P8, CFG)
    assert a.value == b.value and a.gap == b.gap
    assert len(a.best_measure.atoms) == len(b.best_measure.atoms)
    for (wa, Ga), (wb, Gb) in zip(a.best_measure.atoms, b.best_measure.atoms):
        assert wa == wb and np.array_equal(Ga, Gb)


def test_result_type():
    res = relax_lamination(diag_embed(2.0, 1.0), P8, CFG)
    assert isinstance(res, OracleResult)
    assert res.gap == res.value - res.closed_form


# Depth 2, the deepest the oracle searches.
@pytest.mark.parametrize("depth", [2])
@pytest.mark.parametrize("F", [np.zeros((3, 2)), diag_embed(0.5, 1e-13)], ids=["zero", "thin"])
def test_rank_deficient_target_keeps_a_sound_witness(F, depth):
    # The plane energy is +inf at F, and the relaxed energy is 0.  A split
    # of finite value is lower than +inf by more than rounding noise, so it
    # is taken: the witness has finite atoms, its barycenter is F and its
    # value is its pairing.
    res = relax_lamination(F, P8, OracleConfig(depth=depth))
    assert res.closed_form == 0.0
    assert -1e-9 <= res.gap <= 5e-3
    np.testing.assert_allclose(res.best_measure.barycenter(), F, rtol=0.0, atol=1e-15)
    paired = measure_pairing(res.best_measure, lambda G: plane_energy(G, P8))
    assert paired == res.value


def test_tiny_target_keeps_a_sound_witness():
    # The plane energy is +inf at diag(1e-8, 1e-8), whose relaxed energy
    # is 0; a two-level tree reaches four finite atoms.  The witness is
    # sound: its barycenter is the target and its value is its pairing.
    F = diag_embed(1e-8, 1e-8)
    res = relax_lamination(F, P8, CFG)
    assert res.closed_form == 0.0
    assert 0.0 <= res.gap <= 5e-3
    assert len(res.best_measure.atoms) == 4
    np.testing.assert_allclose(res.best_measure.barycenter(), F, rtol=0.0, atol=1e-15)
    paired = measure_pairing(res.best_measure, lambda G: plane_energy(G, P8))
    assert abs(paired - res.value) <= 1e-15


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


_E1, _F1 = np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0])


@pytest.mark.parametrize(
    "Ft, a, b, match",
    [
        (diag_embed(1.0, 1.0), np.array([np.nan, 0, 0]), _F1, "unit"),
        (diag_embed(1.0, 1.0), _E1, np.array([np.nan, 1.0]), "unit"),
        (diag_embed(1.0, 1.0), np.array([1.0, 0]), _F1, "shape"),
        (diag_embed(1.0, 1.0), _E1, _E1, "shape"),
        (np.eye(2), _E1, _F1, "shape"),
        (diag_embed(np.inf, 1.0), _E1, _F1, "finite"),
        (diag_embed(1.0, np.nan), _E1, _F1, "finite"),
    ],
    ids=["nan-a", "nan-b", "short-a", "long-b", "square-F", "inf-F", "nan-F"],
)
def test_line_relaxation_rejects_bad_input(Ft, a, b, match):
    # Each is refused at the boundary with its own message (the tests run
    # with numpy RuntimeWarnings as errors, so none may come first).
    with pytest.raises(ValueError, match=match):
        relax_along_line(Ft, a, b, P8)


def test_huge_target_is_a_domain_error_before_the_search():
    # The target's own invariants are below _INVARIANT_MAX, but the search
    # offsets would leave it.
    F = diag_embed(9e49, 9e49)
    with pytest.raises(DomainError) as err:
        relax_lamination(F, P8, CFG)
    assert f"{_NORM_MAX:.6g}" in str(err.value) and f"{_INVARIANT_MAX:g}" in str(err.value)


@pytest.mark.parametrize("x", [1e49, 1e60, 1e200])
def test_huge_target_norm_is_checked_before_its_invariants(x):
    # Above 1e50 the target's own delta is above _INVARIANT_MAX, and above
    # about 1e154 its squared entries overflow: still the norm's
    # DomainError, with no numpy warning, naming the norm.
    F = diag_embed(x, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            relax_lamination(F, P8, CFG)
    assert f"{_NORM_MAX:.6g}" in str(err.value) and f"{math.sqrt(2.0) * x:.6g}" in str(err.value)


@pytest.mark.parametrize("x", [1e49, 1e60, 1e200])
def test_line_relaxation_bounds_the_norm(x):
    # Below _LINE_NORM_MAX every sample's invariants are within
    # _INVARIANT_MAX and the line has a value; above it the line is a
    # DomainError before any sample, with no numpy warning, also where the
    # squared entries overflow.
    F = diag_embed(x, x)
    b = np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if x < _LINE_NORM_MAX:
            assert math.isfinite(relax_along_line(F, _E1, b, P8))
            return
        with pytest.raises(DomainError) as err:
            relax_along_line(F, _E1, b, P8)
    assert f"{_LINE_NORM_MAX:.6g}" in str(err.value) and f"{math.sqrt(2.0) * x:.6g}" in str(err.value)


def test_large_target_keeps_a_witness():
    F = diag_embed(9e30, 9e30)
    res = relax_lamination(F, P8, CFG)
    paired = measure_pairing(res.best_measure, lambda G: plane_energy(G, P8))
    assert np.isfinite(res.value) and paired == pytest.approx(res.value, rel=1e-12)
    np.testing.assert_allclose(res.best_measure.barycenter(), F, atol=1e-9 * np.linalg.norm(F))


@pytest.mark.parametrize("r", [1e13, 1e300])
@pytest.mark.parametrize("x", [1.2, 1e40])
def test_extreme_r_keeps_a_witness(x, r):
    # At r = 1e300 the soft segment reaches 1e100, and at a large target
    # some of its well points lie beyond the invariant range: those are not
    # reached, and the solve still returns its witness's pairing.
    params = MaterialParams(mu=2.0, r=r)
    res = relax_lamination(diag_embed(x, 0.75 * x), params, CFG)
    assert math.isfinite(res.value) and res.gap >= -1e-9 * max(1.0, res.closed_form)
    assert res.value == measure_pairing(res.best_measure, lambda G: plane_energy(G, params))


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
    # samples, built independently (LAPACK's singular values) and read at 0.
    params = MaterialParams(mu=2.0, r=r)
    F = np.reshape(F, (3, 2))
    a = np.array(a) / np.linalg.norm(a)
    b = np.array(b) / np.linalg.norm(b)
    v = relax_along_line(F, a, b, params)
    ts = np.linspace(-1.0, 1.0, 1601) * 10.0 * max(1.0, float(np.linalg.norm(F)))
    sv = np.linalg.svd(F[None] + ts[:, None, None] * np.outer(a, b)[None], compute_uv=False)
    ref = lower_hull_at_zero(ts, plane_energy_values(sv[:, 0], sv[:, 0] * sv[:, 1], params))
    if np.isinf(ref):
        assert v == ref
    else:
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(v))


_E2, _E3 = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "x, a, b, want",
    [(1.0, _E3, _E2[:2], math.inf), (1e-5, _E2, _E2[:2], 99338937.2869)],
    ids=["rank-one-line", "thin-line"],
)
def test_line_relaxation_scores_near_rank_one_lines(x, a, b, want):
    # Along a line of rank-one matrices the plane energy is +inf
    # everywhere, and so is its relaxation; along a line of near-rank-one
    # matrices the smaller singular value keeps its precision.
    F = np.zeros((3, 2))
    F[2, 0] = x
    v = relax_along_line(F, a, b, MaterialParams(mu=2.0, r=1.01))
    assert v == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_grid_candidates_are_the_splits_of_their_chords(region):
    # Each candidate of the full depth-one scan, one per frame line, ranked
    # by value, is the weighted plane energy of the split it names
    # (_frame_split): weight theta on F + (1 - theta) t a b^T.
    rng = np.random.default_rng(5)
    lamM, delta = sample_invariants(region, 8.0, 0.4, 0.6)
    assert classify(lamM, delta, P8) is region
    F = matrix_from_invariants(lamM, delta, rng)
    offsets = _offsets(F, _SCAN_LADDER)
    sd = svd32(F)
    w0, candidates = _ranked_candidates(F, P8, _SCAN_LADDER, 5)
    assert abs(w0 - plane_energy(F, P8)) <= 1e-12 * max(1.0, abs(w0))
    assert len(candidates) == 5
    values = [value for value, _, _, _ in candidates]
    assert values == sorted(values)
    for value, d, s_pos, s_neg in candidates:
        assert s_pos in offsets and s_neg in offsets
        a, b, t, theta = _frame_split(sd.Q, sd.R, d, s_pos, s_neg)
        assert t == s_pos + s_neg and theta == s_neg / t
        D = np.outer(a, b)
        split = theta * plane_energy(F + (1.0 - theta) * t * D, P8) + (
            1.0 - theta
        ) * plane_energy(F - theta * t * D, P8)
        assert abs(value - split) <= 1e-12 * max(1.0, abs(split))


# The sixteen sign maps (S3, S2) with S3 D S2 = +-D for every 3x2 diagonal
# D: the signs of (a'_1, b'_1) and of (a'_2, b'_2) agree up to one common
# factor, the sign of a'_3 is free.
_SIGN_MAPS = [
    (np.array(s3), np.array(s2))
    for s3 in itertools.product((1.0, -1.0), repeat=3)
    for s2 in itertools.product((1.0, -1.0), repeat=2)
    if s3[0] * s2[0] == s3[1] * s2[1]
]


@pytest.mark.parametrize("r", [1.01, 8.0, 100.0])
@pytest.mark.parametrize(
    "F",
    [
        np.random.default_rng(21).normal(size=(3, 2)),
        diag_embed(1.0, 1.0),
        matrix_from_invariants(2.0, 2e-2, np.random.default_rng(22)),
    ],
    ids=["random", "repeated", "near-rank-one"],
)
def test_frame_sign_maps_keep_the_ladder_plane_energies(F, r):
    # The symmetry _frame_lines relies on, which reads the lines even in
    # the offset at +s only: with F = Q D R, the line
    # (Q a', R^T b') and its image (Q S3 a', R^T S2 b') under each sign
    # map, read at offsets e s with e = S3[0] S2[0], have the same plane
    # energies.  They are taken from svd32: the oracle's Gram-matrix
    # singular values lose accuracy near rank deficiency, which a ladder
    # can pass close to.
    params = MaterialParams(mu=2.0, r=r)
    assert len(_SIGN_MAPS) == 16

    def ladder(D, s):
        # Plane energies at F + s_i D, then at F - s_i D, for each line D.
        both = np.concatenate([s, -s])
        sd = svd32(F + both[:, None, None] * D[:, None])
        return plane_energy_values(sd.lamM, sd.delta, params)

    rng = np.random.default_rng(23)
    ap, bp = rng.normal(size=(32, 3)), rng.normal(size=(32, 2))
    ap /= np.linalg.norm(ap, axis=1)[:, None]
    bp /= np.linalg.norm(bp, axis=1)[:, None]
    sd = svd32(F)
    s = _SCAN_LADDER * max(1.0, float(np.linalg.norm(F)))
    ref = ladder(_dyads(ap @ sd.Q.T, bp @ sd.R), s)
    finite = np.isfinite(ref)
    assert finite.any()
    for s3, s2 in _SIGN_MAPS:
        D = _dyads((ap * s3) @ sd.Q.T, (bp * s2) @ sd.R)
        got = ladder(D, s3[0] * s2[0] * s)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        err = np.abs(got[finite] - ref[finite]) / np.maximum(params.mu, np.abs(ref[finite]))
        assert err.max() <= 1e-12, (s3, s2)


# The axes (i, j) of the frame lines, in the order of relaxation._LINES.
_FRAME_AXES = [(0, 0), (1, 1), (0, 1), (2, 0), (2, 1)]


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_grid_lies_in_a_quarter_of_the_target_frame(region, seed):
    # The scanned lines, the directions of the five frame lines' splits
    # (_frame_split), read back in the target's frame, a' = Q^T a and
    # b' = R b, are the frame's axes (e_i, e_j) in the table's order, the
    # two odd lines first: every line has a'_1 >= 0, a'_3 >= 0 and b' in
    # the first quadrant, the quarter the sign maps reduce the lines to.
    # (1, 0) is not among them: it has (0, 1)'s singular values.
    F = matrix_from_invariants(*sample_invariants(region, 8.0, 0.4, 0.6), np.random.default_rng(seed))
    sd = svd32(F)
    assert [axes for axes, _ in _LINES] == _FRAME_AXES
    a, b = (np.array(x) for x in zip(*(_frame_split(sd.Q, sd.R, d, 1.0, 1.0)[:2] for d in range(5))))
    assert a.shape == (5, 3) and b.shape == (5, 2)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, rtol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1.0, rtol=1e-14)
    ap, bp = a @ sd.Q, b @ sd.R.T
    assert ap[:, 0].min() >= -1e-15 and ap[:, 2].min() >= -1e-15
    assert bp.min() >= -1e-15
    np.testing.assert_allclose(ap, np.eye(3)[[i for i, _ in _FRAME_AXES]], atol=1e-14)
    np.testing.assert_allclose(bp, np.eye(2)[[j for _, j in _FRAME_AXES]], atol=1e-14)
    # Five distinct lines.
    assert len(np.unique(np.round(_dyads(a, b).reshape(-1, 6), 12), axis=0)) == 5


def _offsets(F, ladder):
    # A unit ladder in units of max(1, |F|), read from F's singular values
    # as the split search reads it.
    sd = svd32(F)
    return ladder * max(1.0, float(np.hypot(sd.lamM, sd.lamm)))


def _ranked_candidates(F, params, ladder, top_k):
    # The candidates of the one split search on the plane energy of F, in
    # rank order: the rows its one zoom is given (line, chord ends), each
    # with its scan chord, as (w0, [(value, d, s_pos, s_neg), ...]), the
    # form of helpers.frame_scan_reference.
    sd = svd32(F)
    l1, l2 = np.array([sd.lamM]), np.array([sd.lamm])
    rows = []
    zoom = relaxation._zoom

    def recording(*args):
        rows.extend(zip(*(x.tolist() for x in args[2:5])))
        return zoom(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relaxation, "_zoom", recording)
        _best_splits(l1, l2, ladder, _energies(params), top_k, math.inf)
    own, low, _, _ = _frame_chords(l1, l2, _offsets(F, ladder)[None], _energies(params))
    return float(own[0]), [(float(low[0, d]), d, s_pos, s_neg) for d, s_pos, s_neg in rows]


def _assert_scan_matches_reference(F, params, ladder, top_k):
    # The closed-form scan against the scan on line matrices: the same
    # number of candidates, and the values (own, then ranked) to 1e-12.
    w0, got = _ranked_candidates(F, params, ladder, top_k)
    ref_w0, ref = frame_scan_reference(F, params, _offsets(F, ladder), top_k)
    assert len(got) == len(ref)
    for v, r in zip([w0] + [c[0] for c in got], [ref_w0] + [c[0] for c in ref]):
        assert v == r or abs(v - r) <= 1e-12 * max(1.0, abs(r)), (v, r)
    return got


# The oracle's scans of plane energies on the single splits' 40 offsets:
# the ladder alone ("grid"), and with the wells of the depth-one pass
# ("frame").
@pytest.mark.parametrize("wells", [False, True], ids=["grid", "frame"])
@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_bounded_grid_search_matches_exhaustive_reference(region, r, wells):
    # The scan reads the five frame lines in closed form from the target's
    # singular values, with chord tables only for (0, 0) and (1, 1), and
    # its well points from the soft stretches; the reference scores all six
    # dyads on their matrices, one full chord table per dyad, (1, 0)
    # checked against (0, 1), at the ladder and at the well offsets it
    # writes out itself.  The per-line lows agree to 1e-12, and so do the
    # ranked candidates of the ladder.
    params = MaterialParams(mu=2.0, r=r)
    lamM, delta = sample_invariants(region, r, 0.4, 0.6)
    assert classify(lamM, delta, params) is region
    F = matrix_from_invariants(lamM, delta, np.random.default_rng(5))
    offsets = _offsets(F, _SCAN_LADDER)
    sd = svd32(F)
    soft = _soft_stretches(r) if wells else ()
    _, low, _, _ = _frame_chords(sd.lamM, sd.lamm, offsets, _energies(params), soft)
    ref_offsets = offsets
    if wells:
        ref_offsets = [[np.concatenate([offsets, x]) for x in sides] for sides in well_offsets_reference(F, r)]
    _, lows = frame_lows_reference(F, params, ref_offsets)
    assert len(low) == len(lows) == 5
    for v, (ref, _, _) in zip(low, lows):
        assert v == ref or abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (v, ref)
    if not wells:
        assert len(_assert_scan_matches_reference(F, params, _SCAN_LADDER, 5)) == 5


def test_bounded_grid_search_breaks_ties_on_the_lower_index(monkeypatch):
    # A constant value of 1 makes every chord of every line exactly 1, an
    # exact tie of all five lines that the ranking breaks on the line
    # index: the lines are zoomed in the order 0..4, a top_k cut keeps the
    # lowest indices, and the first, line 0, is the split of each row.
    l1, l2 = np.array([1.3, 0.7]), np.array([0.4, 0.7])

    def value(hi, lo):
        return np.ones(np.shape(hi))

    own, low, _, _ = _frame_chords(l1, l2, l1[:, None] * _SCAN_LADDER, value)
    assert own.tolist() == [1.0] * 2 and low.tolist() == [[1.0] * 5] * 2
    zoomed = []
    zoom = relaxation._zoom

    def recording(*args):
        zoomed.append(args[2].tolist())
        return zoom(*args)

    monkeypatch.setattr(relaxation, "_zoom", recording)
    for top_k in range(1, 6):
        _, best, d, _, _ = _best_splits(l1, l2, _SCAN_LADDER, value, top_k, math.inf)
        assert zoomed[-1] == list(range(top_k)) * 2
        assert best.tolist() == [1.0] * 2 and d.tolist() == [0, 0]


@pytest.mark.parametrize("F", [diag_embed(0.5, 1e-13), np.zeros((3, 2))], ids=["thin", "zero"])
def test_bounded_grid_search_with_fewer_finite_directions_than_top_k(F):
    # Most frame lines of a rank-deficient target are +inf everywhere
    # (every line of the zero matrix is), so fewer than top_k lines have a
    # finite chord: every one of them is a candidate.
    _, lows = frame_lows_reference(F, P8, _offsets(F, _SCAN_LADDER))
    n_finite = sum(np.isfinite(v) for v, _, _ in lows)
    assert n_finite < 5
    assert len(_assert_scan_matches_reference(F, P8, _SCAN_LADDER, 5)) == n_finite


def _depth1_of(F, params):
    # The depth-one pass of one matrix, given its svd32 as relax_lamination
    # gives it.
    return relaxation._depth1(svd32(F), params)[0]


def _trap_closed_form(monkeypatch):
    # Replace the relaxed energy and the laminate functions with a raising
    # stub, wherever the oracle could reach them.
    def trap(*args, **kwargs):
        raise AssertionError("the oracle read the closed form")

    for module in (relaxation, membrane, microstructure):
        for name in ("psi", "_region_energy", "relaxed_energy", "classify", "laminate_wrinkle",
                     "laminate_shear", "young_measure_for"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, trap)


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_grid_search_never_reads_the_closed_form(region, monkeypatch):
    # The full depth-one search, frame scan and polish, is the same with
    # the relaxed energy and the laminate functions booby-trapped: the
    # oracle must stay blind to the closed form it checks.
    F = matrix_from_invariants(*sample_invariants(region, 8.0, 0.4, 0.6), np.random.default_rng(3))
    expected = _depth1_of(F, P8)
    _trap_closed_form(monkeypatch)
    value, split = _depth1_of(F, P8)
    assert value == expected[0]
    assert (split is None) == (expected[1] is None)
    for got, want in zip(split or (), expected[1] or ()):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_two_level_never_reads_the_closed_form(region, monkeypatch):
    # The two-level scan, its endpoint estimates and its polish are the
    # same, bit for bit, with the closed form booby-trapped.
    F = matrix_from_invariants(*sample_invariants(region, 8.0, 0.4, 0.6), np.random.default_rng(3))
    expected = _two_level(svd32(F), P8, math.inf)
    _trap_closed_form(monkeypatch)
    est, split = _two_level(svd32(F), P8, math.inf)
    assert float(est).hex() == float(expected[0]).hex()
    for got, want in zip(split, expected[1]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_two_level_builds_no_matrices(region, monkeypatch):
    # The two-level phase reads every endpoint from the target's singular
    # values: it decomposes no matrix and forms none.
    F = matrix_from_invariants(*sample_invariants(region, 8.0, 0.4, 0.6), np.random.default_rng(3))
    sd = svd32(F)
    expected = _two_level(sd, P8, math.inf)

    def trap(*args, **kwargs):
        raise AssertionError("the two-level phase used a matrix")

    for name in ("svd32", "_w2d", "_split_endpoints", "_dyads"):
        monkeypatch.setattr(relaxation, name, trap)
    est, split = _two_level(sd, P8, math.inf)
    assert float(est).hex() == float(expected[0]).hex()
    for got, want in zip(split, expected[1]):
        assert np.array_equal(got, want)


def test_full_depth_one_pass_builds_one_chord_table(monkeypatch):
    # The full pass scans the five frame lines of the target (a stack of
    # one), 40 offsets per side and the wells: 3 on the positive side and 6
    # on the negative side of each odd line.  Three lines are even in the
    # offset, so one chord table holds the other two, however the scan is
    # written.  The zoom then builds one table per level, 33 by 33 offsets,
    # for the two best-ranked candidates at once.  An M target: in L the
    # scan reaches chords of 0, which are not zoomed.
    F = matrix_from_invariants(*sample_invariants(Region.M, 8.0, 0.4, 0.6), np.random.default_rng(5))
    tables = []
    chords = relaxation._chords

    def recording(w_pos, w_neg, s_pos, s_neg):
        out = chords(w_pos, w_neg, s_pos, s_neg)
        tables.append(out.shape)
        return out

    monkeypatch.setattr(relaxation, "_chords", recording)
    _depth1_of(F, P8)
    assert tables == [(1, 2, 43, 46)] + [(2, 33, 33)] * relaxation._ZOOM_LEVELS


def _assert_same_pass(got, want):
    # One depth-one result against another, bit for bit.
    (value, split), (ref_value, ref_split) = got, want
    assert float(value).hex() == float(ref_value).hex()
    assert (split is None) == (ref_split is None)
    for x, y in zip(split or (), ref_split or ()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("search", ["full", "plane-scan", "pair-estimate"])
def test_depth_one_pass_on_a_stack_is_each_matrix_alone(search):
    # The searches over a stack share one scan and one zoom; each matrix
    # still gets, bit for bit, the result of its own search: the depth-one
    # pass against the pass on the matrix's own svd32, and the split search
    # itself, on the plane energy or the endpoint estimate, against the
    # search on a stack of that row alone.  The
    # zero matrix has no finite candidate, the S target's best split loses
    # to no split, and the last two are the endpoints of the two-level
    # pin's first split.
    F2 = diag_embed(0.44, 0.08 / 0.44)
    P2 = MaterialParams(mu=2.0, r=2.0)
    _, split = _two_level(svd32(F2), P2, math.inf)
    stack = [
        matrix_from_invariants(*sample_invariants(g, 2.0, 0.4, 0.6), np.random.default_rng(k))
        for k, g in enumerate([Region.L, Region.M, Region.W, Region.S])
    ]
    stack[2:2] = [np.zeros((3, 2))]
    stack += list(_split_endpoints(F2, split))
    sd = svd32(np.stack(stack))
    if search == "full":
        got = relaxation._depth1(sd, P2)
        assert len(got) == len(stack)
        for G, res in zip(stack, got):
            _assert_same_pass(res, _depth1_of(G, P2))
        assert got[2] == (np.inf, None)
        assert got[4][1] is None and all(res[1] is not None for res in got[5:])
        return
    ladder, value, top_k = {
        "plane-scan": (_SCAN_LADDER, _energies(P2), 5),
        "pair-estimate": (_PAIR_LADDER, _endpoint_estimate(P2), 1),
    }[search]
    l1, l2 = sd.lamM, sd.lamm
    scale = np.maximum(1.0, np.hypot(l1, l2))
    # The pair search runs with a bound that some rows' scans are above.
    scan = _frame_chords(l1, l2, scale[:, None] * ladder, value)[1].min(axis=1)
    bound = float(np.median(scan[np.isfinite(scan)])) if search == "pair-estimate" else math.inf
    got = _best_splits(l1, l2, ladder, value, top_k, bound)
    for k in range(len(stack)):
        alone = _best_splits(l1[k : k + 1], l2[k : k + 1], ladder, value, top_k, bound)
        assert all(x[k].tobytes() == y[0].tobytes() for x, y in zip(got, alone)), k
    _, low, d, _, _ = got
    if search == "pair-estimate":
        assert np.any(d >= 0) and np.any((d < 0) & np.isfinite(low))
    else:
        assert d[2] == -1 and np.isinf(low[2]) and np.all(np.delete(d, 2) >= 0)


def _depth_one_cases():
    # Stacks for the depth-one pass, each with its parameters: the
    # level-step atoms of an accepted two-level tree (the pin's first
    # split), then every region at each r, three targets each, in the order
    # L, M, W, S.
    F2 = diag_embed(0.44, 0.08 / 0.44)
    P2 = MaterialParams(mu=2.0, r=2.0)
    _, split = _two_level(svd32(F2), P2, math.inf)
    cases = [(np.stack(list(_split_endpoints(F2, split))), P2)]
    for r in (1.01, 2.0, 8.0, 100.0):
        rng = np.random.default_rng(int(r * 1000) + 3)
        stack = [
            matrix_from_invariants(*sample_invariants(region, r, u, v), rng)
            for region in (Region.L, Region.M, Region.W, Region.S)
            for u, v in zip(halton(3, 2), halton(3, 3))
        ]
        cases.append((np.stack(stack), MaterialParams(mu=2.0, r=r)))
    return cases


def test_depth_one_pass_zooms_two_lines_and_finds_what_five_find(monkeypatch):
    # The depth-one pass zooms the first _ZOOM_LINES = 2 lines of each
    # matrix's ranking; zooming all five gives every (value, split), bit for
    # bit: on a stack of every region at each r, and on the level-step
    # atoms of an accepted two-level tree (the pin's first split).
    cases = _depth_one_cases()
    rows = []
    zoom = relaxation._zoom

    def counting_zoom(*args):
        rows.append(len(args[2]))
        return zoom(*args)

    monkeypatch.setattr(relaxation, "_zoom", counting_zoom)
    assert relaxation._ZOOM_LINES == 2
    two = [relaxation._depth1(svd32(G), params) for G, params in cases]
    monkeypatch.setattr(relaxation, "_ZOOM_LINES", 5)
    five = [relaxation._depth1(svd32(G), params) for G, params in cases]
    assert sum(rows[: len(cases)]) < sum(rows[len(cases) :])
    for got, want in zip(two, five):
        for res, ref in zip(got, want):
            _assert_same_pass(res, ref)
    # Both atoms split, and every L, M and W target; no S target does.
    assert [sum(sub is not None for _, sub in got) for got in two] == [2, 9, 9, 9, 9]


def test_depth_one_pass_zooms_only_lines_below_their_own_value(monkeypatch):
    # The depth-one pass keeps a scanned line only when its chord is not
    # above the matrix's own plane energy by more than rounding noise
    # (_lower), so that it polishes only splits that can win.  On the cases
    # of the test above, the gated pass gives every (value, split) of the
    # search with no bound (+inf), bit for bit; the S rows, where the plane
    # energy is its own envelope, make no zoom call; and every row the gate
    # skips, zoomed anyway, ends above its own value by more than rounding
    # noise.
    zoom, best_splits = relaxation._zoom, relaxation._best_splits
    zoomed = []

    def recording_zoom(l1, l2, lines, s_pos, s_neg, ladder, value):
        out = zoom(l1, l2, lines, s_pos, s_neg, ladder, value)
        keys = zip(l1.tolist(), l2.tolist(), lines.tolist(), s_pos.tolist(), s_neg.tolist())
        zoomed[-1].update(zip(keys, out[0].tolist()))
        return out

    def unbounded(l1, l2, ladder, value, top_k, bound, soft=()):
        return best_splits(l1, l2, ladder, value, top_k, math.inf if bound is None else bound, soft)

    monkeypatch.setattr(relaxation, "_zoom", recording_zoom)
    skipped = 0
    for G, params in _depth_one_cases():
        sd = svd32(G)
        zoomed.append({})
        gated = relaxation._depth1(sd, params)
        with monkeypatch.context() as mp:
            mp.setattr(relaxation, "_best_splits", unbounded)
            zoomed.append({})
            ungated = relaxation._depth1(sd, params)
        for res, ref in zip(gated, ungated):
            _assert_same_pass(res, ref)
        rows, all_rows = zoomed[-2:]
        assert rows.items() <= all_rows.items()
        for (l1, l2, _, _, _), low in all_rows.items() - rows.items():
            own = float(_energies(params)(np.array([l1]), np.array([l2]))[0])
            assert _lower(own, low), (own, low)
            skipped += 1
        if len(G) == 12:
            s_rows = set(zip(sd.lamM[9:].tolist(), sd.lamm[9:].tolist()))
            assert not any(key[:2] in s_rows for key in rows)
            assert any(key[:2] in s_rows for key in all_rows)
            zoomed.append({})
            relaxation._depth1(svd32(G[9:]), params)
            assert zoomed[-1] == {}
    # Both lines of each S row at each r.
    assert skipped == 24


# An L target at r = 1.01 (seed 30 #60 of the oracle bench's list) whose
# two-level tree is taken and none of whose kept chords is 0 before its
# zoom: its entries as hex.
_ZOOMED_TWO_LEVEL = [
    "0x1.c8d180929fd3ep-3", "-0x1.3b05d56fbfc37p-1", "-0x1.338516231010dp-4",
    "0x1.b542ab763e15fp-3", "0x1.c8c0b066dfb71p-4", "0x1.11b72ea68aeb0p-1",
]


def test_accepted_two_level_tree_polishes_its_endpoints_once(monkeypatch):
    # A solve whose two-level tree is accepted polishes three times, each
    # by one zoom: the depth-one pass (two candidates), the two-level first
    # split (one row along its scanned line), and one depth-one pass over
    # both endpoints of the first split (two candidates each).  A chord of
    # 0 is not zoomed, so the target is one whose kept chords are all
    # above 0.
    calls = []
    zoom = relaxation._zoom

    def counting_zoom(l1, l2, lines, s_pos, s_neg, ladder, value):
        calls.append(("zoom", len(lines)))
        return zoom(l1, l2, lines, s_pos, s_neg, ladder, value)

    monkeypatch.setattr(relaxation, "_zoom", counting_zoom)
    F = np.array([float.fromhex(x) for x in _ZOOMED_TWO_LEVEL]).reshape(3, 2)
    res = relax_lamination(F, MaterialParams(mu=2.0, r=1.01), CFG)
    assert [e["level"] for e in res.best_measure.tree] == [1, 2, 2]
    assert calls == [("zoom", 2), ("zoom", 1), ("zoom", 4)]


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_two_level_zooms_only_a_scan_below_its_bound(region, monkeypatch):
    # With the bound below the pair scan's lowest chord by more than
    # rounding noise (_lower), the scan's low comes back with no split and
    # no zoom runs.  With the bound above the low, equal to it, or below it
    # by noise only (a tie), the first split is zoomed, and its estimate is
    # at most the low.  A low of 0 is not zoomed, so L is taken at r =
    # 1.01, where this target's pair scan stays above 0.
    r = 1.01 if region is Region.L else 8.0
    params = MaterialParams(mu=2.0, r=r)
    F = matrix_from_invariants(*sample_invariants(region, r, 0.4, 0.6), np.random.default_rng(3))
    sd = svd32(F)
    base = _PAIR_LADDER * max(1.0, float(np.hypot(sd.lamM, sd.lamm)))
    low = float(_frame_chords(sd.lamM, sd.lamm, base, _endpoint_estimate(params))[1].min())
    assert 0.0 < low < math.inf
    noise = 1e-12 * max(1.0, abs(low))
    calls = []
    zoom = relaxation._zoom

    def counting_zoom(*args):
        calls.append(len(args[2]))
        return zoom(*args)

    monkeypatch.setattr(relaxation, "_zoom", counting_zoom)
    for bound in (low - 10.0 * noise, low - 1.0, -math.inf):
        est, split = _two_level(sd, params, bound)
        assert split is None and est.hex() == low.hex()
    assert calls == []
    ties = (low - 0.5 * noise, np.nextafter(low, -math.inf), low)
    for bound in ties + (np.nextafter(low, math.inf), math.inf):
        est, split = _two_level(sd, params, bound)
        assert split is not None and est <= low
    assert calls == [1] * 5


@pytest.mark.parametrize("region", [Region.M, Region.W, Region.S])
def test_single_split_solves_zoom_once_and_never_deepen(region, monkeypatch):
    # In M, W and S one split or none is the answer: the two-level scan
    # does not beat it, so the whole solve runs the full depth-one zoom
    # and nothing else.  In S the plane energy is its own envelope: no
    # scanned chord is below the target's own value, so nothing is zoomed.
    F = matrix_from_invariants(*sample_invariants(region, 8.0, 0.4, 0.6), np.random.default_rng(11))
    calls, splits = [], []
    zoom, two_level = relaxation._zoom, relaxation._two_level

    def counting_zoom(*args):
        calls.append(("zoom", len(args[2])))
        return zoom(*args)

    def recording_two_level(*args):
        out = two_level(*args)
        splits.append(out[1])
        return out

    def trap(*args):
        raise AssertionError("a single-split solve was deepened")

    monkeypatch.setattr(relaxation, "_zoom", counting_zoom)
    monkeypatch.setattr(relaxation, "_two_level", recording_two_level)
    monkeypatch.setattr(relaxation, "_deepen", trap)
    relax_lamination(F, P8, CFG)
    assert calls == ([] if region is Region.S else [("zoom", 2)])
    assert splits == [None]


@pytest.mark.parametrize("region", [Region.M, Region.W, Region.S])
def test_single_split_solve_decomposes_its_target_once(region, monkeypatch):
    # relax_lamination passes its own svd32 of the target to the depth-one
    # pass and the two-level phase: a solve that is not deepened decomposes
    # the target once, and then its witness's atoms, stacked, to pair them.
    F = matrix_from_invariants(*sample_invariants(region, 8.0, 0.4, 0.6), np.random.default_rng(11))
    calls = []

    def counting_svd32(G):
        calls.append(np.shape(G))
        return svd32(G)

    monkeypatch.setattr(relaxation, "svd32", counting_svd32)
    res = relax_lamination(F, P8, CFG)
    assert len(res.best_measure.tree) <= 1
    assert calls == [(3, 2), (len(res.best_measure.atoms), 3, 2)]


@pytest.mark.parametrize("seeds", [(0,), (0, 1)], ids=["full", "step"])
def test_zoom_rows_do_not_depend_on_their_order(seeds):
    # _zoom works on its rows ordered by line and returns them in the
    # caller's order: shuffled rows of a depth-one pass of one target, and
    # of a level step's pass over two, get, row by row, the same results
    # bit for bit.
    rows = []
    for seed in seeds:
        F = matrix_from_invariants(*sample_invariants(Region.L, 8.0, 0.3, 0.7), np.random.default_rng(seed))
        sd = svd32(F)
        rows += [(sd.lamM, sd.lamm, *cand[1:]) for cand in _ranked_candidates(F, P8, _SCAN_LADDER, 5)[1]]
    l1, l2, d, s_pos, s_neg = (np.array(x) for x in zip(*rows))
    assert len(d) == 5 * len(seeds) and len(set(d.tolist())) > 1
    want = _zoom(l1, l2, d, s_pos, s_neg, _SCAN_LADDER, _energies(P8))
    for seed in range(3):
        p = np.random.default_rng(seed).permutation(len(d))
        got = _zoom(l1[p], l2[p], d[p], s_pos[p], s_neg[p], _SCAN_LADDER, _energies(P8))
        for x, y in zip(got, want):
            assert x.tobytes() == y[p].tobytes()


# (estimate, a, b, t, theta) of the two-level scan, pinned bit for bit.
_TWO_LEVEL_PINS = [
    (
        diag_embed(1.0, 1.0),
        8.0,
        (0.0, [1.0, 0.0, 0.0], [1.0, 0.0], 0.028284271247461905, 0.5),
    ),
    (
        diag_embed(0.44, 0.08 / 0.44),
        2.0,
        (0.0, [1.0, 0.0, 0.0], [1.0, 0.0], 1.9844631420925083, 0.752596664715461),
    ),
    (
        np.array([[1.2, 0.3], [-0.4, 0.9], [0.5, 0.2]]),
        8.0,
        (
            0.0,
            [0.898280455039458, -0.22028534876224184, 0.3802191331519258],
            [0.994155292105063, 0.1079595071288148],
            0.03340658617698013,
            0.5,
        ),
    ),
]


@pytest.mark.parametrize("F, r, pinned", _TWO_LEVEL_PINS)
def test_two_level_scan_is_pinned(F, r, pinned):
    est, (a, b, t, theta) = _two_level(svd32(F), MaterialParams(mu=2.0, r=r), math.inf)
    assert (float(est), a.tolist(), b.tolist(), t, theta) == pinned


# One whole solve per region at r = 8 and a two-level tree at r = 2:
# (F, or the region and frame seed of an interior target; r; value;
# [(level, magnitude, weight)] of the tree), floats as hex.
_SOLVE_PINS = {
    "L": (
        (Region.L, 11),
        8.0,
        "0x0.0p+0",
        [(1, "0x1.6a09e667f3bcep+0", "0x1.eb2e298991a23p-1")],
    ),
    "M": (
        (Region.M, 11),
        8.0,
        "0x1.c72bae822008ep+2",
        [(1, "0x1.5396fd7379a20p+2", "0x1.0000000000000p-1")],
    ),
    "W": (
        (Region.W, 11),
        8.0,
        "0x1.ee35506f475fcp+0",
        [(1, "0x1.a6cd27ef7e709p-1", "0x1.0000000000000p-1")],
    ),
    "S": (
        (Region.S, 11),
        8.0,
        "0x1.61b2bccffe5d4p+1",
        [],
    ),
    "two-level": (
        diag_embed(0.44, 0.08 / 0.44),
        2.0,
        "0x1.cb363afb82a58p-53",
        [
            (1, "0x1.fc05c6c7679c0p+0", "0x1.8154599c102b9p-1"),
            (2, "0x1.c823e074ec129p+0", "0x1.343ed97f5c9f4p-1"),
            (2, "0x1.c823e074ec129p+0", "0x1.343ed97f5c9f4p-1"),
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


def test_config_of_the_wrong_type_is_refused():
    # A depth passed in place of the config is refused before any work.
    with pytest.raises(TypeError, match="OracleConfig"):
        relax_lamination(diag_embed(1.0, 1.0), P8, 3)


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
    # The endpoint estimate, the least of an endpoint's own plane energy
    # and the chords between its well points along its frame lines, read in
    # closed form from its singular values; the reference takes every
    # endpoint's six frame dyads Q[:, i] R[j, :] from its own svd32 call,
    # writes out the offsets that reach the soft stretches, and scores the
    # dyads on matrices.  They agree to rounding, and on +inf exactly.
    rng = np.random.default_rng(8)
    E = rng.normal(size=(2, 24, 6, 3, 2)) * rng.choice([0.1, 1.0, 3.0], size=(2, 24, 6, 1, 1))
    E[0, 0, 0] = diag_embed(1.0, 1.0)
    E[0, 0, 1] = np.outer([1.0, -2.0, 0.5], [0.3, 1.0])
    E[0, 0, 2] = matrix_from_invariants(1.3, 1.3 * 1.3 * (1.0 - 1e-9), np.random.default_rng(1))
    E[0, 0, 3] = diag_embed(3.0, 1e-9)
    E[0, 0, 4] = np.zeros((3, 2))
    E[0, 0, 5] = diag_embed(9e30, 9e30)
    E[0, 1, 0] = matrix_from_invariants(2.0, 4.0, np.random.default_rng(2))
    E[0, 1, 1] = np.outer([0.0, 0.6, -0.8], [1.0, 0.0])
    # At r = 8: an end and the midpoint of the soft segment, and a matrix
    # whose line (1, 1) crosses it, at both of its wells (1.5, 8^(-1/6)).
    E[0, 1, 2] = diag_embed(2.0, 8.0 ** (-1.0 / 6.0))
    E[0, 1, 3] = diag_embed(8.0 ** (1.0 / 12.0), 8.0 ** (-1.0 / 6.0))
    E[0, 1, 4] = diag_embed(1.5, 0.5)
    sd = svd32(E)
    # At r = 1e13 the well (c, l1 l2 / c) at c = r^(-1/6) of the first lies
    # beyond the invariant bound, and at r = 1e300 that of both: _wells
    # marks them not reached.
    far = svd32(np.stack([diag_embed(1e49, 1e49), diag_embed(9e30, 9e30)]))

    def estimate_bits(params, l1, l2):
        # Bit for bit the least of the own value and the scorer's lows at
        # the wells alone.
        got = _endpoint_estimate(params)(l1, l2)
        no_ladder = np.empty(np.shape(l1) + (0,))
        own, low, _, _ = _frame_chords(l1, l2, no_ladder, _energies(params), _soft_stretches(params.r))
        assert got.tobytes() == np.minimum(own, low.min(axis=-1)).tobytes()
        return got

    for r in (1.01, 2.0, 8.0, 100.0, 1e13, 1e300):
        params = MaterialParams(mu=2.0, r=r)
        got = estimate_bits(params, sd.lamM, sd.lamm)
        assert got.shape == (2, 24, 6)
        if r > 100.0:
            reach = far.lamM * far.lamm / min(_soft_stretches(r))
            assert (reach > _INVARIANT_MAX).tolist() == [True, r > 1e13]
            estimate_bits(params, far.lamM, far.lamm)
            # The reference does not know the invariant bound.
            continue
        ref = endpoint_estimate_reference(E, params)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        assert np.isinf(got[0, 0, 4])
        finite = np.isfinite(ref)
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))
        if r == 8.0:
            assert got[0, 1, 2:5].tolist() == [0.0] * 3
            assert plane_energy_values(1.5, 0.75, params) > 0.1


def test_wells_order_each_point_as_a_sort():
    # _wells orders each point's two singular values by np.maximum and
    # np.minimum: the bits of sorting the pair in decreasing order, ties
    # included, here where a stretch c equals l1 (point (l1, c) of the
    # lines (1, 1) and (2, 1)) or l2 (point (c, l2) of (0, 0) and (2, 0)).
    soft = np.asarray(_soft_stretches(8.0))
    rng = np.random.default_rng(34)
    l1 = rng.uniform(0.1, 3.0, 40)
    l2 = l1 * rng.uniform(0.0, 1.0, 40)
    l1[:3] = soft
    l2[:3] = soft * rng.uniform(0.0, 1.0, 3)
    l1[3:6], l2[3:6] = soft * 1.5, soft
    l1[6:9] = l2[6:9] = soft
    l2[9] = 0.0
    points, _ = _wells(l1, l2, soft)
    L1, L2 = l1[:, None], l2[:, None]
    x = np.stack(np.broadcast_arrays(soft, soft, L1), axis=-2)
    y = np.stack(np.broadcast_arrays(L1 * L2 / soft, L2, soft), axis=-2)
    assert points.shape == (2, 3, 3, 40)
    points = np.moveaxis(points, -1, 1)
    assert points.tobytes() == np.sort(np.stack([x, y]), axis=0)[::-1].tobytes()
    assert (points[0] == points[1]).sum() >= 12


@pytest.mark.parametrize("value", ["plane-energy", "estimate"])
def test_frame_chords_without_stretches_read_no_wells(value):
    # With no stretches, the pair scan's call, the scorer reads no wells:
    # on a stack of matrices its tables, lows and ends are, bit for bit,
    # those of the layout _frame_tables documents, built here from
    # _frame_lines and _chords: the odd lines 0 and 1 at s and -s, one
    # chord table each, and the even lines 2, 3 and 4 at s.
    params = MaterialParams(mu=2.0, r=1.01)
    value = _energies(params) if value == "plane-energy" else _endpoint_estimate(params)
    rng = np.random.default_rng(34)
    l1 = rng.uniform(0.1, 3.0, 7)
    l2 = l1 * rng.uniform(0.0, 1.0, 7)
    s = np.maximum(1.0, np.hypot(l1, l2))[:, None] * _PAIR_LADDER
    k, n = s.shape
    odd = value(*_frame_lines(l1, l2, np.concatenate([s, -s], axis=-1), (0, 1), np.empty((2, k, 2, 2 * n))))
    even = value(*_frame_lines(l1, l2, s, (2, 3, 4), np.empty((2, k, 3, n))))
    at = s[:, None]
    chords = _chords(odd[..., :n, None], odd[..., None, n:], at[..., :, None], at[..., None, :])
    own, got, got_even, ends = _frame_tables(l1, l2, s, value, ())
    assert own.tobytes() == value(l1, l2).tobytes()
    assert got.shape == (k, 2, n, n) and got.tobytes() == chords.tobytes()
    assert got_even.shape == (k, 3, n) and got_even.tobytes() == even.tobytes()
    assert all(np.array_equal(np.broadcast_to(x, (k, 1, n)), s[:, None]) for x in ends)
    rows = np.arange(k)[:, None]
    i, j = np.divmod(chords.reshape(k, 2, n * n).argmin(axis=-1), n)
    e = even.argmin(axis=-1)
    want = (
        value(l1, l2),
        np.concatenate([chords.reshape(k, 2, n * n).min(axis=-1), even.min(axis=-1)], axis=-1),
        np.concatenate([s[rows, i], s[rows, e]], axis=-1),
        np.concatenate([s[rows, j], s[rows, e]], axis=-1),
    )
    for x, y in zip(_frame_chords(l1, l2, s, value, ()), want):
        assert x.tobytes() == y.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    l1=st.floats(1e-3, 1e3),
    ratio=st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([1.0, 0.0, 1e-13, 1e-9]),
        st.floats(-12.0, -6.0).map(lambda e: 1.0 - 10.0**e),
    ),
    u=st.one_of(st.floats(0.0, 1.0), st.just(1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_lines_are_the_singular_values_of_the_frame_dyads(l1, ratio, u, seed):
    # With E = Q D R, the closed-form singular values of each frame line
    # d, with axes (i, j) = _LINES[d][0], are those svd32 finds on
    # Q (D + c e_i e_j^T) R, at both signs of c up to the top of the
    # scan ladder, both to 1e-12 of the larger one; so are those of
    # (0, 1) on the dyad (1, 0), the mirror the table leaves out.
    rng = np.random.default_rng(seed)
    Q, R = random_rotation(rng), random_orthogonal2(rng)
    l2 = l1 * ratio
    D = diag_embed(l1, l2)
    s = u * _SPLIT_TOP * max(1.0, float(np.hypot(l1, l2)))
    c = np.array([s, -s])
    out = np.full((2, 5, 2), np.nan)
    hi, lo = _frame_lines(l1, l2, c, range(5), out)
    assert hi.shape == lo.shape == (5, 2)
    # A subset of the lines, written into a view as the scorer does, is
    # bit for bit the matching rows of all five.
    for lines in [(0,), (4,), (2, 3, 4), (1, 0), (3, 1)]:
        want = np.stack([hi, lo])[:, list(lines)]
        out = np.full((2, 3 * len(lines) + 1), np.nan)
        _frame_lines(l1, l2, c, lines, out[:, 1:2 * len(lines) + 1].reshape(2, len(lines), 2))
        assert out[:, 1:2 * len(lines) + 1].tobytes() == want.reshape(2, -1).tobytes()
    checks = [(axes, d) for d, (axes, _) in enumerate(_LINES)] + [((1, 0), _FRAME_AXES.index((0, 1)))]
    for (i, j), d in checks:
        for side, c in enumerate((s, -s)):
            X = D.copy()
            X[i, j] += c
            sd = svd32(Q @ X @ R)
            assert abs(hi[d, side] - sd.lamM) <= 1e-12 * sd.lamM, (i, j, c)
            assert abs(lo[d, side] - sd.lamm) <= 1e-12 * sd.lamM, (i, j, c)


@pytest.mark.parametrize("x", [1e15, 1e16, 9e30])
def test_two_level_estimate_is_not_below_the_closed_form(x):
    # Every estimate is a weighted sum of chords of plane energies, so it
    # bounds the rank-one convex envelope from above also where those
    # energies are huge.
    est, _ = _two_level(svd32(diag_embed(x, x)), P8, math.inf)
    assert est >= (1.0 - 1e-12) * psi(x, x * x, P8)


# Every region at every r but M at r = 1.01, whose wedge is too narrow
# for interior samples.
_REGION_CELLS = [
    (region, r)
    for r in (1.01, 2.0, 8.0, 100.0)
    for region in (Region.L, Region.M, Region.W, Region.S)
    if not (region is Region.M and r == 1.01)
]


@pytest.mark.parametrize("region, r", _REGION_CELLS, ids=[f"{g.value}-{r}" for g, r in _REGION_CELLS])
def test_two_level_polish_is_its_estimate_on_matrices(region, r):
    # The first split's zoom scores chords of the endpoint estimate read
    # from the frame lines' closed forms.  On matrices, its value is the
    # weighted estimate of its two endpoints (the estimate's reference on
    # each endpoint's own svd32 frame), and it is at most the pair scan's
    # lowest chord, where it starts (a low of 0 is the split unzoomed).
    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(int(r * 1000))
    for u, v in zip(halton(3, 2), halton(3, 3)):
        F = matrix_from_invariants(*sample_invariants(region, r, u, v), rng)
        sd = svd32(F)
        est, split = _two_level(sd, params, math.inf)
        ref = endpoint_estimate_reference(_split_endpoints(F, split), params)
        theta = split[3]
        want = theta * ref[0] + (1.0 - theta) * ref[1]
        assert abs(est - want) <= 1e-12 * max(1.0, abs(want))
        base = _PAIR_LADDER * max(1.0, float(np.hypot(sd.lamM, sd.lamm)))
        scan = _frame_chords(sd.lamM, sd.lamm, base, _endpoint_estimate(params))[1]
        assert est <= scan.min()


# An M target at r = 100 (seed 43 #132 of the oracle bench's list) whose
# value was 1.9e-13 off its witness's pairing when the oracle paired
# through a second singular-value kernel: its entries as hex.
_PAIRED_TARGET = [
    "-0x1.3874cd1b8279dp+1", "0x1.bde70a81871cbp+0", "-0x1.0fdd56e93392cp+0",
    "0x1.7f6d1b0860dcbp+2", "0x1.8a709b231ae87p+2", "0x1.387e17321c33dp+1",
]


@pytest.mark.parametrize("region, r", _REGION_CELLS, ids=[f"{g.value}-{r}" for g, r in _REGION_CELLS])
def test_oracle_value_is_its_witness_pairing(region, r):
    # The oracle pairs its witness through plane_energy's own composition,
    # so the value is the witness's pairing with plane_energy bit for bit.
    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(int(r * 1000) + 7)
    targets = [
        matrix_from_invariants(*sample_invariants(region, r, u, v), rng)
        for u, v in zip(halton(6, 2), halton(6, 3))
    ]
    if (region, r) == (Region.M, 100.0):
        targets.append(np.array([float.fromhex(x) for x in _PAIRED_TARGET]).reshape(3, 2))
    for F in targets:
        res = relax_lamination(F, params, CFG)
        assert res.value == measure_pairing(res.best_measure, lambda G: plane_energy(G, params))


# An L target at r = 1.01 (seed 75 #90 of the oracle bench's list) whose
# single split is 6.7e-3 above the closed form and whose two-level tree
# reaches it: its entries as hex.
_DEEPENED_SINGLE_SPLIT = [
    "-0x1.bd8f0d093ef1bp-2", "-0x1.27c5ce670d15cp-2", "0x1.00990bda9d95cp-2",
    "0x1.3cb6b21f5cd50p-1", "-0x1.35c443e145a04p-2", "-0x1.93dd2b84268a6p-2",
]


def test_level_step_is_numbered_after_the_kept_tree():
    # The level step splits both endpoints of the first split one level
    # deeper, at level 2; depth one keeps the single split at level 1.
    F = np.array([float.fromhex(x) for x in _DEEPENED_SINGLE_SPLIT]).reshape(3, 2)
    params = MaterialParams(mu=2.0, r=1.01)
    single = relax_lamination(F, params, OracleConfig(depth=1))
    assert [e["level"] for e in single.best_measure.tree] == [1] and single.gap > 5e-3
    res = relax_lamination(F, params, CFG)
    assert [e["level"] for e in res.best_measure.tree] == [1, 2, 2] and res.gap <= 1e-12


# The batched pattern search is the search of helpers.angle_polish_reference,
# the off-frame reference of the frame-line polish; these tests hold it to
# its serial reference.


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


@pytest.mark.parametrize("n_starts", [0, 1, 3, 7])
def test_pattern_search_polls_once_per_round(n_starts):
    # One values call on the starts, then one per round however many
    # searches run side by side, each on every poll point of every search.
    rng = np.random.default_rng(n_starts)
    values = _plateau_objective(rng, 4)
    sizes = []

    def counting(X):
        sizes.append(len(X))
        return values(X)

    starts = rng.uniform(-2.0, 2.0, (n_starts, 4)).tolist()
    found = pattern_search(counting, starts, [0.3] * 4, 12, [2, 0, 3])
    if n_starts == 0:
        assert found == [] and sizes == []
    else:
        assert len(found) == n_starts
        assert sizes == [n_starts] + [6 * n_starts] * 12


def test_pattern_search_stops_when_its_steps_are_spent():
    # On a flat objective no poll improves, so every round halves every
    # step.  Each search is polled while one of its active steps is at
    # least STEP_MIN (coordinate 1 is inactive, and its large step does
    # not count), so the batch shrinks as the searches finish, and no
    # values call follows the last one.
    sizes = []

    def flat(X):
        sizes.append(len(X))
        return np.zeros(len(X))

    steps = np.array([[1e-7, 1.0, 1e-9], [1e-9, 1.0, 1e-4], [1e-5, 1.0, 1e-6]])
    starts = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]]
    active = [2, 0]
    found = pattern_search(flat, starts, steps, 100, active)
    # Rounds each search is polled: its largest active step halves from
    # 1e-7, 1e-4 and 1e-5 until it is below 1e-8.
    rounds = [4, 14, 10]
    for row, n in zip(steps, rounds):
        assert row[active].max() * 0.5 ** (n - 1) >= STEP_MIN > row[active].max() * 0.5**n
    live = [sum(k < n for n in rounds) for k in range(max(rounds))]
    assert sizes == [3] + [4 * m for m in live]
    assert sizes[1:] == sorted(sizes[1:], reverse=True) and sizes[-1] == 4
    for x0, row, (best, x) in zip(starts, steps, found):
        assert best == 0.0 and x.tolist() == x0
        ref = pattern_search_reference(lambda xs: 0.0, x0, row.tolist(), 100, active)
        assert (best, x.tolist()) == ref


@pytest.mark.parametrize("seed", range(40))
def test_pattern_search_matches_serial_reference(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    values = _plateau_objective(rng, dim)
    starts = rng.uniform(-2.0, 2.0, (3, dim)).tolist()
    steps = rng.uniform(0.05, 0.5, dim).tolist()
    active = rng.permutation(dim)[: int(rng.integers(1, dim + 1))].tolist()
    # The three searches run side by side; each must take its own path.
    for x0, (best, x) in zip(starts, pattern_search(values, starts, steps, 30, active)):
        ref_best, ref_x = pattern_search_reference(
            lambda xs: values(np.array([xs]))[0], x0, steps, 30, active
        )
        assert best == ref_best and x.tolist() == ref_x


@pytest.mark.parametrize("region", [Region.L, Region.M, Region.W, Region.S])
def test_split_polish_matches_serial_reference(region):
    # The zoom of the depth-one scan's candidates of two targets, batched,
    # against one call per candidate: bit for bit, at every r.  Each result
    # is at most its scan chord and is the weighted plane energy of its
    # split, on matrices.
    for r in [1.01, 2.0, 8.0, 100.0]:
        params = MaterialParams(mu=2.0, r=r)
        rows = []
        for seed in (0, 1):
            F = matrix_from_invariants(*sample_invariants(region, r, 0.3, 0.7), np.random.default_rng(seed))
            sd = svd32(F)
            rows += [(F, sd, cand) for cand in _ranked_candidates(F, params, _SCAN_LADDER, 5)[1]]

        def zoom(rows):
            l1 = np.array([sd.lamM for _, sd, _ in rows])
            l2 = np.array([sd.lamm for _, sd, _ in rows])
            d, s_pos, s_neg = (np.array(x) for x in list(zip(*(cand for _, _, cand in rows)))[1:])
            return _zoom(l1, l2, d, s_pos, s_neg, _SCAN_LADDER, _energies(params))

        batched = zoom(rows)
        for m, (F, sd, (value, d, _, _)) in enumerate(rows):
            alone = zoom(rows[m : m + 1])
            assert all(x[m].tobytes() == y[0].tobytes() for x, y in zip(batched, alone))
            low, s_pos, s_neg = (float(x[0]) for x in alone)
            assert low <= value + 1e-12 * max(1.0, abs(value))
            a, b, t, theta = _frame_split(sd.Q, sd.R, d, s_pos, s_neg)
            ends = _split_endpoints(F, (a, b, t, theta))
            split = theta * plane_energy(ends[0], params) + (1.0 - theta) * plane_energy(ends[1], params)
            assert abs(low - split) <= 1e-12 * max(1.0, abs(split))


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
@pytest.mark.parametrize("region", [Region.M, Region.W, Region.S])
def test_frame_line_polish_is_not_beaten_off_the_frame(region, r):
    # The plane energy is isotropic, so the depth-one pass searches only
    # the target's frame lines.  A pattern search whose angle coordinates
    # move the line off the frame never beats it by more than rounding.
    # L is left out: one split is not its answer, and there the angle
    # polish can be lower.
    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(int(r * 1000))
    for u, v in zip(halton(4, 2), halton(4, 3)):
        F = matrix_from_invariants(*sample_invariants(region, r, u, v), rng)
        value = _depth1_of(F, params)[0]
        assert angle_polish_reference(F, params) >= value - 1e-12 * max(1.0, abs(value))


@pytest.mark.parametrize("r", [2.0, 8.0, 100.0])
def test_criterion_one_samples_reach_the_closed_form(r):
    # Criterion 1's samples of L, M, W and S: every solve is within 1e-9 of
    # the closed form, on both sides.
    params = MaterialParams(mu=2.0, r=r)
    rng = np.random.default_rng(int(r * 1000))
    n = 38
    u, v = halton(n, 2), halton(n, 3)
    solves = [
        (region, r, relax_lamination(matrix_from_invariants(*sample_invariants(region, r, u[k], v[k]), rng),
                                     params, CFG).gap)
        for region in (Region.L, Region.M, Region.W, Region.S)
        for k in range(n)
    ]
    table = gap_table(solves)
    assert table["misses"] == 0 and table["lowest"] >= -1e-9
    assert max(table["worst"].values()) <= 1e-9, table["worst"]


def test_gap_table_gates_hold_on_two_bench_seeds():
    # The gates of the gap table on the oracle bench's seeds 11 and 41
    # (360 default solves, every region at r = 1.01, 2, 8 and 100), with
    # 24 interior L targets at r = 1 and at r = 1.001, where the plane
    # energy's zero set shrinks to a point: no miss (a gap above 5e-3), no
    # gap below -1e-9, and every (region, r) cell at most 1e-12.  The same
    # solves are pinned bit for bit by their digest (helpers.solve_digest),
    # so seed 11 is pinned beside seed 41 (test_work_counts_are_pinned).
    targets = bench_targets()
    solves = [
        (t["region"], t["r"], t["F"])
        for seed in (11, 41)
        for t in targets.region_targets(seed, 12)
    ]
    for r in (1.0, 1.001):
        rng = np.random.default_rng(5)
        for lam, dlt in zip(*targets._interior_pairs(rng, "L", r, 24)):
            Q, R = targets._random_frame(rng)
            solves.append(("L", r, Q @ diag_embed(lam, dlt / lam) @ R))
    results = [relax_lamination(F, MaterialParams(mu=targets.MU, r=r), CFG) for _, r, F in solves]
    table = gap_table((region, r, res.gap) for (region, r, _), res in zip(solves, results))
    assert len(solves) == 408 and len(table["worst"]) == 17
    assert table["misses"] == 0 and table["lowest"] >= -1e-9
    assert max(table["worst"].values()) <= 1e-12, table["worst"]
    assert solve_digest(results) == "eb4aad353712c6f9bcf365bfa986c27361235d3141f7715235ff486c8ed127c0"


def test_work_counts_are_pinned():
    # The oracle's work over the 180 default solves of the bench's seed 41:
    # plane-energy calls, their elements and chord elements
    # (helpers.work_counts).  The counts do not depend on the machine, so a
    # change to the search's work shows here.  The same solves' results are
    # pinned bit for bit by their digest (helpers.solve_digest), so a change
    # meant to keep every value, atom and split shows here if it does not.
    targets = bench_targets()
    results = []

    def run():
        for t in targets.region_targets(41, 12):
            results.append(relax_lamination(t["F"], MaterialParams(mu=targets.MU, r=t["r"]), CFG))

    assert work_counts(run) == (1518, 493608, 4140675)
    assert len(results) == 180
    assert solve_digest(results) == "c2729da8d99a63e4b625abf06016aa0780a3d84739a988113de9d69049811fd1"


def test_nine_zoom_levels_move_no_value_beyond_rounding_noise(monkeypatch):
    # The zoom stops at the oracle's own noise floor: over the 180 default
    # solves of the bench's seed 41, zooming two levels deeper than the
    # 7 it takes, to 9, moves some values, but none by more than rounding
    # noise (_lower, 1e-12 relative) in either direction.  A cut to 5
    # levels shows here, and one to 6 in the gap table's cells
    # (test_gap_table_gates_hold_on_two_bench_seeds).
    targets = bench_targets()
    jobs = [(t["F"], MaterialParams(mu=targets.MU, r=t["r"])) for t in targets.region_targets(41, 12)]
    values = [relax_lamination(F, params, CFG).value for F, params in jobs]
    monkeypatch.setattr(relaxation, "_ZOOM_LEVELS", 9)
    deeper = [relax_lamination(F, params, CFG).value for F, params in jobs]
    assert values != deeper
    assert [(a, b) for a, b in zip(values, deeper) if _lower(a, b) or _lower(b, a)] == []


# S targets of the oracle bench (seed 11 #51 at r = 2, seed 12 #17 at
# r = 1.01) whose two-level tree beats no split only by rounding noise,
# with splits of magnitude 5.1e-10 and 3.2e-8: their entries as hex.
_NOISE_SPLIT_TARGETS = [
    (
        ["0x1.7d74ae3f2e61ap+1", "0x1.6ae5afcf27d96p+0", "0x1.697ada25255d8p-2",
         "-0x1.37934c1d005bep+1", "0x1.1adb44183d7ebp-4", "-0x1.08bf853a16626p-1"],
        2.0,
    ),
    (
        ["-0x1.7e0ff3ce22040p-3", "0x1.87e36b7e17ba8p-6", "0x1.321a3475217efp+0",
         "0x1.2ec4e5faee127p+0", "0x1.4a86dcb7b1581p+0", "-0x1.e56bc0735337bp-3"],
        1.01,
    ),
]


@pytest.mark.parametrize("entries, r", _NOISE_SPLIT_TARGETS)
def test_deeper_tree_must_beat_rounding_noise(entries, r):
    # A deeper tree replaces a shallower one only when its pairing is lower
    # by more than 1e-12 relative, so these S targets keep no split.
    F = np.array([float.fromhex(x) for x in entries]).reshape(3, 2)
    params = MaterialParams(mu=2.0, r=r)
    sd = svd32(F)
    assert classify(sd.lamM, sd.delta, params) is Region.S
    res = relax_lamination(F, params, CFG)
    assert res.best_measure.tree == () and len(res.best_measure.atoms) == 1


def test_lower_is_one_rule_on_floats_and_arrays():
    # Below by more than 1e-12 relative; -inf is below every finite value
    # and +inf above it.  Floats and arrays, elementwise, agree.
    values = [-math.inf, -1.0, 0.0, 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-11, math.inf]
    new, old = np.meshgrid(values, values, indexing="ij")
    scalar = np.array([[_lower(a, b) for b in values] for a in values])
    assert np.array_equal(_lower(new, old), scalar)
    assert _lower(-math.inf, 0.0) and _lower(-math.inf, math.inf) and _lower(1.0, math.inf)
    assert not (_lower(-math.inf, -math.inf) or _lower(math.inf, math.inf) or _lower(0.0, 1e-13))
    assert not _lower(1.0, 1.0 + 1e-13) and _lower(1.0, 1.0 + 1e-11)


# An M target at r = 2 (seed 358 #49 of region_targets) whose pair scan's
# lowest chord is 5.7e-13 above its best single split's value, a tie: its
# entries as hex.  Over the default solves of seeds 11-13, 21-30, 41-50,
# 61-80 and 100-399, no other pair scan above 0 ties.
_TIED_SCAN_TARGET = [
    "-0x1.473f84e080671p-1", "-0x1.8e3e364429483p-2", "-0x1.c5b204f69474ep-1",
    "-0x1.8837e5b6ed2a3p-1", "-0x1.50b4a9f9065bcp-1", "0x1.f92c7aba70208p-1",
]


def test_two_level_zooms_a_scan_that_ties_its_bound(monkeypatch):
    # A pair scan that ties the best single split, above it by rounding
    # only, is zoomed.  In M one split is the answer: the zoom comes back to
    # the single split's value (a tie, not lower by more than rounding
    # noise), the deepened tree is not lower, and the solve keeps the
    # single split at the closed form.
    F = np.array([float.fromhex(x) for x in _TIED_SCAN_TARGET]).reshape(3, 2)
    params = MaterialParams(mu=2.0, r=2.0)
    sd = svd32(F)
    assert classify(sd.lamM, sd.delta, params) is Region.M
    value1, _ = _depth1_of(F, params)
    base = _PAIR_LADDER * max(1.0, math.hypot(sd.lamM, sd.lamm))
    low = float(_frame_chords(sd.lamM, sd.lamm, base, _endpoint_estimate(params))[1].min())
    assert 0.0 < value1 < low and not _lower(value1, low)
    calls = []
    zoom = relaxation._zoom

    def counting_zoom(*args):
        calls.append(len(args[2]))
        return zoom(*args)

    monkeypatch.setattr(relaxation, "_zoom", counting_zoom)
    est, split = _two_level(sd, params, value1)
    assert calls == [1] and split is not None and not _lower(value1, est)
    res = relax_lamination(F, params, CFG)
    assert [e["level"] for e in res.best_measure.tree] == [1]
    assert abs(res.gap) <= 1e-12


# Minor page faults per solve over a second pass of the oracle on 48
# targets, every region at each r, in the same interpreter as a first pass.
_FAULT_PROBE = """
import resource
import numpy as np
from helpers import halton, matrix_from_invariants, sample_invariants
from nemem import MaterialParams, relax_lamination
from nemem.membrane import Region

solves = []
for r in (1.01, 2.0, 8.0, 100.0):
    params, rng = MaterialParams(mu=2.0, r=r), np.random.default_rng(61)
    for region in (Region.L, Region.M, Region.W, Region.S):
        for u, v in zip(halton(3, 2), halton(3, 3)):
            solves.append((matrix_from_invariants(*sample_invariants(region, r, u, v), rng), params))
for F, params in solves:
    relax_lamination(F, params)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for F, params in solves:
    relax_lamination(F, params)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(solves))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor page faults")
def test_warm_oracle_solves_take_no_fresh_pages():
    # Every temporary of a solve stays under glibc's default mmap threshold
    # of 128 KiB (the largest, a level step's chord table of 2 x 2 x 43 x 46
    # floats, takes 62 KiB), so after a warm-up the heap reuses it and a
    # solve touches no fresh page.  A fresh interpreter, as the
    # benchmark runs the oracle: the allocator's thresholds move with what
    # the process freed before, here the other tests' arrays.
    pytest.importorskip("resource")
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    paths = [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20.0
