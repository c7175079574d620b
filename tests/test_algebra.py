"""Small-matrix kernels: adjugate, closed-form SVD, rank-one gap."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from nemem.algebra import _FRAME_TOL, _LANE_STACK, _svd32_batch, adj2, diag_embed, rank_one_gap, singular_values, svd32
from nemem.constitutive import MaterialParams
from nemem.membrane import plane_energy, plane_energy_values

from helpers import random_orthogonal2, random_rotation


@pytest.mark.parametrize(
    "F, expected",
    [
        ([[1, 0], [0, 1], [0, 0]], (0.0, 0.0, 1.0)),
        ([[2, 0], [0, 3], [0, 0]], (0.0, 0.0, 6.0)),
        ([[1, 2], [3, 4], [5, 6]], (-2.0, 4.0, -2.0)),
    ],
)
def test_adj2_examples(F, expected):
    np.testing.assert_allclose(adj2(np.array(F, dtype=float)), expected, atol=1e-15)


def test_svd32_diagonal():
    sd = svd32(np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert sd.lamM == 3.0 and sd.lamm == 1.0 and sd.delta == 3.0


def test_svd32_zero_matrix():
    sd = svd32(np.zeros((3, 2)))
    assert sd.lamM == sd.lamm == sd.delta == 0.0
    np.testing.assert_allclose(sd.Q, np.eye(3))
    np.testing.assert_allclose(sd.reconstruct(), np.zeros((3, 2)))


def test_svd32_equal_singular_values():
    # F^T F = 2 I, both singular values sqrt(2); only the reconstruction
    # is unique here, never the frame.
    F = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]])
    sd = svd32(F)
    assert abs(sd.lamM - np.sqrt(2)) < 1e-14
    assert abs(sd.lamm - np.sqrt(2)) < 1e-14
    assert abs(sd.delta - 2.0) < 1e-14
    np.testing.assert_allclose(sd.reconstruct(), F, atol=1e-14)


def test_svd32_random_properties():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        F = rng.normal(size=(3, 2)) * rng.choice([1e-2, 1.0, 1e2])
        sd = svd32(F)
        scale = max(1.0, np.abs(F).max())
        assert np.abs(sd.reconstruct() - F).max() <= 1e-12 * scale
        assert abs(np.linalg.norm(adj2(F)) - sd.delta) <= 1e-12 * max(1.0, sd.delta)
        assert sd.lamM >= sd.lamm >= 0.0
        assert np.abs(sd.Q.T @ sd.Q - np.eye(3)).max() <= 1e-12
        assert np.abs(sd.R @ sd.R.T - np.eye(2)).max() <= 1e-12
        assert abs(np.linalg.det(sd.Q) - 1.0) <= 1e-12


def test_svd32_rank_deficient_frame_completion():
    rng = np.random.default_rng(1)
    for _ in range(500):
        F = np.outer(rng.normal(size=3), rng.normal(size=2))
        sd = svd32(F)
        assert sd.lamm <= 1e-13 * max(1.0, sd.lamM)
        np.testing.assert_allclose(sd.reconstruct(), F, atol=1e-12 * max(1.0, sd.lamM))
        assert np.abs(sd.Q.T @ sd.Q - np.eye(3)).max() <= 1e-12


def test_adj2_frame_invariance():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        F = rng.normal(size=(3, 2))
        Q = random_rotation(rng)
        R = random_orthogonal2(rng)
        assert abs(
            np.linalg.norm(adj2(Q @ F @ R)) - np.linalg.norm(adj2(F))
        ) <= 1e-12 * max(1.0, np.linalg.norm(adj2(F)))


def test_largest_stretch_matches_angular_sweep():
    # lamM = max over unit v of |F v|: 720-point sweep plus golden-section
    # refinement around the best angle.
    rng = np.random.default_rng(3)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(50):
        F = rng.normal(size=(3, 2))
        sd = svd32(F)
        angles = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        V = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        norms = np.linalg.norm(V @ F.T, axis=1)
        k = int(np.argmax(norms))
        lo = angles[k] - 2.0 * np.pi / 720
        hi = angles[k] + 2.0 * np.pi / 720

        def f(t):
            return -np.linalg.norm(F @ np.array([np.cos(t), np.sin(t)]))

        a, b = lo, hi
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        for _ in range(60):
            if f(c) < f(d):
                b, d = d, c
                c = b - golden * (b - a)
            else:
                a, c = c, d
                d = a + golden * (b - a)
        refined = np.linalg.norm(F @ np.array([np.cos(0.5 * (a + b)), np.sin(0.5 * (a + b))]))
        assert abs(refined - sd.lamM) <= 1e-9


@pytest.mark.parametrize(
    "A, B, expected",
    [
        (diag_embed(1.0, 2.0), diag_embed(1.0, 2.0), 0.0),
        (np.outer([1.0, 0, 0], [1.0, 0]), np.zeros((3, 2)), 0.0),
        (diag_embed(1.0, 1.0), np.zeros((3, 2)), 1.0),
    ],
)
def test_rank_one_gap_examples(A, B, expected):
    assert abs(rank_one_gap(A, B) - expected) <= 1e-14


def _gram_inputs(rng, n):
    # Matrices at decades 1e-150..1e150 (F^T F stays finite), then rows
    # with a zero column, with signed zeros, and with each entry at a
    # decade of its own.
    F = rng.normal(size=(n, 3, 2)) * 10.0 ** rng.uniform(-150.0, 150.0, (n, 1, 1))
    k = n // 5
    F[:k, :, 1] = 0.0
    F[k : 2 * k] *= np.where(rng.random((k, 3, 2)) < 0.4, -0.0, 1.0)
    F[2 * k : 3 * k, :, 0] = -0.0
    F[3 * k : 4 * k] = rng.normal(size=(k, 3, 2)) * 10.0 ** rng.uniform(-75.0, 75.0, (k, 3, 2))
    return F


def _bits(*xs):
    return [np.asarray(x).tobytes() for x in xs]


@pytest.mark.parametrize("shape", [(), (9,), (16, 80), (2, 24, 6, 28)])
def test_singular_values_are_svd32_values(shape):
    # svd32's lamM and lamm, bit for bit: floats for one matrix in any
    # memory layout, arrays of the batch shape for batches and their
    # views.
    rng = np.random.default_rng(len(shape) + 30)
    F = _gram_inputs(rng, max(500 if not shape else 0, int(np.prod(shape))))
    if not shape:
        for G in F:
            sd = svd32(G)
            for view in (G, np.asfortranarray(G), G.T.copy().T, G[::-1][::-1]):
                got = singular_values(view)
                assert all(type(x) is float for x in got) and _bits(*got) == _bits(sd.lamM, sd.lamm)
        return
    F = F.reshape(shape + (3, 2))
    views = [F, F[::-1], F[..., ::-1, :], np.asfortranarray(F), np.broadcast_to(F[:1], F.shape)]
    for view in views:
        sd = svd32(view)
        got = singular_values(view)
        assert all(x.shape == shape for x in got) and _bits(*got) == _bits(sd.lamM, sd.lamm)


def test_singular_values_batch_agrees_with_svd32():
    # Each element of a batch has the bits of its own one-matrix call.
    rng = np.random.default_rng(4)
    for F in (rng.normal(size=(64, 3, 2)), _gram_inputs(rng, 320)):
        lamM, lamm = singular_values(F)
        for i in range(len(F)):
            sd = svd32(F[i])
            assert _bits(lamM[i], lamm[i]) == _bits(sd.lamM, sd.lamm)


@pytest.mark.parametrize("d", [9e-8, 9e-9])
def test_singular_values_keep_the_smaller_value_of_thin_matrices(d):
    # lamm = d / 3 next to lamM = 3: a Gram-matrix difference
    # (lamM^2 + lamm^2)/2 - disc loses it, and the plane energy with it.
    F = diag_embed(3.0, d / 3.0)
    lamM, lamm = singular_values(F)
    assert abs(lamM * lamm - d) <= 1e-15 * d
    params = MaterialParams(mu=2.0, r=8.0)
    assert plane_energy_values(lamM, lamM * lamm, params) == plane_energy(F, params)


@pytest.mark.parametrize(
    "F", [np.zeros((2, 3)), np.zeros((6, 1)), np.full((3, 2), np.nan)], ids=["2x3", "6x1", "nan"]
)
def test_singular_values_reject_bad_input(F):
    with pytest.raises(ValueError):
        singular_values(F)


@pytest.mark.filterwarnings("error")
def test_singular_values_of_huge_entries_do_not_warn():
    lamM, lamm = singular_values(np.full((3, 2), 1e200))
    assert abs(lamM - np.sqrt(6.0) * 1e200) <= 1e-15 * lamM and lamm <= 1e-15 * lamM


@pytest.mark.filterwarnings("error")
def test_svd32_scales_huge_matrices():
    # Entries at or above _LANE_MAX: the kernel decomposes 2^-e F, so the
    # squares do not overflow and the values come back at full accuracy.
    sd = svd32(diag_embed(1e80, 1.0))
    assert sd.lamM == 1e80 and sd.lamm == 1.0 and sd.delta == 1e80
    assert np.abs(sd.reconstruct() - diag_embed(1e80, 1.0)).max() <= 1e-15 * 1e80
    rng = np.random.default_rng(14)
    n = 300
    a = 10.0 ** rng.uniform(75.0, 150.0, n)
    b = a * rng.uniform(0.0, 1.0, n)
    Q0, R0 = _frames(rng, n)
    F = Q0 @ diag_embed(a, b) @ R0
    sd = svd32(F)
    assert np.all(np.abs(sd.lamM - a) <= 1e-14 * a)
    assert np.all(np.abs(sd.lamm - b) <= 1e-14 * a)
    assert np.all(np.abs(sd.reconstruct() - F).max(axis=(1, 2)) <= 1e-14 * a)
    assert np.abs(np.linalg.det(sd.Q) - 1.0).max() <= 1e-12
    # The ordinary elements of a mixed batch keep their bits, and a delta
    # beyond the float range is inf, with no warning.
    G = rng.normal(size=(3, 2))
    mixed = svd32(np.stack([F[0], G, diag_embed(1e200, 1e150)]))
    one = svd32(G)
    for name in ("lamM", "lamm", "delta", "Q", "R"):
        assert np.asarray(getattr(one, name)).tobytes() == getattr(mixed, name)[1].tobytes()
    assert mixed.lamM[2] == 1e200 and mixed.lamm[2] == 1e150 and mixed.delta[2] == np.inf


@pytest.mark.filterwarnings("error")
def test_svd32_scales_small_matrices():
    # Entries all below _LANE_MIN: the kernel decomposes 2^-e F, so the
    # Gram matrix does not underflow and the tie and thin tests see the
    # matrix at unit size, not against their absolute floors.
    F0 = np.array([[1.0, 0.3], [0.1, 2.0], [0.5, 0.0]])
    s1, s2 = np.linalg.svd(F0, compute_uv=False)
    for x in 10.0 ** np.arange(-300.0, -7.0):
        sd = svd32(x * F0)
        assert abs(sd.lamM - x * s1) <= 1e-14 * x * s1 and abs(sd.lamm - x * s2) <= 1e-14 * x * s1
        assert np.abs(sd.reconstruct() - x * F0).max() <= 1e-14 * x * s1
    rng = np.random.default_rng(15)
    n = 300
    a = 10.0 ** rng.uniform(-300.0, -8.0, n)
    b = a * rng.uniform(0.0, 1.0, n)
    b[:30] = 0.0  # rank one
    Q0, R0 = _frames(rng, n)
    F = Q0 @ diag_embed(a, b) @ R0
    sd = svd32(F)
    assert np.all(np.abs(sd.lamM - a) <= 1e-14 * a)
    assert np.all(np.abs(sd.lamm - b) <= 1e-14 * a)
    assert np.all(np.abs(sd.reconstruct() - F).max(axis=(1, 2)) <= 1e-14 * a)
    assert np.abs(np.linalg.det(sd.Q) - 1.0).max() <= 1e-12
    # One matrix at a time takes the same kernel.
    for i in range(0, n, 10):
        one = svd32(F[i])
        for name in ("lamM", "lamm", "delta", "Q", "R"):
            assert np.asarray(getattr(one, name)).tobytes() == getattr(sd, name)[i].tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a, b", [(1e100, 1e-100), (1e80, 1e-200), (1.0, 1e-160), (1.0, 1e-300), (1e-10, 1e-300)]
)
def test_svd32_keeps_a_smaller_value_whose_square_underflows(a, b):
    # The squares of the second row are below the normal range (after the
    # scaling of huge entries, or at unit size): its length must still be
    # b to rounding, and delta = a b, on one matrix, on its exact frame
    # permutations (rows cycled, columns swapped) and in a batch.
    F = diag_embed(a, b)
    for G in [F, F[[2, 0, 1]], F[:, ::-1], -F[[1, 2, 0]][:, ::-1]]:
        sd = svd32(G)
        assert sd.lamM == a and abs(sd.lamm - b) <= 1e-15 * b
        assert abs(sd.delta - a * b) <= 1e-15 * (a * b)
        assert np.abs(sd.reconstruct() - G).max() <= 1e-15 * a
    lamM, lamm = singular_values(np.stack([F, diag_embed(2.0, 1.0)]))
    assert lamM.tolist() == [a, 2.0] and abs(lamm[0] - b) <= 1e-15 * b and lamm[1] == 1.0


def test_svd32_resolves_near_ties_of_small_matrices():
    # Entries near 1e-6 take no scaling: the tie and thin tests must be
    # relative there too, or squared singular values within about 1e-3 of
    # each other are taken for a repeated value.
    rng = np.random.default_rng(16)
    n = 200
    x = 9.6e-7
    g = np.geomspace(1e-3, 1e-8, n)
    Q0, R0 = _frames(rng, n)
    F = Q0 @ diag_embed(x, x * (1.0 - g)) @ R0
    sd = svd32(F)
    assert np.all(np.abs(sd.lamM - x) <= 1e-14 * x)
    assert np.all(np.abs(sd.lamm - x * (1.0 - g)) <= 1e-14 * x)
    assert np.abs(sd.reconstruct() - F).max() <= 1e-14 * x
    for i in range(0, n, 10):
        one = svd32(F[i])
        for name in ("lamM", "lamm", "delta", "Q", "R"):
            assert np.asarray(getattr(one, name)).tobytes() == getattr(sd, name)[i].tobytes()


@pytest.mark.filterwarnings("error")
def test_svd32_rejects_bad_input():
    # The array kernel's errors, with no numpy warning before them.
    cases = [
        (np.zeros((2, 3)), "expected 3x2 matrices, got shape (2, 3)"),
        ([[1, 2, 3]], "expected 3x2 matrices, got shape (1, 3)"),
        ([[np.nan, 0], [0, 1], [0, 0]], "matrix entries must be finite"),
        ([[1, 0], [0, -np.inf], [0, 0]], "matrix entries must be finite"),
        ([[1e300, 0], [0, 1], [np.inf, 0]], "matrix entries must be finite"),
    ]
    for F, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            svd32(F)


def test_svd32_one_matrix_contract():
    # Generic matrices (float lane) and the rare cases (zero, repeated,
    # rank-one): float values, fresh (3, 3) and (2, 2) frames, and the
    # same bits from nested lists, integers and non-contiguous arrays.
    ints = [[[3, 1], [-2, 5], [0, 4]], [[0, 0], [0, 0], [0, 0]], [[1, 1], [1, -1], [0, 0]]]
    ints += [[[2, 4], [1, 2], [-3, -6]], [[10**40, 0], [0, 1], [0, 0]]]
    rng = np.random.default_rng(14)
    for G in ints + rng.normal(size=(20, 3, 2)).tolist():
        F = np.array(G, dtype=float)
        sd = svd32(F)
        assert type(sd.lamM) is type(sd.lamm) is type(sd.delta) is float
        assert sd.Q.shape == (3, 3) and sd.R.shape == (2, 2)
        assert sd.Q.dtype == sd.R.dtype == np.float64
        assert not np.shares_memory(sd.Q, F) and not np.shares_memory(sd.R, F)
        strided = np.zeros((6, 4))
        strided[::2, 1::2] = F
        for same in map(svd32, (G, F.tolist(), np.asfortranarray(F), strided[::2, 1::2])):
            for name in ("lamM", "lamm", "delta", "Q", "R"):
                assert np.asarray(getattr(same, name)).tobytes() == np.asarray(getattr(sd, name)).tobytes()


@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (6,), ()])
def test_svd32_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="3x2"):
        svd32(np.zeros(shape))


def test_svd32_rejects_one_non_finite_element_of_a_batch():
    F = np.ones((5, 3, 2))
    F[3, 1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        svd32(F)


def _frames(rng, n):
    return np.array([random_rotation(rng) for _ in range(n)]), np.array(
        [random_orthogonal2(rng) for _ in range(n)]
    )


def _edge_batch():
    # Generic matrices at scales 1e-6, 1 and 1e6 plus the cases with a
    # rule of their own: the zero matrix, F^T F = c I (repeated values),
    # near-repeated values (the order swap), rank-one matrices, and lamm
    # just below and above the frame-completion threshold.
    rng = np.random.default_rng(11)
    generic = [rng.normal(size=(3, 2)) * s for s in (1e-6, 1.0, 1e6) for _ in range(100)]
    Q0, R0 = _frames(rng, 200)
    repeated = [Q0[i] @ diag_embed(c, c) @ R0[i] for i, c in enumerate(rng.uniform(0.1, 3.0, 40))]
    near = [Q0[40 + k] @ diag_embed(1.0, 1.0 + k * 2e-16) @ R0[40 + k] for k in range(60)]
    rank_one = [np.outer(rng.normal(size=3), rng.normal(size=2)) for _ in range(40)]
    lamM = rng.uniform(0.5, 2.0, 100)
    edge = [
        Q0[100 + i] @ diag_embed(m, (1.0 + (-1) ** i * 1e-3) * _FRAME_TOL * m) @ R0[100 + i]
        for i, m in enumerate(lamM)
    ]
    return np.array(generic + [np.zeros((3, 2))] + repeated + near + rank_one + edge)


def test_svd32_batch_matches_one_matrix_calls_bit_for_bit():
    F = _edge_batch()
    sd = svd32(F)
    assert sd.lamM.shape == sd.lamm.shape == sd.delta.shape == (len(F),)
    assert sd.Q.shape == (len(F), 3, 3) and sd.R.shape == (len(F), 2, 2)
    # lamm <= lamM, so no decomposition is above the equi-biaxial line:
    # relax_lamination and young_measure_for rely on it being realizable.
    assert np.all(sd.delta <= sd.lamM * sd.lamM)
    for i, G in enumerate(F):
        one = svd32(G)
        assert type(one.lamM) is float and type(one.lamm) is float
        for name in ("lamM", "lamm", "delta", "Q", "R"):
            one_bits = np.asarray(getattr(one, name)).tobytes()
            assert one_bits == getattr(sd, name)[i].tobytes(), (i, name)
    # Any leading shape is the same batch.
    sd4 = svd32(F[:-1].reshape(4, -1, 3, 2))
    assert sd4.Q.shape == (4, len(F[:-1]) // 4, 3, 3)
    assert sd4.R.reshape(-1, 2, 2).tobytes() == sd.R[:-1].tobytes()
    assert sd4.lamm.reshape(-1).tobytes() == sd.lamm[:-1].tobytes()


# Generic matrices at decades from 1e-170 to 1e170 (F^T F underflows or
# overflows at the ends), the same with one entry replaced by any finite
# float (subnormals and signed zeros included), with a zero column, and
# rank-one matrices.
_decades = st.one_of(st.integers(-8, 8), st.integers(-170, 170)).map(lambda k: 10.0**k)
_scaled = st.builds(
    lambda x, s: np.reshape(x, (3, 2)) * s,
    st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
    _decades,
)
_any_entry = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e160]),
)


def _patched(G, i, x):
    G = G.copy()
    G.flat[i] = x
    return G


def _zero_column(G):
    G = G.copy()
    G[:, 1] = 0.0
    return G


_vector = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)
_wide_matrices = st.one_of(
    _scaled,
    st.builds(_patched, _scaled, st.integers(0, 5), _any_entry),
    _scaled.map(_zero_column),
    st.builds(lambda u, v, s: np.outer(u, v[:2]) * s, _vector, _vector, _decades),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(G=_wide_matrices)
def test_svd32_one_matrix_is_element_of_its_batch(G):
    # The one-matrix call must have the bits of the array kernel, and
    # return a value wherever the kernel does.
    with np.errstate(all="ignore"):
        one, batch = svd32(G), _svd32_batch(G[None])
    for name, field in zip(("lamM", "lamm", "delta", "Q", "R"), batch):
        assert np.asarray(getattr(one, name)).tobytes() == field[0].tobytes(), name
    assert one.delta <= one.lamM * one.lamM


def _mixed_batch():
    # 64 matrices: generic ones, repeated and near-repeated singular values,
    # rank-one ones, lamm about the frame-completion threshold, the zero
    # matrix, and huge and tiny ones, which the kernel decomposes scaled by
    # a power of two.
    rng = np.random.default_rng(21)
    Q0, R0 = _frames(rng, 16)
    mats = list(rng.normal(size=(34, 3, 2)))
    mats += [Q0[i] @ diag_embed(c, c) @ R0[i] for i, c in enumerate(rng.uniform(0.1, 3.0, 6))]
    mats += [Q0[6 + k] @ diag_embed(1.0, 1.0 + k * 2e-16) @ R0[6 + k] for k in range(6)]
    mats += [np.outer(rng.normal(size=3), rng.normal(size=2)) for _ in range(4)]
    mats += [
        Q0[12 + i] @ diag_embed(1.0, f * _FRAME_TOL) @ R0[12 + i]
        for i, f in enumerate((0.5, 0.999, 1.001, 2.0))
    ]
    mats.append(np.zeros((3, 2)))
    scales = (1e80, 1e150, 1e300, 1e76, 1e-7, 1e-30, 1e-200, 1e-300, 2.0**-21)
    mats += [G * x for G, x in zip(rng.normal(size=(len(scales), 3, 2)), scales)]
    return np.array(mats)


@pytest.mark.filterwarnings("error")
def test_svd32_one_matrix_is_its_element_at_every_position_and_layout():
    # Each matrix of a mixed batch has the bits of its one-matrix call at
    # every position of the batch, and in C-order, F-order and strided
    # layouts: the sums of products do not depend on the batch, its order
    # or its memory layout.
    # Stacks of at most _LANE_STACK matrices take the float lane unless one
    # of them is a rare case: every window of the batch that short has
    # the bits of the one-matrix calls too.
    F = _mixed_batch()
    assert F.shape == (64, 3, 2)
    names = ("lamM", "lamm", "delta", "Q", "R")
    ones = [svd32(G) for G in F]
    want = {name: np.array([getattr(one, name) for one in ones]) for name in names}
    strided = np.zeros((128, 3, 4))
    for k in range(64):
        base = np.roll(F, k, axis=0)
        strided[::2, :, 1::2] = base
        for X in (base, np.asfortranarray(base), strided[::2, :, 1::2]):
            sd = svd32(X)
            for name in names:
                assert getattr(sd, name).tobytes() == np.roll(want[name], k, axis=0).tobytes()
        for n in range(1, _LANE_STACK + 1):
            sd = svd32(np.asfortranarray(base[:n]))
            for name in names:
                assert getattr(sd, name).tobytes() == np.roll(want[name], k, axis=0)[:n].tobytes()


def test_svd32_sums_are_plain_left_to_right():
    # A target of the oracle bench (region_targets(49, 12)[97], L at r = 8)
    # whose singular values differ between the plain left-to-right sums of
    # rounded products and numpy's matmul and vecdot, which accumulate with
    # fused multiply-adds: those gave lamM 0x1.3ea03c604461dp-1 and lamm
    # 0x1.a47fbeed87886p-2.  The float lane and the array kernel agree.
    entries = [
        "0x1.323963f4ba000p-2", "0x1.2fe19c2177941p-2", "-0x1.650fed0d60fefp-4",
        "-0x1.f42f0980ea08dp-2", "-0x1.47b2facdc00fbp-2", "0x1.619297fbf9f62p-3",
    ]
    F = np.array([float.fromhex(x) for x in entries]).reshape(3, 2)
    one, (big, small, *_) = svd32(F), _svd32_batch(np.stack([F, -F]))
    pinned = ("0x1.3ea03c604461ep-1", "0x1.a47fbeed87888p-2")
    assert (one.lamM.hex(), one.lamm.hex()) == pinned
    for lamM, lamm in zip(big.tolist(), small.tolist()):
        assert (lamM.hex(), lamm.hex()) == pinned


def test_svd32_batch_reconstructs_with_rotation_frames():
    F = _edge_batch()
    sd = svd32(F)
    scale = np.maximum(1.0, np.abs(F).max(axis=(1, 2)))
    assert np.all(np.abs(sd.reconstruct() - F).max(axis=(1, 2)) <= 1e-12 * scale)
    assert np.all(sd.lamM >= sd.lamm) and np.all(sd.lamm >= 0.0)
    eye3 = np.abs(np.swapaxes(sd.Q, 1, 2) @ sd.Q - np.eye(3)).max(axis=(1, 2))
    eye2 = np.abs(sd.R @ np.swapaxes(sd.R, 1, 2) - np.eye(2)).max(axis=(1, 2))
    assert eye3.max() <= 1e-12 and eye2.max() <= 1e-12
    assert np.abs(np.linalg.det(sd.Q) - 1.0).max() <= 1e-12
    assert np.array_equal(sd.e1, sd.Q[:, :, 0]) and np.array_equal(sd.f2, sd.R[:, 1, :])


def test_svd32_recovers_known_singular_values():
    # F = Q0 diag(a, b) R0 with random frames has singular values a >= b;
    # rounding in forming F and in the kernel is at the scale of a.
    rng = np.random.default_rng(12)
    n = 2000
    a = 10.0 ** rng.uniform(-3, 3, n)
    b = a * rng.uniform(0.0, 1.0, n)
    Q0, R0 = _frames(rng, n)
    F = Q0 @ diag_embed(a, b) @ R0
    sd = svd32(F)
    assert np.all(np.abs(sd.lamM - a) <= 1e-14 * a)
    assert np.all(np.abs(sd.lamm - b) <= 1e-14 * a)
    ref = np.array([svdvals(G) for G in F])
    assert np.all(np.abs(sd.lamM - ref[:, 0]) <= 1e-13 * ref[:, 0])
    assert np.all(np.abs(sd.lamm - ref[:, 1]) <= 1e-13 * ref[:, 0])


def test_rank_one_gap_on_batches():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(4, 5, 3, 2))
    B = rng.normal(size=(5, 3, 2))
    B[1] = A[2, 1]
    gap = rank_one_gap(A, B)
    assert gap.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert gap[i, j] == rank_one_gap(A[i, j], B[j])
    assert gap[2, 1] == 0.0
