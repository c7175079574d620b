"""Exact small-matrix kernels for 3x2 deformation gradients.

Everything a membrane calculation needs from linear algebra lives here:
the vector of 2x2 minors (``adj2``), a closed-form singular value
decomposition with frames of one 3x2 matrix or a batch (``svd32``), the
batched singular values alone (``singular_values``), and a rank-one
certificate (``rank_one_gap``).  The SVD is computed analytically from
the 2x2 symmetric eigenproblem of F^T F, so it is exact up to rounding
and has no iteration and no LAPACK call.  One matrix in the generic case
is decomposed on Python floats, with the batch's numpy reductions for
its sums of products, so it has the bits of a batch element; the rare
cases (repeated, swapped or negligible singular values, huge entries)
and the input errors live only in the array kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularData",
    "adj2",
    "diag_embed",
    "rank_one_gap",
    "singular_values",
    "svd32",
]

# Relative threshold below which the smaller singular value is treated as
# zero when building the left frame (the value itself is still reported).
_FRAME_TOL = 1e-13
# One matrix whose largest entry in magnitude lies in [_LANE_MIN,
# _LANE_MAX) takes the float lane of svd32: its Gram matrix and eigenvector
# norms stay finite there, so no numpy call in the lane overflows or
# warns.  Outside that range the array kernel scales the matrix by a power
# of two, so that its Gram matrix neither overflows nor underflows; the
# tie and thin tests are relative, so they judge it as at its own size.
_LANE_MIN = 2.0**-20
_LANE_MAX = 1e75


@dataclass(frozen=True)
class SingularData:
    """Singular value decomposition F = Q D R of a 3x2 matrix or a batch.

    For one matrix the singular values are floats; for a batch of shape
    ``(..., 3, 2)`` every field is an array with those leading axes.

    Attributes
    ----------
    lamM, lamm : float or ndarray, shape (...)
        Singular values, ``lamM >= lamm >= 0``.
    delta : float or ndarray, shape (...)
        Areal stretch ``lamM * lamm`` (equals ``|adj2(F)|``).
    Q : ndarray, shape (..., 3, 3)
        Rotations (det Q = +1) whose first two columns are the left
        singular vectors.
    R : ndarray, shape (..., 2, 2)
        Orthogonal matrices whose rows are the right singular vectors.
    """

    lamM: float
    lamm: float
    delta: float
    Q: np.ndarray
    R: np.ndarray

    # Left singular vectors (columns of Q), right ones (rows of R).
    e1 = property(lambda self: self.Q[..., :, 0])
    e2 = property(lambda self: self.Q[..., :, 1])
    f1 = property(lambda self: self.R[..., 0, :])
    f2 = property(lambda self: self.R[..., 1, :])
    D = property(lambda self: diag_embed(self.lamM, self.lamm))

    def reconstruct(self):
        return self.Q @ self.D @ self.R


def diag_embed(a, b):
    """3x2 matrices with ``a`` and ``b`` on the diagonal and a zero third
    row; ``a`` and ``b`` broadcast, and two numbers give one matrix."""
    out = np.zeros(np.broadcast(a, b).shape + (3, 2))
    out[..., 0, 0] = a
    out[..., 1, 1] = b
    return out


def adj2(F):
    """Vector of the three 2x2 minors of a 3x2 matrix.

    The sign pattern makes ``adj2(grad y)`` the (unnormalized) normal of
    the deformed surface, and ``|adj2(F)|`` the areal stretch.

    Parameters
    ----------
    F : ndarray, shape (3, 2)

    Returns
    -------
    ndarray, shape (3,)
    """
    F = np.asarray(F, dtype=float)
    return np.array(
        [
            F[1, 0] * F[2, 1] - F[1, 1] * F[2, 0],
            -(F[0, 0] * F[2, 1] - F[0, 1] * F[2, 0]),
            F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0],
        ]
    )


def svd32(F):
    """Closed-form singular value decomposition of 3x2 matrices.

    Solves the 2x2 symmetric eigenproblem of F^T F analytically and
    assembles F = Q D R with Q in SO(3) and R orthogonal, for one matrix
    or a batch.  A batch is one array computation whose products are
    stacked per-matrix ``np.matmul`` and ``np.vecdot`` calls, so each
    element's bits do not depend on the batch; the rare cases are masked
    and skipped when no element has them.  A matrix with an entry of at
    least ``_LANE_MAX``, or whose entries are all below ``_LANE_MIN``, is
    one of them: it is decomposed scaled by an exact power of two, so its
    Gram matrix neither overflows nor underflows (the tie and thin tests
    are relative to the largest value, so the scale does not change their
    verdict); a ``delta`` beyond the float range comes back as inf (below
    it, as 0).  One matrix in
    the generic case takes a float lane that makes the same reductions
    on that matrix and does everything elementwise on Python floats,
    with the same bits; any other input, including a malformed one, goes
    to the array kernel.  Repeated or zero singular values get a
    deterministic frame; only ``lamM``, ``lamm`` and the reconstruction
    are unique in those cases.

    Parameters
    ----------
    F : ndarray, shape (..., 3, 2)

    Returns
    -------
    SingularData
        Float singular values for one matrix, arrays for a batch.
    """
    F = np.asarray(F, dtype=float)
    # One check admits the float lane: a finite sum rules out nan, which
    # max() can skip.
    if F.shape == (3, 2) and (
        _LANE_MIN <= max(map(abs, x := F.ravel().tolist())) < _LANE_MAX and math.isfinite(sum(x))
    ):
        one = _svd32_one(np.ascontiguousarray(F))
        if one is not None:
            return one
    lead = F.shape[:-2]
    if F.shape[-2:] != (3, 2):
        raise ValueError(f"expected 3x2 matrices, got shape {F.shape}")
    F = np.ascontiguousarray(F.reshape(-1, 3, 2))
    n = len(F)
    # A largest entry of at least _LANE_MAX (or not finite) or below
    # _LANE_MIN is a rare case: such a matrix is decomposed as 2^-e F,
    # largest entry in [1/2, 1), and its singular values are scaled back by
    # 2^e (exact, frames unchanged).  The zero matrix keeps e = 0.
    exp = None
    peak = np.abs(F).reshape(n, 6).max(axis=1)
    if not (_LANE_MIN <= peak.min(initial=_LANE_MIN) and peak.max(initial=0.0) < _LANE_MAX):
        if not np.all(peak < np.inf):
            raise ValueError("matrix entries must be finite")
        exp = np.where((peak >= _LANE_MAX) | (peak < _LANE_MIN), np.frexp(peak)[1], 0)
        F = np.ldexp(F, -exp[:, None, None])

    # Leading eigenvector of F^T F = [[a, b], [b, c]]: the longer of the
    # two equivalent expressions (b, s1sq - a) and (s1sq - c, b).
    C = np.matmul(F.swapaxes(1, 2), F)
    a, b, c = C[:, 0, 0], C[:, 0, 1], C[:, 1, 1]
    disc = np.hypot(0.5 * (a - c), b)
    s1sq = 0.5 * (a + c) + disc
    V = np.empty((n, 2, 2))
    V[:, 0, 0] = V[:, 1, 1] = b
    V[:, 0, 1] = s1sq - a
    V[:, 1, 0] = s1sq - c
    norm2 = np.vecdot(V, V)
    v = np.where((norm2[:, 0] >= norm2[:, 1])[:, None], V[:, 0], V[:, 1])
    norm2 = np.maximum(norm2[:, 0], norm2[:, 1])
    tie = disc <= 1e-15 * np.maximum(a, c)
    if np.count_nonzero(tie):
        # Repeated singular values: any frame works, pick the first axis.
        v[tie], norm2[tie] = (1.0, 0.0), 1.0
    v /= np.sqrt(norm2)[:, None]
    # Deterministic sign: first component of significant size positive.
    v *= np.copysign(1.0, np.where(np.abs(v[:, :1]) > 1e-12, v[:, :1], v[:, 1:]))
    R = np.empty((n, 2, 2))
    R[:, 0] = v
    R[:, 1, 0] = -v[:, 1]  # det R = +1
    R[:, 1, 1] = v[:, 0]

    # Rows w1 = F v1, w2 = F v2 and their lengths lamM, lamm.
    W = np.matmul(F[:, None], R[:, :, :, None])[..., 0]
    lam = np.sqrt(np.vecdot(W, W))
    swap = lam[:, 1] > lam[:, 0]
    if np.count_nonzero(swap):
        # Rounding near a repeated value can swap the order; restore it:
        # (v1, v2) -> (v2, -v1), the same for w.
        R[swap] = R[swap][:, ::-1] * [[1.0], [-1.0]]
        W[swap] = W[swap][:, ::-1] * [[1.0], [-1.0]]
        lam[swap] = lam[swap][:, ::-1]

    # Left frame: u1 = w1 / lamM, u2 = w2 / lamm made orthogonal to u1
    # (or, when lamm is negligible, completing u1 from the basis vector
    # least aligned with it), u3 = u1 x u2; Q = I for a zero F.  The rows
    # of U repeat their first two entries, so u1 x u2 reads slices.
    U = np.empty((n, 2, 5))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.divide(W, lam[:, :, None], out=U[:, :, :3])
        u[:, 1] -= np.vecdot(u[:, 0], u[:, 1])[:, None] * u[:, 0]
        u[:, 1] /= np.sqrt(np.vecdot(u[:, 1], u[:, 1]))[:, None]
        # Judged at the scaled size, where no singular value overflows.
        thin = lam[:, 1] <= _FRAME_TOL * lam[:, 0]
        if exp is not None:
            lam = np.ldexp(lam, exp[:, None])
        # Beyond the float range delta is inf, which the invariant bound
        # downstream rejects.
        delta = lam[:, 0] * lam[:, 1]
    lamM, lamm = lam[:, 0], lam[:, 1]
    if np.count_nonzero(thin):
        t1 = u[thin, 0]
        rows = np.arange(len(t1))
        t2 = np.zeros_like(t1)
        t2[rows, np.argmin(np.abs(t1), axis=1)] = 1.0
        t2 = t2 - np.vecdot(t2, t1)[:, None] * t1
        t2 = t2 / np.sqrt(np.vecdot(t2, t2))[:, None]
        lead_comp = t2[rows, np.argmax(np.abs(t2) > 1e-12, axis=1)]
        u[thin, 1] = t2 * np.copysign(1.0, lead_comp)[:, None]
    U[:, :, 3:] = U[:, :, :2]
    Q = np.empty((n, 3, 3))
    Q[:, :, :2] = u.swapaxes(1, 2)
    Q[:, :, 2] = U[:, 0, 1:4] * U[:, 1, 2:5] - U[:, 0, 2:5] * U[:, 1, 1:4]
    if np.count_nonzero(thin):
        Q[lamM <= 0.0] = np.eye(3)

    if not lead:
        return SingularData(float(lamM[0]), float(lamm[0]), float(delta[0]), Q[0], R[0])
    values = (x.reshape(lead) for x in (lamM, lamm, delta))
    return SingularData(*values, Q.reshape(lead + (3, 3)), R.reshape(lead + (2, 2)))


def _svd32_one(F):
    # svd32 of one C-contiguous 3x2 matrix with bounded entries, on Python
    # floats; None when a rare case (tie, swap, thin) applies, for the
    # array kernel to handle.  The reductions are the batch's numpy calls
    # on this one matrix (numpy's matmul and vecdot accumulate with fused
    # multiply-adds, plain float sums would not, and their rounding also
    # depends on the memory layout, hence contiguous as in the batch), and
    # every elementwise step is the batch's correctly rounded operation on
    # floats, so each field has the bits of the array kernel.
    (a, b), (_, c) = np.matmul(F.T, F).tolist()
    disc = float(np.hypot(0.5 * (a - c), b))
    if disc <= 1e-15 * max(a, c):
        return None
    s1sq = 0.5 * (a + c) + disc
    V = [[b, s1sq - a], [s1sq - c, b]]
    n0, n1 = np.vecdot(V, V).tolist()
    (v0, v1), norm2 = (V[0], n0) if n0 >= n1 else (V[1], n1)
    norm = math.sqrt(norm2)
    v0, v1 = v0 / norm, v1 / norm
    sign = math.copysign(1.0, v0 if abs(v0) > 1e-12 else v1)
    v0, v1 = v0 * sign, v1 * sign
    R = np.array([[v0, v1], [-v1, v0]])

    W = np.matmul(F[None], R[:, :, None])[..., 0]
    lamM, lamm = (math.sqrt(x) for x in np.vecdot(W, W).tolist())
    if lamm > lamM or lamm <= _FRAME_TOL * lamM:
        return None
    w1, w2 = W.tolist()
    u1 = [x / lamM for x in w1]
    u2 = [x / lamm for x in w2]
    d = float(np.vecdot(u1, u2))
    u2 = [y - d * x for x, y in zip(u1, u2)]
    n = math.sqrt(np.vecdot(u2, u2))
    (x0, x1, x2), (y0, y1, y2) = u1, [y / n for y in u2]
    Q = np.array(
        [[x0, y0, x1 * y2 - x2 * y1], [x1, y1, x2 * y0 - x0 * y2], [x2, y2, x0 * y1 - x1 * y0]]
    )
    return SingularData(lamM, lamm, lamM * lamm, Q, R)


def singular_values(F):
    """Singular values of a batch of 3x2 matrices, frames not computed.

    The entries of F^T F are explicit sums of products over the batch,
    added left to right (``x0*x0 + x1*x1 + x2*x2`` and so on, where
    ``x`` and ``y`` are the columns), so each element's bits depend
    neither on the batch nor on the memory layout.

    Parameters
    ----------
    F : ndarray, shape (..., 3, 2)

    Returns
    -------
    lamM, lamm : ndarray, shape (...)
    """
    F = np.asarray(F, dtype=float)
    lead = F.shape[:-2]
    # Rows x0, y0, ..., y2 of the entries in row-major order, each a view
    # over the batch; F^T F = [[a, b], [b, c]], each sum accumulated in
    # place.
    x0, y0, x1, y1, x2, y2 = F.reshape(-1, 6).T
    a, b, c = x0 * x0, x0 * y0, y0 * y0
    a += x1 * x1
    b += x1 * y1
    c += y1 * y1
    a += x2 * x2
    b += x2 * y2
    c += y2 * y2
    half_tr = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    # half_tr + disc is never negative; half_tr - disc can round below 0.
    s1 = np.sqrt(half_tr + disc)
    s2 = np.sqrt(np.maximum(half_tr - disc, 0.0))
    return s1.reshape(lead)[()], s2.reshape(lead)[()]


def rank_one_gap(A, B):
    """Second singular value of A - B, for one pair or broadcastable
    batches; values at rounding scale certify that the difference has
    rank at most one."""
    return svd32(np.asarray(A, dtype=float) - np.asarray(B, dtype=float)).lamm
