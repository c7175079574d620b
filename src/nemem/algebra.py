"""Exact small-matrix kernels for 3x2 deformation gradients.

Everything a membrane calculation needs from linear algebra lives here:
the vector of 2x2 minors (``adj2``), a closed-form singular value
decomposition with frames of one 3x2 matrix or a batch (``svd32``), its
singular values without the frames (``singular_values``), and a rank-one
certificate (``rank_one_gap``).  The SVD is computed analytically from
the 2x2 symmetric eigenproblem of F^T F, so it is exact up to rounding
and has no iteration and no LAPACK call.  Every sum of products adds
rounded products left to right, in a batch as on one matrix, so no BLAS
or fused multiply-add decides a bit.  One matrix in the generic case,
and each of a stack of a few, is decomposed on Python floats, with no
numpy reduction, and has the bits of a batch element; the rare cases
(repeated, swapped or negligible singular values, huge entries) and the
input errors live only in the array kernel.
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
# A stack of at most this many matrices takes the float lane one matrix
# at a time: a matrix there costs about a tenth of the array kernel's
# fixed cost, which is most of the kernel's time on a stack this small.
_LANE_STACK = 8
# The smallest normal float: a sum of squares below it has lost bits.
_TINY = np.finfo(float).tiny


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
    or a batch.  A batch is one array computation in which every sum of
    products (the Gram matrix, the eigenvector norms, ``F v``, ``|F v|^2``
    and the Gram-Schmidt dot and norm) adds its rounded products left to
    right, so each element's bits depend neither on the batch nor on its
    memory layout; the rare cases are masked and skipped when no element
    has them.  A matrix with an entry of at least ``_LANE_MAX``, or
    whose entries are all below ``_LANE_MIN``, is one of them: it is
    decomposed scaled by an exact power of two, so its Gram matrix
    neither overflows nor underflows (the tie and thin tests are relative
    to the largest value, so the scale does not change their verdict); a
    ``delta`` beyond the float range comes back as inf (below it, as 0).
    One matrix in the generic case takes a float lane that makes the same
    operations in the same order on Python floats, with the same bits,
    and so does each matrix of a stack of at most ``_LANE_STACK`` when
    none of them is a rare case; any other input, including a malformed
    one, goes to the array kernel.  Repeated or
    zero singular values get a deterministic frame; only ``lamM``,
    ``lamm`` and the reconstruction are unique in those cases.

    Parameters
    ----------
    F : ndarray, shape (..., 3, 2)

    Returns
    -------
    SingularData
        Float singular values for one matrix, arrays for a batch.
    """
    F = np.asarray(F, dtype=float)
    lead = F.shape[:-2]
    if F.shape[-2:] != (3, 2):
        raise ValueError(f"expected 3x2 matrices, got shape {F.shape}")
    # A few matrices take the float lane, each on its own, unless one of
    # them is a rare case; any other input goes to the array kernel.
    lanes = [None]
    if 0 < F.size <= 6 * _LANE_STACK:
        lanes = [_svd32_one(x) for x in F.reshape(-1, 6).tolist()]
    if None in lanes:
        lamM, lamm, delta, Q, R = _svd32_batch(F.reshape(-1, 3, 2))
    elif lead:
        lamM, lamm, delta, Q, R = (np.array(f) for f in zip(*lanes))
    else:
        [(lamM, lamm, delta, Q, R)] = lanes
        return SingularData(lamM, lamm, delta, np.array(Q).reshape(3, 3), np.array(R).reshape(2, 2))
    if not lead:
        return SingularData(float(lamM[0]), float(lamm[0]), float(delta[0]), Q[0], R[0])
    values = (x.reshape(lead) for x in (lamM, lamm, delta))
    return SingularData(*values, Q.reshape(lead + (3, 3)), R.reshape(lead + (2, 2)))


def _svd32_batch(F):
    # The array kernel of svd32 on a stack of shape (n, 3, 2): the arrays
    # lamM, lamm, delta, Q and R.
    n = len(F)
    # A largest entry of at least _LANE_MAX (or not finite) or below
    # _LANE_MIN is a rare case: such a matrix is decomposed as 2^-e F,
    # largest entry in [1/2, 1), and its singular values are scaled back by
    # 2^e (exact, frames unchanged).  The zero matrix keeps e = 0.
    exp = None
    peak = np.abs(F).max(axis=(1, 2))
    if not (_LANE_MIN <= peak.min(initial=_LANE_MIN) and peak.max(initial=0.0) < _LANE_MAX):
        if not np.all(peak < np.inf):
            raise ValueError("matrix entries must be finite")
        exp = np.where((peak >= _LANE_MAX) | (peak < _LANE_MIN), np.frexp(peak)[1], 0)
        F = np.ldexp(F, -exp[:, None, None])

    # F^T F = [[a, b], [b, c]] sums the products F_ki F_kj over the rows k;
    # each reduction below makes its products in one multiply and adds them
    # in order, which keeps the kernel's numpy calls few.
    C = F[:, :, :, None] * F[:, :, None]
    C = C[:, 0] + C[:, 1] + C[:, 2]
    a, b, c = C[:, 0, 0], C[:, 0, 1], C[:, 1, 1]
    disc = np.hypot(0.5 * (a - c), b)
    # Leading eigenvector: the longer of the two equivalent expressions
    # (b, s1sq - a) and (s1sq - c, b).
    s1sq = 0.5 * (a + c) + disc
    V = np.empty((n, 2, 2))
    V[:, 0, 0] = V[:, 1, 1] = b
    V[:, 0, 1] = s1sq - a
    V[:, 1, 0] = s1sq - c
    norm2 = V * V
    norm2 = norm2[:, :, 0] + norm2[:, :, 1]
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
    W = F[:, None] * R[:, :, None]
    W = W[..., 0] + W[..., 1]
    lam2 = _sum3(W * W)
    lam = np.sqrt(lam2)
    small = lam2 < _TINY
    if np.count_nonzero(small):
        # Squares below the normal range lose bits or flush to 0, as a
        # negligible lamm's can, even after the scaling: such a row's length
        # is taken on the row divided by its largest entry (1 for a zero row).
        w = W[small]
        top = np.abs(w).max(axis=1)
        top[top == 0.0] = 1.0
        w /= top[:, None]
        lam[small] = top * np.sqrt(_sum3(w * w))
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
        u[:, 1] -= _sum3(u[:, 0] * u[:, 1])[:, None] * u[:, 0]
        u[:, 1] /= np.sqrt(_sum3(u[:, 1] * u[:, 1]))[:, None]
        # Judged at the scaled size, where no singular value overflows.
        thin = lam[:, 1] <= _FRAME_TOL * lam[:, 0]
        if exp is not None:
            lam = np.ldexp(lam, exp[:, None])
        # Beyond the float range delta is inf, which the invariant bound
        # downstream rejects.
        delta = lam[:, 0] * lam[:, 1]
    lamM, lamm = lam[:, 0], lam[:, 1]
    any_thin = np.count_nonzero(thin)
    if any_thin:
        t1 = u[thin, 0]
        rows = np.arange(len(t1))
        t2 = np.zeros_like(t1)
        t2[rows, np.argmin(np.abs(t1), axis=1)] = 1.0
        t2 -= _sum3(t2 * t1)[:, None] * t1
        t2 /= np.sqrt(_sum3(t2 * t2))[:, None]
        lead_comp = t2[rows, np.argmax(np.abs(t2) > 1e-12, axis=1)]
        u[thin, 1] = t2 * np.copysign(1.0, lead_comp)[:, None]
    U[:, :, 3:] = U[:, :, :2]
    Q = np.empty((n, 3, 3))
    Q[:, :, :2] = u.swapaxes(1, 2)
    Q[:, :, 2] = U[:, 0, 1:4] * U[:, 1, 2:5] - U[:, 0, 2:5] * U[:, 1, 1:4]
    if any_thin:
        Q[lamM <= 0.0] = np.eye(3)

    return lamM, lamm, delta, Q, R


def _sum3(P):
    # Sums over the last axis of length 3, added left to right.
    s = P[..., 0] + P[..., 1]
    s += P[..., 2]
    return s


def _svd32_one(x):
    # svd32 of one 3x2 matrix, given as the list of its six entries in
    # row-major order, on Python floats: lamM, lamm, delta and the entries
    # of Q and R in row-major order.  None when a rare case (an entry out
    # of bounds, a tie, swap or thin) applies, for the array kernel to
    # handle.  Every step is the array kernel's, in its order: a sum of
    # products adds the rounded products left to right, and each
    # elementwise operation is correctly rounded on floats as in numpy, so
    # each field has the bits of a batch element.  The hypot is numpy's,
    # as in the batch (math.hypot rounds differently).  One check admits
    # the lane: a finite sum rules out nan, which max() can skip.
    if not (_LANE_MIN <= max(map(abs, x)) < _LANE_MAX and math.isfinite(sum(x))):
        return None
    x0, y0, x1, y1, x2, y2 = x
    a = x0 * x0 + x1 * x1 + x2 * x2
    b = x0 * y0 + x1 * y1 + x2 * y2
    c = y0 * y0 + y1 * y1 + y2 * y2
    disc = float(np.hypot(0.5 * (a - c), b))
    if disc <= 1e-15 * max(a, c):
        return None
    s1sq = 0.5 * (a + c) + disc
    p, q = s1sq - a, s1sq - c
    n0, n1 = b * b + p * p, q * q + b * b
    (v0, v1), norm2 = ((b, p), n0) if n0 >= n1 else ((q, b), n1)
    norm = math.sqrt(norm2)
    v0, v1 = v0 / norm, v1 / norm
    sign = math.copysign(1.0, v0 if abs(v0) > 1e-12 else v1)
    v0, v1 = v0 * sign, v1 * sign

    w1 = (x0 * v0 + y0 * v1, x1 * v0 + y1 * v1, x2 * v0 + y2 * v1)
    w2 = (x0 * -v1 + y0 * v0, x1 * -v1 + y1 * v0, x2 * -v1 + y2 * v0)
    lamM = math.sqrt(w1[0] * w1[0] + w1[1] * w1[1] + w1[2] * w1[2])
    lamm = math.sqrt(w2[0] * w2[0] + w2[1] * w2[1] + w2[2] * w2[2])
    if lamm > lamM or lamm <= _FRAME_TOL * lamM:
        return None
    # From here x and y are the first two columns of Q, u1 and u2.
    x0, x1, x2 = (w / lamM for w in w1)
    y0, y1, y2 = (w / lamm for w in w2)
    d = x0 * y0 + x1 * y1 + x2 * y2
    y0, y1, y2 = y0 - d * x0, y1 - d * x1, y2 - d * x2
    norm = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
    y0, y1, y2 = y0 / norm, y1 / norm, y2 / norm
    return (
        lamM,
        lamm,
        lamM * lamm,
        (x0, y0, x1 * y2 - x2 * y1, x1, y1, x2 * y0 - x0 * y2, x2, y2, x0 * y1 - x1 * y0),
        (v0, v1, -v1, v0),
    )


def singular_values(F):
    """Singular values of one 3x2 matrix or a batch: ``svd32``'s
    ``lamM`` and ``lamm``, without the frames.

    Parameters
    ----------
    F : ndarray, shape (..., 3, 2)

    Returns
    -------
    lamM, lamm : float, or ndarray of shape (...) for a batch

    Raises
    ------
    ValueError
        As ``svd32``: for another shape or a non-finite entry.
    """
    sd = svd32(F)
    return sd.lamM, sd.lamm


def rank_one_gap(A, B):
    """Second singular value of A - B, for one pair or broadcastable
    batches; values at rounding scale certify that the difference has
    rank at most one."""
    return svd32(np.asarray(A, dtype=float) - np.asarray(B, dtype=float)).lamm
