"""Numerical rank-one convexification of the plane energy.

A depth-limited lamination search gives an upper bound on the rank-one
convex envelope without trusting the closed-form relaxed energy.  Along
one rank-one line ``F + s a b^T`` the best single split is the lower
convex envelope of the plane energy at ``s = 0``: the lowest chord
through 0 that joins a sample with ``s > 0`` to one with ``s < 0``.
One function, ``_chords``, scores such chords everywhere, and one
kernel, ``_w2d``, evaluates every plane energy of a matrix: ``svd32``
then ``plane_energy_values``, as ``membrane.plane_energy`` does.  The
plane energy depends on a matrix only through its singular values, so
along its six frame lines, the rank-one lines along pairs of its
singular vectors, it has closed forms in two numbers (``_frame_lines``,
which computes only the lines asked for).  One scorer, ``_frame_tables``,
scores the frame lines from them, with no frame and no line matrix: four
of the six lines are even in the offset, so their lowest chord is their
lowest sample, taken on one side only, and only the other two get chord
tables.  The scans rank by where the lowest chords lie
(``_frame_chords``); the endpoint estimate takes only their values.
One split search, ``_best_splits``, serves both depths on a stack of
singular values: one scan ranks each row's frame lines, and one zoom
(``_zoom``) polishes the best along their own lines, a problem in the
two offsets of the chord solved by ``_ZOOM_LEVELS`` chord tables, each
centred on the lowest chord of the one before and smaller.  Depth one
searches chords of plane energies and zooms the first ``_ZOOM_LINES``
lines of each row's ranking.  Depth two searches first splits of
two-level trees along the target's frame lines, with chords of a
depth-one estimate of both endpoints, the lowest chord along their own
frame lines; the endpoints lie on the target's frame lines, so both
levels are read from the target's two singular values.  The estimate
scores its endpoints in slices (``_ESTIMATE_SLICE``) whose temporaries
stay under the allocator's mmap threshold.  That first split is zoomed
only when its scan's lowest chord is not above the best single split's
value by more than rounding noise; one split or none is the answer in
most targets, and then the two-level phase is one scan.
A witness grows by one level step, ``_deepen``: the target's depth-one
pass over all its atoms (both endpoints of a two-level tree, every atom
of a deeper level) in one zoom.  A split, or a deeper tree, is taken
only when its value is lower by more than rounding noise (``_lower``).
The reported value is always the pairing of an explicit witness measure
with ``plane_energy``, bit for bit.
The search budget (directions, offsets, zoom levels) is a set of module
constants; ``OracleConfig`` chooses only the depth.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import svd32
from .membrane import _INVARIANT_MAX, DomainError, plane_energy_values, psi
from .microstructure import DiscreteYoungMeasure, _split

__all__ = ["OracleConfig", "OracleResult", "relax_along_line", "relax_lamination"]

_T_SCAN = 40  # offsets per side of each frame line of the full depth-one scan
_ZOOM_POINTS = 33  # grid points per side of a zoomed chord table
_ZOOM_LEVELS = 9  # zoom levels of a split's polish
# Lines of each matrix's scan ranking that a depth-one pass zooms.  Over
# the 2340 default solves of the gap table every kept split came from the
# first or second; a test checks on every region that zooming all six
# finds the same splits, bit for bit.
_ZOOM_LINES = 2
_LINE_SAMPLES = 800  # offsets per side of relax_along_line
# Largest offsets, in units of max(1, |F|) of the matrix split: single
# splits, first splits of two-level trees, and the frame chords that
# score their endpoints.
_SPLIT_TOP = 10.0
_PAIR_TOP = 6.0
_ENDPOINT_TOP = 8.0
# A two-level tree's endpoints lie within (1 + _PAIR_TOP) max(1, |F|), and
# the ladders from there reach (1 + max(_SPLIT_TOP, _ENDPOINT_TOP)) times
# farther.  A matrix of norm R has delta <= R^2 / 2, so targets up to this
# norm keep every laddered invariant within _INVARIANT_MAX.
_NORM_MAX = math.sqrt(2.0 * _INVARIANT_MAX) / (
    (1.0 + _PAIR_TOP) * (1.0 + max(_SPLIT_TOP, _ENDPOINT_TOP))
)
# relax_along_line samples F + s a b^T with |s| <= _SPLIT_TOP max(1, |F|).
# A unit rank-one term moves the larger singular value by at most |s| and
# leaves the smaller at most F's larger one, so a sample has lamM <= |F| +
# |s| and delta <= |F| (|F| + |s|): lines through matrices up to this norm
# keep every sampled invariant within _INVARIANT_MAX.
_LINE_NORM_MAX = math.sqrt(_INVARIANT_MAX / (1.0 + _SPLIT_TOP))
# Unit ladders of offsets, scaled by max(1, |F|) per matrix: single
# splits, the first splits of two-level trees, and the endpoint estimate's
# frame chords.
_SCAN_LADDER = np.geomspace(1e-3, _SPLIT_TOP, _T_SCAN)
_PAIR_LADDER = np.geomspace(1e-2, _PAIR_TOP, 24)
_ENDPOINT_LADDER = np.geomspace(1e-2, _ENDPOINT_TOP, 14)
# Endpoints per slice of the endpoint estimate.  Its largest temporary, the
# chord tables of an endpoint's two odd frame lines, holds 2 n^2 float64 for
# n = len(_ENDPOINT_LADDER); a slice keeps it under glibc's default mmap
# threshold of 128 KiB, so no temporary is mapped and unmapped per call, and
# a solve's peak heap use stays near 0.5 MB, which the heap keeps between
# solves instead of trimming it and faulting it in again.
_ESTIMATE_SLICE = (128 * 1024) // (8 * 2 * len(_ENDPOINT_LADDER) ** 2)


@dataclass(frozen=True)
class OracleConfig:
    """Lamination depth of the oracle.

    The search budget is fixed: the six frame directions of each matrix
    split, ``_T_SCAN`` offsets per side of each rank-one line, and a
    polish of the best single splits (the ``_ZOOM_LINES`` best-ranked
    lines of the target, and of each atom of a level step) and of a
    two-level tree's first split (unless its scan is above the best
    single split) by ``_ZOOM_LEVELS`` chord tables of ``_ZOOM_POINTS``
    offsets per side along their frame lines.
    ``depth`` is the lamination order searched (1 or 2, deeper levels
    split witness atoms further).  The search is deterministic.
    """

    depth: int = 2

    def __post_init__(self):
        # bool is an Integral, but a flag passed as a depth is a mistake.
        if isinstance(self.depth, bool) or not isinstance(self.depth, numbers.Integral) or self.depth < 1:
            raise ValueError(f"depth must be an integer >= 1, got {self.depth!r}")


@dataclass(frozen=True)
class OracleResult:
    value: float
    best_measure: DiscreteYoungMeasure
    closed_form: float
    gap: float


def _energies(params):
    """The plane energy as a function of singular values ``(hi, lo)``."""
    return lambda hi, lo: plane_energy_values(hi, hi * lo, params)


def _w2d(G, params):
    """Plane energy of one 3x2 matrix or a batch, shape ``(..., 3, 2)``:
    the oracle's one path for matrices, composed as ``plane_energy``."""
    sd = svd32(G)
    return plane_energy_values(sd.lamM, sd.delta, params)


def _chords(w_pos, w_neg, s_pos, s_neg):
    """Values at offset 0 of the chords from ``(s_pos[i], w_pos[..., i])``
    to ``(-s_neg[j], w_neg[..., j])``, with shape ``(..., i, j)``.

    The one copy of the chord formula.  The offsets are positive and
    broadcast against the leading axes of the values; a chord with an
    infinite end is infinite.
    """
    sp = np.asarray(s_pos)[..., :, None]
    sm = np.asarray(s_neg)[..., None, :]
    return (sp * w_neg[..., None, :] + sm * w_pos[..., :, None]) / (sp + sm)


def _dyads(a, b):
    """Rank-one matrices ``a b^T`` of broadcast rows, ``(..., 3)`` and
    ``(..., 2)`` to ``(..., 3, 2)``."""
    return np.asarray(a)[..., :, None] * np.asarray(b)[..., None, :]


def _split_endpoints(F, split):
    """Endpoints ``F + (1 - theta) t a b^T`` and ``F - theta t a b^T`` of
    one split or of a batch, ``a`` of shape ``(..., 3)``, ``b`` of shape
    ``(..., 2)``, ``t`` and ``theta`` of shape ``(...)``, stacked into one
    array of shape ``(2, ..., 3, 2)``.

    Both come from one broadcast ``F + c a b^T`` with the coefficients
    ``c = ((1 - theta) t, -(theta t))``.  Negation is exact, so the second
    endpoint has the bits of ``F - theta t a b^T``.
    """
    a, b, t, theta = split
    c = np.stack([(1.0 - theta) * t, -(theta * t)])
    return F + c[..., None, None] * _dyads(a, b)


def _off_diagonal(l1, l2, c):
    m = 0.5 * (np.hypot(l1 + l2, c) + np.hypot(l1 - l2, c))
    return m, l1 * l2 / m


# Both singular values of each frame line d = 2 i + j, in either order,
# as functions of (l1, l2, c); see _frame_lines.
_LINE_PAIRS = (
    lambda l1, l2, c: (np.abs(l1 + c), l2),
    _off_diagonal,
    _off_diagonal,
    lambda l1, l2, c: (l1, np.abs(l2 + c)),
    lambda l1, l2, c: (np.hypot(l1, c), l2),
    lambda l1, l2, c: (l1, np.hypot(l2, c)),
)


def _frame_lines(l1, l2, c, lines, out=None):
    """Singular values ``hi, lo`` along the frame ``lines`` of matrices
    with singular values ``l1 >= l2`` (shape ``(...)``) at signed offsets
    ``c`` (shape ``(..., n)``), written into ``out`` (a new array if None)
    of shape ``(2, ..., len(lines), n)``, which is returned.

    With ``E = Q D R``, the frame line ``d = 2 i + j`` is the rank-one
    line ``E + c Q[:, i] R[j, :]``, with the singular values of ``D + c
    e_i e_j^T``: ``|l1 + c|`` and ``l2`` on (0, 0), ``l1`` and ``|l2 +
    c|`` on (1, 1), ``hypot(l1, c)`` and ``l2`` on (2, 0), ``l1`` and
    ``hypot(l2, c)`` on (2, 1); on (0, 1) and (1, 0), which are one line,
    the larger is ``m = (hypot(l1 + l2, c) + hypot(l1 - l2, c)) / 2`` and
    the smaller ``l1 l2 / m``.  All but (0, 0) and (1, 1) are even in
    ``c``.
    """
    l1, l2 = np.asarray(l1)[..., None], np.asarray(l2)[..., None]
    if out is None:
        shape = np.broadcast_shapes(l1.shape, np.shape(c))
        out = np.empty((2,) + shape[:-1] + (len(lines),) + shape[-1:])
    for k, d in enumerate(lines):
        x, y = _LINE_PAIRS[d](l1, l2, c)
        np.maximum(x, y, out=out[0, ..., k, :])
        np.minimum(x, y, out=out[1, ..., k, :])
    return out


def _frame_tables(l1, l2, s, value):
    """The one scorer of frame lines.  For matrices with singular values
    ``l1 >= l2`` (shape ``(...)``) and offsets ``s > 0`` (shape ``(...,
    n)``), returns ``(own, chords, even)``: each matrix's own value; the
    chords through it along (0, 0) and (1, 1), between ``s[i]`` and
    ``-s[j]``, shape ``(..., 2, n, n)``; and the samples of the even lines
    (0, 1), (2, 0) and (2, 1) at ``s``, shape ``(..., 3, n)``.  ``value``
    maps singular values ``(hi, lo)`` to values and is called once.

    The lowest chord of a line even in the offset is its lowest sample
    (no chord is below its lower end), so only (0, 0) and (1, 1) get chord
    tables, and (1, 0) is (0, 1).
    """
    s = np.asarray(s)
    n = s.shape[-1]
    lead = np.broadcast_shapes(np.shape(l1), s.shape[:-1])
    # The values' input: the matrix itself, (0, 0) and (1, 1) at s and -s,
    # and the even lines at s, each line written in place by _frame_lines.
    V = np.empty((2,) + lead + (7 * n + 1,))
    V[0, ..., 0] = l1
    V[1, ..., 0] = l2
    c = np.concatenate([s, -s], axis=-1)
    _frame_lines(l1, l2, c, (0, 3), V[..., 1 : 4 * n + 1].reshape((2,) + lead + (2, 2 * n)))
    _frame_lines(l1, l2, s, (1, 4, 5), V[..., 4 * n + 1 :].reshape((2,) + lead + (3, n)))
    W = value(V[0], V[1])
    odd = W[..., 1 : 4 * n + 1].reshape(lead + (2, 2 * n))
    chords = _chords(odd[..., :n], odd[..., n:], s[..., None, :], s[..., None, :])
    return W[..., 0], chords, W[..., 4 * n + 1 :].reshape(lead + (3, n))


def _frame_chords(l1, l2, s, value):
    """The lowest chord along each frame line and where it lies: from
    ``_frame_tables``, ``(own, low, i, j)`` with ``low`` of shape ``(...,
    6)`` indexed by frame line (``_frame_lines``), the chord between
    ``s[i]`` and ``-s[j]``; ties go to the first chord in row-major order.
    An even line's lowest sample ``k`` is taken as ``i = j = k``.
    """
    own, chords, even = _frame_tables(l1, l2, s, value)
    n = even.shape[-1]
    chords = chords.reshape(chords.shape[:-2] + (n * n,))
    # Rows (0, 0), (1, 1), (0, 1), (2, 0), (2, 1); a sample k is the chord k (n + 1).
    rows = [0, 2, 2, 1, 3, 4]
    low = np.concatenate([chords.min(axis=-1), even.min(axis=-1)], axis=-1)[..., rows]
    k = np.concatenate([chords.argmin(axis=-1), even.argmin(axis=-1) * (n + 1)], axis=-1)
    return (own, low, *np.divmod(k[..., rows], n))


def _endpoint_estimate(params):
    """The endpoint estimate as a function of singular values ``(hi,
    lo)``: the least of a matrix's plane energy and the lowest chord
    through it along its frame lines, offsets ``_ENDPOINT_LADDER`` times
    ``max(1, |E|)``.  Only the lows are taken, not where they lie.

    Each endpoint's estimate is elementwise in its own two numbers, so the
    endpoints are taken in slices of ``_ESTIMATE_SLICE``, each slice's
    temporaries freed before the next is scored.
    """
    energies = _energies(params)

    def low(hi, lo):
        s = np.maximum(1.0, np.hypot(hi, lo))[..., None] * _ENDPOINT_LADDER
        own, chords, even = _frame_tables(hi, lo, s, energies)
        return np.minimum(own, np.minimum(chords.min(axis=(-3, -2, -1)), even.min(axis=(-2, -1))))

    def estimate(hi, lo):
        out = np.empty(np.shape(hi))
        flat, hi, lo = out.reshape(-1), np.ravel(hi), np.ravel(lo)
        for a in range(0, flat.size, _ESTIMATE_SLICE):
            b = slice(a, a + _ESTIMATE_SLICE)
            flat[b] = low(hi[b], lo[b])
        return out

    return estimate


def _zoom(l1, l2, lines, s_pos, s_neg, ladder, value):
    """Zoomed chord tables along frame lines, one row per candidate: row
    ``m`` is the line ``lines[m]`` of a matrix with singular values
    ``l1[m] >= l2[m]``, started at the chord from ``s_pos[m]`` to
    ``-s_neg[m]``, a chord of the offset ``ladder`` the start was scanned
    on.  ``value`` maps singular values ``(hi, lo)`` to the values the
    chords join.  Returns the lowest chord of each row's last table and
    its ends ``(low, s_pos, s_neg)``.

    Each of ``_ZOOM_LEVELS`` levels scores the chords from ``exp(u + h g)``
    to ``-exp(v + h g)``, with ``(u, v)`` the logs of the row's ends and
    ``g`` on ``_ZOOM_POINTS`` points of [-1, 1], in closed form
    (``_frame_lines``), moves the ends to the lowest chord (ties to the
    first in row-major order) and shrinks ``h`` to two grid cells.  ``h``
    starts at two steps of the ladder.  The grid holds its centre (``g =
    0``), so a row's value never rises.  Every step is elementwise, so a
    row's result does not depend on the other rows: the rows are worked
    on ordered by line, each line's rows one contiguous slice, and
    returned in the caller's order.
    """
    g = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    n, rows = len(g), np.arange(len(lines))
    order = np.argsort(lines, kind="stable")
    l1, l2 = l1[order], l2[order]
    line_ids, first = np.unique(lines[order], return_index=True)
    spans = list(zip(line_ids.tolist(), first.tolist(), first[1:].tolist() + [len(rows)]))
    h = 2.0 * math.log(ladder[1] / ladder[0])
    X = np.log(np.stack([s_pos[order], s_neg[order]], axis=-1))
    hl = np.empty((2, len(rows), 2 * n))
    for _ in range(_ZOOM_LEVELS):
        E = X[..., None] + h * g
        s = np.exp(E)
        c = np.concatenate([s[:, 0], -s[:, 1]], axis=-1)
        for d, a, b in spans:
            _frame_lines(l1[a:b], l2[a:b], c[a:b], (d,), hl[:, a:b, None, :])
        W = value(hl[0], hl[1])
        table = _chords(W[:, :n], W[:, n:], s[:, 0], s[:, 1]).reshape(len(rows), n * n)
        i, j = np.divmod(table.argmin(axis=1), n)
        X = np.stack([E[rows, 0, i], E[rows, 1, j]], axis=-1)
        h *= 4.0 / (n - 1)
    back = np.argsort(order)
    return table.min(axis=1)[back], s[rows, 0, i][back], s[rows, 1, j][back]


def _lower(new, old):
    """Whether ``new`` is below ``old`` by more than rounding noise, 1e-12
    relative, of two floats or elementwise; a finite value is below +inf
    and -inf below a finite value.  A split, or a deeper tree, that is not
    lower than what it would replace is not taken."""
    if isinstance(new, float) and isinstance(old, float):
        return new < old and (new == -math.inf or old - new > 1e-12 * max(1.0, abs(new)))
    # inf - inf is nan where new < old fails anyway.
    with np.errstate(invalid="ignore"):
        return (new < old) & (np.isneginf(new) | (old - new > 1e-12 * np.maximum(1.0, abs(new))))


def _best_splits(l1, l2, ladder, value, top_k, bound):
    """The one split search: the best split along the frame lines of each
    matrix of a stack with singular values ``l1 >= l2`` (shape ``(k,)``),
    of chords of ``value``, which maps singular values ``(hi, lo)`` to
    values.

    One scan (``_frame_chords``) on the offsets ``ladder`` times each
    row's ``max(1, |F|) = max(1, hypot(l1, l2))`` ranks each row's lines
    by their lowest chord, ties to the lower line.  Of the first
    ``top_k``, the lines whose chord is finite and not above ``bound`` by
    more than rounding noise (``_lower``) are zoomed (``_zoom``), all rows
    in one call, and each row keeps its first lowest zoomed chord.
    Returns ``(own, low, d, s_pos, s_neg)``, each of shape ``(k,)``: the
    row's own value and its best chord, along line ``d`` from ``s_pos`` to
    ``-s_neg``.  A row with no line zoomed has ``d = -1``, its scan's
    lowest chord and infinite ends.
    """
    s = np.maximum(1.0, np.hypot(l1, l2))[:, None] * ladder
    own, low, i, j = _frame_chords(l1, l2, s, value)
    least = low.min(axis=1)
    first = float(least.min())
    if not first < math.inf or _lower(bound, first):  # most two-level scans: nothing to zoom
        inf = np.full(len(low), np.inf)
        return own, least, np.full(len(low), -1), inf, inf
    rows = np.arange(len(low))
    rank = np.argsort(low, axis=1, kind="stable")[:, :top_k]
    top = low[rows[:, None], rank]
    kept = np.isfinite(top) & ~_lower(bound, top)
    row, col = np.nonzero(kept)
    # Each kept line's zoomed (low, s_pos, s_neg); +inf in the slots not kept.
    zoomed = np.full((3,) + top.shape, np.inf)
    d = rank[row, col]
    zoomed[:, row, col] = _zoom(l1[row], l2[row], d, s[row, i[row, d]], s[row, j[row, d]], ladder, value)
    best = np.argmin(zoomed[0], axis=1)
    low, s_pos, s_neg = zoomed[:, rows, best]
    hit = kept.any(axis=1)
    return own, np.where(hit, low, least), np.where(hit, rank[rows, best], -1), s_pos, s_neg


def _frame_split(Q, R, d, s_pos, s_neg):
    """The split ``(a, b, t, theta)`` of the chord from ``s_pos`` to
    ``-s_neg`` along the frame line ``d`` of ``F = Q D R``
    (``_frame_lines``): ``a = Q[:, d // 2]``, ``b = R[d % 2, :]``, ``t =
    s_pos + s_neg`` and weight ``theta = s_neg / t`` on ``F + (1 - theta)
    t a b^T``."""
    t = s_pos + s_neg
    return Q[:, d // 2], R[d % 2, :], t, s_neg / t


def _depth1(sd, params):
    """Best single split (or none) of one matrix or of each of a stack
    of shape ``(k, 3, 2)``, from its ``svd32`` ``sd``: one search
    (``_best_splits``) of chords of the plane energy, all six lines scanned
    on ``_SCAN_LADDER`` and the first ``_ZOOM_LINES`` of each matrix's
    ranking zoomed.

    Returns a list of ``(value, split_or_None)``, one per matrix, with
    ``split = (a, b, t, theta)`` (``_frame_split``).  A split that wins by
    rounding noise only is reported as no split.
    """
    l1, l2 = np.reshape([sd.lamM, sd.lamm], (2, -1))
    own, low, d, s_pos, s_neg = _best_splits(l1, l2, _SCAN_LADDER, _energies(params), _ZOOM_LINES, math.inf)
    Q, R = np.reshape(sd.Q, (-1, 3, 3)), np.reshape(sd.R, (-1, 2, 2))
    return [
        (v, _frame_split(Q[k], R[k], dk, s_pos[k], s_neg[k])) if dk >= 0 and _lower(v, w0) else (w0, None)
        for k, (w0, v, dk) in enumerate(zip(own.tolist(), low.tolist(), d.tolist()))
    ]


def _two_level(sd, params, bound):
    """Best two-level tree of the matrix whose ``svd32`` is ``sd``: one
    search (``_best_splits``) of its first split on ``_PAIR_LADDER`` with
    chords of the endpoint estimate (``_endpoint_estimate``), read from
    the target's singular values alone.  Only the top line is zoomed, and
    only when its chord is not above ``bound`` by more than rounding
    noise.  Returns ``(estimate, first_split)``, or ``(lowest_chord,
    None)`` when no zoom ran.
    """
    _, [est], [d], [s_pos], [s_neg] = _best_splits(
        np.array([sd.lamM]), np.array([sd.lamm]), _PAIR_LADDER, _endpoint_estimate(params), 1, bound
    )
    return float(est), None if d < 0 else _frame_split(sd.Q, sd.R, d, s_pos, s_neg)


def _split_atom(w, G, split, level):
    """The atoms of ``(w, G)`` after ``split`` and its record at ``level``;
    the atom itself and no record when ``split`` is None."""
    if split is None:
        return [(w, G)], []
    a, b, t, theta = split
    Gp, Gm = _split_endpoints(G, split)
    return [(w * theta, Gp), (w * (1.0 - theta), Gm)], [_split(level, a, b, t, theta)]


def _deepen(atoms, tree, level, params):
    """One level step of a witness: the depth-one pass the target gets
    (``_depth1``), over all ``atoms`` in one zoom.  Returns the atoms after the splits it finds
    and ``tree`` followed by their records at ``level``, as new lists."""
    subs = _depth1(svd32(np.stack([G for _, G in atoms])), params)
    steps = [_split_atom(w, G, sub, level) for (w, G), (_, sub) in zip(atoms, subs)]
    return [atom for step, _ in steps for atom in step], tree + [r for _, records in steps for r in records]


def _witness_pairing(atoms, params):
    # The weights are positive, so an infinite atom makes the sum infinite.
    W = _w2d(np.stack([G for _, G in atoms]), params)
    return sum(w * v for (w, _), v in zip(atoms, W.tolist()))


def relax_lamination(Ft, params, cfg=None):
    """Depth-limited lamination estimate of the relaxed energy.

    Takes the lowest chord through ``Ft`` along each searched rank-one
    direction (the six of the target's singular frame) as a candidate
    split, and polishes the best ones along their lines by zoomed chord
    tables; at depth two, scans two-level trees whose endpoints are scored
    by their own depth-one relaxation, polishes and deepens the best one
    unless its scanned estimate is above the best single split's value,
    and keeps a deeper tree only when its pairing is lower.  "Above" and
    "lower" mean by more than 1e-12 relative.  The value is the
    plane-energy pairing of the returned witness measure, an upper bound
    on the rank-one convex envelope by construction.

    Returns
    -------
    OracleResult
        ``gap = value - closed_form`` where ``closed_form`` is the
        closed-form relaxed energy at ``Ft``.

    Raises
    ------
    DomainError
        When ``|Ft|`` exceeds ``_NORM_MAX``, so that the search offsets
        would reach invariants above ``_INVARIANT_MAX``; or when no tree
        searched has a finite pairing, so there is no witness (the plane
        energy is +inf at a rank-deficient ``Ft``, and the search may
        find no split that leaves it).
    ValueError
        When ``Ft`` is not a finite 3x2 matrix.
    TypeError
        When ``cfg`` is neither None nor an ``OracleConfig``.
    """
    if cfg is None:
        cfg = OracleConfig()
    elif not isinstance(cfg, OracleConfig):
        raise TypeError(f"cfg must be an OracleConfig or None, got {type(cfg).__name__}")
    F = np.asarray(Ft, dtype=float)
    # The bound is checked before svd32 and psi, which would refuse the
    # invariants of a target far above it with a plain ValueError.  Its norm
    # can overflow; math.hypot scales, for the message.  Non-finite entries
    # are left to svd32's ValueError.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(F))
    if norm > _NORM_MAX and np.isfinite(F).all():
        raise DomainError(
            f"|F| = {math.hypot(*F.flat):.6g} is above {_NORM_MAX:.6g}, the largest norm whose "
            f"search offsets keep the invariants at most {_INVARIANT_MAX:g}"
        )
    sd = svd32(F)
    closed = psi(sd.lamM, sd.delta, params)

    [(value1, split1)] = _depth1(sd, params)
    atoms, tree = _split_atom(1.0, F, split1, 1)
    best_pairing = _witness_pairing(atoms, params)

    # A two-level tree can beat every single split (the first split may
    # pass through high-energy intermediates), so rank first splits by
    # estimated two-level value, not by their depth-one objective.  A
    # first split whose scan is above the best single split is not zoomed.
    if cfg.depth >= 2 and value1 > 1e-9 * params.mu:
        _, split = _two_level(sd, params, value1)
        if split is not None:
            deeper, deeper_tree = _deepen(*_split_atom(1.0, F, split, 1), 2, params)
            paired = _witness_pairing(deeper, params)
            if _lower(paired, best_pairing):
                best_pairing, atoms, tree = paired, deeper, deeper_tree
    if not best_pairing < math.inf:
        raise DomainError(
            f"no lamination witness with finite plane energy was found for "
            f"(lamM, delta) = ({sd.lamM}, {sd.delta})"
        )

    # Exploration depths beyond two: keep splitting witness atoms, all
    # atoms of a level in one step, while it pays.  Each step is the level
    # below the deepest of the kept tree.
    for _ in range(cfg.depth - 2):
        level = 1 + max((e["level"] for e in tree), default=0)
        deeper, deeper_tree = _deepen(atoms, tree, level, params)
        if len(deeper) == len(atoms):  # no atom split
            break
        paired = _witness_pairing(deeper, params)
        if not _lower(paired, best_pairing):
            break
        best_pairing, atoms, tree = paired, deeper, deeper_tree
    return OracleResult(
        value=best_pairing,
        best_measure=DiscreteYoungMeasure(atoms=tuple(atoms), tree=tuple(tree)),
        closed_form=float(closed),
        gap=best_pairing - float(closed),
    )


def relax_along_line(Ft, a, b, params):
    """One-dimensional convexification of the plane energy along a line.

    Samples ``s -> W(Ft + s a b^T)`` at ``_LINE_SAMPLES`` evenly spaced
    offsets on each side of 0 out to ``10 max(1, |Ft|)`` and returns the
    lower convex envelope of the samples at ``s = 0``: the least of
    ``W(Ft)`` and the lowest chord through 0 between samples on either
    side.  Infinite samples never win; the result is +inf only when every
    candidate is.  Raises ``ValueError`` unless ``Ft`` is a finite 3x2
    matrix and ``(a, b)`` a pair of unit 3- and 2-vectors, and
    ``DomainError`` (a ``ValueError``) when ``|Ft|`` exceeds
    ``_LINE_NORM_MAX``, so that the samples would reach invariants above
    ``_INVARIANT_MAX``.
    """
    F = np.asarray(Ft, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if F.shape != (3, 2) or a.shape != (3,) or b.shape != (2,):
        raise ValueError(
            f"need Ft of shape (3, 2), a of shape (3,) and b of shape (2,), "
            f"got {F.shape}, {a.shape} and {b.shape}"
        )
    if not np.all(np.isfinite(F)):
        raise ValueError("Ft must be finite")
    # Written so that a NaN norm fails the test.
    if not (abs(np.linalg.norm(a) - 1.0) <= 1e-12 and abs(np.linalg.norm(b) - 1.0) <= 1e-12):
        raise ValueError("line direction must be a unit rank-one pair")
    # A finite matrix's norm can overflow; math.hypot scales, for the message.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(F))
    if not norm <= _LINE_NORM_MAX:
        raise DomainError(
            f"|F| = {math.hypot(*F.flat):.6g} is above {_LINE_NORM_MAX:.6g}, the largest norm whose "
            f"line samples keep the invariants at most {_INVARIANT_MAX:g}"
        )
    span = _SPLIT_TOP * max(1.0, norm)
    s = span * np.arange(1, _LINE_SAMPLES + 1) / _LINE_SAMPLES
    W = _w2d(F + np.concatenate([s, -s])[:, None, None] * _dyads(a, b), params)
    chords = _chords(W[:_LINE_SAMPLES], W[_LINE_SAMPLES:], s, s)
    return float(np.min(chords, initial=_w2d(F, params)))
