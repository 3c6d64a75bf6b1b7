"""Adaptive panel quadrature: a Gauss-Kronrod 15(7) rule with greedy
bisection of the worst panel. It knows nothing of widths; the divergences
and the width tails hand it an integrand and its seed panels. Panel sums are
accumulated with math.fsum in position order, so results do not depend on
the refinement schedule.

adaptive() returns exactly what the one-panel greedy returns, panel set
included, but calls the integrand on up to _BATCH panels at once: gk15 takes
arrays of panel ends, and panels that the greedy must split before it can
converge are split together. Its stop test keeps the error sum as a running
total with a rounding bound and falls back to math.fsum only near tol, so a
refinement of n panels costs O(n log n), not the O(n^2) of re-summing after
each split.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError

# Kronrod-15 abscissae on [-1, 1]; Gauss-7 points are the odd indices.
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_W_GAUSS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

# |K15 - G7| underestimates the true error on long homogeneous tails; panel
# errors are inflated by this factor before being trusted.
_ERR_SAFETY = 4.0

DEFAULT_MAX_PANELS = 20000

# Panels per call of the integrand in adaptive(). Up to about 150 points a
# call costs mostly its fixed overhead, so 16 panels (240 points) take most
# of what grouping gains.
_BATCH = 16

_EPS = 2.0**-52
# rounding below the normal range is absolute, up to 2^-1075 per operation
_TINY = 2.0**-1000


# The dot of w with each row of y, each by the 1-D kernel of `w @ row`, so a
# panel's sums do not depend on its batch; a matrix product rounds otherwise.
# np.vecdot (numpy >= 2.0) does this in one call; older numpy loops.
def _row_dots_by_row(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.array([w @ row for row in y])


_row_dots = getattr(np, "vecdot", _row_dots_by_row)


class QuadResult(NamedTuple):
    value: float
    error: float
    converged: bool
    panels: int


def gk15(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod-15 panels on [a[i], b[i]]: (integrals, error estimates).

    One call of f on all their nodes; each panel's entries are bit-identical
    to a call on that panel alone.
    """
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(-1, _NODES.size)
    ik = half * _row_dots(y, _W_KRONROD)
    err = _ERR_SAFETY * np.abs(ik - half * _row_dots(y[:, 1::2], _W_GAUSS))
    return ik, err


def _check_tol(tol: float) -> None:
    if not tol > 0.0:  # NaN fails too
        raise InvalidParameterError(f"tol must be positive, got {tol!r}")


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], lo: list[float],
                 hi: list[float]) -> list[tuple[float, float, float, float]]:
    """(a, b, value, error) of the panels [lo[i], hi[i]], _BATCH panels per call of f."""
    out = []
    for i in range(0, len(lo), _BATCH):
        v, e = gk15(f, np.array(lo[i:i + _BATCH]), np.array(hi[i:i + _BATCH]))
        out.extend(zip(lo[i:i + _BATCH], hi[i:i + _BATCH], v.tolist(), e.tolist()))
    return out


def adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    panels: Sequence[tuple[float, float]],
    tol: float,
    max_panels: int = DEFAULT_MAX_PANELS,
) -> QuadResult:
    """Refine the worst panel until the summed error estimate is below tol.

    The result, panel set included, is that of the one-panel greedy: pop the
    panel of largest error (the first pushed among ties), bisect it, and stop
    once the error sum is at most tol, max_panels panels are held, or the
    popped panel is at float resolution. Only the calls of f are grouped,
    _BATCH panels per call: the seeds, and each split of a panel that was not
    split ahead, which takes along every held panel whose own error exceeds
    tol. Errors are >= 0, so the sum cannot fall to tol while such a panel
    is held, and the greedy splits each of them before it converges. A
    converged result has therefore seen f at exactly 15 (2 panels - seeds)
    points. A stop at max_panels or at float resolution can leave panels
    split ahead in vain; no more are split ahead than the panel budget has
    splits left. A popped error <= tol means no held error exceeds tol, and
    that panel is split alone.

    The error sum is a running total with a bound on its rounding. math.fsum
    over the held panels runs only when tol lies within that bound, so each
    stop decision is the one an fsum after every split would make.
    """
    _check_tol(tol)
    if not panels:
        return QuadResult(0.0, 0.0, True, 0)
    ends = np.array(panels, dtype=float)
    if not np.isfinite(ends).all():
        raise InvalidParameterError("panel ends must be finite")
    store: dict[int, tuple[float, float, float, float]] = {}
    heap: list[tuple[float, int]] = []
    ahead: dict[int, list[tuple[float, float, float, float]]] = {}  # children split ahead
    fresh: list[int] = []  # held panels with error > tol and no children yet

    def push(uid: int, panel: tuple[float, float, float, float]) -> None:
        store[uid] = panel
        heapq.heappush(heap, (-panel[3], uid))
        if panel[3] > tol:
            fresh.append(uid)

    for uid, panel in enumerate(_eval_panels(f, ends[:, 0].tolist(), ends[:, 1].tolist())):
        push(uid, panel)
    uid = len(store)
    # drift bounds |total - exact error sum|, and fsum rounds the exact sum
    # once more; outside twice that band total and fsum fall on the same side
    # of tol. Inside it, or when total is inf or NaN, fsum decides.
    total = math.fsum(r[3] for r in store.values())
    drift = _EPS * total
    while len(store) < max_panels:
        if not abs(total - tol) > 2.0 * (drift + _EPS * abs(total)) + _TINY:
            total = math.fsum(r[3] for r in store.values())
            drift = _EPS * total
        if not total > tol:
            break
        _, k = heapq.heappop(heap)
        a, b, v, e = store.pop(k)
        if k not in ahead:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:  # interval at float resolution
                store[k] = (a, b, v, e)
                break
            # split ahead no more panels than the budget can still split
            room = max_panels - len(store) - 2 - len(ahead)
            others = [j for j in fresh if j != k]
            if len(others) > room:
                others = heapq.nsmallest(max(room, 0), others, key=lambda j: (-store[j][3], j))
            split, lo, hi = [], [], []
            for j, (a2, b2) in [(k, (a, b))] + [(j, store[j][:2]) for j in others]:
                m = 0.5 * (a2 + b2)
                if a2 < m < b2:
                    split.append(j)
                    lo += (a2, m)
                    hi += (m, b2)
            done = _eval_panels(f, lo, hi)
            for i, j in enumerate(split):
                ahead[j] = done[2 * i:2 * i + 2]
            fresh.clear()
        left, right = ahead.pop(k)
        push(uid, left)
        push(uid + 1, right)
        uid += 2
        total += (left[3] + right[3]) - e
        drift += _EPS * (left[3] + right[3] + e + abs(total))
    ordered = sorted(store.values())
    value = math.fsum(r[2] for r in ordered)
    error = math.fsum(r[3] for r in ordered)
    return QuadResult(value, error, error <= tol, len(store))


def seed_panels(
    lo: float, hi: float, cuts: Sequence[float] = (), max_len: float = 2.0
) -> list[tuple[float, float]]:
    """Initial subdivision of [lo, hi] split at cuts, no piece longer than max_len."""
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    panels: list[tuple[float, float]] = []
    for a, b in zip(pts[:-1], pts[1:]):
        k = max(1, math.ceil((b - a) / max_len))
        edges = np.linspace(a, b, k + 1)
        panels.extend(zip(edges[:-1], edges[1:]))
    return panels
