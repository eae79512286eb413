"""Exact 1-D k-means by dynamic programming (Section VI-A, Formula (1)).

Optimally partitioning sorted 1-D points into K contiguous groups admits a
polynomial DP::

    F(n, k) = min_i  F(i-1, k-1) + Cost(i, n)
    H(n, k) = argmin of the same expression

with ``Cost(l, r)`` the within-cluster sum of squared deviations, computable
in O(1) from prefix sums.  The paper adopts the O(KN) algorithm of Gronlund
et al. [55]; we implement the divide-and-conquer variant that exploits the
monotonicity of ``H(n, k)`` in ``n``.  Each layer is O(N log N) work, and
all subproblems of one recursion depth are solved as one batch of array
operations, so a layer takes O(log N) numpy steps (about 11 at the
level detector's 1536-point sample cap) and the whole fit O(K log N).
SMAWK would cut the work to O(KN), but after batching the fit is a minor
share of compress time (about 0.07 s of a 0.6 s one-shot compress of the
15.9 MB pt trajectory, 3 axes), so it is not worth its extra code yet.

Indexing conventions: data is sorted ascending; ``F``/``H`` use 1-based
prefix lengths as in the paper, while cluster boundaries are reported as
0-based start indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class KMeans1DResult:
    """Optimal clustering of sorted 1-D data into ``k`` groups.

    Attributes
    ----------
    cost:
        Total within-cluster sum of squared deviations.
    boundaries:
        0-based start index of each cluster (length ``k``, first entry 0),
        over the *sorted* data.
    centroids:
        Mean of each cluster, ascending.
    """

    cost: float
    boundaries: np.ndarray
    centroids: np.ndarray

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centroids.size)


class _PrefixCost:
    """O(1) ``Cost(l, r)`` queries via prefix sums over sorted data."""

    def __init__(self, sorted_data: np.ndarray) -> None:
        d = np.asarray(sorted_data, dtype=np.float64)
        self.n = d.size
        self.prefix = np.concatenate(([0.0], np.cumsum(d)))
        self.prefix_sq = np.concatenate(([0.0], np.cumsum(d * d)))

    def cost(self, left: np.ndarray, right: int | np.ndarray) -> np.ndarray:
        """SSE of ``data[left : right+1]`` as one cluster (elementwise).

        Empty ranges (``left > right``) cost 0 — they arise transiently in
        the DP when a candidate split empties a cluster.
        """
        left = np.asarray(left)
        cnt = np.maximum(right - left + 1, 1)
        s = self.prefix[right + 1] - self.prefix[left]
        sq = self.prefix_sq[right + 1] - self.prefix_sq[left]
        return np.maximum(sq - s * s / cnt, 0.0)

    def mean(self, left: int, right: int) -> float:
        """Mean of ``data[left : right+1]`` (0.0 for an empty range)."""
        count = right - left + 1
        if count <= 0:
            return 0.0
        return (self.prefix[right + 1] - self.prefix[left]) / count


def _single_cluster_costs(pc: _PrefixCost) -> np.ndarray:
    """``F(n, 1)`` for every prefix length ``n = 1..N``."""
    ends = np.arange(pc.n)
    cnt = ends + 1
    s = pc.prefix[ends + 1]
    sq = pc.prefix_sq[ends + 1]
    return np.maximum(sq - s * s / cnt, 0.0)


def _dp_row(pc: _PrefixCost, f_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One DP layer: ``F(., k)`` and ``H(., k)`` from ``F(., k-1)``.

    Divide and conquer over the output prefix length; the optimal split
    ``H(n, k)`` is monotone in ``n``, so each subproblem ``(lo, hi, opt_lo,
    opt_hi)`` only scans the candidate window ``opt_lo..min(mid, opt_hi)``.
    Subproblems of one recursion depth are independent, so each depth is
    solved as one batch: the windows are concatenated, scored elementwise
    and reduced with a segmented min.  Ties go to the first (smallest)
    split, as ``np.argmin`` would pick.
    """
    n = pc.n
    f_cur = np.full(n + 1, np.inf)
    h_cur = np.zeros(n + 1, dtype=np.int64)
    lo = np.array([1])
    hi = np.array([n])
    opt_lo = np.array([1])
    opt_hi = np.array([n])
    while lo.size:
        mid = (lo + hi) // 2
        # opt_lo <= lo <= mid and opt_lo <= opt_hi, so every window is
        # non-empty, as reduceat needs.
        width = np.minimum(mid, opt_hi) - opt_lo + 1
        starts = np.cumsum(width) - width
        seg = np.repeat(np.arange(mid.size), width)
        pos = np.arange(seg.size)
        cand = pos - starts[seg] + opt_lo[seg]
        totals = f_prev[cand - 1] + pc.cost(cand - 1, mid[seg] - 1)
        seg_min = np.minimum.reduceat(totals, starts)
        # A NaN total wins, as it does under argmin (min propagates NaN).
        hit = (totals == seg_min[seg]) | np.isnan(totals)
        pick = np.minimum.reduceat(np.where(hit, pos, seg.size), starts)
        best = cand[pick]
        f_cur[mid] = totals[pick]
        h_cur[mid] = best
        left = lo < mid
        right = mid < hi
        lo = np.concatenate((lo[left], mid[right] + 1))
        hi = np.concatenate((mid[left] - 1, hi[right]))
        opt_lo = np.concatenate((opt_lo[left], best[right]))
        opt_hi = np.concatenate((best[left], opt_hi[right]))
    return f_cur, h_cur


def _recover_boundaries(h_rows: list[np.ndarray], n: int, k: int) -> np.ndarray:
    """Walk ``H`` backwards to 0-based cluster start indices.

    ``h_rows[j]`` is the ``H(., j+2)`` row; the split value is the 1-based
    index of the first point of the last cluster.
    """
    starts = np.empty(k, dtype=np.int64)
    end = n  # prefix length still to be partitioned
    for j in range(k - 1, 0, -1):
        split = int(h_rows[j - 1][end])
        starts[j] = split - 1
        end = split - 1
    starts[0] = 0
    return starts


def _result_from_boundaries(
    pc: _PrefixCost, starts: np.ndarray
) -> KMeans1DResult:
    k = starts.size
    ends = np.concatenate((starts[1:], [pc.n]))
    centroids = np.array(
        [pc.mean(int(starts[j]), int(ends[j]) - 1) for j in range(k)]
    )
    cost = float(
        sum(
            pc.cost(np.array([int(starts[j])]), int(ends[j]) - 1)[0]
            for j in range(k)
        )
    )
    return KMeans1DResult(cost=cost, boundaries=starts, centroids=centroids)


def kmeans_1d(data: np.ndarray, k: int) -> KMeans1DResult:
    """Optimal k-means clustering of 1-D data into exactly ``k`` groups.

    ``data`` need not be sorted; it is sorted internally.  Raises
    ``ValueError`` when ``k`` exceeds the number of points.
    """
    d = np.sort(np.asarray(data, dtype=np.float64).ravel())
    n = d.size
    if n == 0:
        raise ValueError("cannot cluster an empty array")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    pc = _PrefixCost(d)
    f = np.empty(n + 1)
    f[0] = 0.0
    f[1:] = _single_cluster_costs(pc)
    h_rows: list[np.ndarray] = []
    for _ in range(1, k):
        f, h = _dp_row(pc, f)
        h_rows.append(h)
    starts = _recover_boundaries(h_rows, n, k)
    result = _result_from_boundaries(pc, starts)
    return KMeans1DResult(
        cost=float(f[n]), boundaries=result.boundaries, centroids=result.centroids
    )


def kmeans_1d_cost_profile(
    data: np.ndarray,
    k_max: int,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Costs ``F(N, 1..k)`` computed incrementally, with early stopping.

    The DP naturally produces ``F(N, 1), F(N, 2), ...`` in order — the paper
    exploits exactly this to stop at the ``G(k)`` elbow.  After each layer
    the optional ``stop(costs_so_far)`` callback may return True to halt.

    Returns ``(costs, h_rows, sorted_data)``; pass the latter two to
    :func:`clustering_for_k` to materialize the clustering for any computed
    ``k`` without redoing the DP.
    """
    d = np.sort(np.asarray(data, dtype=np.float64).ravel())
    n = d.size
    if n == 0:
        raise ValueError("cannot cluster an empty array")
    k_max = min(k_max, n)
    pc = _PrefixCost(d)
    f = np.empty(n + 1)
    f[0] = 0.0
    f[1:] = _single_cluster_costs(pc)
    costs = [float(f[n])]
    h_rows: list[np.ndarray] = []
    for _ in range(2, k_max + 1):
        f, h = _dp_row(pc, f)
        h_rows.append(h)
        costs.append(float(f[n]))
        if stop is not None and stop(np.asarray(costs)):
            break
    return np.asarray(costs), h_rows, d


def clustering_for_k(
    sorted_data: np.ndarray, h_rows: list[np.ndarray], k: int
) -> KMeans1DResult:
    """Materialize the optimal ``k``-clustering from stored ``H`` rows."""
    n = sorted_data.size
    if k == 1:
        pc = _PrefixCost(sorted_data)
        return _result_from_boundaries(pc, np.zeros(1, dtype=np.int64))
    if k - 1 > len(h_rows):
        raise ValueError(f"only {len(h_rows) + 1} layers computed, need {k}")
    pc = _PrefixCost(sorted_data)
    starts = _recover_boundaries(h_rows, n, k)
    return _result_from_boundaries(pc, starts)
