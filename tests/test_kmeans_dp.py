"""The batched k-means DP row against the scalar divide-and-conquer.

``kmeans1d._dp_row`` solves every subproblem of one recursion depth in a
single batch of array operations.  The reference below is the scalar
divide and conquer it replaced: one ``argmin`` per output prefix length.
Both must yield bit-identical ``F``/``H`` rows (ties to the smallest
split), and therefore identical level fits and archive bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import kmeans1d
from repro.cluster.level_detect import detect_levels
from repro.datasets import load_dataset


def reference_dp_row(pc, f_prev):
    """Scalar D&C layer: ``F(., k)``, ``H(., k)`` from ``F(., k-1)``."""
    n = pc.n
    f_cur = np.full(n + 1, np.inf)
    h_cur = np.zeros(n + 1, dtype=np.int64)
    stack = [(1, n, 1, n)]
    while stack:
        lo, hi, opt_lo, opt_hi = stack.pop()
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        cand = np.arange(opt_lo, min(mid, opt_hi) + 1)
        totals = f_prev[cand - 1] + pc.cost(cand - 1, mid - 1)
        pick = int(np.argmin(totals))
        f_cur[mid] = float(totals[pick])
        best = int(cand[pick])
        h_cur[mid] = best
        stack.append((lo, mid - 1, opt_lo, best))
        stack.append((mid + 1, hi, best, opt_hi))
    return f_cur, h_cur


def _inputs():
    """Sorted inputs across sizes 1..400: ties, repeats, near-duplicates."""
    rng = np.random.default_rng(2022)
    cases = [np.zeros(1), np.arange(2.0), np.full(7, 3.5)]
    for n in rng.integers(1, 401, 36):
        n = int(n)
        cases.append(rng.integers(0, 4, n).astype(np.float64))
        cases.append(np.repeat(rng.normal(0, 1, n // 5 + 1), 5)[:n])
        near = rng.integers(0, 6, n) * 1.0
        cases.append(near + rng.integers(0, 3, n) * np.spacing(8.0))
        cases.append(rng.normal(0, 1, n))
    cases.append(np.repeat([0.0, 1.0, 2.0], 133) + np.linspace(0, 1e-12, 399))
    # Squares near the float64 limit overflow: some totals become NaN,
    # which argmin (and so the batch) must pick first.
    huge = (rng.normal(0, 1, 30) + 1) * 3e153
    cases.append(np.concatenate([rng.normal(0, 1, 50), huge]))
    return [np.sort(c) for c in cases]


@pytest.mark.parametrize("data", _inputs(), ids=lambda d: f"n{d.size}")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_rows_match_scalar_reference(data):
    pc = kmeans1d._PrefixCost(data)
    f = np.empty(pc.n + 1)
    f[0] = 0.0
    f[1:] = kmeans1d._single_cluster_costs(pc)
    f_ref = f.copy()
    for _ in range(min(6, pc.n)):
        f, h = kmeans1d._dp_row(pc, f)
        f_ref, h_ref = reference_dp_row(pc, f_ref)
        assert f.tobytes() == f_ref.tobytes()
        assert np.array_equal(h, h_ref)


@pytest.mark.parametrize("name", ["pt", "copper-b", "helium-b", "lj"])
def test_level_fits_match_scalar_reference(name, monkeypatch):
    snapshot = load_dataset(name, snapshots=1).positions[0]
    fits = [detect_levels(snapshot[:, axis]) for axis in range(3)]
    monkeypatch.setattr(kmeans1d, "_dp_row", reference_dp_row)
    for axis, fit in enumerate(fits):
        want = detect_levels(snapshot[:, axis])
        assert fit.k == want.k
        assert fit.lam == want.lam
        assert fit.mu == want.mu
        assert fit.residual == want.residual
        assert fit.centroids.tobytes() == want.centroids.tobytes()
