"""Maximum-weight bipartite matching of streams to satellites.

Rectangular problems (S streams, L >= S satellites) are padded to square
with zero-weight dummy streams and solved once by the Hungarian algorithm in
its O(n^3) potential/augmenting-path form. Its optimal dual potentials give
the equality graph, whose perfect matchings are exactly the optimal
assignments (complementary slackness); the lexicographic tie-break walks
that graph by alternating cycles, so it needs no further solve. A
brute-force enumerator serves as the test oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InfeasibleError

_BRUTE_FORCE_LIMIT = 8


def _hungarian_min(cost: np.ndarray):
    """Minimum-cost perfect matching on a square matrix.

    Returns row -> column and the optimal dual potentials (u, v) of the rows
    and columns: cost[i, j] - u[i] - v[j] >= 0, with equality on the
    matching. Classic dual-potential shortest augmenting path; 1-based
    internal indexing with column 0 as the virtual root. The loops run on
    Python floats and lists (cost.tolist()): the same IEEE arithmetic as on
    numpy scalars, without their per-element indexing cost.
    """
    n = cost.shape[0]
    cost = cost.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)      # match[j] = row assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row, u_i0 = cost[i0 - 1], u[i0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    rows = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        rows[match[j] - 1] = j - 1
    return rows, np.array(u[1:]), np.array(v[1:])


def _check_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, float)
    if w.ndim != 2:
        raise ValueError("weights must be a 2-D stream-by-satellite matrix")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if w.shape[0] > w.shape[1]:
        raise InfeasibleError(
            f"cannot place {w.shape[0]} streams on {w.shape[1]} satellites")
    return w


def _rematch(tight, row_of, s, l):
    """Move row s of the perfect matching row_of (column -> row) onto column
    l along an alternating cycle of the bipartite graph `tight` that leaves
    rows 0..s-1 where they are; returns False, changing nothing, when no
    such cycle exists."""
    target = np.flatnonzero(row_of == s)[0]     # the column s frees
    seen = set(range(s + 1))
    path = []

    def reach(r):
        # row r must leave its column: find it another, ending at target
        seen.add(r)
        for c in np.flatnonzero(tight[r]):
            if c == target or (row_of[c] not in seen and reach(row_of[c])):
                path.append((r, c))
                return True
        return False

    if not reach(row_of[l]):
        return False
    for r, c in path:
        row_of[c] = r
    row_of[l] = s
    return True


def max_weight_assignment(weights) -> np.ndarray:
    """Injective stream -> satellite map maximizing the summed weight.

    Among optimal assignments, returns the lexicographically smallest
    mapping by stream index. An assignment counts as optimal when each pair
    it uses has a reduced cost of at most 1e-9 max(1, max |w|) under the
    optimal duals of the one Hungarian solve. Raises InfeasibleError when
    S > L.
    """
    w = _check_weights(weights)
    s_count, l_count = w.shape
    if s_count == 0:
        return np.empty(0, dtype=int)
    tol = 1e-9 * max(1.0, np.abs(w).max())
    padded = np.zeros((l_count, l_count))
    padded[:s_count] = w
    cost = padded.max() - padded
    cols, u, v = _hungarian_min(cost)
    tight = cost - u[:, None] - v[None, :] <= tol
    row_of = np.empty(l_count, dtype=int)
    row_of[cols] = np.arange(l_count)
    for s in range(s_count):
        # the smallest column s can take while streams 0..s-1 keep theirs;
        # its own column is tight, so the search always stops
        for l in np.flatnonzero(tight[s]):
            if row_of[l] == s or (row_of[l] > s
                                  and _rematch(tight, row_of, s, l)):
                break
    return np.argsort(row_of)[:s_count]


def brute_force_assignment(weights) -> np.ndarray:
    """Exhaustive-search oracle over all injections (S <= L <= 8 only)."""
    w = _check_weights(weights)
    s_count, l_count = w.shape
    if l_count > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to {_BRUTE_FORCE_LIMIT} satellites, got {l_count}")
    best_val = -np.inf
    best = None
    for perm in itertools.permutations(range(l_count), s_count):
        val = sum(w[s, perm[s]] for s in range(s_count))
        if val > best_val:
            best_val = val
            best = perm
    return np.asarray(best, dtype=int)

