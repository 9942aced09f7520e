"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (subset enumeration, dense linear
algebra, direct alternating sums) and shares no code with the package paths
it checks.
"""

import itertools
import math

import numpy as np


def clique_counts(vertices, edge_pairs, n):
    """Count k-cliques for k = 1..n+1 by enumerating all vertex subsets."""
    edges = {frozenset(e) for e in edge_pairs}
    counts = []
    vs = list(vertices)
    for k in range(1, n + 2):
        c = 0
        for sub in itertools.combinations(vs, k):
            if all(frozenset(p) in edges for p in itertools.combinations(sub, 2)):
                c += 1
        counts.append(c)
    return tuple(counts)


def clique_tables(vertices, edge_pairs, n):
    """Tables of the k-cliques for k = 1..n+1, each a sorted list of sorted
    vertex tuples, by enumerating all vertex subsets."""
    edges = {frozenset(e) for e in edge_pairs}
    return [sorted(sub for sub in itertools.combinations(sorted(vertices), k)
                   if all(frozenset(p) in edges for p in itertools.combinations(sub, 2)))
            for k in range(1, n + 2)]


def permutation_sign(t):
    """Parity via explicit selection-sort swap counting."""
    arr = list(t)
    target = sorted(arr)
    swaps = 0
    for i in range(len(arr)):
        if arr[i] != target[i]:
            j = arr.index(target[i], i + 1)
            arr[i], arr[j] = arr[j], arr[i]
            swaps += 1
    return -1 if swaps % 2 else 1


def graph_laplacian(vertices, edge_weights, m0=None):
    """Classical weighted graph Laplacian (1/m0) (deg - adjacency)."""
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    m0 = m0 or {v: 1.0 for v in vs}
    L = np.zeros((len(vs), len(vs)))
    for (u, v), w in edge_weights.items():
        L[pos[u], pos[u]] += w / m0[u]
        L[pos[v], pos[v]] += w / m0[v]
        L[pos[u], pos[v]] -= w / m0[u]
        L[pos[v], pos[u]] -= w / m0[v]
    return L


def boundary_matrix(lower, upper):
    """Signed integer boundary matrix from explicit sorted-tuple tables."""
    pos = {s: i for i, s in enumerate(lower)}
    B = np.zeros((len(lower), len(upper)))
    for j, s in enumerate(upper):
        for l in range(len(s)):
            face = s[:l] + s[l + 1:]
            B[pos[face], j] = (-1) ** l
    return B


def betti_by_rank(tables):
    """Betti numbers from boundary-matrix ranks over the reals."""
    n = len(tables) - 1
    ranks = [0]
    for k in range(1, n + 1):
        if tables[k]:
            ranks.append(np.linalg.matrix_rank(boundary_matrix(tables[k - 1], tables[k])))
        else:
            ranks.append(0)
    ranks.append(0)
    return [len(tables[k]) - ranks[k] - ranks[k + 1] for k in range(n + 1)]


def coboundary_value(f_map, simplex):
    """Direct alternating sum; f_map holds values on sorted tuples."""
    total = 0.0
    for l in range(len(simplex)):
        face = simplex[:l] + simplex[l + 1:]
        total += ((-1) ** l) * f_map.get(face, 0.0)
    return total


def cutoff_energy_sup(tables, weights, chi, degree):
    """Sup over (degree-1)-simplices s of the cut-off energy
    (1/m(s)) * sum over cofaces s+{x} of m(s+{x}) * |chi(x) - mean chi(s)|^2,
    with the witness the lexicographically smallest maximizer.

    Cofaces are found by vertex-set inclusion over the sorted tables and their
    terms added in table order; the mean is the exactly summed vertex values
    divided by the vertex count.  Returns (0.0, None) when every energy is 0.
    """
    best, witness = 0.0, None
    for j, s in enumerate(tables[degree - 1]):
        bar = math.fsum(chi.get(v, 0.0) for v in s) / len(s)
        total = 0.0
        for t, up in enumerate(tables[degree]):
            if set(s) < set(up):
                (x,) = set(up) - set(s)
                diff = chi.get(x, 0.0) - bar
                total += weights[degree][t] * diff * diff
        value = total / weights[degree - 1][j]
        if value > best:
            best, witness = value, s
    return best, witness


def verify_face_closure(cx):
    """Every face of a stored simplex is stored."""
    for i in range(1, cx.max_degree + 1):
        lower = set(cx.simplices[i - 1])
        for s in cx.simplices[i]:
            for face in itertools.combinations(s, i):
                if face not in lower:
                    raise AssertionError(f"missing face {face!r} of {s!r}")


def verify_clique_soundness(cx):
    """Every vertex pair of every stored simplex is an edge of positive weight."""
    m1 = dict(zip(cx.simplices[1], cx.weights[1].tolist()))
    for i in range(1, cx.max_degree + 1):
        for s in cx.simplices[i]:
            for e in itertools.combinations(s, 2):
                if not m1.get(e, 0.0) > 0:
                    raise AssertionError(f"simplex {s!r} has non-edge {e!r}")


def bfs_distances(tables, roots):
    """{vertex: distance to roots} by breadth-first search along the edges of
    ``tables[1]``; unreachable vertices absent."""
    neighbours = {v: [] for (v,) in tables[0]}
    for u, v in tables[1]:
        neighbours[u].append(v)
        neighbours[v].append(u)
    dist = {r: 0 for r in roots}
    queue = list(dist)
    for v in queue:
        for w in neighbours[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def cofaces(tables, degree):
    """Per degree-``degree`` simplex s, the ``(x, t)`` pairs with
    ``tables[degree+1][t]`` the vertex set of s plus x, in table order.

    Each coface is found as the superset of its ``degree+2`` subsets of one
    vertex fewer.
    """
    out = [[] for _ in tables[degree]]
    if degree + 1 >= len(tables):
        return out
    pos = {s: j for j, s in enumerate(tables[degree])}
    for t, up in enumerate(tables[degree + 1]):
        for x in up:
            out[pos[tuple(v for v in up if v != x)]].append((x, t))
    return out


def growth_sups(tables, layer_of, degree):
    """{k: (sup, witness)} over degree-``degree`` simplices with minimum vertex
    layer k of the count of cofaces whose added vertex lies in layer k+1; the
    witness is the first maximizer in table order.  A vertex missing from
    ``layer_of`` has no layer: a simplex with one belongs to no layer, and an
    extension by one is not counted."""
    out = {}
    for s, ext in zip(tables[degree], cofaces(tables, degree)):
        if any(v not in layer_of for v in s):
            continue
        k = min(layer_of[v] for v in s)
        fwd = sum(1 for x, _ in ext if layer_of.get(x) == k + 1)
        if k not in out or fwd > out[k][0]:
            out[k] = (fwd, s)
    return out


def decomposition_report(tables, layer_of):
    """(ok, violations, jump histogram, uncovered) of the ``{vertex: layer}``
    map ``layer_of``: the vertices of ``tables[0]`` missing from it, in table
    order; the edges of ``tables[1]`` between layered vertices whose layers
    differ by more than one, in table order; and ``{jump: edge count}`` over
    those edges, sorted by jump.  ``ok`` when both lists are empty."""
    uncovered = [v for (v,) in tables[0] if v not in layer_of]
    violations, hist = [], {}
    for u, v in (tables[1] if len(tables) > 1 else []):
        if u in layer_of and v in layer_of:
            jump = abs(layer_of[u] - layer_of[v])
            hist[jump] = hist.get(jump, 0) + 1
            if jump > 1:
                violations.append((u, v))
    return not uncovered and not violations, violations, dict(sorted(hist.items())), uncovered
