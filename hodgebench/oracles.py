"""Reference computations the benchmark checks hodgelab's outputs against.

Nothing here imports hodgelab: graphs, breadth-first distances, simplex
tables, incidence signs and Laplacian blocks are rebuilt from the
definitions, so a fault in a shared helper of the program cannot hide itself.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# blocks up to this size are solved densely by the reference eigensolve
DENSE_LIMIT = 1500


def bfs(adjacency: dict, roots) -> dict:
    """Graph distance from a root set, by a plain queue."""
    dist = {r: 0 for r in roots}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def adjacency_of(vertices, edges) -> dict:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# --- Freudenthal lattice patch ---------------------------------------------

def freudenthal_patch(radius: int):
    """Vertices, edges and triangles of the 2-d Freudenthal patch {-R..R}^2.

    Triangles are listed from the geometry: each unit square with lower-left
    corner (i, j) is cut along its (i,j)-(i+1,j+1) diagonal.
    """
    span = range(-radius, radius + 1)
    vertices = [(i, j) for i in span for j in span]
    edges, triangles = [], []
    for i in span:
        for j in span:
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                if i + di <= radius and j + dj <= radius:
                    edges.append(((i, j), (i + di, j + dj)))
            if i < radius and j < radius:
                triangles.append(((i, j), (i + 1, j), (i + 1, j + 1)))
                triangles.append(((i, j), (i, j + 1), (i + 1, j + 1)))
    return vertices, edges, triangles


def unit_ramp_energy_sups(radius: int, root, k: int) -> dict:
    """Sup of the width-1 linear-ramp cut-off energy at degrees 1 and 2.

    With unit weights and width 1 the cut-off is the indicator of the ball
    of radius k, and E_i(chi, s) = sum over cofaces s+{x} of
    |chi(x) - mean(chi on s)|^2.
    """
    vertices, edges, triangles = freudenthal_patch(radius)
    adj = adjacency_of(vertices, edges)
    dist = bfs(adj, [root])
    chi = {v: 1.0 if d <= k else 0.0 for v, d in dist.items()}
    e1 = max(sum((chi[x] - chi[v]) ** 2 for x in adj[v]) for v in vertices)
    per_edge: dict = {}
    for tri in triangles:
        for a in range(3):
            x = tri[a]
            u, v = sorted(tri[:a] + tri[a + 1:])
            mean = (chi[u] + chi[v]) / 2.0
            per_edge[(u, v)] = per_edge.get((u, v), 0.0) + (chi[x] - mean) ** 2
    e2 = max(per_edge.values(), default=0.0)
    return {1: e1, 2: e2}


# --- rooted offspring trees --------------------------------------------------

def offspring_rule(spec: str):
    """Offspring count per depth for the two rules the benchmark uses."""
    if spec == "n^2":
        return lambda n: n * n
    if spec == "2":
        return lambda n: 2
    raise ValueError(f"no reference rule for {spec!r}")


def offspring_tables(spec: str, depth: int, tet_parity: int = 0) -> list:
    """Sorted simplex tables of the offspring-tree family, from its rule.

    Each vertex at depth l has off(l) children (the root keeps two when
    off(0) = 0); consecutive children pair into sibling triangles, and at
    depths of the given parity the tetrahedron (v, v0, v1, v00) is closed by
    the edges v-v00 and v1-v00.  Cliques are listed by common neighbours.
    """
    rule = offspring_rule(spec)
    off = lambda n: 2 if n == 0 and rule(0) == 0 else rule(n)
    layers = [[()]]
    for level in range(depth):
        nxt = [v + (c,) for v in layers[level] for c in range(off(level))]
        if not nxt:
            break
        layers.append(nxt)
    top = len(layers) - 1
    edges = set()
    for level, layer in enumerate(layers[:-1]):
        k = off(level)
        for v in layer:
            for c in range(k):
                edges.add((v, v + (c,)))
            for a in range(0, k - 1, 2):
                edges.add((v + (a,), v + (a + 1,)))
            if level % 2 == tet_parity % 2 and level + 2 <= top and k >= 2 and off(level + 1) >= 1:
                edges.add((v, v + (0, 0)))
                edges.add((v + (1,), v + (0, 0)))
    vertices = [v for layer in layers for v in layer]
    return clique_tables(vertices, edges, 3)


def clique_tables(vertices, edges, max_degree: int) -> list:
    """Per-degree sorted tables of all cliques with up to max_degree+1 vertices."""
    adj = adjacency_of(vertices, edges)
    level = sorted(tuple(sorted(e)) for e in edges)
    tables = [sorted((v,) for v in vertices), level]
    for _ in range(2, max_degree + 1):
        nxt = []
        for s in level:
            common = set.intersection(*(adj[v] for v in s))
            nxt.extend(s + (x,) for x in common if x > s[-1])
        level = sorted(nxt)
        tables.append(level)
    return tables


# --- operators ---------------------------------------------------------------

def incidence(lower, upper) -> sp.csr_matrix:
    """Coboundary d: rows index ``upper``, columns ``lower``; omitting
    position l of a sorted simplex carries the sign (-1)^l."""
    pos = {s: i for i, s in enumerate(lower)}
    rows, cols, vals = [], [], []
    for r, s in enumerate(upper):
        for l in range(len(s)):
            rows.append(r)
            cols.append(pos[s[:l] + s[l + 1:]])
            vals.append(-1.0 if l % 2 else 1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(upper), len(lower)))


def laplacian_block(tables, weights, degree: int) -> sp.csr_matrix:
    """L_i = delta d + d delta with delta = M_{i-1}^{-1} d^T M_i."""
    n = len(tables) - 1
    size = len(tables[degree])
    L = sp.csr_matrix((size, size))
    M = [sp.diags(np.asarray(w, dtype=float)) for w in weights]
    Minv = [sp.diags(1.0 / np.asarray(w, dtype=float)) for w in weights]
    if degree < n:
        d = incidence(tables[degree], tables[degree + 1])
        L = L + Minv[degree] @ d.T @ M[degree + 1] @ d
    if degree > 0:
        d = incidence(tables[degree - 1], tables[degree])
        L = L + d @ Minv[degree - 1] @ d.T @ M[degree]
    return L.tocsr()


def symmetrized_block(tables, weights, degree: int) -> sp.csr_matrix:
    """M^{1/2} L M^{-1/2}, symmetric with the spectrum of L."""
    L = laplacian_block(tables, weights, degree)
    root = np.sqrt(np.asarray(weights[degree], dtype=float))
    return (sp.diags(root) @ L @ sp.diags(1.0 / root)).tocsr()


def smallest_eigenvalues(A: sp.spmatrix, how_many: int) -> list:
    """Smallest eigenvalues of a symmetric PSD matrix, ascending."""
    dim = A.shape[0]
    if dim == 0:
        return []
    k = min(how_many, dim)
    if dim <= DENSE_LIMIT or k >= dim - 1:
        return list(np.linalg.eigvalsh(A.toarray())[:k])
    vals = spla.eigsh(A.tocsc(), k=k, sigma=-0.05, which="LM",
                      v0=np.ones(dim), return_eigenvectors=False)
    return sorted(float(v) for v in vals)


def partial_sum(spec: str, depth: int) -> float:
    """sum_{k=1..depth} 1/sqrt(max(1, off(k)))."""
    rule = offspring_rule(spec)
    total = 0.0
    for k in range(1, depth + 1):
        total += 1.0 / math.sqrt(max(1, rule(k)))
    return total


# --- description documents -------------------------------------------------

def _vertex(x):
    return tuple(_vertex(y) for y in x) if isinstance(x, list) else x


def description_tables(doc: dict):
    """Sorted simplex tables and aligned weights read from a description."""
    m0 = {_vertex(item["id"]): float(item["m0"]) for item in doc["vertices"]}
    m1 = {}
    for item in doc["edges"]:
        u, v = _vertex(item["u"]), _vertex(item["v"])
        m1[(min(u, v), max(u, v))] = float(item["m1"])
    tables = [sorted((v,) for v in m0), sorted(m1)]
    weights = [[m0[s[0]] for s in tables[0]], [m1[e] for e in tables[1]]]
    for degree in range(2, int(doc["max_degree"]) + 1):
        entries = {tuple(_vertex(v) for v in item["simplex"]): float(item["m"])
                   for item in doc["weights"][str(degree)]}
        tables.append(sorted(entries))
        weights.append([entries[s] for s in tables[-1]])
    return tables, weights


def radial_weight_errors(doc: dict, base, alpha: float, rtol: float = 1e-12) -> list:
    """Simplices whose weight differs from (1 + max BFS distance)^-alpha."""
    tables, weights = description_tables(doc)
    adj = adjacency_of([s[0] for s in tables[0]], tables[1])
    dist = bfs(adj, base)
    bad = []
    for table, ws in zip(tables, weights):
        for s, w in zip(table, ws):
            want = (1.0 + max(dist[v] for v in s)) ** (-alpha)
            if abs(w - want) > rtol * want:
                bad.append((s, w, want))
    return bad


def cross_simplex_count(doc: dict, region) -> int:
    """Simplices with some but not all vertices inside the region."""
    tables, _ = description_tables(doc)
    region = set(region)
    count = 0
    for table in tables:
        for s in table:
            inside = sum(1 for v in s if v in region)
            count += 0 < inside < len(s)
    return count


def read_coordinate_text(text: str) -> sp.csr_matrix:
    """Parse 1-based (row, col, value) triplets under a 'rows cols nnz' header."""
    lines = text.splitlines()
    n_rows, n_cols, nnz = (int(x) for x in lines[0].split())
    if len(lines) - 1 != nnz:
        raise ValueError(f"header says {nnz} entries, body has {len(lines) - 1}")
    rows, cols, vals = [], [], []
    for line in lines[1:]:
        r, c, v = line.split()
        rows.append(int(r) - 1)
        cols.append(int(c) - 1)
        vals.append(float(v))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
