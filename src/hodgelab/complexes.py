"""Weighted clique complexes with canonical simplex indexing.

A complex is built from a weighted graph: an i-simplex is an (i+1)-clique,
stored once as a row of sorted vertex positions (the canonical orientation
representative).  Orientation is carried by permutation signs, weights are
stored per canonical representative, and every degree's rows are in
lexicographic order, so matrix layouts are reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

__all__ = [
    "WeightedComplex",
    "Topology",
    "canonical_sign",
    "build_clique_complex",
    "clique_tables",
    "weighted_degree",
    "induced_subcomplex",
    "drop_simplices",
    "complex_to_json",
    "complex_from_json",
]

Vertex = Hashable

#: the most simplices a generator builds, and the bound on a max degree; larger complexes are refused
MAX_OFFSPRING_SIMPLICES = 10 ** 7
# 2 ** _BITS passes the cap, so a power side ** min(d, _BITS), side >= 2, passes it when side ** d does
_BITS = MAX_OFFSPRING_SIMPLICES.bit_length()


def canonical_sign(vertices: Sequence[Vertex]) -> tuple[tuple, int]:
    """Sorted representative of an oriented vertex tuple and the sort parity.

    Returns ``(sorted_tuple, sign)`` with ``sign`` the signature of the
    permutation that sorts the input.  Duplicate vertices are degenerate and
    raise ``ValueError``.
    """
    t = tuple(vertices)
    if len(set(t)) != len(t):
        raise ValueError(f"degenerate simplex (repeated vertex): {t!r}")
    # parity by inversion count; tuples are tiny so O(k^2) is fine
    inversions = 0
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if t[i] > t[j]:
                inversions += 1
    sign = -1 if inversions % 2 else 1
    return tuple(sorted(t)), sign


def _positive_weight(w, what: str, *args) -> float:
    """``w`` as a float, refused with a ValueError naming ``what.format(*args)``
    unless it is finite and positive."""
    try:
        w = float(w)
    except TypeError:
        raise ValueError(f"{what.format(*args)} = {w!r:.40} is not a number") from None
    except OverflowError:  # an integer beyond the float range
        w = math.inf
    if not 0 < w < math.inf:
        raise ValueError(f"{what.format(*args)} = {w} must be finite and positive")
    return w


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``starts[k] .. starts[k] + counts[k] - 1``, concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


class Topology:
    """The simplices of a complex as integer tables, and what derives from them.

    ``vertices`` lists the degree-0 labels in sorted order; ``vertex_index(i)``
    holds the increasing vertex positions of every i-simplex, one row each,
    rows in lexicographic order.  These are the only stored form of the
    simplices.  Column l of ``face_arrays[i]`` is the index of the face
    omitting vertex l (``face_arrays[0]`` has no columns).  ``extension_coo``,
    ``incidence``, ``components``, ``betti``, the label tuples ``simplices``
    and the label-to-position map ``_position`` are derived on first use and
    cached.  Every reweighting shares the topology.  With ``prune``, a row
    with a face missing from the table below is dropped instead of refused.
    """

    def __init__(self, vertices: list, tables: Sequence[np.ndarray], prune: bool = False):
        self.vertices = vertices
        self.max_degree = len(tables)
        n0 = len(vertices)
        self._vertex_index = [np.arange(n0, dtype=np.int64).reshape(-1, 1)]
        self.face_arrays: list[np.ndarray] = [np.zeros((n0, 0), dtype=np.int64)]
        # codes[i] codes each degree-i simplex as (index of its face omitting the
        # last vertex) * n0 + last vertex; lexicographic tables give increasing codes
        self._codes: list[np.ndarray | None] = [None]
        for i, V in enumerate(tables, start=1):
            V = np.asarray(V, dtype=np.int64).reshape(-1, i + 1)
            F = np.column_stack([self._find(np.delete(V, l, axis=1)) for l in range(i + 1)])
            if prune:
                closed = (F >= 0).all(axis=1)
                V, F = V[closed], F[closed]
            codes = F[:, i] * n0 + V[:, i]
            if (F < 0).any() or (V[:, i] <= V[:, i - 1]).any() or (codes[1:] <= codes[:-1]).any():
                raise ValueError(f"degree-{i} simplex table is unsorted or not closed under faces")
            self._vertex_index.append(V)
            self.face_arrays.append(F)
            self._codes.append(codes)
        for a in self._vertex_index + self.face_arrays:
            a.setflags(write=False)
        self._simplices: list[list[tuple]] | None = None
        self._extension_coo: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._incidence: dict[int, sp.csr_matrix] = {}

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Table index of each vertex-position row of ``rows`` (shape
        ``(k, i+1)``) among the degree-i simplices, -1 where it is none."""
        i = rows.shape[1] - 1
        table = self._vertex_index[i]
        if not len(table):
            return np.full(len(rows), -1, dtype=np.int64)
        j = rows[:, 0]
        for d in range(1, i + 1):
            j = np.searchsorted(self._codes[d], j * len(self.vertices) + rows[:, d])
        return np.where((table.take(j, axis=0, mode="clip") == rows).all(axis=1), j, -1)

    def vertex_index(self, degree: int) -> np.ndarray:
        """``(N_degree, degree+1)`` int64 array of vertex positions (into the
        degree-0 table) of every degree-``degree`` simplex, read-only."""
        return self._vertex_index[degree]

    @property
    def simplices(self) -> list[list[tuple]]:
        """Every degree's simplices as sorted label tuples, in table order."""
        if self._simplices is None:
            label = self.vertices.__getitem__
            self._simplices = [list(zip(*(map(label, column) for column in V.T.tolist())))
                               for V in self._vertex_index]
        return self._simplices

    @cached_property
    def _position(self) -> dict:
        """``{label: position}`` over ``vertices``, for the label lookups."""
        return {v: j for j, v in enumerate(self.vertices)}

    @cached_property
    def _adjacency(self) -> sp.csr_matrix:
        """Symmetric 0/1 vertex adjacency matrix of the degree-1 simplices."""
        u, v = self._vertex_index[1].T
        return sp.csr_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])),
                             shape=(len(self.vertices),) * 2)

    @cached_property
    def components(self) -> np.ndarray:
        """Connected-component label of each vertex, 0..beta_0 - 1, read-only."""
        labels = connected_components(self._adjacency, directed=False)[1]
        labels.setflags(write=False)
        return labels

    @cached_property
    def betti(self) -> tuple[int, ...]:
        """Real Betti numbers beta_0..beta_n, kept by elementary collapses.

        A face of degree >= 1 with exactly one live coface is free; each
        round, per degree from the top, a ``bincount`` over the face arrays
        finds the free faces, and every live coface with one goes, paired
        with its first free face.  The removed coface has no live coface of
        its own, so the live simplices stay a complex of the same homotopy
        type.  On the core, rank d_0 is N_0 - beta_0 (the components), and
        d_i, i >= 1, takes a dense rank over its live rows; a core with no
        simplex above degree 1 has none to take, and beta_1 = E - V + beta_0.
        """
        n, sizes = self.max_degree, [len(V) for V in self._vertex_index]
        alive = [np.ones(size, dtype=bool) for size in sizes]
        moved = True
        while moved:
            moved = False
            for i in range(n, 1, -1):
                live = np.flatnonzero(alive[i])
                F = self.face_arrays[i][live]
                free = alive[i - 1] & (np.bincount(F.ravel(), minlength=sizes[i - 1]) == 1)
                hit = free[F]
                paired = hit.any(axis=1)
                alive[i][live[paired]] = False
                alive[i - 1][F[paired, hit[paired].argmax(axis=1)]] = False
                moved |= bool(paired.any())
        beta0 = int(self.components.max(initial=-1)) + 1
        ranks = [0, sizes[0] - beta0]  # ranks[i] = rank of d_{i-1} on the core
        for i in range(2, n + 1):
            rank = 0
            if alive[i].any():
                core = self.incidence(i - 1)[alive[i]]
                rank = int(np.linalg.matrix_rank(core[:, np.unique(core.indices)].toarray()))
            ranks.append(rank)
        ranks.append(0)
        return tuple(int(alive[i].sum()) - ranks[i] - ranks[i + 1] for i in range(n + 1))

    def distances_from(self, roots: Iterable[Vertex]) -> np.ndarray:
        """int64 graph distance to ``roots`` over the degree-1 simplices, one
        entry per vertex of ``vertices``, -1 where a vertex is unreachable.  A
        root that is not a vertex raises ``ValueError``."""
        sources = []
        for r in roots:
            try:
                sources.append(self._position[r])
            except (KeyError, TypeError):
                raise ValueError(f"root {r!r} not in complex") from None
        dist = dijkstra(self._adjacency, directed=False, indices=sources,
                        unweighted=True, min_only=True)
        return np.where(np.isinf(dist), -1, dist).astype(np.int64)

    def extension_coo(self, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(j, x, t)`` int64 arrays, one entry per coface: vertex position
        ``x`` extends simplex ``j`` of degree ``degree`` to the
        degree-(degree+1) simplex ``t``; sorted by ``j``, then ``t``;
        read-only."""
        out = self._extension_coo.get(degree)
        if out is None:
            if degree >= self.max_degree:
                out = tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
            else:
                F = self.face_arrays[degree + 1]
                order = np.argsort(F.ravel(), kind="stable")
                j = F.ravel()[order]
                x = self.vertex_index(degree + 1).ravel()[order]
                t = order // (degree + 2)
                out = (j, x, t)
            for a in out:
                a.setflags(write=False)
            self._extension_coo[degree] = out
        return out

    def incidence(self, degree: int) -> sp.csr_matrix:
        """d_degree: the |P_{degree+1}| x |P_degree| signed incidence matrix,
        entry (-1)^l at the face omitting vertex l; its arrays are read-only."""
        out = self._incidence.get(degree)
        if out is None:
            F = self.face_arrays[degree + 1]
            rows, width = F.shape
            # the face index falls as the omitted vertex moves right, so the
            # reversed columns list each row's faces in ascending order
            signs = np.where(np.arange(width)[::-1] % 2 == 0, 1.0, -1.0)
            out = sp.csr_matrix((np.tile(signs, rows), F[:, ::-1].ravel(),
                                 np.arange(0, rows * width + 1, width)),
                                shape=(rows, len(self._vertex_index[degree])))
            for a in (out.data, out.indices, out.indptr):
                a.setflags(write=False)
            self._incidence[degree] = out
        return out


@dataclass(eq=False)
class WeightedComplex:
    """Finite weighted clique complex: a ``Topology`` and, aligned with its
    degree-i table, the only copy of every weight ``weights[i]`` (the graph's
    m0 and m1 are ``weights[0]`` and ``weights[1]``).  Immutable after
    construction; ``==`` is identity.
    """

    topology: Topology = field(repr=False)
    weights: list[np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def max_degree(self) -> int:
        return self.topology.max_degree

    @property
    def simplices(self) -> list[list[tuple]]:
        return self.topology.simplices

    @property
    def graph(self) -> Topology:
        """Read-only alias of ``topology``, for callers of ``graph.vertices``."""
        return self.topology

    def counts(self) -> tuple[int, ...]:
        return tuple(map(self.size, range(self.max_degree + 1)))

    def num_simplices(self) -> int:
        return sum(self.counts())

    def size(self, degree: int) -> int:
        return len(self.topology.vertex_index(degree))

    def index_of(self, degree: int, vertices: Sequence[Vertex]) -> int:
        key = tuple(vertices)
        if 0 <= degree <= self.max_degree:
            (j,) = _locate(self.topology, degree, [key])
            if j >= 0:
                return int(j)
        raise KeyError(f"degree-{degree} simplex {key!r} not in complex")


def _locate(top: Topology, degree: int, simplices: Iterable[tuple]) -> np.ndarray:
    """Table index of each label tuple of ``simplices`` among the
    degree-``degree`` simplices of ``top``, -1 where it is none."""
    position, width = top._position, degree + 1
    rows = [[position.get(v, -1) for v in s] if len(s) == width else [-1] * width for s in simplices]
    return top._find(np.array(rows, dtype=np.int64).reshape(-1, width))


def clique_tables(n0: int, edges: np.ndarray, n: int,
                  listed: Mapping[int, np.ndarray] | None = None) -> list[np.ndarray]:
    """Simplex tables of degrees 1..n of the clique complex on the vertex
    positions 0..n0-1 and the ``(E, 2)`` int64 edge rows u < v, in any order.

    Each row is extended by every later neighbour of its last vertex that is
    adjacent to all its vertices (Chiba & Nishizeki, SIAM J. Comput. 1985);
    rows and neighbours come in order, so every table comes out sorted.  A
    degree in ``listed`` takes its sorted rows from there instead, and the
    degree above extends those.
    """
    if n < 1:
        raise ValueError("max degree n must be >= 1")
    if 2 ** min(n + 1, _BITS) - 1 > MAX_OFFSPRING_SIMPLICES:  # the faces of one degree-n simplex
        raise ValueError(f"max degree {n} passes the cap: a degree-{n} simplex has 2^{n + 1} - 1 faces, "
                         f"more than {MAX_OFFSPRING_SIMPLICES}")
    codes = edges[:, 0] * n0 + edges[:, 1]
    order = np.argsort(codes)
    edges, codes = edges[order], codes[order]
    # the forward neighbours of vertex u are edges[start[u]:start[u+1], 1]
    start = np.searchsorted(edges[:, 0], np.arange(n0 + 1))
    tables = [edges]
    for degree in range(2, n + 1):
        if listed and degree in listed:
            tables.append(listed[degree])
            continue
        rows = tables[-1]
        last = rows[:, -1]
        count = start[last + 1] - start[last]
        parent = np.repeat(np.arange(len(rows)), count)
        x = edges[_spans(start[last], count), 1]
        for column in range(degree - 1):
            q = rows[parent, column] * n0 + x
            hit = codes.take(np.searchsorted(codes, q), mode="clip") == q
            parent, x = parent[hit], x[hit]
        tables.append(np.column_stack([rows[parent], x]))
    return tables


def build_clique_complex(m0: Mapping[Vertex, float], m1: Mapping[tuple, float], n: int) -> WeightedComplex:
    """The clique complex up to degree n of the locally finite weighted graph
    (V, m0, m1), by ``clique_tables`` on its vertex positions: degrees 0 and 1
    carry m0 and m1, the others weight 1.

    ``m0`` maps each vertex to a positive weight; ``m1`` is a symmetric edge
    weight, and an edge exists exactly where ``m1 > 0``.  Loops are rejected.
    """
    m0 = {v: _positive_weight(w, "m0({!r})", v) for v, w in m0.items()}
    pairs, weights = [(u, v) for u, v in m1], np.array(list(map(float, m1.values())))
    bad = np.flatnonzero(~((weights >= 0) & (weights < math.inf)))
    if bad.size:
        u, v = pairs[bad[0]]
        raise ValueError(f"m1({u!r},{v!r}) = {weights[bad[0]]} must be finite and nonnegative")
    position, ends, weights = _graph(m0, pairs, weights)
    edge = weights > 0
    return _clique_complex(list(position), m0, ends[edge], weights[edge], n)


def _graph(m0: Mapping, pairs: Sequence[tuple], m1: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray]:
    """The graph of vertex weights ``m0`` and label pairs ``pairs`` with edge
    weights ``m1``, as ``(position, ends, m1)``: ``position`` maps each vertex
    to its place in sorted order, ``ends`` holds the ``(E, 2)`` int64 rows of
    the edges' positions, smaller first, rows in lexicographic order, and
    ``m1`` their weights.  An edge listed again with its weight is kept once.
    Mixed ids, and the first pair that is a loop, names no vertex, or repeats
    an edge with another weight, are refused with a ValueError.
    """
    try:
        vertices = sorted(m0)
    except TypeError:
        raise ValueError("vertex ids must be mutually comparable (e.g. not mixed int and str)") from None
    position = {v: j for j, v in enumerate(vertices)}
    ends = np.sort(np.fromiter(map(position.get, itertools.chain.from_iterable(pairs), itertools.repeat(-1)),
                               dtype=np.int64).reshape(-1, 2), axis=1)
    # first[k]: the first pair in list order of the k-th edge by code
    _, first, inverse = np.unique(ends[:, 0] * len(vertices) + ends[:, 1], return_index=True, return_inverse=True)
    ref = first[inverse]
    bad = (ends[:, 0] < 0) | (ends[:, 0] == ends[:, 1]) | (m1 != m1[ref])
    if bad.any():
        e = int(np.argmax(bad))
        u, v = pairs[e]
        if u == v:
            raise ValueError(f"loop at {u!r} not allowed")
        if ends[e, 0] < 0:
            raise ValueError(f"edge ({u!r},{v!r}) references unknown vertex")
        if any(pairs[i] == (u, v) and m1[i] != m1[e] for i in np.flatnonzero(ref[:e] == ref[e]).tolist()):
            raise ValueError(f"edge ({u!r},{v!r}) listed twice with different weights")
        raise ValueError(f"asymmetric weight for edge {(u, v) if u < v else (v, u)!r}")
    return position, ends[first], m1[first]


def _clique_complex(vertices: list, m0: Mapping, ends: np.ndarray, m1: np.ndarray, n: int,
                    listed: Mapping[int, np.ndarray] | None = None) -> WeightedComplex:
    """``build_clique_complex`` on the edge rows ``ends`` and weights ``m1`` of ``_graph``; the
    degrees in ``listed`` take those rows (``clique_tables``), kept where their faces are."""
    n0 = len(vertices)
    top = Topology(vertices, clique_tables(n0, ends, n, listed), prune=bool(listed))
    weights = [np.fromiter(map(m0.__getitem__, vertices), dtype=float, count=n0), m1]
    weights += [np.ones(len(top.vertex_index(i))) for i in range(2, n + 1)]
    return WeightedComplex(top, weights)


def weighted_degree(cx: WeightedComplex, degree: int, index: int) -> float:
    """Weight-normalized count of cofaces: (1/m(s)) * sum of coface weights.

    Top-degree simplices have no stored cofaces and return 0.
    """
    if degree == cx.max_degree:
        return 0.0
    j, _, t = cx.topology.extension_coo(degree)
    lo, hi = np.searchsorted(j, (index, index + 1))
    # Python's sum adds the coface weights one by one, in coface order
    total = sum(cx.weights[degree + 1][t[lo:hi]])
    return float(total / cx.weights[degree][index])


def _kept(cx: WeightedComplex, listed: Mapping[int, np.ndarray]) -> tuple[Topology, list]:
    """Topology and weights of the simplices of ``cx`` that stay under the
    per-degree masks ``listed``: a simplex stays when all its faces stay and
    its degree's mask, if there is one, holds.  When every simplex stays, the
    topology of ``cx`` is reused."""
    top = cx.topology
    masks: list[np.ndarray] = []
    for i in range(cx.max_degree + 1):
        mask = masks[i - 1][top.face_arrays[i]].all(axis=1) if i else np.ones(cx.size(0), bool)
        if i in listed:
            mask &= listed[i]
        masks.append(mask)
    weights = [w[mask] for w, mask in zip(cx.weights, masks)]
    if all(mask.all() for mask in masks):
        return top, weights
    # the kept vertices keep their order, so the renumbered tables stay sorted
    renumber = np.cumsum(masks[0]) - 1
    vertices = [v for v, k in zip(top.vertices, masks[0].tolist()) if k]
    tables = [renumber[top.vertex_index(i)[masks[i]]] for i in range(1, cx.max_degree + 1)]
    return Topology(vertices, tables), weights


def induced_subcomplex(cx: WeightedComplex, region: Iterable[Vertex]) -> WeightedComplex:
    """Keep exactly the simplices with all vertices inside ``region``."""
    region = region if isinstance(region, Set) else set(region)
    if not region:
        raise ValueError("empty region")
    top, weights = _kept(cx, {0: np.array([v in region for v in cx.topology.vertices], dtype=bool)})
    return WeightedComplex(top, weights, meta=dict(cx.meta, region_size=len(region)))


def drop_simplices(cx: WeightedComplex, degree: int, keep: Callable[[tuple], bool]) -> WeightedComplex:
    """New complex without the degree-``degree`` simplices failing ``keep``.

    Cofaces of dropped simplices are dropped as well, preserving face closure.
    """
    top, weights = _kept(cx, {degree: np.array([bool(keep(s)) for s in cx.simplices[degree]], dtype=bool)})
    return WeightedComplex(top, weights, meta=dict(cx.meta))


def reweighted(cx: WeightedComplex, weights: Sequence[np.ndarray],
               meta: dict | None = None) -> WeightedComplex:
    """Same simplex tables and topology with ``weights[i]`` on degree i.

    ``weights[i]`` is aligned with ``cx.simplices[i]``; compute it from
    ``cx.topology.vertex_index(i)``.  Every weight must be finite and
    positive; the first one that is not raises ``ValueError`` naming its
    degree and simplex.
    """
    weights = [np.array(w, dtype=float) for w in weights]
    if [len(w) for w in weights] != list(cx.counts()):
        raise ValueError("weights must give one value per simplex of every degree")
    for i, w in enumerate(weights):
        bad = np.flatnonzero(~((w > 0) & (w < math.inf)))
        if bad.size:
            j = bad[0]
            raise ValueError(f"degree-{i} weight m{cx.simplices[i][j]!r} = {w[j]} "
                             "must be finite and positive")
    new_meta = dict(cx.meta)
    new_meta.update(meta or {})
    return WeightedComplex(cx.topology, weights, meta=new_meta)


# --- description JSON -------------------------------------------------------

def _encode_vertex(v):
    return list(v) if isinstance(v, tuple) else v


def _decode_vertex(v):
    return tuple(_decode_vertex(x) for x in v) if isinstance(v, list) else v


def _decode_ids(ids: list) -> list:
    """``_decode_vertex`` of each of ``ids``, flat lists in one pass; a nested
    list, which that pass leaves unhashable, sends every id through it."""
    flat = [tuple(v) if type(v) is list else v for v in ids]
    try:
        hash(tuple(flat))
        return flat
    except TypeError:
        return list(map(_decode_vertex, ids))


def complex_to_json(cx: WeightedComplex) -> dict:
    """Complex description document (vertices/edges/max_degree/weights),
    written from the position rows, each vertex id encoded once."""
    top = cx.topology
    ids = [_encode_vertex(v) for v in top.vertices]
    u, v = top.vertex_index(1).T.tolist()
    doc = {
        "vertices": [{"id": x, "m0": w} for x, w in zip(ids, cx.weights[0].tolist())],
        "edges": [{"u": ids[a], "v": ids[b], "m1": w} for a, b, w in zip(u, v, cx.weights[1].tolist())],
        "max_degree": cx.max_degree,
        "weights": {
            str(i): [{"simplex": list(s), "m": w} for s, w in zip(
                zip(*[map(ids.__getitem__, column) for column in top.vertex_index(i).T.tolist()]),
                cx.weights[i].tolist())]
            for i in range(2, cx.max_degree + 1)
        },
    }
    if cx.meta:
        doc["meta"] = {k: cx.meta[k] for k in sorted(cx.meta) if _json_safe(cx.meta[k])}
    return doc


def _json_safe(x) -> bool:
    try:
        json.dumps(x)
        return True
    except TypeError:
        return False


def _shaped(value, kind, what: str):
    """``value``, refused with a ValueError naming ``what`` unless it is a
    ``kind`` (a bool is no integer)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {dict: "an object", list: "a list", int: "an integer", (int, float): "a number"}[kind]
        raise ValueError(f"description {what} must be {name}, not {value!r:.40}")
    return value


def _listed_once(weights: dict, key, w: float, what: str) -> None:
    """``weights[key] = w``; an entry listed again must repeat its weight."""
    try:
        prev = weights.setdefault(key, w)
    except TypeError:
        raise ValueError(f"{what} is not hashable: ids are numbers, strings or lists of them") from None
    if prev != w:
        raise ValueError(f"{what} listed twice with different weights")


def _listed(items: list, what: str, keys: Callable[[list], list], field: str, name: str,
            entry: str, *args) -> dict:
    """``{key: float(item[field])}`` over the description entries ``items`` and their
    ``keys(items)``, decoded in bulk.  When that fails or an entry repeats, an
    entry-by-entry pass refuses the first bad entry by ``_shaped`` (``what``),
    ``_positive_weight`` or ``_listed_once`` (``name`` and ``entry``, given the key and ``args``)."""
    try:
        weights = list(map(float, [item[field] for item in items]))
        listed = dict(zip(keys(items), weights))
        if len(listed) == len(items) and all(0 < w < math.inf for w in weights):
            return listed
    except (TypeError, KeyError, ValueError, OverflowError):
        pass
    listed = {}
    for item in items:
        (k,) = keys([_shaped(item, dict, what)])
        _listed_once(listed, k, _positive_weight(item[field], name, k, *args), entry.format(k, *args))
    return listed


def _edge_pairs(items: list) -> list:
    """The decoded (u, v) label pairs of the description's edge entries ``items``."""
    return list(zip(_decode_ids([item["u"] for item in items]), _decode_ids([item["v"] for item in items])))


def complex_from_json(doc: dict) -> WeightedComplex:
    """Rebuild a complex from its description document.

    A degree with a weights list has exactly the listed simplices, its table
    built from the list; a degree without one takes weight 1 on every clique
    whose faces are present (``clique_tables``).  A ``weight_rule`` of kind
    ``radial`` replaces every weight instead, and any other rule is refused.
    The description's ``meta`` is kept.  A value of the wrong JSON shape is
    refused with a ValueError that names its key.
    """
    _shaped(doc, dict, "document")
    m0 = _listed(_shaped(doc["vertices"], list, "'vertices'"), "'vertices' entry",
                 lambda items: _decode_ids([item["id"] for item in items]), "m0", "m0({!r})", "vertex {!r}")
    edges = _shaped(doc["edges"], list, "'edges'")
    try:  # in bulk, when each edge entry holds two hashable ids and a finite, positive weight
        pairs = _edge_pairs(edges)
        hash(tuple(pairs))
        m1 = np.array(list(map(float, [item["m1"] for item in edges])))
        if not ((m1 > 0) & (m1 < math.inf)).all():
            raise ValueError
    except (TypeError, KeyError, ValueError, OverflowError):
        # entry by entry: _listed refuses the first malformed entry
        by_pair = _listed(edges, "'edges' entry", _edge_pairs, "m1", "m1({0[0]!r},{0[1]!r})",
                          "edge ({0[0]!r},{0[1]!r})")
        pairs, m1 = list(by_pair), np.array(list(by_pair.values()))
    position, ends, m1 = _graph(m0, pairs, m1)
    vertices = list(position)
    n = _shaped(doc["max_degree"], int, "'max_degree'")
    rule = doc.get("weight_rule")
    if rule is not None:
        kind = rule.get("kind") if isinstance(rule, dict) else rule
        if kind != "radial":
            raise ValueError(f"unknown weight_rule kind {kind!r}: the only kind is 'radial'")
        for key in ("base", "alpha"):
            if key not in rule:
                raise ValueError(f"radial weight_rule needs {key!r}")
        _shaped(rule["base"], list, "weight_rule 'base'")
        _shaped(rule["alpha"], (int, float), "weight_rule 'alpha'")
        if doc.get("weights"):
            raise ValueError("a description gives either weights lists or a weight_rule, not both")
    listed = {}
    for k, lst in _shaped(doc.get("weights") or {}, dict, "'weights'").items():
        if not 0 <= int(k) <= n:
            raise ValueError(f"weights of degree {k} outside 0..{n}")
        if int(k) in listed:
            raise ValueError(f"weights key {k!r} names degree {int(k)} again")
        simplex, width = f"degree-{k} 'simplex'", int(k) + 1
        keys = _listed(_shaped(lst, list, f"'weights' of degree {k}"), f"degree-{k} 'weights' entry",
                       lambda items: [tuple(_decode_ids(_shaped(item["simplex"], list, simplex))) for item in items],
                       "m", "degree-{1} weight m{0!r}", "degree-{1} simplex {0!r}", k)
        # one row of positions per label tuple, -1 for a label that is no vertex and for a tuple of another length
        rows = np.array([[position.get(v, -1) for v in s] if len(s) == width else [-1] * width for s in keys],
                        dtype=np.int64).reshape(-1, width)
        listed[int(k)] = rows, np.array(list(keys.values())), list(keys)

    if 0 in listed:  # the listed vertices stay, renumbered in order
        keep = np.isin(np.arange(len(vertices)), listed[0][0])
        renumber = np.append(np.where(keep, np.cumsum(keep) - 1, -1), -1)
        vertices = [v for v, kept in zip(vertices, keep.tolist()) if kept]
        ends, listed = renumber[ends], {i: (renumber[rows], *rest) for i, (rows, *rest) in listed.items()}
    valid = {i: rows[(rows >= 0).all(axis=1) & (np.diff(rows, axis=1) > 0).all(axis=1)]  # kept vertices, increasing
             for i, (rows, *_) in listed.items()}
    inside = (ends >= 0).all(axis=1)  # an edge stays where its vertices do and, if edges are listed, it is
    if 1 in valid:  # by codes u * n0 + v
        inside &= np.isin(ends @ [len(vertices), 1], valid[1] @ [len(vertices), 1])
    cx = _clique_complex(vertices, m0, ends[inside], m1[inside], n,
                         {i: rows[np.lexsort(rows.T[::-1])] for i, rows in valid.items() if i >= 2})
    for i, (rows, w, keys) in sorted(listed.items()):
        # listed rows are distinct, so the table is exactly the list when each is found and no more stay
        j = cx.topology._find(rows)
        if (j < 0).any() or len(j) != cx.size(i):
            unknown = [s for s, found in zip(keys, j.tolist()) if found < 0]
            try:
                unknown = sorted(unknown)
            except TypeError:  # ids that do not compare keep their list order
                pass
            raise ValueError(f"degree-{i} weights reference non-cliques: {unknown[:3]!r}")
        cx.weights[i][j] = w
    if rule is not None:
        from .generators import radial_weighting  # deferred; generators imports this module

        cx = radial_weighting(cx, [_decode_vertex(v) for v in rule["base"]], float(rule["alpha"]))
    cx.meta.update(_shaped(doc.get("meta") or {}, dict, "'meta'"))
    return cx
