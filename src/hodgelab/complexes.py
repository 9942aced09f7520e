"""Weighted clique complexes with canonical simplex indexing.

A complex is built from a weighted graph: an i-simplex is an (i+1)-clique,
stored once as its sorted vertex tuple (the canonical orientation
representative).  Orientation is carried by permutation signs, weights are
stored per canonical representative, and every degree gets a dense,
lexicographically ordered index so matrix layouts are reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "WeightedGraph",
    "WeightedComplex",
    "Topology",
    "canonical_sign",
    "build_clique_complex",
    "weighted_degree",
    "induced_subcomplex",
    "drop_simplices",
    "complex_to_json",
    "complex_from_json",
]

Vertex = Hashable


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
    w = float(w)
    if not 0 < w < math.inf:
        raise ValueError(f"{what.format(*args)} = {w} must be finite and positive")
    return w


class WeightedGraph:
    """Locally finite weighted graph (V, m0, m1), the validated input of
    ``build_clique_complex``; the complex keeps its weights, not the graph.

    ``m0`` maps each vertex to a positive weight; ``m1`` is a symmetric edge
    weight, and an edge exists exactly where ``m1 > 0``.  Loops are rejected.
    """

    def __init__(self, m0: Mapping[Vertex, float], m1: Mapping[tuple, float]):
        try:
            self.vertices = sorted(m0)
        except TypeError:
            raise ValueError("vertex ids must be mutually comparable (e.g. not mixed int and str)") from None
        self.m0 = {v: _positive_weight(w, "m0({!r})", v) for v, w in m0.items()}
        self.m1: dict[tuple, float] = {}
        self.adjacency: dict[Vertex, set] = {v: set() for v in self.vertices}
        for (u, v), w in m1.items():
            w = float(w)
            if not 0 <= w < math.inf:
                raise ValueError(f"m1({u!r},{v!r}) = {w} must be finite and nonnegative")
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed")
            if u not in self.m0 or v not in self.m0:
                raise ValueError(f"edge ({u!r},{v!r}) references unknown vertex")
            key = (u, v) if u < v else (v, u)
            prev = self.m1.get(key)
            if prev is not None and prev != w:
                raise ValueError(f"asymmetric weight for edge {key!r}")
            if w > 0:
                self.m1[key] = w
                self.adjacency[key[0]].add(key[1])
                self.adjacency[key[1]].add(key[0])


class Topology:
    """Index and face arrays of fixed simplex tables.

    ``index[i]`` maps a degree-i simplex to its position.  ``face_arrays[i]``
    is the one stored face structure of degree i >= 1: a read-only int64
    array of shape ``(N_i, i+1)`` whose column l holds the index of the
    degree-(i-1) face omitting vertex l (a vertex has no faces, so
    ``face_arrays[0]`` has no columns).  The coface extensions
    (``extension_coo``) and the signed incidence matrices (``incidence``) are
    derived from the face arrays on first use and cached; ``vertex_index``
    holds the vertex positions the faces were looked up by.  ``vertices``
    lists the degree-0 labels, and the degree-1 simplices give the graph
    distances (``distances_from``).  Every reweighting of a complex shares
    its topology.
    """

    def __init__(self, simplices: list[list[tuple]], max_degree: int):
        self.max_degree = max_degree
        self.vertices: list = [v for (v,) in simplices[0]]
        self.index: list[dict] = [{s: j for j, s in enumerate(table)} for table in simplices]
        n0 = len(simplices[0])
        position = {v: j for j, v in enumerate(self.vertices)}
        self._vertex_index = [np.arange(n0, dtype=np.int64).reshape(-1, 1)]
        self.face_arrays: list[np.ndarray] = [np.zeros((n0, 0), dtype=np.int64)]
        # codes[i] codes each degree-i simplex as (index of its face omitting the
        # last vertex) * n0 + last vertex; sorted tables give increasing codes
        codes: list[np.ndarray | None] = [None]
        for i in range(1, max_degree + 1):
            V = np.fromiter(map(position.__getitem__, itertools.chain.from_iterable(simplices[i])),
                            dtype=np.int64, count=len(simplices[i]) * (i + 1)).reshape(-1, i + 1)
            columns = []
            for l in range(i + 1):
                face = np.delete(V, l, axis=1)
                j = face[:, 0]
                for d in range(1, i):
                    j = np.searchsorted(codes[d], j * n0 + face[:, d])
                if not np.array_equal(self._vertex_index[i - 1].take(j, axis=0, mode="clip"), face):
                    raise ValueError(f"degree-{i} simplex table is unsorted or not closed under faces")
                columns.append(j)
            F = np.column_stack(columns)
            codes.append(F[:, i] * n0 + V[:, i])
            self._vertex_index.append(V)
            self.face_arrays.append(F)
        for a in self._vertex_index + self.face_arrays:
            a.setflags(write=False)
        self._extension_coo: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._incidence: dict[int, sp.csr_matrix] = {}
        self._adjacency: sp.csr_matrix | None = None

    def vertex_index(self, degree: int) -> np.ndarray:
        """``(N_degree, degree+1)`` int64 array of vertex positions (into the
        degree-0 table) of every degree-``degree`` simplex, read-only."""
        return self._vertex_index[degree]

    def distances_from(self, roots: Iterable[Vertex]) -> dict:
        """``{label: graph distance to roots}`` over the degree-1 simplices, in
        table order; unreachable vertices are absent.  A root that is not a
        vertex raises ``ValueError``."""
        try:
            sources = [self.index[0][(r,)] for r in roots]
        except KeyError as err:
            raise ValueError(f"root {err.args[0][0]!r} not in complex") from None
        if self._adjacency is None:
            u, v = self._vertex_index[1].T
            self._adjacency = sp.csr_matrix((np.ones(2 * len(u)), (np.r_[u, v], np.r_[v, u])),
                                            shape=(len(self.vertices),) * 2)
        indptr, indices = self._adjacency.indptr, self._adjacency.indices
        # breadth-first, one layer of the whole frontier at a time
        dist = np.full(len(self.vertices), -1, dtype=np.int64)
        frontier, d = np.unique(np.array(sources, dtype=np.int64)), 0
        while frontier.size:
            dist[frontier] = d
            starts, counts = indptr[frontier], indptr[frontier + 1] - indptr[frontier]
            nbrs = indices[np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
            frontier, d = np.unique(nbrs[dist[nbrs] < 0]), d + 1
        reached = np.flatnonzero(dist >= 0)
        return dict(zip(map(self.vertices.__getitem__, reached.tolist()), dist[reached].tolist()))

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
                                shape=(rows, len(self.index[degree])))
            for a in (out.data, out.indices, out.indptr):
                a.setflags(write=False)
            self._incidence[degree] = out
        return out


@dataclass(eq=False)
class WeightedComplex:
    """Finite weighted clique complex with per-degree canonical tables.

    ``simplices[i]`` lists degree-i simplices as sorted vertex tuples in
    lexicographic order; ``weights[i]`` is the aligned positive weight vector,
    the only copy of every weight (the graph's m0 and m1 are ``weights[0]``
    and ``weights[1]``).  ``index`` is that of ``topology`` (see
    ``Topology``), which is built from the tables unless one is passed in.
    Immutable after construction; ``==`` is identity.
    """

    max_degree: int
    simplices: list[list[tuple]]
    weights: list[np.ndarray]
    meta: dict = field(default_factory=dict)
    topology: Topology | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.topology is None:
            self.topology = Topology(self.simplices, self.max_degree)

    @property
    def graph(self) -> Topology:
        """Read-only alias of ``topology``, for callers of ``graph.vertices``."""
        return self.topology

    @property
    def index(self) -> list[dict]:
        return self.topology.index

    def counts(self) -> tuple[int, ...]:
        return tuple(len(table) for table in self.simplices)

    def num_simplices(self) -> int:
        return sum(self.counts())

    def size(self, degree: int) -> int:
        return len(self.simplices[degree])

    def index_of(self, degree: int, vertices: Sequence[Vertex]) -> int:
        key = tuple(vertices)
        idx = self.index[degree].get(key)
        if idx is None:
            raise KeyError(f"degree-{degree} simplex {key!r} not in complex")
        return idx


def build_clique_complex(graph: WeightedGraph, n: int) -> WeightedComplex:
    """Enumerate all cliques of up to n+1 vertices as the degree <= n simplices.

    Degrees 0 and 1 carry the graph's m0 and m1, higher degrees weight 1.
    """
    if n < 1:
        raise ValueError("max degree n must be >= 1")
    tables: list[list[tuple]] = [[(v,) for v in graph.vertices]]
    weights: list[np.ndarray] = [np.array([graph.m0[v] for v in graph.vertices], dtype=float)]

    edges = sorted(graph.m1)
    tables.append(list(edges))
    weights.append(np.array([graph.m1[e] for e in edges], dtype=float))

    adjacency = graph.adjacency
    level = edges
    level_cn = [sorted(x for x in adjacency[u] & adjacency[v] if x > v) for u, v in edges]
    for degree in range(2, n + 1):
        nxt: list[tuple] = []
        nxt_cn: list[list] = []
        for s, cn in zip(level, level_cn):
            for x in cn:
                nxt.append(s + (x,))
                nxt_cn.append([y for y in cn if y > x and y in adjacency[x]])
        order = sorted(range(len(nxt)), key=nxt.__getitem__)
        level = [nxt[k] for k in order]
        level_cn = [nxt_cn[k] for k in order]
        tables.append(level)
        weights.append(np.ones(len(level)))

    return WeightedComplex(max_degree=n, simplices=tables, weights=weights)


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


def _kept(cx: WeightedComplex, listed: Mapping[int, np.ndarray]) -> tuple[list, list]:
    """Simplex tables and weights of ``cx`` that stay under the per-degree
    masks ``listed``: a simplex stays when all its faces stay and its
    degree's mask, if there is one, holds."""
    masks: list[np.ndarray] = []
    for i in range(cx.max_degree + 1):
        mask = masks[i - 1][cx.topology.face_arrays[i]].all(axis=1) if i else np.ones(cx.size(0), bool)
        if i in listed:
            mask &= listed[i]
        masks.append(mask)
    tables = [[s for s, k in zip(table, mask.tolist()) if k] for table, mask in zip(cx.simplices, masks)]
    return tables, [w[mask] for w, mask in zip(cx.weights, masks)]


def induced_subcomplex(cx: WeightedComplex, region: Iterable[Vertex]) -> WeightedComplex:
    """Keep exactly the simplices with all vertices inside ``region``."""
    region = set(region)
    if not region:
        raise ValueError("empty region")
    tables, weights = _kept(cx, {0: np.array([v in region for v in cx.topology.vertices], dtype=bool)})
    return WeightedComplex(max_degree=cx.max_degree, simplices=tables, weights=weights,
                           meta=dict(cx.meta, region_size=len(region)))


def drop_simplices(cx: WeightedComplex, degree: int, keep: Callable[[tuple], bool]) -> WeightedComplex:
    """New complex without the degree-``degree`` simplices failing ``keep``.

    Cofaces of dropped simplices are dropped as well, preserving face closure.
    """
    tables, weights = _kept(cx, {degree: np.array([bool(keep(s)) for s in cx.simplices[degree]], dtype=bool)})
    return WeightedComplex(max_degree=cx.max_degree, simplices=tables, weights=weights,
                           meta=dict(cx.meta))


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
    return WeightedComplex(max_degree=cx.max_degree, simplices=cx.simplices,
                           weights=weights, meta=new_meta, topology=cx.topology)


# --- description JSON -------------------------------------------------------

def _encode_vertex(v):
    return list(v) if isinstance(v, tuple) else v


def _decode_vertex(v):
    return tuple(_decode_vertex(x) for x in v) if isinstance(v, list) else v


def complex_to_json(cx: WeightedComplex) -> dict:
    """Complex description document (vertices/edges/max_degree/weights)."""
    doc = {
        "vertices": [{"id": _encode_vertex(v), "m0": w}
                     for (v,), w in zip(cx.simplices[0], cx.weights[0].tolist())],
        "edges": [{"u": _encode_vertex(u), "v": _encode_vertex(v), "m1": w}
                  for (u, v), w in zip(cx.simplices[1], cx.weights[1].tolist())],
        "max_degree": cx.max_degree,
        "weights": {
            str(i): [
                {"simplex": [_encode_vertex(v) for v in s], "m": float(w)}
                for s, w in zip(cx.simplices[i], cx.weights[i])
            ]
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


def complex_from_json(doc: dict) -> WeightedComplex:
    """Rebuild a complex from its description document.

    Explicit per-degree weight lists define that degree's simplices exactly;
    degrees without a list default to weight 1 on every clique whose faces
    are present.  A ``weight_rule`` of kind ``radial`` replaces every weight
    instead, and any other rule is refused.  The description's ``meta`` is
    kept.
    """
    m0 = {_decode_vertex(item["id"]): item["m0"] for item in doc["vertices"]}
    m1 = {}
    for item in doc["edges"]:
        u, v = _decode_vertex(item["u"]), _decode_vertex(item["v"])
        m1[u, v] = _positive_weight(item["m1"], "m1({!r},{!r})", u, v)
    graph = WeightedGraph(m0, m1)
    n = int(doc["max_degree"])
    rule = doc.get("weight_rule")
    kind = rule.get("kind") if isinstance(rule, dict) else rule
    if rule is not None and kind != "radial":
        raise ValueError(f"unknown weight_rule kind {kind!r}: the only kind is 'radial'")
    explicit = {}
    for k, lst in (doc.get("weights") or {}).items():
        if not 0 <= int(k) <= n:
            raise ValueError(f"weights of degree {k} outside 0..{n}")
        explicit[int(k)] = table = {}
        for item in lst:
            s = tuple(_decode_vertex(v) for v in item["simplex"])
            table[s] = _positive_weight(item["m"], "degree-{} weight m{!r}", k, s)

    cx = build_clique_complex(graph, n)
    if rule is not None:
        from .generators import radial_weighting  # deferred; generators imports this module

        base = {_decode_vertex(v) for v in rule["base"]}
        cx = radial_weighting(cx, base, float(rule["alpha"]))
    elif explicit:
        tables, weights = _kept(cx, {i: np.array([s in table for s in cx.simplices[i]], dtype=bool)
                                     for i, table in explicit.items()})
        for i in sorted(explicit):
            table = explicit[i]
            if len(tables[i]) < len(table):
                unknown = sorted(set(table).difference(tables[i]))
                raise ValueError(f"degree-{i} weights reference non-cliques: {unknown[:3]!r}")
            weights[i] = np.array([table[s] for s in tables[i]], dtype=float)
        # when every simplex stays, the kept tables share the clique complex's topology
        same = [len(t) for t in tables] == list(cx.counts())
        cx = WeightedComplex(max_degree=n, simplices=tables, weights=weights,
                             topology=cx.topology if same else None)
    cx.meta.update(doc.get("meta") or {})
    return cx
