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
    ``incidence`` and the label tuples ``simplices`` are derived on first use
    and cached.  Every reweighting of a complex shares its topology.
    """

    def __init__(self, vertices: list, tables: Sequence[np.ndarray]):
        self.vertices = vertices
        self.max_degree = len(tables)
        n0 = len(vertices)
        self._position = {v: j for j, v in enumerate(vertices)}
        self._vertex_index = [np.arange(n0, dtype=np.int64).reshape(-1, 1)]
        self.face_arrays: list[np.ndarray] = [np.zeros((n0, 0), dtype=np.int64)]
        # codes[i] codes each degree-i simplex as (index of its face omitting the
        # last vertex) * n0 + last vertex; lexicographic tables give increasing codes
        self._codes: list[np.ndarray | None] = [None]
        for i, V in enumerate(tables, start=1):
            V = np.asarray(V, dtype=np.int64).reshape(-1, i + 1)
            F = np.column_stack([self._find(np.delete(V, l, axis=1)) for l in range(i + 1)])
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
        self._adjacency: sp.csr_matrix | None = None

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

    def distances_from(self, roots: Iterable[Vertex]) -> dict:
        """``{label: graph distance to roots}`` over the degree-1 simplices, in
        table order; unreachable vertices are absent.  A root that is not a
        vertex raises ``ValueError``."""
        sources = []
        for r in roots:
            try:
                sources.append(self._position[r])
            except (KeyError, TypeError):
                raise ValueError(f"root {r!r} not in complex") from None
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
            nbrs = indices[_spans(indptr[frontier], indptr[frontier + 1] - indptr[frontier])]
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


def build_clique_complex(graph: WeightedGraph, n: int) -> WeightedComplex:
    """Enumerate all cliques of up to n+1 vertices as the degree <= n simplices.

    Each row is extended by every later neighbour of its last vertex that is
    adjacent to all its vertices (Chiba & Nishizeki, SIAM J. Comput. 1985);
    rows and neighbours come in order, so every table comes out sorted.
    Degrees 0 and 1 carry the graph's m0 and m1, higher degrees weight 1.
    """
    if n < 1:
        raise ValueError("max degree n must be >= 1")
    vertices = graph.vertices
    n0 = len(vertices)
    position = {v: j for j, v in enumerate(vertices)}
    ends = np.fromiter(map(position.__getitem__, itertools.chain.from_iterable(graph.m1)),
                       dtype=np.int64, count=2 * len(graph.m1)).reshape(-1, 2)
    codes = ends[:, 0] * n0 + ends[:, 1]
    order = np.argsort(codes)
    edges, codes = ends[order], codes[order]
    weights = [np.fromiter(map(graph.m0.__getitem__, vertices), dtype=float, count=n0),
               np.fromiter(graph.m1.values(), dtype=float, count=len(graph.m1))[order]]
    # the forward neighbours of vertex u are edges[start[u]:start[u+1], 1]
    start = np.searchsorted(edges[:, 0], np.arange(n0 + 1))
    tables = [edges]
    for degree in range(2, n + 1):
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
        weights.append(np.ones(len(x)))
    return WeightedComplex(Topology(vertices, tables), weights)


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
    region = set(region)
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


def _listed_once(weights: dict, key, w: float, what: str) -> None:
    """``weights[key] = w``; an entry listed again must repeat its weight."""
    if weights.setdefault(key, w) != w:
        raise ValueError(f"{what} listed twice with different weights")


def complex_from_json(doc: dict) -> WeightedComplex:
    """Rebuild a complex from its description document.

    Explicit per-degree weight lists define that degree's simplices exactly;
    degrees without a list default to weight 1 on every clique whose faces
    are present.  A ``weight_rule`` of kind ``radial`` replaces every weight
    instead, and any other rule is refused.  The description's ``meta`` is
    kept.
    """
    m0, m1 = {}, {}
    for item in doc["vertices"]:
        v = _decode_vertex(item["id"])
        _listed_once(m0, v, _positive_weight(item["m0"], "m0({!r})", v), f"vertex {v!r}")
    for item in doc["edges"]:
        u, v = _decode_vertex(item["u"]), _decode_vertex(item["v"])
        _listed_once(m1, (u, v), _positive_weight(item["m1"], "m1({!r},{!r})", u, v), f"edge ({u!r},{v!r})")
    graph = WeightedGraph(m0, m1)
    n = int(doc["max_degree"])
    rule = doc.get("weight_rule")
    if rule is not None:
        kind = rule.get("kind") if isinstance(rule, dict) else rule
        if kind != "radial":
            raise ValueError(f"unknown weight_rule kind {kind!r}: the only kind is 'radial'")
        for key in ("base", "alpha"):
            if key not in rule:
                raise ValueError(f"radial weight_rule needs {key!r}")
        if doc.get("weights"):
            raise ValueError("a description gives either weights lists or a weight_rule, not both")
    explicit = {}
    for k, lst in (doc.get("weights") or {}).items():
        if not 0 <= int(k) <= n:
            raise ValueError(f"weights of degree {k} outside 0..{n}")
        explicit[int(k)] = listed = {}
        for item in lst:
            s = tuple(_decode_vertex(v) for v in item["simplex"])
            _listed_once(listed, s, _positive_weight(item["m"], "degree-{} weight m{!r}", k, s),
                         f"degree-{k} simplex {s!r}")

    cx = build_clique_complex(graph, n)
    if rule is not None:
        from .generators import radial_weighting  # deferred; generators imports this module

        cx = radial_weighting(cx, [_decode_vertex(v) for v in rule["base"]], float(rule["alpha"]))
    elif explicit:
        top, weights = _kept(cx, {i: np.isin(np.arange(cx.size(i)), _locate(cx.topology, i, listed))
                                  for i, listed in explicit.items()})
        for i, listed in sorted(explicit.items()):
            # the kept degree-i table holds exactly the listed simplices whose faces stay
            j = _locate(top, i, listed)
            if (j < 0).any():
                unknown = sorted(s for s, k in zip(listed, j.tolist()) if k < 0)
                raise ValueError(f"degree-{i} weights reference non-cliques: {unknown[:3]!r}")
            weights[i] = np.empty(len(j))
            weights[i][j] = list(listed.values())
        cx = WeightedComplex(top, weights)
    cx.meta.update(doc.get("meta") or {})
    return cx
