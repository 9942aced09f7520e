"""Deterministic constructors for the example complex families.

Every generator returns a WeightedComplex built as the clique complex of a
graph whose structure it knows (plus, for the perturbed lattice, a top-degree
filter), so the core invariants hold by construction.  Vertex ids are
canonical coordinate/word tuples; a generator computes each vertex's position
in their sorted order arithmetically (mixed-radix digits for the lattices,
depth-first preorder for the trees), hands ``clique_tables`` its edges as
position arrays, and lists the labels once, in table order, so repeated runs
are bit-identical.
"""

from __future__ import annotations

import ast
import itertools
import math
from collections.abc import Set
from typing import Callable, Iterable

import numpy as np

from .complexes import (
    _BITS,
    MAX_OFFSPRING_SIMPLICES,
    Topology,
    WeightedComplex,
    _kept,
    clique_tables,
    reweighted,
)

__all__ = [
    "gen_lattice",
    "lattice_cube",
    "gen_perturbed_lattice",
    "gen_alternating_triangulation",
    "gen_truncated_tree",
    "gen_offspring_tree",
    "offspring_tree_family",
    "estimate_offspring_tree_size",
    "radial_weighting",
    "parse_offspring",
    "MAX_OFFSPRING_SIMPLICES",
]


def _refuse_above_cap(what: str, vertices: int, directions: int, n: int) -> None:
    """Refuse a clique complex up to degree n on ``vertices`` vertices, each the lowest of at most
    ``directions`` edges and so of at most C(directions, i) i-simplices, when that bound passes the cap."""
    if vertices > MAX_OFFSPRING_SIMPLICES or MAX_OFFSPRING_SIMPLICES < vertices * sum(
            math.comb(directions, i) for i in range(min(n, directions) + 1)):
        raise ValueError(f"the {what} may have more than {MAX_OFFSPRING_SIMPLICES} simplices")


def _unit_complex(vertices: list, edges: Iterable[np.ndarray], n: int) -> WeightedComplex:
    """Clique complex, weight 1 everywhere, of the sorted labels ``vertices``
    and the ``(E, 2)`` position arrays ``edges``, rows u < v."""
    tables = clique_tables(len(vertices), np.concatenate([np.zeros((0, 2), np.int64), *edges]), n)
    return WeightedComplex(Topology(vertices, tables), [np.ones(len(V)) for V in [vertices, *tables]])


def gen_lattice(d: int, n: int, radius: int, adjacency: str = "freudenthal") -> WeightedComplex:
    """Clique complex of the integer lattice patch {-R..R}^d.

    ``adjacency="freudenthal"`` joins x to x+delta for every nonzero 0/1
    vector delta, which creates the standard n-cliques for n <= d;
    ``"nearest"`` keeps only unit steps (bipartite, no triangles).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if adjacency == "freudenthal" and d < n:
        raise ValueError("freudenthal lattice needs d >= n")
    if adjacency not in ("freudenthal", "nearest"):
        raise ValueError(f"unknown adjacency {adjacency!r}")
    side = 2 * radius + 1
    # the edge directions are the nonzero 0/1 vectors, or the unit vectors
    _refuse_above_cap(f"lattice of radius {radius} in dimension {d}", side ** min(d, _BITS),
                      2 ** min(d, _BITS) - 1 if adjacency == "freudenthal" else d, n)
    if adjacency == "freudenthal":
        deltas = [dl for dl in itertools.product((0, 1), repeat=d) if any(dl)]
    else:
        deltas = [tuple(1 if k == a else 0 for k in range(d)) for a in range(d)]
    # sorted order is itertools.product order: x_k + R is digit k of the position in base side
    digits = np.indices((side,) * d).reshape(d, -1)
    place = side ** np.arange(d - 1, -1, -1)
    edges = [np.flatnonzero((digits[dl == 1] < side - 1).all(axis=0))[:, None] + [0, place @ dl]
             for dl in map(np.array, deltas)]
    cx = _unit_complex(list(itertools.product(range(-radius, radius + 1), repeat=d)), edges, n)
    cx.meta.update(family="lattice", d=d, radius=radius, adjacency=adjacency)
    return cx


class _Cube(Set):
    """The lattice points of an axis-aligned box, one range per axis; a
    point is tested by its coordinates, and none is stored."""

    def __init__(self, ranges: list[range]):
        self.ranges = ranges

    def __contains__(self, v) -> bool:
        return isinstance(v, tuple) and len(v) == len(self.ranges) and all(x in r for x, r in zip(v, self.ranges))

    def __iter__(self):
        return itertools.product(*self.ranges)

    def __len__(self) -> int:
        return math.prod(map(len, self.ranges))


def lattice_cube(side: int, d: int = 2, center: tuple | None = None) -> Set:
    """Axis-aligned cube of ``side`` lattice points per axis, as a lazy set."""
    if side < 1:
        raise ValueError("side must be >= 1")
    if side ** min(d, _BITS) > MAX_OFFSPRING_SIMPLICES:
        raise ValueError(f"the cube of side {side} in dimension {d} has more than {MAX_OFFSPRING_SIMPLICES} points")
    return _Cube([range(c - side // 2, c + side - side // 2) for c in (center or (0,) * d)[:d]])


def gen_perturbed_lattice(d: int, n: int, radius: int, region: Iterable[tuple],
                          adjacency: str = "freudenthal") -> WeightedComplex:
    """Lattice complex with every degree-n simplex not inside ``region`` removed.

    Lower degrees are untouched; an empty region removes all top simplices.
    """
    region = region if isinstance(region, Set) else set(region)
    cx = gen_lattice(d, n, radius, adjacency)
    top = cx.topology
    inside = np.fromiter(map(region.__contains__, top.vertices), dtype=bool, count=len(top.vertices))
    top, weights = _kept(cx, {n: inside[top.vertex_index(n)].all(axis=1)})
    return WeightedComplex(top, weights, meta=dict(cx.meta, family="perturbed_lattice", region_size=len(region)))


def gen_alternating_triangulation(radius: int) -> WeightedComplex:
    """Z^2 patch, all grid edges, and both triangles of each even unit square.

    The square with lower-left corner (i, j) gets its (i,j)-(i+1,j+1) diagonal
    and two triangles exactly when i + j is even; odd squares stay hollow.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    side = 2 * radius + 1
    # each vertex is the lowest of its right, upper and diagonal edges
    _refuse_above_cap(f"alternating triangulation of radius {radius}", side ** 2, 3, 2)
    # (i, j) sits at (i + R) * side + (j + R), and i + j has the parity of that sum
    i, j = np.indices((side, side)).reshape(2, -1)
    steps = [(i < side - 1, side), (j < side - 1, 1),
             ((i < side - 1) & (j < side - 1) & ((i + j) % 2 == 0), side + 1)]
    edges = [np.flatnonzero(mask)[:, None] + [0, step] for mask, step in steps]
    span = range(-radius, radius + 1)
    cx = _unit_complex([(a, b) for a in span for b in span], edges, 2)
    cx.meta.update(family="alternating_triangulation", radius=radius)
    return cx


def _tree(ks: list[int], paired: int):
    """Sorted labels, layer positions, subtree sizes and edges of the tree of
    child words with ks[l] children per depth-l vertex, children (0, 1), (2, 3),
    ... joined below depth ``paired``.  Sorted word order is depth-first
    preorder: child c of depth-l vertex v sits at pos(v) + 1 + c * subtree[l + 1]."""
    subtree = [1]
    for k in reversed(ks):
        subtree.insert(0, 1 + k * subtree[0])
    layers, edges, words, frontier = [np.zeros(1, np.int64)], [], [()], [()]
    for l, k in enumerate(ks):
        children = layers[l][:, None] + 1 + subtree[l + 1] * np.arange(k)
        edges.append(np.column_stack([np.repeat(layers[l], k), children.ravel()]))
        if l < paired:
            edges.append(np.column_stack([children[:, 0:k - 1:2].ravel(), children[:, 1:k:2].ravel()]))
        layers.append(children.ravel())
        frontier = [v + (c,) for v in frontier for c in range(k)]
        words += frontier
    vertices = list(map(words.__getitem__, np.argsort(np.concatenate(layers)).tolist()))
    return vertices, layers, subtree, edges


def gen_truncated_tree(n_tri: int, depth: int) -> WeightedComplex:
    """Binary tree whose triangles (v, v0, v1) stop below depth ``n_tri``.

    Sibling edges are added exactly where a triangle exists, so the clique
    complex stores the stated triangles and nothing more.
    """
    if depth < max(0, n_tri + 1):
        raise ValueError(f"depth {depth} must be nonnegative and at least n_tri + 1")
    # each vertex is the lowest of its two child edges and, as a first child, its sibling edge
    _refuse_above_cap(f"truncated tree of depth {depth}", 2 ** min(depth + 1, _BITS) - 1, 3, 2)
    vertices, _, _, edges = _tree([2] * depth, n_tri + 1)
    cx = _unit_complex(vertices, edges, 2)
    cx.meta.update(family="truncated_tree", n_tri=n_tri, depth=depth)
    return cx


def _offspring_layers(off: Callable[[int], int], depth: int, tet_parity: int):
    """off(l) for each layer l that has children, down to ``depth`` or the
    first childless layer; the layers whose vertices carry a tetrahedron; and
    the simplex count.  The layers, and so the count, stop once the count
    passes MAX_OFFSPRING_SIMPLICES."""
    if tet_parity not in (0, 1):
        raise ValueError(f"tet parity {tet_parity} must be 0 or 1")
    ks, widths, size = [], [1], 1
    for level in range(depth):
        if size > MAX_OFFSPRING_SIMPLICES or (k := int(off(level))) == 0:
            break
        if k < 0:
            raise ValueError(f"off({level}) = {k} must be >= 0")
        # the children with their parent edges, the sibling edges and triangles
        size += 2 * widths[-1] * (k + k // 2)
        ks.append(k)
        widths.append(widths[-1] * k)
    tets = [l for l in range(len(ks) - 1) if l % 2 == tet_parity and ks[l] >= 2]
    # each tetrahedron brings two closure edges and three triangles
    return ks, tets, size + 6 * sum(widths[l] for l in tets)


def gen_offspring_tree(depth: int, off: Callable[[int], int],
                    tet_parity: int = 0) -> WeightedComplex:
    """Rooted tree with off(l) children per depth-l vertex, sibling-pair
    triangles, and a tetrahedron over the first sibling pair at depths of the
    given parity.

    The tetrahedron (v, c0, c1, c0's first child) is only a clique once the
    edges (v, c0c0) and (c1, c0c0) are present; those closure edges are added
    and reported in ``meta["added_edges"]``.  They join layers two apart, so
    the depth layering of this family fails the strict unit-jump property;
    see the validation report.  A tree of more than MAX_OFFSPRING_SIMPLICES
    simplices is refused with a ValueError before anything is built.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ks, tets, size = _offspring_layers(off, depth, tet_parity)
    if size > MAX_OFFSPRING_SIMPLICES:
        raise ValueError(f"the offspring tree of depth {depth} has more than {MAX_OFFSPRING_SIMPLICES} simplices")
    vertices, layers, subtree, edges = _tree(ks, len(ks))
    # the closure edges (v, c0c0) and (c1, c0c0) of each tetrahedron, in layer order
    added = np.concatenate([np.zeros((0, 2), np.int64)] + [
        np.column_stack([v, v + 2, v + 1 + subtree[l + 1], v + 2]).reshape(-1, 2)
        for l in tets for v in [layers[l]]])
    cx = _unit_complex(vertices, edges + [np.sort(added, axis=1)], 3)
    cx.meta.update(
        family="offspring_tree",
        depth=depth,
        tet_parity=tet_parity,
        added_edges=[[list(vertices[u]), list(vertices[v])] for u, v in added.tolist()],
    )
    return cx


#: largest literal exponent an offspring formula may use
MAX_OFF_EXPONENT = 8


def _bounded_formula(node: ast.AST) -> bool:
    """True for n, integer literals, + - * /, unary minus and ** with an
    integer-literal exponent <= MAX_OFF_EXPONENT over a base free of **.

    Without powers the value's size grows at most linearly with the formula's
    length, and each power multiplies it by at most MAX_OFF_EXPONENT once, so
    the work of one evaluation is bounded by the formula's length.
    """
    if isinstance(node, ast.Name):
        return node.id == "n"
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub) and _bounded_formula(node.operand)
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Pow):
        exp = node.right
        return (isinstance(exp, ast.Constant) and type(exp.value) is int
                and exp.value <= MAX_OFF_EXPONENT
                and not any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Pow)
                            for sub in ast.walk(node.left))
                and _bounded_formula(node.left))
    return (isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))
            and _bounded_formula(node.left) and _bounded_formula(node.right))


def parse_offspring(spec) -> Callable[[int], int]:
    """Turn an offspring description (int, callable, or formula in n) into a
    callable; "n^2" etc. are accepted.  Formulas are limited to the bounded
    forms of ``_bounded_formula``; anything else raises ``ValueError``."""
    if callable(spec):
        return spec
    if isinstance(spec, int):
        return lambda n, k=spec: k
    text = str(spec).strip()
    try:
        tree = ast.parse(text.replace("^", "**"), "<offspring>", mode="eval")
    except SyntaxError:
        tree = None
    if tree is None or not _bounded_formula(tree.body):
        raise ValueError(f"unsupported offspring formula {spec!r}")
    code = compile(tree, "<offspring>", "eval")

    def off(n):
        try:
            return int(eval(code, {"__builtins__": {}}, {"n": n}))
        except ArithmeticError as err:
            raise ValueError(f"offspring formula {text!r} at n={n}: {err}") from None

    return off


def _family_offspring(off_spec) -> Callable[[int], int]:
    """Offspring of the canonical growth families: the root keeps 2 children
    when the formula gives off(0) = 0 (the base construction is a binary tree)."""
    base = parse_offspring(off_spec)
    return lambda n: 2 if n == 0 and base(0) == 0 else base(n)


def offspring_tree_family(off_spec, depth: int, tet_parity: int = 0) -> WeightedComplex:
    """Canonical growth family of ``gen_offspring_tree`` for a formula in n."""
    cx = gen_offspring_tree(depth, _family_offspring(off_spec), tet_parity)
    cx.meta["off"] = str(off_spec)
    return cx


def estimate_offspring_tree_size(off_spec, depth: int, tet_parity: int = 0) -> int:
    """Total simplex count of offspring_tree_family without building it.  The
    count stops once it passes MAX_OFFSPRING_SIMPLICES, so above that cap it
    is a lower bound that already exceeds it."""
    return _offspring_layers(_family_offspring(off_spec), depth, tet_parity)[2]


def radial_weighting(cx: WeightedComplex, base: Iterable, alpha: float) -> WeightedComplex:
    """Replace every weight by (1 + max vertex distance from ``base``)^(-alpha)."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha = {alpha} must be finite and positive")
    base = list(base)
    if not base:
        raise ValueError("base set must be nonempty")
    vertex_dist = cx.topology.distances_from(base)
    missing = int(np.count_nonzero(vertex_dist < 0))
    if missing:
        raise ValueError(f"{missing} vertices unreachable from the base set")
    # Python's ** on each distance, so the weights equal the per-simplex formula bit for bit
    table = np.array([(1.0 + d) ** (-alpha) for d in range(int(vertex_dist.max(initial=0)) + 1)])
    weights = [table[vertex_dist[cx.topology.vertex_index(i)].max(axis=1)]
               for i in range(cx.max_degree + 1)]
    return reweighted(cx, weights, meta={"radial_alpha": alpha, "radial_base_size": len(set(base))})
