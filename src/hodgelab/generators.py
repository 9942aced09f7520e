"""Deterministic constructors for the example complex families.

Every generator returns a WeightedComplex built as the clique complex of an
explicitly constructed graph (plus, for the perturbed lattice, a top-degree
filter), so the core invariants hold by construction.  Vertex ids are
canonical coordinate/word tuples, hashed to dense indices in sorted order,
which makes repeated runs bit-identical.
"""

from __future__ import annotations

import ast
import itertools
import math
from typing import Callable, Iterable

import numpy as np

from .complexes import (
    WeightedComplex,
    WeightedGraph,
    build_clique_complex,
    drop_simplices,
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
]


def _unit_graph(vertices, edges) -> WeightedGraph:
    return WeightedGraph({v: 1.0 for v in vertices}, {e: 1.0 for e in edges})


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
    if adjacency == "freudenthal":
        deltas = [dl for dl in itertools.product((0, 1), repeat=d) if any(dl)]
    elif adjacency == "nearest":
        deltas = [tuple(1 if k == a else 0 for k in range(d)) for a in range(d)]
    else:
        raise ValueError(f"unknown adjacency {adjacency!r}")
    span = range(-radius, radius + 1)
    vertices = list(itertools.product(span, repeat=d))
    box = set(vertices)
    edges = []
    for v in vertices:
        for dl in deltas:
            w = tuple(a + b for a, b in zip(v, dl))
            if w in box:
                edges.append((v, w))
    cx = build_clique_complex(_unit_graph(vertices, edges), n)
    cx.meta.update(family="lattice", d=d, radius=radius, adjacency=adjacency)
    return cx


def lattice_cube(side: int, d: int = 2, center: tuple | None = None) -> set:
    """Axis-aligned cube of ``side`` lattice points per axis."""
    if side < 1:
        raise ValueError("side must be >= 1")
    center = center or (0,) * d
    offsets = range(-(side // 2), side - side // 2)
    return {tuple(c + o for c, o in zip(center, off))
            for off in itertools.product(offsets, repeat=d)}


def gen_perturbed_lattice(d: int, n: int, radius: int, region: Iterable[tuple],
                          adjacency: str = "freudenthal") -> WeightedComplex:
    """Lattice complex with every degree-n simplex not inside ``region`` removed.

    Lower degrees are untouched; an empty region removes all top simplices.
    """
    region = set(region)
    cx = gen_lattice(d, n, radius, adjacency)
    cx = drop_simplices(cx, n, lambda s: all(v in region for v in s))
    cx.meta.update(family="perturbed_lattice", region_size=len(region))
    return cx


def gen_alternating_triangulation(radius: int) -> WeightedComplex:
    """Z^2 patch, all grid edges, and both triangles of each even unit square.

    The square with lower-left corner (i, j) gets its (i,j)-(i+1,j+1) diagonal
    and two triangles exactly when i + j is even; odd squares stay hollow.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    span = range(-radius, radius + 1)
    vertices = [(i, j) for i in span for j in span]
    box = set(vertices)
    edges = []
    for (i, j) in vertices:
        for w in ((i + 1, j), (i, j + 1)):
            if w in box:
                edges.append(((i, j), w))
        if (i + j) % 2 == 0 and (i + 1, j + 1) in box:
            edges.append(((i, j), (i + 1, j + 1)))
    cx = build_clique_complex(_unit_graph(vertices, edges), 2)
    cx.meta.update(family="alternating_triangulation", radius=radius)
    return cx


def gen_truncated_tree(n_tri: int, depth: int) -> WeightedComplex:
    """Binary tree whose triangles (v, v0, v1) stop below depth ``n_tri``.

    Sibling edges are added exactly where a triangle exists, so the clique
    complex stores the stated triangles and nothing more.
    """
    if depth < n_tri + 1:
        raise ValueError("depth must be at least n_tri + 1")
    vertices = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [v + (c,) for v in frontier for c in (0, 1)]
        vertices.extend(frontier)
    edges = []
    for v in vertices:
        if len(v) < depth:
            edges.append((v, v + (0,)))
            edges.append((v, v + (1,)))
            if len(v) <= n_tri:
                edges.append((v + (0,), v + (1,)))
    cx = build_clique_complex(_unit_graph(vertices, edges), 2)
    cx.meta.update(family="truncated_tree", n_tri=n_tri, depth=depth)
    return cx


def gen_offspring_tree(depth: int, off: Callable[[int], int],
                    tet_parity: int = 0) -> WeightedComplex:
    """Rooted tree with off(l) children per depth-l vertex, sibling-pair
    triangles, and a tetrahedron over the first sibling pair at depths of the
    given parity.

    The tetrahedron (v, c0, c1, c0's first child) is only a clique once the
    edges (v, c0c0) and (c1, c0c0) are present; those closure edges are added
    and reported in ``meta["added_edges"]``.  They join layers two apart, so
    the depth layering of this family fails the strict unit-jump property;
    see the validation report.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    layers: list[list[tuple]] = [[()]]
    for level in range(depth):
        k = int(off(level))
        if k < 0:
            raise ValueError(f"off({level}) = {k} must be >= 0")
        nxt = [v + (c,) for v in layers[level] for c in range(k)]
        if not nxt:
            break
        layers.append(nxt)
    vertices = [v for layer in layers for v in layer]
    edges = []
    for layer in layers[:-1]:
        for v in layer:
            k = int(off(len(v)))
            children = [v + (c,) for c in range(k)]
            edges.extend((v, c) for c in children)
            for a in range(0, k - 1, 2):
                edges.append((children[a], children[a + 1]))
    added = []
    for layer in layers:
        for v in layer:
            if len(v) % 2 != tet_parity % 2:
                continue
            if len(v) + 2 > len(layers) - 1:
                continue
            if int(off(len(v))) < 2 or int(off(len(v) + 1)) < 1:
                continue
            c0, c1, w = v + (0,), v + (1,), v + (0, 0)
            added.append((v, w))
            added.append((c1, w))
    cx = build_clique_complex(_unit_graph(vertices, edges + added), 3)
    cx.meta.update(
        family="offspring_tree",
        depth=depth,
        tet_parity=tet_parity,
        added_edges=[[list(u), list(v)] for u, v in added],
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
    """Total simplex count of offspring_tree_family without building it."""
    off = _family_offspring(off_spec)
    widths = [1]
    for level in range(depth):
        w = widths[level] * int(off(level))
        if w == 0:
            break
        widths.append(w)
    verts = sum(widths)
    pc_edges = sum(widths[1:])
    sib = sum(widths[l] * (int(off(l)) // 2) for l in range(len(widths) - 1))
    tets = sum(
        widths[l]
        for l in range(len(widths))
        if l % 2 == tet_parity % 2 and l + 2 <= len(widths) - 1
        and int(off(l)) >= 2 and int(off(l + 1)) >= 1
    )
    return verts + pc_edges + sib + 2 * tets + sib + 3 * tets + tets


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
