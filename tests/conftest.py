import pytest
from hypothesis import settings

from hodgelab import build_clique_complex, drop_simplices


# property tests draw the same examples on every run, with no example
# database, so Tier-1 results and run time do not vary between runs
settings.register_profile("hodgelab", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("hodgelab")


def unit_graph(vertices, edges):
    """The weights ``(m0, m1)`` of ``build_clique_complex``, 1.0 on every vertex and edge."""
    return {v: 1.0 for v in vertices}, {e: 1.0 for e in edges}


def k3_description(m0=1.0, m1=1.0, m=1.0):
    """K3 with its triangle listed; the given weights go on vertex a, edge
    a-b and the triangle."""
    return {
        "vertices": [{"id": v, "m0": m0 if v == "a" else 1.0} for v in "abc"],
        "edges": [{"u": "a", "v": "b", "m1": m1}, {"u": "a", "v": "c", "m1": 1.0},
                  {"u": "b", "v": "c", "m1": 1.0}],
        "max_degree": 2,
        "weights": {"2": [{"simplex": ["a", "b", "c"], "m": m}]},
    }


@pytest.fixture
def K3():
    return build_clique_complex(*unit_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")]), 2)


@pytest.fixture
def K4():
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    return build_clique_complex(*unit_graph("abcd", edges), 3)


@pytest.fixture
def single_edge():
    return build_clique_complex(*unit_graph("ab", [("a", "b")]), 1)


@pytest.fixture
def path3():
    return build_clique_complex(*unit_graph("abc", [("a", "b"), ("b", "c")]), 2)


@pytest.fixture
def four_cycle():
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    return build_clique_complex(*unit_graph("abcd", edges), 2)


@pytest.fixture
def hollow_triangle(K3):
    return drop_simplices(K3, 2, lambda s: False)
