"""The span tracer: self times add up to the traced wall time, also across a
thread-pool fan-out, and installing it wraps every binding of a layer
function and restores them all afterwards."""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracer import Tracer


def pool_map(fn, items):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fn, items))


def toy_tree(tracer):
    """root -> outer -> (inner, fan-out of 4 leaves on 2 threads, inner)."""
    inner = tracer.wrap(lambda: time.sleep(0.01), "b")
    leaf = tracer.wrap(lambda x: time.sleep(0.005 * x), "c")
    fan = tracer.fan_out(pool_map)

    def outer_body():
        inner()
        time.sleep(0.01)
        fan(leaf, [1, 2, 3, 4])
        inner()

    outer = tracer.wrap(outer_body, "a")
    root = tracer.open("pass", "bench")
    outer()
    time.sleep(0.005)
    tracer.close(root)
    return root


def test_self_times_add_up_to_wall_time_with_fan_out():
    tracer = Tracer()
    root = toy_tree(tracer)
    own = tracer.self_times()
    wall = root.end - root.start
    assert sum(own.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
    layers = tracer.layer_self_times()
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
    assert layers["c"] > 0.02  # 1+2+3+4 x 5 ms of leaves, split over two threads
    assert layers["b"] == pytest.approx(0.02, abs=0.01)


def test_fanned_out_spans_name_the_caller_as_parent():
    tracer = Tracer()
    toy_tree(tracer)
    by_id = {s.id: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s.layer == "c"]
    assert len(leaves) == 4
    assert {by_id[s.parent].layer for s in leaves} == {"a"}
    assert len({s.thread for s in leaves} - {by_id[leaves[0].parent].thread}) >= 1


def test_sequential_self_time_is_span_minus_children():
    tracer = Tracer()
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0, 10.0])
    tracer.clock = lambda: next(clock)
    root = tracer.open("pass", "bench")           # 0
    a = tracer.open("a", "x")                     # 1
    b = tracer.open("b", "y")                     # 3
    tracer.close(b)                               # 4
    c = tracer.open("c", "y")                     # 4.5
    tracer.close(c)                               # 6
    tracer.close(a)                               # 10
    root.end = 12.0
    own = tracer.self_times()
    assert own[a.id] == pytest.approx(9.0 - 1.0 - 1.5)
    assert own[b.id] == pytest.approx(1.0)
    assert own[c.id] == pytest.approx(1.5)
    assert own[root.id] == pytest.approx(3.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    import hodgelab.complexes as complexes
    import hodgelab.generators as generators
    import hodgelab.spectral as spectral

    original = complexes.reweighted
    tracer = Tracer()
    tracer.install()
    try:
        assert spectral.reweighted is complexes.reweighted is generators.reweighted
        assert spectral.reweighted is not original
        cx = generators.gen_lattice(2, 2, 2)
        root = tracer.open("pass", "bench")
        spectral.boundary_weight_down(cx)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert complexes.reweighted is original and spectral.reweighted is original
    by_id = {s.id: s for s in tracer.spans}
    rew = [s for s in tracer.spans if s.name == "reweighted"]
    assert len(rew) == 1 and by_id[rew[0].parent].name == "boundary_weight_down"
    assert tracer.counts["complexes.built"] == 2  # the lattice and its reweighting


def test_installed_energy_sweep_fans_out_and_adds_up():
    from hodgelab import chi, generators

    cx = generators.gen_lattice(2, 2, 5)
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("pass", "bench")
        exh = chi.make_ball_exhaustion(cx, {(0, 0)}, 4)
        cutoffs = chi.make_cutoff_system(cx, exh, range(1, 5))
        chi.check_global_chi(cx, cutoffs)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert tracer.counts["chi.energy_evals"] == 8
    assert tracer.counts["chi.cutoffs_built"] == 4
    evals = [s for s in tracer.spans if s.name == "energy_functional"]
    by_id = {s.id: s for s in tracer.spans}
    assert all(by_id[s.parent].name == "check_global_chi" for s in evals)
    assert sum(tracer.self_times().values()) == pytest.approx(root.end - root.start, rel=1e-9)
