"""Tests of the benchmark's own arithmetic, oracles and tracer.

    python3 -m pytest -q perfbench
"""

import math
import sys
import types

import numpy as np
import pytest

import oracles
import spread
import tracing


# ---------------------------------------------------------------------------
# spread

def test_quartile_spread():
    # statistics.quantiles(n=4), exclusive method: Q1 1.5, median 3, Q3 4.5
    assert spread.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spans

def _span(start, end, parent):
    return [0, start, end, parent, None]


def test_self_time_subtracts_direct_children_only():
    spans = [_span(0.0, 10.0, -1),
             _span(1.0, 3.0, 0),
             _span(1.5, 2.5, 1),      # grandchild: counts against span 1 only
             _span(5.0, 6.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0.0, 10.0, -1), _span(1.0, 4.0, 0), _span(3.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(6.0)


def test_roots():
    spans = [_span(0, 9, -1), _span(1, 2, 0), _span(1, 2, 1), _span(10, 11, -1),
             _span(10, 11, 3)]
    assert tracing.roots(spans) == [0, 0, 0, 3, 3]


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.a defines leaf/outer/gen; pkg.b imported leaf by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n"
         "def gen(n):\n    for i in range(n):\n        yield leaf(i)\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.leaf = a.leaf
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b


def test_install_wraps_every_binding_and_uninstall_restores(fake_package):
    a, b = fake_package
    original = a.leaf
    t = tracing.Tracer()
    t.install("fakepkg", [("a", "leaf", lambda args, kw, r: r),
                          ("a", "outer", None)])
    assert a.leaf is not original and b.leaf is a.leaf
    assert a.outer(1) == 4 and b.leaf(5) == 6
    names = [t.names[s[0]] for s in t.spans]
    assert names == ["a.outer", "a.leaf", "a.leaf"]
    assert [s[3] for s in t.spans] == [-1, 0, -1]
    assert t.spans[1][4] == 2 and t.spans[2][4] == 6
    t.uninstall()
    assert a.leaf is original and b.leaf is original


def test_generator_gets_one_span_per_item_and_pause_records_nothing(fake_package):
    a, _ = fake_package
    t = tracing.Tracer()
    t.install("fakepkg", [("a", "gen", None), ("a", "leaf", None)])
    assert list(a.gen(2)) == [1, 2]
    names = [t.names[s[0]] for s in t.spans]
    assert names == ["a.gen", "a.leaf", "a.gen", "a.leaf", "a.gen"]
    assert [s[3] for s in t.spans] == [-1, 0, -1, 2, -1]
    with t.paused():
        a.leaf(0)
        list(a.gen(3))
    assert len(t.spans) == 5
    t.uninstall()


# ---------------------------------------------------------------------------
# oracles

def test_pool_input():
    grid = np.zeros((16, 16), dtype=np.uint8)
    grid[:8, :8] = 255
    grid[8:, 8:] = 51
    assert oracles.pool_input(grid, 8).tolist() == pytest.approx([1.0, 0, 0, 0.2])


def test_dense_forward_by_hand():
    layers = [(np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([0.0, -5.0]), "relu"),
              (np.array([[1.0, 1.0]]), np.array([0.5]), "linear")]
    out, _ = oracles.DenseForward(layers)([3.0, 1.0])
    assert out.tolist() == [[2.0 + 1.0 + 0.5]]
    out, _ = oracles.DenseForward([(np.eye(1), np.zeros(1), "sigmoid")])([0.0])
    assert out.tolist() == [[0.5]]


def test_dense_forward_bound_covers_float32_evaluation():
    rng = np.random.default_rng(7)
    dims = [300, 150, 16, 3]     # 150 outputs: three weight slices
    acts = ["sigmoid", "relu", "linear"]
    layers = [(rng.normal(0, 0.2, (o, i)).astype(np.float32),
               rng.normal(0, 0.2, o).astype(np.float32), act)
              for i, o, act in zip(dims, dims[1:], acts)]
    x = rng.random((100, dims[0])).astype(np.float32)   # two input slices
    h = x
    for w, b, act in layers:
        h = h @ w.T + b
        h = np.maximum(h, 0) if act == "relu" else (
            1 / (1 + np.exp(-h)) if act == "sigmoid" else h)
    ref, bound = oracles.DenseForward(layers)(x)
    assert np.all(np.abs(h - ref) <= bound)
    # a worst-case bound, yet well under the outputs themselves
    assert np.all(bound < 1e-2 * (1 + np.abs(ref)))


def test_nearest_row_ties_go_to_smallest_node_id():
    latents = [[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
    node_ids = [3, 1, 0]
    winner, dist, near = oracles.nearest_row(latents, node_ids, [0.0, 0.0])
    assert (winner, dist, near) == (1, 1.0, {1, 3})
    latents.append([0.0, -1.0001])
    node_ids.append(0)
    assert oracles.nearest_row(latents, node_ids, [0, 0], rtol=1e-3)[2] == {0, 1, 3}
    assert oracles.node_distance(latents, node_ids, [0, 0], 0) == pytest.approx(1.0001)


def test_compose_and_wrap():
    x, y, th = oracles.compose((1.0, 2.0, math.pi / 2), (1.0, 0.0, 0.0))
    assert (x, y, th) == pytest.approx((1.0, 3.0, math.pi / 2))
    assert oracles.compose((0, 0, math.pi), (0, 0, math.pi / 2))[2] == \
        pytest.approx(-math.pi / 2)
    assert oracles.wrap(-math.pi) == pytest.approx(math.pi)
    assert oracles.wrap(3 * math.pi) == pytest.approx(math.pi)


def test_nearest_node_ties_go_to_smallest_index():
    nodes = [(0.0, 0.0), (2.0, 0.0), (10.0, 0.0)]
    assert oracles.nearest_node(nodes, 1.0, 0.0) == 0
    assert oracles.nearest_node(nodes, 1.1, 0.0) == 1
    assert oracles.nearest_node(nodes, 50.0, 0.0) == 2


def test_split_test_counts():
    # n=2: train 1, test 1; n=5: train 4, test 1; n=10: train 8, test 2
    assert oracles.split_test_counts([0, 0, 1, 1, 1, 1, 1] + [2] * 10, 3) == [1, 1, 2]
