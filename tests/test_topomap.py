import math

import numpy as np
import pytest

from sbevloc.errors import InputError
from sbevloc.geometry import Pose2, global_from_relative, relative_pose, wrap_angle
from sbevloc.sbev import GridSpec, SBev, cell_centers, cell_indices
from sbevloc.topomap import (
    AugmentConfig,
    NodeDataset,
    Sample,
    TopoMap,
    assign_to_nodes,
    augment_sample,
    balance_samples,
    build_topo_map,
    nearest_node,
    read_topomap,
    rotate_grid,
    shift_grid,
    write_topomap,
)


def greedy_walk_oracle(traj, trans, ang):
    """Independent reimplementation of the node-dropping rule."""
    nodes = [traj[0]]
    for p in traj[1:]:
        last = nodes[-1]
        dist = ((p.x - last.x) ** 2 + (p.y - last.y) ** 2) ** 0.5
        dth = (p.theta - last.theta + math.pi) % (2 * math.pi) - math.pi
        if dist >= trans or abs(dth) >= ang:
            nodes.append(p)
    return nodes


# --- build_topo_map ------------------------------------------------------

def test_straight_path_nodes():
    traj = [Pose2(float(i), 0, 0) for i in range(101)]  # 100 m, 1 m steps
    topo = build_topo_map(traj, 20.0, math.radians(30))
    assert len(topo) == 6
    assert [n.pose.x for n in topo.nodes] == [0, 20, 40, 60, 80, 100]


def test_stationary_trajectory_single_node():
    topo = build_topo_map([Pose2(1, 2, 0.5)] * 50, 20.0, math.radians(30))
    assert len(topo) == 1


def test_angular_threshold_triggers():
    traj = [Pose2(0, 0, math.radians(d)) for d in range(0, 91, 5)]
    topo = build_topo_map(traj, 20.0, math.radians(30))
    assert len(topo) == 4  # 0, 30, 60, 90 degrees


def test_build_matches_greedy_oracle():
    rng = np.random.default_rng(0)
    theta = 0.0
    x, y = 0.0, 0.0
    traj = []
    for _ in range(2000):
        theta += rng.normal(0, 0.02)
        x += math.cos(theta) * 0.5
        y += math.sin(theta) * 0.5
        traj.append(Pose2(x, y, theta))
    topo = build_topo_map(traj, 15.0, math.radians(25))
    want = greedy_walk_oracle(traj, 15.0, math.radians(25))
    assert [n.pose for n in topo.nodes] == want


def test_build_rejects_empty():
    with pytest.raises(InputError):
        build_topo_map([], 20, 0.5)


def test_resampling_density_stability():
    # sampling 4x finer moves node positions by at most the coarse step
    fine = [Pose2(i * 0.25, 0, 0) for i in range(401)]
    coarse = fine[::4]
    t_fine = build_topo_map(fine, 20.0, math.radians(30))
    t_coarse = build_topo_map(coarse, 20.0, math.radians(30))
    assert len(t_fine) == len(t_coarse)
    for a, b in zip(t_fine.nodes, t_coarse.nodes):
        assert abs(a.pose.x - b.pose.x) <= 1.0


# --- nearest_node --------------------------------------------------------

def make_map(positions):
    traj_nodes = tuple(
        __import__("sbevloc.topomap", fromlist=["NodePose"]).NodePose(i, Pose2(*p))
        for i, p in enumerate(positions))
    return TopoMap(traj_nodes, 20.0, math.radians(30))


def test_nearest_node_exact_hit():
    topo = make_map([(0, 0), (10, 0), (20, 0), (30, 5)])
    assert nearest_node(topo, Pose2(30, 5, 1.0)) == 3


def test_nearest_node_tie_break():
    topo = make_map([(-1, 0), (0, 0), (2, 0), (4, 0)])
    assert nearest_node(topo, Pose2(3, 0, 0)) == 2  # ids 2 and 3 equidistant


def test_nearest_node_brute_force():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-100, 100, (200, 2))
    topo = make_map(pts)
    for _ in range(1000):
        q = Pose2(*rng.uniform(-120, 120, 2))
        d = np.hypot(pts[:, 0] - q.x, pts[:, 1] - q.y)
        assert nearest_node(topo, q) == int(np.argmin(d))


def test_assign_to_nodes_rel_pose():
    topo = make_map([(0, 0), (20, 0)])
    ds = assign_to_nodes(topo, [(7, Pose2(21, 1, 0.2))])
    s = ds.samples[0]
    assert s.frame_id == 7 and s.node_id == 1
    back = global_from_relative(topo.nodes[1].pose, s.rel_pose)
    assert back.x == pytest.approx(21)
    assert back.y == pytest.approx(1)


# --- balance_samples -----------------------------------------------------

def make_dataset(counts):
    samples = []
    fid = 0
    for node, n in enumerate(counts):
        for _ in range(n):
            samples.append(Sample(fid, node, Pose2(0, 0, 0)))
            fid += 1
    return NodeDataset(tuple(samples), n_nodes=len(counts))


def test_balance_already_equal():
    ds = balance_samples(make_dataset([5, 5]), seed=0)
    assert ds.counts().tolist() == [5, 5]


def test_balance_undersamples():
    ds = balance_samples(make_dataset([10, 4]), seed=0)
    assert ds.counts().tolist() == [4, 4]
    assert ds.counts().max() - ds.counts().min() == 0


def test_balance_deterministic_per_seed():
    big = make_dataset([30, 7, 19])
    a = balance_samples(big, seed=42)
    b = balance_samples(big, seed=42)
    c = balance_samples(big, seed=43)
    assert [s.frame_id for s in a.samples] == [s.frame_id for s in b.samples]
    assert a.counts().tolist() == c.counts().tolist() == [7, 7, 7]
    assert [s.frame_id for s in a.samples] != [s.frame_id for s in c.samples]


def test_balance_rejects_empty_node():
    with pytest.raises(InputError):
        balance_samples(make_dataset([3, 0]), seed=0)


# --- augmentation --------------------------------------------------------

SPEC8 = GridSpec(size=8, resolution=0.25)


def test_augment_empty_config():
    sb = SBev(np.zeros((8, 8), dtype=np.uint8), 0.25)
    out = augment_sample(sb, Pose2(1, 2, 0.3), AugmentConfig((), ()), SPEC8)
    assert len(out) == 1
    assert out[0][1] == Pose2(1, 2, 0.3)


def test_augment_forward_shift_arithmetic():
    grid = np.zeros((352, 352), dtype=np.uint8)
    grid[311, 175] = 7  # content 10 m ahead
    sb = SBev(grid, 0.25)
    cfg = AugmentConfig(rotations_deg=(), shifts_cells=((4, 0),))
    out = augment_sample(sb, Pose2(0.5, 0, 0), cfg)
    aug_sb, aug_rel = out[1]
    assert aug_rel.x == pytest.approx(1.5)  # +4 cells * 0.25 m
    assert aug_rel.y == 0
    # viewpoint moved forward: content lands 4 rows closer to the ego row
    assert aug_sb.grid[315, 175] == 7
    assert aug_sb.grid.sum() == 7


def test_augment_lateral_shift_arithmetic():
    grid = np.zeros((352, 352), dtype=np.uint8)
    grid[311, 175] = 9
    sb = SBev(grid, 0.25)
    cfg = AugmentConfig(rotations_deg=(), shifts_cells=((0, 4),))
    _, (aug_sb, aug_rel) = augment_sample(sb, Pose2(0, 0, 0), cfg)
    assert aug_rel.y == pytest.approx(1.0)
    assert aug_sb.grid[311, 179] == 9


def test_augment_rotation_label_round_trip():
    rng = np.random.default_rng(3)
    grid = rng.integers(0, 5, (352, 352)).astype(np.uint8)
    sb = SBev(grid, 0.25)
    spec = GridSpec()
    plus = rotate_grid(grid, math.radians(5), spec)
    back = rotate_grid(plus, math.radians(-5), spec)
    # most cells round-trip despite nearest-neighbor resampling
    assert (back == grid).mean() > 0.9
    # label arithmetic round-trips exactly
    rel = Pose2(1, 2, 0.3)
    cfg = AugmentConfig(rotations_deg=(5.0,), shifts_cells=())
    _, (sb2, rel2) = augment_sample(sb, rel, cfg, spec)
    cfg_back = AugmentConfig(rotations_deg=(-5.0,), shifts_cells=())
    _, (_, rel3) = augment_sample(sb2, rel2, cfg_back, spec)
    assert abs(wrap_angle(rel3.theta - rel.theta)) < 1e-12
    assert rel3.x == rel.x and rel3.y == rel.y


def test_rotation_moves_content_against_yaw():
    # obstacle dead ahead; vehicle yaws left (+5 deg) -> obstacle appears to
    # the right (negative y -> larger column)
    grid = np.zeros((352, 352), dtype=np.uint8)
    grid[211, 175] = 4  # ~35 m ahead
    rot = rotate_grid(grid, math.radians(5), GridSpec())
    rr, cc = np.nonzero(rot)
    assert len(rr) >= 1
    assert cc.mean() > 176


def rotate_grid_uncached(grid, angle, spec):
    """The inverse-map formula, evaluated afresh on every call."""
    xc, yc = cell_centers(spec)
    x = np.broadcast_to(xc[:, None], grid.shape)
    y = np.broadcast_to(yc[None, :], grid.shape)
    c, s = math.cos(angle), math.sin(angle)
    rows, cols, inside = cell_indices(spec, (c * x - s * y).ravel(), (s * x + c * y).ravel())
    flat = np.zeros(grid.size, dtype=grid.dtype)
    flat[inside] = grid[rows[inside], cols[inside]]
    return flat.reshape(grid.shape)


def test_rotate_grid_cache_matches_uncached():
    spec = GridSpec()
    grid = np.random.default_rng(4).integers(0, 256, (352, 352)).astype(np.uint8)
    for deg in (-5.0, 5.0, 0.0, 30.0):
        angle = math.radians(deg)
        want = rotate_grid_uncached(grid, angle, spec)
        for _ in range(2):   # the first call fills the cache, the second reads it
            got = rotate_grid(grid, angle, spec)
            assert got.dtype == grid.dtype and np.array_equal(got, want)
            got[:] = 255     # a returned grid is the caller's own
    small = GridSpec(size=16, resolution=0.5)
    grid16 = grid[:16, :16].copy()
    assert np.array_equal(rotate_grid(grid16, 0.3, small),
                          rotate_grid_uncached(grid16, 0.3, small))
    with pytest.raises(InputError):
        rotate_grid(grid16, 0.3, spec)


def test_shift_grid_zero_fill():
    g = np.arange(16, dtype=np.uint8).reshape(4, 4)
    out = shift_grid(g, 1, -2)
    assert out[0].sum() == 0          # vacated top row zero-filled
    assert out[1, 0] == g[0, 2]


# --- persistence ---------------------------------------------------------

def test_topomap_round_trip(tmp_path):
    traj = [Pose2(i * 1.0, math.sin(i * 0.1), 0.1 * i) for i in range(100)]
    topo = build_topo_map(traj, 10.0, math.radians(30))
    p = tmp_path / "topomap.json"
    write_topomap(p, topo)
    back = read_topomap(p)
    assert back.trans_threshold == topo.trans_threshold
    assert back.ang_threshold == pytest.approx(topo.ang_threshold)
    assert len(back) == len(topo)
    for a, b in zip(back.nodes, topo.nodes):
        assert a.id == b.id
        assert a.pose.x == pytest.approx(b.pose.x)
        assert a.pose.theta == pytest.approx(b.pose.theta)
