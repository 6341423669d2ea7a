import math
import re

import numpy as np
import pytest

from sbevloc.errors import InputError
from sbevloc.geometry import Pose2, pose2_compose, relative_pose, wrap_angle
from sbevloc.sbev import GridSpec, SBev, cell_centers
from sbevloc.topomap import (
    AugmentConfig,
    NodePose,
    Sample,
    TopoMap,
    assign_to_nodes,
    augment_sample,
    balance_samples,
    build_topo_map,
    rotate_grid,
    shift_grid,
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


@pytest.mark.parametrize("trans, ang", [(0.0, 0.5), (20.0, -0.5), (math.nan, 0.5),
                                        (20.0, math.nan)])
def test_build_rejects_bad_thresholds(trans, ang):
    with pytest.raises(InputError, match="thresholds must be positive"):
        build_topo_map([Pose2(0, 0, 0)], trans, ang)


def test_resampling_density_stability():
    # sampling 4x finer moves node positions by at most the coarse step
    fine = [Pose2(i * 0.25, 0, 0) for i in range(401)]
    coarse = fine[::4]
    t_fine = build_topo_map(fine, 20.0, math.radians(30))
    t_coarse = build_topo_map(coarse, 20.0, math.radians(30))
    assert len(t_fine) == len(t_coarse)
    for a, b in zip(t_fine.nodes, t_coarse.nodes):
        assert abs(a.pose.x - b.pose.x) <= 1.0


# --- assign_to_nodes -----------------------------------------------------

def make_map(positions):
    return TopoMap(tuple(NodePose(Pose2(*p)) for p in positions), 20.0, math.radians(30))


def test_assign_to_nodes_matches_brute_force():
    rng = np.random.default_rng(1)
    # nodes on a 1 m lattice and most queries on a 0.5 m one, so that many
    # queries lie exactly as far from two or more nodes
    cells = rng.choice(41 * 41, 200, replace=False)
    pts = np.column_stack([cells // 41 - 20, cells % 41 - 20]).astype(float)
    topo = make_map(pts)
    queries = [Pose2(*rng.integers(-48, 49, 2) / 2, rng.uniform(-3, 3))
               for _ in range(1000)]
    queries += [Pose2(*rng.uniform(-30, 30, 3)) for _ in range(500)]
    samples = assign_to_nodes(topo, enumerate(queries))
    assert len(samples) == len(queries)
    ties = 0
    for i, (q, s) in enumerate(zip(queries, samples)):
        d2 = [(x - q.x) ** 2 + (y - q.y) ** 2 for x, y in pts]
        best = min(d2)
        ties += d2.count(best) > 1
        assert (s.frame_id, s.node_id) == (i, d2.index(best))
        assert s.rel_pose == relative_pose(topo.nodes[s.node_id].pose, q)
    assert ties >= 100
    line = make_map([(-1, 0), (0, 0), (2, 0), (4, 0)])
    (s,) = assign_to_nodes(line, [(0, Pose2(3, 0, 0))])
    assert s.node_id == 2  # ids 2 and 3 equidistant


def test_assign_to_nodes_empty():
    assert assign_to_nodes(make_map([(0, 0)]), []) == ()
    with pytest.raises(InputError, match="empty map"):
        assign_to_nodes(make_map([]), [(0, Pose2(0, 0, 0))])


def test_assign_to_nodes_rel_pose():
    topo = make_map([(0, 0), (20, 0)])
    (s,) = assign_to_nodes(topo, [(7, Pose2(21, 1, 0.2))])
    assert s.frame_id == 7 and s.node_id == 1
    back = pose2_compose(topo.nodes[1].pose, s.rel_pose)
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
    return tuple(samples)


def counts(samples, n_nodes):
    return np.bincount([s.node_id for s in samples], minlength=n_nodes).tolist()


def test_balance_already_equal():
    out = balance_samples(make_dataset([5, 5]), 2, seed=0)
    assert counts(out, 2) == [5, 5]


def test_balance_undersamples():
    out = balance_samples(make_dataset([10, 4]), 2, seed=0)
    assert counts(out, 2) == [4, 4]


def test_balance_deterministic_per_seed():
    big = make_dataset([30, 7, 19])
    a = balance_samples(big, 3, seed=42)
    b = balance_samples(big, 3, seed=42)
    c = balance_samples(big, 3, seed=43)
    assert a == b
    assert counts(a, 3) == counts(c, 3) == [7, 7, 7]
    assert [s.frame_id for s in a] != [s.frame_id for s in c]


def test_balance_rejects_empty_node():
    with pytest.raises(InputError):
        balance_samples(make_dataset([3, 0]), 2, seed=0)


@pytest.mark.parametrize("node_id", [-1, 2])
def test_balance_rejects_node_id_outside_the_map(node_id):
    # -1 once joined node 1's group and came back in its quota; 2 raised
    # an untyped IndexError
    samples = make_dataset([3, 3]) + (Sample(6, node_id, Pose2(0, 0, 0)),)
    with pytest.raises(InputError, match=rf"sample 6 has node id {node_id}, outside 0\.\.1"):
        balance_samples(samples, 2, seed=0)


# --- augmentation --------------------------------------------------------

def test_augment_empty_config():
    sb = SBev(np.zeros((8, 8), dtype=np.uint8), 0.25)
    out = augment_sample(sb, Pose2(1, 2, 0.3), AugmentConfig((), ()))
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
    _, (sb2, rel2) = augment_sample(sb, rel, cfg)
    cfg_back = AugmentConfig(rotations_deg=(-5.0,), shifts_cells=())
    _, (_, rel3) = augment_sample(sb2, rel2, cfg_back)
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
    """The inverse-map formula, evaluated afresh on every call, with each
    source cell found here from its metric coordinates."""
    xc, yc = cell_centers(spec)
    x = np.broadcast_to(xc[:, None], grid.shape)
    y = np.broadcast_to(yc[None, :], grid.shape)
    c, s = math.cos(angle), math.sin(angle)
    xs, ys = (c * x - s * y).ravel(), (s * x + c * y).ravel()
    xi = np.floor(xs / spec.resolution).astype(np.int64)
    yi = np.floor((ys + spec.lateral_extent / 2.0) / spec.resolution).astype(np.int64)
    inside = (xi >= 0) & (xi < spec.size) & (yi >= 0) & (yi < spec.size)
    rows, cols = spec.size - 1 - xi, spec.size - 1 - yi
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
    poses = topo.poses()
    assert poses.shape == (len(topo), 3) and poses.dtype == np.float64
    np.savez(tmp_path / "topo.npz", nodes=poses)
    with np.load(tmp_path / "topo.npz", allow_pickle=False) as z:
        back = TopoMap.from_poses(z["nodes"], topo.trans_threshold, topo.ang_threshold)
    assert back == topo
    with pytest.raises(InputError, match=re.escape(f"got shape ({len(topo)}, 2)")):
        TopoMap.from_poses(poses[:, :2], 10.0, 1.0)
