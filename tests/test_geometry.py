import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from worldtrack.errors import (
    BranchContractViolation,
    EmptyVideo,
    QueryOutOfBounds,
)
from worldtrack.geometry import (
    Intrinsics,
    PixelGrid,
    Pointmap,
    PoseSE3,
    TrackSet,
    _pixels,
    assemble_trajectories,
    backproject,
    project_points,
    skew,
    so3_exp,
    so3_exp_jac,
)


def random_pose(rng) -> PoseSE3:
    R = Rotation.random(random_state=int(rng.integers(2**31))).as_matrix()
    t = rng.normal(size=3)
    return PoseSE3(R, t)


# ---- projection ----

def test_project_frozen_value():
    # worked by hand: cam point (0.1, -0.2, 2.0), u = 500*0.05 + 320,
    # v = 500*(-0.1) + 240
    K = Intrinsics(500.0, 320.0, 240.0)
    pose = PoseSE3(np.eye(3), np.array([0.0, 0.0, 1.0]))
    pix, z, visible = _pixels(K, pose, np.array([[0.1, -0.2, 1.0]]))
    assert np.allclose(pix, [[345.0, 190.0]], atol=1e-12)
    assert z[0] == 2.0 and visible[0]


def test_project_rejects_nonpositive_depth():
    R, t = np.eye(3)[None], np.zeros((1, 3))
    X = np.array([[0.0, 0.0, 0.0], [0.1, 0.1, -2.0], [0.1, 0.1, 2.0], [0.2, 0.1, 1.0]]).T
    xy, z, inv_z, visible = project_points(R, t, X, valid=np.array([True, True, True, False]))
    assert visible.tolist() == [[False, False, True, False]]
    assert np.array_equal(z, [[0.0, -2.0, 2.0, 1.0]])
    # not visible: zero coordinates and inverse depth, whatever the depth
    assert np.array_equal(xy[0, :, [0, 1, 3]], np.zeros((3, 2)))
    assert np.array_equal(inv_z, [[0.0, 0.0, 0.5, 0.0]])
    assert np.array_equal(xy[0, :, 2], [0.05, 0.05])


def test_project_backproject_round_trip():
    rng = np.random.default_rng(7)
    K = Intrinsics(80.0, 32.0, 24.0)
    pix = rng.uniform(0.0, 64.0, size=(200, 2))
    z = rng.uniform(0.5, 8.0, size=200)
    pts = backproject(K, pix, z)
    back, depths, visible = _pixels(K, PoseSE3.identity(), pts)
    assert np.allclose(back, pix, atol=1e-9)
    assert np.allclose(depths, z)
    assert visible.all()


@pytest.mark.parametrize("shared", [True, False])
def test_project_points_many_poses_match_per_point_formula(shared):
    rng = np.random.default_rng(3)
    poses = [random_pose(rng) for _ in range(4)]
    R = np.stack([p.rotation for p in poses])
    t = np.stack([p.translation for p in poses])
    X = rng.normal(size=(3, 40)) if shared else rng.normal(size=(4, 3, 40))
    valid = rng.random((4, 40)) > 0.2
    xy, z, inv_z, visible = project_points(R, t, X.copy(), valid)
    assert xy.shape == (4, 2, 40) and z.shape == inv_z.shape == visible.shape == (4, 40)
    for k, pose in enumerate(poses):
        for n in range(40):
            cam = pose.apply((X if shared else X[k]).T[n])
            assert z[k, n] == pytest.approx(cam[2], abs=1e-14)
            assert visible[k, n] == (valid[k, n] and cam[2] > 1e-12)
            want = cam[:2] / cam[2] if visible[k, n] else np.zeros(2)
            np.testing.assert_allclose(xy[k, :, n], want, rtol=1e-12, atol=1e-14)
            assert inv_z[k, n] == pytest.approx(1.0 / cam[2] if visible[k, n] else 0.0)
    assert (~visible).any() and visible.any()


# ---- poses ----

def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        PoseSE3(np.eye(3) * 1.001, np.zeros(3))
    R = np.eye(3)
    R[0, 0] = -1.0  # det -1 reflection
    with pytest.raises(ValueError):
        PoseSE3(R, np.zeros(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pose_and_intrinsics_reject_non_finite_values(bad):
    R = np.eye(3)
    R[1, 2] = bad
    with pytest.raises(ValueError):
        PoseSE3(R, np.zeros(3))
    with pytest.raises(ValueError):
        PoseSE3(np.full((3, 3), bad), np.zeros(3))
    with pytest.raises(ValueError):
        PoseSE3(np.eye(3), np.array([0.0, bad, 0.0]))
    for args in ((bad, 32.0, 24.0), (80.0, bad, 24.0), (80.0, 32.0, bad)):
        with pytest.raises(ValueError):
            Intrinsics(*args)


def test_pose_compose_inverse():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = random_pose(rng), random_pose(rng)
        x = rng.normal(size=3)
        assert np.allclose(a.compose(b).apply(x), a.apply(b.apply(x)), atol=1e-12)
        assert np.allclose(a.compose(a.inverse()).apply(x), x, atol=1e-10)


# ---- rotation helpers ----

def test_so3_exp_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = rng.normal(size=3) * rng.uniform(0, 2)
        assert np.allclose(so3_exp(w), Rotation.from_rotvec(w).as_matrix(), atol=1e-12)
    assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))
    tiny = np.array([1e-10, -2e-10, 5e-11])
    assert np.allclose(so3_exp(tiny), Rotation.from_rotvec(tiny).as_matrix(), atol=1e-15)


def test_so3_exp_jac_finite_difference():
    rng = np.random.default_rng(9)
    h = 1e-6
    for scale in (1.0, 1e-2, 1e-5):
        w = rng.normal(size=3) * scale
        J = so3_exp_jac(w)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (so3_exp(w + e) - so3_exp(w - e)) / (2 * h)
            assert np.abs(J[i] - fd).max() < 1e-7, f"scale {scale} axis {i}"


def test_skew_is_cross_product():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(skew(a) @ b, np.cross(a, b))


# ---- pointmaps ----

def test_pointmap_zeroes_invalid_and_rejects_nan():
    pts = np.ones((4, 5, 3))
    valid = np.ones((4, 5), dtype=bool)
    valid[0, 0] = False
    pm = Pointmap(pts, valid, 0, 0, 0)
    assert np.all(pm.points[0, 0] == 0.0)
    assert np.all(pm.points[1, 1] == 1.0)
    pts[1, 1, 0] = np.nan
    with pytest.raises(ValueError):
        Pointmap(pts, valid, 0, 0, 0)


def test_pointmap_branch_predicates():
    pts = np.ones((2, 2, 3))
    valid = np.ones((2, 2), dtype=bool)
    tracking = Pointmap(pts, valid, coord_frame=0, content_frame=0, time=5)
    recon = Pointmap(pts, valid, coord_frame=0, content_frame=5, time=5)
    assert tracking.is_tracking_branch() and not tracking.is_recon_branch()
    assert recon.is_recon_branch() and not recon.is_tracking_branch()
    with pytest.raises(BranchContractViolation):
        recon.require_tracking_branch()
    with pytest.raises(BranchContractViolation):
        tracking.require_recon_branch()
    # frame zero belongs to both branches
    anchor = Pointmap(pts, valid, 0, 0, 0)
    anchor.require_tracking_branch()
    anchor.require_recon_branch()


def test_pointmap_arrays_immutable():
    pm = Pointmap(np.ones((2, 2, 3)), np.ones((2, 2), dtype=bool), 0, 0, 0)
    with pytest.raises(ValueError):
        pm.points[0, 0, 0] = 5.0


# ---- grids ----

def test_pixel_grid_centers():
    grid = PixelGrid.create(4, 3)
    assert grid.coords.shape == (3, 4, 2)
    assert np.allclose(grid.coords[0, 0], [0.5, 0.5])
    assert np.allclose(grid.coords[2, 3], [3.5, 2.5])
    flat = grid.flat()
    # row-major: second entry is the next column
    assert np.allclose(flat[1], [1.5, 0.5])


# ---- trajectory assembly ----

def make_tracking_pms(T=4, H=3, W=4, step=(0.1, 0.0, 0.0)):
    base = np.arange(H * W * 3, dtype=np.float64).reshape(H, W, 3) / 10.0 + 1.0
    valid = np.ones((H, W), dtype=bool)
    pms = []
    for t in range(T):
        pts = base + np.asarray(step) * t
        pms.append(Pointmap(pts, valid, coord_frame=0, content_frame=0, time=t))
    return pms


def test_assemble_trajectories_rigid_translation():
    pms = make_tracking_pms(step=(0.1, 0.0, 0.0))
    queries = np.array([[0.5, 0.5], [2.5, 1.5], [3.5, 2.5]])
    tracks = assemble_trajectories(pms, queries)
    assert tracks.positions.shape == (3, 4, 3)
    deltas = np.diff(tracks.positions, axis=1)
    assert np.abs(deltas - np.array([0.1, 0.0, 0.0])).max() < 1e-9
    assert tracks.visibility.all()


def test_assemble_trajectories_static_is_constant():
    pms = make_tracking_pms(step=(0.0, 0.0, 0.0))
    tracks = assemble_trajectories(pms, np.array([[1.2, 1.7]]))
    assert np.all(tracks.positions == tracks.positions[:, :1])


def test_assemble_trajectories_visibility_from_valid_bit():
    pms = make_tracking_pms()
    pts = np.array(pms[2].points)
    valid = np.array(pms[2].valid)
    valid[1, 2] = False
    pms[2] = Pointmap(pts, valid, 0, 0, 2)
    tracks = assemble_trajectories(pms, np.array([[2.5, 1.5]]))
    assert tracks.visibility[0].tolist() == [True, True, False, True]


def test_assemble_trajectories_rejects_bad_queries_and_branch():
    pms = make_tracking_pms()
    with pytest.raises(QueryOutOfBounds):
        assemble_trajectories(pms, np.array([[4.5, 0.5]]))
    with pytest.raises(QueryOutOfBounds):
        assemble_trajectories(pms, np.array([[-0.1, 0.5]]))
    recon = Pointmap(np.ones((3, 4, 3)), np.ones((3, 4), dtype=bool), 0, 1, 1)
    with pytest.raises(BranchContractViolation):
        assemble_trajectories([recon], np.array([[0.5, 0.5]]))
    with pytest.raises(EmptyVideo):
        assemble_trajectories([], np.array([[0.5, 0.5]]))


def test_trackset_shape_checks():
    with pytest.raises(Exception):
        TrackSet(np.zeros((2, 3, 4)), np.ones((2, 3), dtype=bool))
    ts = TrackSet(np.zeros((2, 3, 3)), np.ones((2, 3), dtype=bool), np.array([True, False]))
    assert ts.num_points == 2 and ts.num_frames == 3
