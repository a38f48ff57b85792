import numpy as np
import pytest
from conftest import so3_exp_jac
from scipy.spatial.transform import Rotation

from worldtrack.errors import (
    BranchContractViolation,
    EmptyVideo,
    QueryOutOfBounds,
)
from worldtrack.geometry import (
    Intrinsics,
    PixelGrid,
    PointmapVideo,
    PoseSE3,
    TrackSet,
    _pixel_cells,
    _pixels,
    assemble_trajectories,
    backproject,
    project_points,
    skew,
    so3_exp,
    video_arrays,
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


# ---- pointmap videos ----

def test_pointmap_zeroes_invalid_and_rejects_nan():
    pts = np.ones((1, 4, 5, 3))
    valid = np.ones((1, 4, 5), dtype=bool)
    valid[0, 0, 0] = False
    video = PointmapVideo("recon", pts.copy(), valid)
    assert np.all(video.points[0, 0, 0] == 0.0)
    assert np.all(video.points[0, 1, 1] == 1.0)
    assert (video.num_frames, video.height, video.width) == (1, 4, 5)
    pts[0, 1, 1, 0] = np.nan
    with pytest.raises(ValueError, match="^frame 0: valid pointmap entries must be finite$"):
        PointmapVideo("recon", pts, valid)


def test_video_arrays_is_the_one_branch_check():
    pts = np.ones((3, 2, 2, 3))
    valid = np.ones((3, 2, 2), dtype=bool)
    tracking = PointmapVideo("tracking", pts, valid)
    recon = PointmapVideo("recon", pts, valid)
    points, valid = video_arrays(tracking, "tracking")
    assert points is tracking.points and valid is tracking.valid
    assert video_arrays(recon, "recon")[0] is recon.points
    # no branch asked for: either branch, as the anchor self-view of both
    assert video_arrays(recon)[0] is recon.points
    with pytest.raises(BranchContractViolation, match="^expected a tracking video, got a recon"):
        video_arrays(recon, "tracking")
    with pytest.raises(BranchContractViolation, match="^expected a recon video, got a tracking"):
        video_arrays(tracking, "recon")
    # anything but a video is refused, a list of frames included
    for other in ([tracking.points[0]], pts, None):
        for branch in ("tracking", "recon", None):
            with pytest.raises(BranchContractViolation):
                video_arrays(other, branch)
    # one frame, addressed as (video, j), is a view of the video's arrays
    frame_points, frame_valid = video_arrays(recon, "recon", 2)
    assert frame_points.base is recon.points and frame_valid.base is recon.valid
    for j in (-1, 3):
        with pytest.raises(IndexError, match=f"^frame {j} of a 3-frame video$"):
            video_arrays(recon, "recon", j)


def test_pixel_cells_floor_and_bounds():
    pix = np.array([[0.0, 0.0], [3.999, 2.5], [4.0, 0.5], [-1e-9, 0.5], [0.5, 3.0]])
    rows, cols, inside = _pixel_cells(pix, 4, 3)
    assert rows.dtype == cols.dtype == np.int64
    assert cols.tolist() == [0, 3, 4, -1, 0] and rows.tolist() == [0, 2, 0, 0, 3]
    assert inside.tolist() == [True, True, False, False, False]


def test_pointmap_arrays_immutable():
    video = PointmapVideo("tracking", np.ones((1, 2, 2, 3)), np.ones((1, 2, 2), dtype=bool))
    with pytest.raises(ValueError):
        video.points[0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        video.valid[0, 0, 0] = False


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

def make_tracking_video(T=4, H=3, W=4, step=(0.1, 0.0, 0.0), valid=None):
    base = np.arange(H * W * 3, dtype=np.float64).reshape(H, W, 3) / 10.0 + 1.0
    pts = base + np.arange(T)[:, None, None, None] * np.asarray(step)
    return PointmapVideo("tracking", pts, np.ones((T, H, W), bool) if valid is None else valid)


def test_assemble_trajectories_rigid_translation():
    video = make_tracking_video(step=(0.1, 0.0, 0.0))
    queries = np.array([[0.5, 0.5], [2.5, 1.5], [3.5, 2.5]])
    tracks = assemble_trajectories(video, queries)
    assert tracks.positions.shape == (3, 4, 3)
    deltas = np.diff(tracks.positions, axis=1)
    assert np.abs(deltas - np.array([0.1, 0.0, 0.0])).max() < 1e-9
    assert tracks.visibility.all()


def test_assemble_trajectories_static_is_constant():
    video = make_tracking_video(step=(0.0, 0.0, 0.0))
    tracks = assemble_trajectories(video, np.array([[1.2, 1.7]]))
    assert np.all(tracks.positions == tracks.positions[:, :1])


def test_assemble_trajectories_visibility_from_valid_bit():
    valid = np.ones((4, 3, 4), dtype=bool)
    valid[2, 1, 2] = False
    video = make_tracking_video(valid=valid)
    tracks = assemble_trajectories(video, np.array([[2.5, 1.5]]))
    assert tracks.visibility[0].tolist() == [True, True, False, True]


def test_assemble_trajectories_rejects_bad_queries_and_branch():
    video = make_tracking_video()
    with pytest.raises(QueryOutOfBounds, match=r"^query 0 at \(4\.5, 0\.5\) outside 4x3 grid$"):
        assemble_trajectories(video, np.array([[4.5, 0.5]]))
    with pytest.raises(QueryOutOfBounds):
        assemble_trajectories(video, np.array([[-0.1, 0.5]]))
    recon = PointmapVideo("recon", np.ones((2, 3, 4, 3)), np.ones((2, 3, 4), dtype=bool))
    for wrong in (recon, [], [video]):
        with pytest.raises(BranchContractViolation):
            assemble_trajectories(wrong, np.array([[0.5, 0.5]]))


def test_trackset_shape_checks():
    with pytest.raises(Exception):
        TrackSet(np.zeros((2, 3, 4)), np.ones((2, 3), dtype=bool))
    ts = TrackSet(np.zeros((2, 3, 3)), np.ones((2, 3), dtype=bool), np.array([True, False]))
    assert ts.num_points == 2 and ts.num_frames == 3


def test_trackset_takes_over_owned_positions():
    vis = np.ones((4, 3), dtype=bool)
    owned = np.zeros((4, 3, 3))
    ts = TrackSet(owned, vis)
    assert ts.positions is owned and not owned.flags.writeable
    # a view, a read-only array or another dtype is copied, and left as it was
    view = np.zeros((3, 4, 3)).swapaxes(0, 1)
    assert TrackSet(view, vis).positions.flags.c_contiguous and view.flags.writeable
    assert TrackSet(ts.positions, vis).positions is not owned
    single = np.zeros((4, 3, 3), dtype=np.float32)
    assert TrackSet(single, vis).positions.dtype == np.float64 and single.flags.writeable


def test_assemble_trajectories_matches_per_query_gather():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(4, 6, 7, 3))
    valid = rng.random((4, 6, 7)) > 0.3
    video = PointmapVideo("tracking", points, valid)
    queries = rng.uniform(0, [7, 6], size=(9, 2))
    tracks = assemble_trajectories(video, queries)
    assert tracks.positions.flags.c_contiguous
    for n, (x, y) in enumerate(queries):
        r, c = int(y), int(x)
        np.testing.assert_array_equal(tracks.positions[n], video.points[:, r, c])
        np.testing.assert_array_equal(tracks.visibility[n], valid[:, r, c])

