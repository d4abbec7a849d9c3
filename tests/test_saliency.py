import numpy as np
import pytest

from conftest import make_frame
from privis.errors import ValidationError
from privis.partition import partition_frame
from privis.saliency import SaliencyConfig, score_cubes
from saliency_reference import joint_saliency, perceptual_saliency, privacy_saliency


CFG = SaliencyConfig()


def test_config_weight_validation():
    with pytest.raises(ValidationError):
        SaliencyConfig(w_density=0.5, w_motion=0.5, w_view=0.5)
    with pytest.raises(ValidationError):
        SaliencyConfig(alpha=1.5)
    with pytest.raises(ValidationError):
        SaliencyConfig(w_identity=0.7, w_user=0.2)
    SaliencyConfig()


def test_joint_saliency_collapses_at_extremes():
    assert joint_saliency(0.7, 0.2, 1.0) == pytest.approx(0.7)
    assert joint_saliency(0.7, 0.2, 0.0) == pytest.approx(0.2)
    assert joint_saliency(0.6, 0.4, 0.5) == pytest.approx(0.5)


def test_joint_saliency_rejects_out_of_range():
    with pytest.raises(ValidationError):
        joint_saliency(1.2, 0.0, 0.5)
    with pytest.raises(ValidationError):
        joint_saliency(0.5, -0.1, 0.5)
    with pytest.raises(ValidationError):
        joint_saliency(0.5, 0.5, 2.0)


def make_cube(frame):
    """One cube covering the whole hand-built frame, and its centroid."""
    from privis.partition import Cube, CubeId

    return Cube(CubeId(0, 0, 0), np.arange(frame.num_points)), frame.positions.mean(axis=0)


def test_single_cube_frame_degenerate_case():
    # viewpoint at the centroid: density = 1, motion = 0, view proximity = 1
    frame = make_frame([(0.1, 0, 0), (-0.1, 0, 0)], viewpoint=(0, 0, 0))
    cube, centroid = make_cube(frame)
    phi = perceptual_saliency(cube, frame, centroid, None, CFG, max_points=cube.num_points)
    assert phi == pytest.approx(CFG.w_density + CFG.w_view)


def test_static_cube_contributes_zero_motion():
    frame = make_frame([(0, 0, 0), (0.1, 0, 0)], viewpoint=(5, 5, 5))
    cs = partition_frame(frame, 1)
    cube, centroid = cs.cubes[0], cs.columns.centroids[0]
    with_prev = perceptual_saliency(cube, frame, centroid, centroid, CFG, cube.num_points)
    without = perceptual_saliency(cube, frame, centroid, None, CFG, cube.num_points)
    assert with_prev == pytest.approx(without)


def test_density_ratio_hand_computed():
    # two cubes, 30 and 10 points, far enough apart to split at target 2
    a = np.random.default_rng(1).normal(0, 0.05, (30, 3))
    b = np.random.default_rng(2).normal(0, 0.05, (10, 3)) + np.array([5.0, 0, 0])
    frame = make_frame(np.vstack([a, b]), viewpoint=(100, 100, 100))
    cs = partition_frame(frame, 2)
    sizes = {c.num_points for c in cs.cubes}
    assert sizes == {30, 10}
    max_points = 30
    dens = {}
    for cube, centroid in zip(cs.cubes, cs.columns.centroids):
        # isolate the density term: subtract the view contribution
        phi = perceptual_saliency(cube, frame, centroid, None, CFG, max_points)
        view = 1.0 / (1.0 + np.linalg.norm(centroid - frame.viewpoint))
        dens[cube.num_points] = (phi - CFG.w_view * view) / CFG.w_density
    assert dens[30] == pytest.approx(1.0, abs=1e-9)
    assert dens[10] == pytest.approx(10 / 30, abs=1e-9)


def test_privacy_all_sensitive_at_anchor():
    frame = make_frame(
        [(0, 0, 0), (0.05, 0, 0)], sensitivity=[1, 1], anchor=(0.025, 0, 0)
    )
    cube, centroid = make_cube(frame)
    phi = privacy_saliency(cube, frame, centroid, CFG)
    assert phi == pytest.approx(CFG.w_identity + CFG.w_user, abs=1e-9)


def test_privacy_exposure_fraction_direct_count():
    sens = [1, 1, 1] + [0] * 9  # 3 of 12 sensitive
    pts = np.random.default_rng(3).normal(0, 0.05, (12, 3))
    frame = make_frame(pts, sensitivity=sens, anchor=(50, 0, 0))
    cube, centroid = make_cube(frame)
    phi = privacy_saliency(cube, frame, centroid, CFG)
    exposure = (phi - CFG.w_user * (1.0 / (1.0 + np.linalg.norm(centroid - frame.user_anchor)))) / CFG.w_identity
    assert exposure == pytest.approx(0.25, abs=1e-9)


def test_empty_cube_rejected(small_frames, small_cubes):
    cube, centroid = small_cubes.cubes[0], small_cubes.columns.centroids[0]
    empty = type(cube)(cube.id, np.array([], dtype=np.int64))
    with pytest.raises(ValidationError):
        perceptual_saliency(empty, small_frames[0], centroid, None, CFG)
    with pytest.raises(ValidationError):
        privacy_saliency(empty, small_frames[0], centroid, CFG)


def test_scores_sorted_descending_with_id_tiebreak(small_frames, small_cubes):
    scores = score_cubes(small_cubes, small_frames[0], None, CFG)
    assert len(scores) == len(small_cubes.cubes)
    for a, b in zip(scores, scores[1:]):
        assert a.s > b.s or (a.s == b.s and a.cube_id < b.cube_id)


def test_scores_are_a_permutation(small_frames, small_cubes):
    scores = score_cubes(small_cubes, small_frames[0], None, CFG)
    assert {r.cube_id for r in scores} == {c.id for c in small_cubes.cubes}


def test_score_ranges(small_frames, small_cubes):
    for r in score_cubes(small_cubes, small_frames[0], None, CFG):
        assert 0.0 <= r.phi_p <= 1.0
        assert 0.0 <= r.phi_s <= 1.0
        assert 0.0 <= r.s <= 1.0
        assert r.s == pytest.approx(CFG.alpha * r.phi_p + (1 - CFG.alpha) * r.phi_s, abs=1e-9)


def test_sensitive_cluster_outranks_background(small_frames, small_cubes):
    frame = small_frames[0]
    scores = score_cubes(small_cubes, frame, None, CFG)
    by_id = small_cubes.by_id()
    cluster = [r.s for r in scores if frame.sensitivity[by_id[r.cube_id].point_indices].mean() > 0.5]
    background = [r.s for r in scores if frame.sensitivity[by_id[r.cube_id].point_indices].mean() <= 0.5]
    assert np.mean(cluster) > np.mean(background)


def test_alpha_monotonicity():
    # with phi_p fixed, larger phi_s never lowers s when alpha < 1
    for alpha in (0.0, 0.3, 0.7, 0.99):
        assert joint_saliency(0.5, 0.8, alpha) >= joint_saliency(0.5, 0.4, alpha)


def test_label_monotonicity():
    pts = np.random.default_rng(4).normal(0, 0.05, (10, 3))
    lo = make_frame(pts, sensitivity=[1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    hi = make_frame(pts, sensitivity=[1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    cs = partition_frame(lo, 1)
    cube, centroid = cs.cubes[0], cs.columns.centroids[0]
    assert privacy_saliency(cube, hi, centroid, CFG) >= privacy_saliency(cube, lo, centroid, CFG)


def test_motion_cue_tracks_moving_content(small_scene, small_frames):
    from privis.partition import PartitionConfig, reuse_or_repartition

    cs0 = partition_frame(small_frames[0], 64)
    cs1 = reuse_or_repartition(cs0, small_frames[1], PartitionConfig())
    scores = score_cubes(cs1, small_frames[1], cs0, CFG)
    by_id = cs1.by_id()
    moving = [
        r for r in scores if small_frames[1].sensitivity[by_id[r.cube_id].point_indices].mean() > 0.5
    ]
    static = [
        r for r in scores if small_frames[1].sensitivity[by_id[r.cube_id].point_indices].mean() <= 0.5
    ]
    # motion raises phi_p for the cluster relative to a no-history scoring
    base = {r.cube_id: r.phi_p for r in score_cubes(cs1, small_frames[1], None, CFG)}
    assert all(r.phi_p >= base[r.cube_id] for r in moving)
    assert any(r.phi_p > base[r.cube_id] + 0.05 for r in moving)
    assert all(abs(r.phi_p - base[r.cube_id]) < 1e-9 for r in static)
