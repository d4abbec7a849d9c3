import numpy as np
import pytest

from privis.errors import FrameParseError, ValidationError
from privis.frame_io import (
    SceneSpec,
    generate_frame,
    generate_scene,
    load_frame,
    write_frame,
)


def test_load_minimal_file(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("0 0 0 255 255 255\n")
    frame = load_frame(p)
    assert frame.num_points == 1
    assert np.array_equal(frame.positions[0], [0, 0, 0])
    assert frame.sensitivity[0] == 0


def test_load_headers_only_is_empty_frame(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("#frame 3\n#viewpoint 1 2 3\n#anchor 4 5 6\n")
    frame = load_frame(p)
    assert frame.num_points == 0
    assert frame.frame_id == 3
    assert np.array_equal(frame.viewpoint, [1, 2, 3])
    assert np.array_equal(frame.user_anchor, [4, 5, 6])


def test_load_seven_column_line(tmp_path):
    p = tmp_path / "sens.txt"
    p.write_text("1 2 3 10 20 30 1\n")
    frame = load_frame(p)
    assert np.array_equal(frame.positions[0], [1, 2, 3])
    assert np.array_equal(frame.colors[0], [10, 20, 30])
    assert frame.sensitivity[0] == 1


def test_explicit_frame_id_overrides_header(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("#frame 9\n0 0 0 1 1 1\n")
    assert load_frame(p).frame_id == 9
    assert load_frame(p, frame_id=4).frame_id == 4


def test_malformed_line_names_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 0 1 1 1\n0 0 nope 1 1 1\n")
    with pytest.raises(FrameParseError, match="line 2"):
        load_frame(p)


def test_wrong_field_count_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 0 1 1\n")
    with pytest.raises(FrameParseError, match="6 or 7"):
        load_frame(p)


def test_non_finite_coordinate_rejected(tmp_path):
    p = tmp_path / "inf.txt"
    for text in ("inf 0 0 1 1 1\n", "#viewpoint nan 0 0\n0 0 0 1 1 1\n", "#anchor inf 0 0\n"):
        p.write_text(text)
        with pytest.raises(ValidationError):
            load_frame(p)


def test_color_range_enforced(tmp_path):
    p = tmp_path / "col.txt"
    for line in ("0 0 0 300 0 0", "0 0 0 12.5 200 3 0", "0 0 0 12 200 3 0.9", "0 0 0 12 200 3 1.7"):
        p.write_text(f"0 0 0 1 1 1\n{line}\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_frame(p)


def test_write_load_round_trip(tmp_path, small_frames):
    frame = small_frames[0]
    p = tmp_path / "rt.txt"
    write_frame(frame, p)
    back = load_frame(p)
    assert back.frame_id == frame.frame_id
    assert np.array_equal(back.positions, frame.positions)
    assert np.array_equal(back.colors, frame.colors)
    assert np.array_equal(back.sensitivity, frame.sensitivity)
    assert np.array_equal(back.viewpoint, frame.viewpoint)
    assert np.array_equal(back.user_anchor, frame.user_anchor)


# --- generator ---


def test_sensitive_count_exact():
    spec = SceneSpec(7, 2, 1000, 0.2, 0.05)
    frames = generate_scene(spec)
    assert len(frames) == 2
    for f in frames:
        assert int(f.sensitivity.sum()) == 200


@pytest.mark.parametrize("fraction,points", [(0.0, 500), (1.0, 500), (0.137, 3000)])
def test_sensitive_count_matches_round(fraction, points):
    spec = SceneSpec(3, 1, points, fraction, 0.0)
    f = generate_frame(spec, 0)
    assert int(f.sensitivity.sum()) == round(fraction * points)


def test_generate_scene_is_deterministic():
    spec = SceneSpec(99, 3, 2000, 0.25, 0.2)
    a = generate_scene(spec)
    b = generate_scene(spec)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.positions, fb.positions)
        assert np.array_equal(fa.colors, fb.colors)
        assert np.array_equal(fa.sensitivity, fb.sensitivity)
        assert np.array_equal(fa.viewpoint, fb.viewpoint)


def test_zero_motion_keeps_cluster_static():
    spec = SceneSpec(5, 4, 1500, 0.3, 0.0)
    frames = generate_scene(spec)
    for f in frames[1:]:
        assert np.array_equal(f.positions, frames[0].positions)
        assert np.array_equal(f.user_anchor, frames[0].user_anchor)


def test_motion_moves_centroid_by_amplitude():
    amp = 0.2
    spec = SceneSpec(5, 6, 1500, 0.3, amp)
    frames = generate_scene(spec)
    for a, b in zip(frames, frames[1:]):
        ca = a.positions[a.sensitivity == 1].mean(axis=0)
        cb = b.positions[b.sensitivity == 1].mean(axis=0)
        assert np.linalg.norm(cb - ca) == pytest.approx(amp, rel=1e-9)


def test_background_is_static():
    spec = SceneSpec(5, 4, 1500, 0.3, 0.25)
    frames = generate_scene(spec)
    bg = frames[0].sensitivity == 0
    for f in frames[1:]:
        assert np.array_equal(f.positions[bg], frames[0].positions[bg])


def test_frame_ids_strictly_increase():
    spec = SceneSpec(1, 5, 100, 0.1, 0.0)
    ids = [f.frame_id for f in generate_scene(spec)]
    assert ids == [0, 1, 2, 3, 4]


def test_invalid_spec_rejected():
    with pytest.raises(ValidationError):
        generate_frame(SceneSpec(1, 0, 100, 0.1, 0.0), 0)
    with pytest.raises(ValidationError):
        generate_frame(SceneSpec(1, 1, -5, 0.1, 0.0), 0)
    with pytest.raises(ValidationError):
        generate_frame(SceneSpec(1, 1, 100, 1.5, 0.0), 0)

