"""On a lossless channel the client renders exactly the frame the sender
generated, in every mode, frame after frame.

Each session runs the full-size default scene and its churn variant (a
quarter of the points move, so the grid is re-partitioned every frame)
under a fixed root key. A frame's rendered content digest must equal a
digest of ``generate_frame`` for that frame in the same layout: one
16-byte row per point (3 x float32 position, r, g, b, label), rows sorted
bytewise. No cube may go missing.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from privis.bench import MODES, RunConfig, Session, default_scene
from privis.frame_io import generate_frame

FRAMES = 12  # two LOW rekey periods, one orbit period
ROOT_KEY = "5a" * 32

SCENES = {
    "default": default_scene(frames=FRAMES),
    "churn": replace(default_scene(frames=FRAMES), sensitive_fraction=0.25),
}


def _truth_digest(frame) -> str:
    rows = np.empty((frame.num_points, 16), dtype=np.uint8)
    rows[:, :12] = np.ascontiguousarray(frame.positions, dtype="<f4").view(np.uint8)
    rows[:, 12:15] = frame.colors
    rows[:, 15] = frame.sensitivity
    return hashlib.sha256(np.sort(rows.view("S16").ravel()).tobytes()).hexdigest()


@pytest.mark.parametrize("scene", sorted(SCENES))
@pytest.mark.parametrize("mode", MODES)
def test_client_renders_the_generated_frame(mode, scene):
    spec = SCENES[scene]
    cfg = RunConfig(mode=mode, scene=spec, root_key_hex=ROOT_KEY, content_digests=True)
    assert cfg.net.loss_prob == 0.0 and cfg.net.reorder_prob == 0.0
    result = Session(cfg).run()
    mismatched = [
        i for i in range(FRAMES)
        if result.content_digest_by_frame[i] != _truth_digest(generate_frame(spec, i))
    ]
    assert mismatched == []
    assert [entry for entry in result.failure_log if entry[2] == "missing"] == []
