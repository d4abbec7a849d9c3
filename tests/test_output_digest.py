"""Byte-identity of the pipeline's output against committed digests.

Frames 0-11 of the default scene at 20k points run under a fixed root key
in every mode, plus privis over a lossy, reordering channel. The ``-leak``
cases run all 24 frames of a short leakage scene in every mode, with
4-frame leakage windows, so that window closes, MI samples and theta
adaptation happen (privis closes 6 windows, 4 of them in violation).

Each run is hashed three times:

* ``units``: the sealed units and unit records (the layout of
  ``perfbench/verify.py``'s ``output_digest``);
* ``rendered``: the per-frame digests of what the receiver rendered;
* ``trace``: the unit records in send order, the frame rows without their
  ``*_ms`` timing columns and the ``UNTRACED`` work counts, the MI samples, the leakage windows, the theta
  trace, the failure log and the frame summaries.

A change that claims to keep the output the same must leave every value in
``golden/output_digests.json`` as it is.
"""

import hashlib
import json
import os
import struct
from dataclasses import astuple, replace

import pytest

from privis.bench import MODES, RunConfig, Session, default_scene, leakage_scene
from privis.leakage import LeakageConfig
from privis.netw import NetConfig
from privis.shaping import ShapingConfig

ROOT_HEX = "5a" * 32
FRAMES = 12
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "output_digests.json")
# frame-row work counts added after the digests were taken (the work a
# frame skipped, and the keys it derived); tests/test_bench.py pins their
# values
UNTRACED = ("changed_points", "rebuilt_cubes", "rekeys")


def _config(case: str) -> RunConfig:
    cfg = RunConfig(
        mode=case.split("-")[0],
        scene=default_scene(points=20_000),
        root_key_hex=ROOT_HEX,
        content_digests=True,
        keep_units=True,
    )
    if case.endswith("-lossy"):
        cfg = replace(cfg, net=NetConfig(mtu=1200, loss_prob=0.05, reorder_prob=0.05, seed=3))
    if case.endswith("-leak"):
        cfg = replace(
            cfg,
            scene=leakage_scene(frames=24),
            net=NetConfig(mtu=9000),
            shaping=ShapingConfig(pad_max_fraction=0.0, bucket_bytes=1),
            leakage=LeakageConfig(window_frames=4),
        )
    return cfg


CASES = [*MODES, "privis-lossy", *(f"{mode}-leak" for mode in MODES)]


def _frames(case: str) -> int:
    return _config(case).scene.frame_count if case.endswith("-leak") else FRAMES


def output_digests(case: str) -> dict[str, str]:
    frames = _frames(case)
    session = Session(_config(case))
    for i in range(frames):
        session.step(i)
    result = session.finalize()
    units = hashlib.sha256()
    for (frame_id, cid), unit in sorted(result.sealed_units.items()):
        units.update(struct.pack("<qiiiq", frame_id, *cid, len(unit)))
        units.update(unit)
    for rec in sorted(result.unit_records, key=lambda r: (r.frame_id, r.cube_id)):
        units.update(repr(astuple(rec)).encode())
    rendered = hashlib.sha256()
    for i in range(frames):
        rendered.update(result.content_digest_by_frame[i].encode())
    trace = hashlib.sha256()
    for rec in result.unit_records:
        trace.update(repr(astuple(rec)).encode())
    for row in result.frame_rows:
        trace.update(repr([(k, v) for k, v in row.items() if not k.endswith("_ms") and k not in UNTRACED]).encode())
    theta_trace = [row["theta"] for row in result.frame_rows]
    for part in (result.mi_samples, result.leakage_windows, theta_trace, result.failure_log):
        trace.update(repr(part).encode())
    trace.update(repr([astuple(s) for s in result.summaries]).encode())
    return {"units": units.hexdigest(), "rendered": rendered.hexdigest(), "trace": trace.hexdigest()}


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden_digest(case):
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert output_digests(case) == golden[case]


if __name__ == "__main__":  # prints the golden file's content for the current code
    print(json.dumps({case: output_digests(case) for case in CASES}, indent=2))
