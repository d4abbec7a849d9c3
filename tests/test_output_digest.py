"""Byte-identity of the pipeline's output against committed digests.

Frames 0-11 of the default scene at 20k points run under a fixed root key
in every mode, plus privis over a lossy, reordering channel. Each run is
hashed twice: the sealed units and unit records (the layout of
``perfbench/verify.py``'s ``output_digest``), and the per-frame digests of
what the receiver rendered. A change that claims to keep the output the
same must leave every value in ``golden/output_digests.json`` as it is.
"""

import hashlib
import json
import os
import struct
from dataclasses import astuple, replace

import pytest

from privis.bench import MODES, RunConfig, Session, default_scene
from privis.netw import NetConfig

ROOT_HEX = "5a" * 32
FRAMES = 12
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "output_digests.json")


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
    return cfg


CASES = [*MODES, "privis-lossy"]


def output_digests(case: str) -> dict[str, str]:
    session = Session(_config(case))
    for i in range(FRAMES):
        session.step(i)
    result = session.result
    units = hashlib.sha256()
    for (frame_id, cid), unit in sorted(result.sealed_units.items()):
        units.update(struct.pack("<qiiiq", frame_id, *cid, len(unit)))
        units.update(unit)
    for rec in sorted(result.unit_records, key=lambda r: (r.frame_id, r.cube_id)):
        units.update(repr(astuple(rec)).encode())
    rendered = hashlib.sha256()
    for i in range(FRAMES):
        rendered.update(result.content_digest_by_frame[i].encode())
    return {"units": units.hexdigest(), "rendered": rendered.hexdigest()}


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden_digest(case):
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert output_digests(case) == golden[case]


if __name__ == "__main__":  # prints the golden file's content for the current code
    print(json.dumps({case: output_digests(case) for case in CASES}, indent=2))
