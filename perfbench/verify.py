"""Untimed verification pass: correctness gates and deterministic outputs.

One session per run steps the first ``VERIFY_FRAMES`` frames with
``content_digests`` and ``keep_units`` on. Gates, each checked per frame:

* admitted + held + dropped equals the frame's cube count;
* every Admitted plaintext, and every HeldOver one, equals what the sender
  serialized for that cube at that frame;
* a second fresh session replays the first ``REPLAY_FRAMES`` frames to the
  same sealed units and unit records (fixed root key and seed).

Outside the gates it measures what the receiver rendered against
``generate_frame(spec, i)``, in the 16-byte-row format of the session's
content digests (3 x float32 position, r, g, b, label).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import astuple, dataclass, field, replace

import numpy as np

import privis.bench as bench
from privis.bench import Session
from privis.client import Admitted, HeldOver
from privis.frame_io import generate_frame

from tracer import Patches
from workloads import Workload

VERIFY_FRAMES = 60  # one whole period of rekeys, orbit and leakage windows
REPLAY_FRAMES = 12  # one orbit period, two LOW rekey periods


@dataclass
class Verification:
    frames: int = 0
    failed_frames: int = 0
    problems: list[str] = field(default_factory=list)
    output_digest: str = ""
    mismatched_frames: int = 0
    matched_points: int = 0
    union_points: int = 0

    @property
    def render_match_frac(self) -> float:
        return self.matched_points / self.union_points

    @property
    def render_mismatch_frac(self) -> float:
        return self.mismatched_frames / self.frames


def _plain_rows(plain) -> np.ndarray:
    n = plain.num_points
    geo = np.frombuffer(plain.geometry, dtype=np.uint8).reshape(n, 12)
    attrs = np.frombuffer(plain.attributes, dtype=np.uint8).reshape(n, 4)
    return np.hstack([geo, attrs])


def _frame_rows(frame) -> np.ndarray:
    rows = np.empty((frame.num_points, 16), dtype=np.uint8)
    rows[:, :12] = np.ascontiguousarray(frame.positions, dtype="<f4").view(np.uint8)
    rows[:, 12:15] = frame.colors
    rows[:, 15] = frame.sensitivity
    return rows


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Rows as 16-byte strings, sorted bytewise."""
    return np.sort(np.ascontiguousarray(rows).view("S16").ravel())


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a sorted array and how often each occurs."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    return keys[starts], np.diff(np.append(starts, len(keys)))


def _matched(a: np.ndarray, b: np.ndarray) -> int:
    """Size of the multiset intersection of two sorted row arrays."""
    ua, ca = _runs(a)
    ub, cb = _runs(b)
    at = np.searchsorted(ub, ua)
    inside = at < len(ub)
    hit = np.zeros(len(ua), dtype=bool)
    hit[inside] = ub[at[inside]] == ua[inside]
    return int(np.minimum(ca[hit], cb[at[hit]]).sum())


def _plain_digest(plain) -> bytes:
    return hashlib.sha256(plain.geometry + plain.attributes).digest()


def output_digest(result, frames: int) -> str:
    """SHA-256 over the sealed units and unit records of frames < ``frames``."""
    h = hashlib.sha256()
    for (frame_id, cid), unit in sorted(result.sealed_units.items()):
        if frame_id < frames:
            h.update(struct.pack("<qiiiq", frame_id, *cid, len(unit)))
            h.update(unit)
    records = sorted(result.unit_records, key=lambda r: (r.frame_id, r.cube_id))
    for rec in records:
        if rec.frame_id < frames:
            h.update(repr(astuple(rec)).encode())
    return h.hexdigest()


def verify(workload: Workload, seed: int) -> Verification:
    cfg = replace(workload.config(seed), content_digests=True, keep_units=True)
    v = Verification(frames=VERIFY_FRAMES)
    sent: dict[tuple, bytes] = {}
    composed: list[dict] = []
    serialize, compose = bench.serialize_cube, bench.frame_compose

    def recording_serialize(frame, cube):
        plain = serialize(frame, cube)
        sent[(frame.frame_id, cube.id)] = _plain_digest(plain)
        return plain

    def recording_compose(*args, **kwargs):
        summary, resolved = compose(*args, **kwargs)
        composed.append(resolved)
        return summary, resolved

    patches = Patches()
    patches.set(bench, "serialize_cube", recording_serialize)
    patches.set(bench, "frame_compose", recording_compose)
    try:
        session = Session(cfg)
        result = session.result
        for i in range(v.frames):
            session.step(i)
            problems = _check_frame(v, i, result, composed.pop(), sent, cfg.scene)
            if problems:
                v.failed_frames += 1
                v.problems.extend(problems)
    finally:
        patches.restore()

    v.output_digest = output_digest(result, v.frames)

    replay = Session(cfg)
    for i in range(REPLAY_FRAMES):
        replay.step(i)
    if output_digest(replay.result, REPLAY_FRAMES) != output_digest(result, REPLAY_FRAMES):
        v.failed_frames += 1
        v.problems.append(f"a fresh session did not reproduce frames 0-{REPLAY_FRAMES - 1} byte for byte")
    return v


def _check_frame(v: Verification, i: int, result, resolved: dict, sent: dict, scene) -> list[str]:
    problems = []
    summary = result.summaries[i]
    cubes = result.frame_rows[i]["cubes"]
    if summary.cube_total != cubes:
        problems.append(f"frame {i}: admitted+held+dropped={summary.cube_total}, cubes={cubes}")

    rendered = []
    for cid, out in resolved.items():
        if isinstance(out, Admitted):
            source = out.frame_id
        elif isinstance(out, HeldOver):
            source = out.source_frame_id
        else:
            continue
        if sent.get((source, cid)) != _plain_digest(out.plaintext):
            problems.append(f"frame {i}: cube {tuple(cid)} renders content the sender never serialized at frame {source}")
        if out.plaintext.num_points:
            rendered.append(_plain_rows(out.plaintext))

    truth = _sorted_rows(_frame_rows(generate_frame(scene, i)))
    shown = _sorted_rows(np.vstack(rendered) if rendered else np.empty((0, 16), dtype=np.uint8))
    if result.content_digest_by_frame[i] != hashlib.sha256(truth.tobytes()).hexdigest():
        v.mismatched_frames += 1
    matched = _matched(truth, shown)
    v.matched_points += matched
    v.union_points += len(truth) + len(shown) - matched
    return problems
