"""Datagram-level fuzzing of the receiver.

Seeded honest traffic, several multi-fragment flows per frame in both
payload scopes, passes through what an on-path attacker can do to the
bytes: truncation, bit flips in fragment headers and in unit bytes,
duplication, reordering, cross-frame replay and mismatched fragment
counts. After every frame the client must hold its invariants: nothing
raises, no cube is admitted at or below its last verified frame, what
renders is what was sent, frame_compose conserves the cube count, and the
receive window's table stays within its bound. A forged frame id cannot
move the window, so honest traffic keeps being admitted after one.
"""

import struct
from collections import deque

from privis.client import REPLAY_WINDOW_FRAMES, Admitted, Client, frame_compose
from privis.errors import MalformedHeader
from privis.keyring import KeyEpoch, RootKey, derive_key
from privis.netw import FRAG_HEADER_LEN, Datagram, packetize
from privis.partition import CubeId
from privis.policy import ProtectionLevel, ProtectionPolicy, Scope
from privis.rng import Mcg64
from privis.seal import CubePlaintext, seal_cube

ROOT = RootKey.from_hex("3c" * 32)
POLICIES = (
    ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.0),
    ProtectionPolicy(ProtectionLevel.LOW, 4, Scope.GEOMETRY_ONLY, 0.0),
)
FLOWS = [CubeId(k, 1, -2) for k in range(3)]
FRAMES = 10_000
MTU = 160  # every unit takes two fragments
BOUND = REPLAY_WINDOW_FRAMES + 1
# the table's flow and fragment entries fill from at most BOUND frames of
# what one step delivers: two fragments per unit, at most three datagrams per
# fragment
CAP = BOUND * 3 * 2 * len(FLOWS)
REPLAY_DEPTH = 6  # cross-frame replays reach this many frames back
# One datagram naming a frame far ahead of the client's clock is sent at
# this frame; the frames after it must admit as many units as the frames
# before it do.
STALL_FRAME = 9_000


def _plaintext(cube, frame):
    n = 8 + cube.ix
    return CubePlaintext(struct.pack("<3f", frame, cube.ix, cube.iy) * n, bytes([frame & 0xFF, cube.ix, 0, 1]) * n)


def _honest(frame):
    """The frame's sealed units, fragmented, plus what each one carries."""
    dgrams, sent = [], {}
    for cube in FLOWS:
        policy = POLICIES[cube.ix % 2]
        epoch = frame // policy.key_rotation_interval
        key = KeyEpoch(cube, epoch, derive_key(ROOT, cube, epoch), frame)
        plain = sent[cube, frame] = _plaintext(cube, frame)
        sealed = seal_cube(plain, key, policy, frame, ROOT.session_id)
        dgrams += packetize(sealed.to_bytes(), cube, frame, MTU)
    return dgrams, sent


def _flip(dgram, bit):
    wire = bytearray(dgram.to_bytes())
    wire[bit // 8] ^= 1 << (bit % 8)
    return Datagram.from_bytes(bytes(wire))


def _mutate(rng, frame, dgrams, history):
    """At most three datagrams per honest one: it (possibly mutated), a
    duplicate and a replay from an earlier frame; then a shuffle."""
    out = []
    for d in dgrams:
        r = rng.next_uniform()
        if r < 0.02:  # truncation; shorter than the fragment header, it never parses
            wire = d.to_bytes()[: rng.randint(0, FRAG_HEADER_LEN + len(d.payload) - 1)]
            try:
                d = Datagram.from_bytes(wire)
            except MalformedHeader:
                d = None
        elif r < 0.04:  # fragment-header bit flip
            d = _flip(d, rng.randint(0, 8 * FRAG_HEADER_LEN - 1))
        elif r < 0.07:  # unit-byte bit flip
            d = _flip(d, rng.randint(8 * FRAG_HEADER_LEN, 8 * d.wire_len - 1))
        elif r < 0.09:  # mismatched fragment count
            d = d._replace(frag_count=d.frag_count + rng.randint(0, 1) * 2 - 1)
        if d is not None:
            out.append(d)
        if rng.next_uniform() < 0.03:
            out.append(out[-1] if out else dgrams[0])
        if history and rng.next_uniform() < 0.03:
            past = history[rng.randint(0, len(history) - 1)]
            old = past[rng.randint(0, len(past) - 1)]
            out.append(old if rng.next_uniform() < 0.5 else old._replace(frame_id=frame))
    for k in range(len(out) - 1, 0, -1):
        j = rng.randint(0, k)
        out[k], out[j] = out[j], out[k]
    return out


def test_fuzzed_datagrams_keep_client_invariants():
    rng = Mcg64(2024)
    client = Client(ROOT)
    history = deque(maxlen=REPLAY_DEPTH)
    sent = {}
    admitted = [0, 0]  # units admitted up to STALL_FRAME, and after it
    for frame in range(FRAMES):
        client.guard.begin_frame(frame)
        honest, sent_now = _honest(frame)
        sent.update(sent_now)
        stream = _mutate(rng, frame, honest, history)
        if frame == STALL_FRAME:
            stream.insert(0, honest[0]._replace(frame_id=frame + 2**40))
        history.append(honest)
        outcomes = {}
        for k, dgram in enumerate(stream):
            now = frame * 33.0 + k * 0.1
            sealed = client.on_datagram(dgram, now)
            if sealed is None:
                continue
            prior = client.state.last_verified.get(sealed.cube_id)
            out = client.admit(sealed, now)
            if isinstance(out, Admitted):
                assert prior is None or out.frame_id > prior[0], (frame, out.cube_id)
                assert out.plaintext == sent[out.cube_id, out.frame_id], (frame, out.cube_id)
                admitted[frame > STALL_FRAME] += 1
            outcomes[out.cube_id] = out
        summary, resolved = frame_compose(frame, outcomes, FLOWS, client.state, now_ms=frame * 33.0)
        assert summary.admitted + summary.held + summary.dropped == len(FLOWS) == len(resolved)
        frames = client.guard.frames
        assert len(frames) <= BOUND
        assert sum(map(len, frames.values())) <= CAP
        assert sum(len(frags) for flows in frames.values() for frags in flows.values()) <= CAP
        for key in [k for k in sent if k[1] <= frame - 2 * REPLAY_DEPTH]:
            del sent[key]
    # the mutations leave most units intact: the honest path stays exercised,
    # after the far-ahead frame id as before it
    assert admitted[0] > 0.6 * len(FLOWS) * STALL_FRAME
    assert admitted[1] > 0.6 * len(FLOWS) * (FRAMES - STALL_FRAME - 1)
    reasons = {entry[2] for entry in client.state.failure_log}
    assert {"replay", "malformed", "auth_failure"} <= reasons
