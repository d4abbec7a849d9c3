import copy

import numpy as np
import pytest

from privis.client import (
    REPLAY_WINDOW_FRAMES,
    Admitted,
    Client,
    Dropped,
    HeldOver,
    RenderState,
    ReplayGuard,
    frame_compose,
    replay_filter,
)
from privis.keyring import KeyEpoch, RootKey, derive_key
from privis.netw import Datagram, packetize
from privis.partition import CubeId
from privis.policy import ProtectionLevel, ProtectionPolicy, Scope
from privis.rng import Mcg64
from privis.seal import CubePlaintext, SealedCube, seal_cube

ROOT = RootKey.from_hex("ee" * 32)
FULL = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.8)


def sealed_unit(cube, frame, epoch=None, n_points=3):
    epoch = frame if epoch is None else epoch
    key = KeyEpoch(cube, epoch, derive_key(ROOT, cube, epoch), frame)
    plain = CubePlaintext(bytes(12 * n_points), bytes(4 * n_points))
    return seal_cube(plain, key, FULL, frame, ROOT.session_id), plain


def tampered(sealed):
    wire = bytearray(sealed.to_bytes())
    wire[-1] ^= 0x40  # flip a tag bit
    return SealedCube.from_bytes(bytes(wire))


# --- replay filter ---


def fragment(flow, frame, index):
    """A fragment header as the filter sees it; the payload is not read."""
    return Datagram(flow, frame, index, 8, b"x")


def test_fresh_datagram_accepted():
    guard = ReplayGuard()
    guard.begin_frame(0)
    assert replay_filter(guard, fragment(CubeId(0, 0, 0), 0, 0))


def test_exact_duplicate_rejected():
    guard = ReplayGuard()
    guard.begin_frame(3)
    flow = CubeId(0, 0, 0)
    assert replay_filter(guard, fragment(flow, 3, 2))
    assert not replay_filter(guard, fragment(flow, 3, 2))


def test_reordered_but_new_accepted():
    guard = ReplayGuard()
    guard.begin_frame(0)
    flow = CubeId(0, 0, 0)
    assert replay_filter(guard, fragment(flow, 0, 1))  # arrives first
    assert replay_filter(guard, fragment(flow, 0, 0))  # older but never seen


def test_stale_below_window_rejected():
    guard = ReplayGuard()
    guard.begin_frame(50)
    flow = CubeId(0, 0, 0)
    assert replay_filter(guard, fragment(flow, 50, 0))
    assert not replay_filter(guard, fragment(flow, 1, 0))


def test_thousand_reordered_traces_no_false_rejects():
    """Unique datagrams passed through adjacent-swap reordering are never
    rejected; replays of any of them always are."""
    rng = Mcg64(71)
    for trial in range(1000):
        guard = ReplayGuard()
        guard.begin_frame(2)
        flow = CubeId(trial, 0, 0)
        tokens = [(f, i) for f in range(3) for i in range(6)]
        # adjacent swaps, like the emulated channel applies
        k = 0
        while k < len(tokens) - 1:
            if rng.next_uniform() < 0.4:
                tokens[k], tokens[k + 1] = tokens[k + 1], tokens[k]
                k += 2
            else:
                k += 1
        for frame, frag in tokens:
            assert replay_filter(guard, fragment(flow, frame, frag)), f"false reject {frame},{frag}"
        replay = tokens[rng.randint(0, len(tokens) - 1)]
        assert not replay_filter(guard, fragment(flow, *replay))


def test_flows_tracked_independently():
    guard = ReplayGuard()
    guard.begin_frame(0)
    assert replay_filter(guard, fragment(CubeId(0, 0, 0), 0, 0))
    assert replay_filter(guard, fragment(CubeId(1, 0, 0), 0, 0))


def test_window_is_shared_by_all_flows():
    """All flows count frames on one clock, the client's: a fragment more
    than REPLAY_WINDOW_FRAMES behind the frame being composed is stale, even
    from a flow never seen before; inside the window it is accepted."""
    guard = ReplayGuard()
    newest = 10
    guard.begin_frame(newest)
    assert replay_filter(guard, fragment(CubeId(0, 0, 0), newest, 0))
    assert not replay_filter(guard, fragment(CubeId(1, 0, 0), newest - REPLAY_WINDOW_FRAMES - 1, 0))
    assert replay_filter(guard, fragment(CubeId(2, 0, 0), newest - REPLAY_WINDOW_FRAMES, 0))
    assert not replay_filter(guard, fragment(CubeId(2, 0, 0), newest - REPLAY_WINDOW_FRAMES, 0))


@pytest.mark.parametrize("offset", [2**40, 1, -REPLAY_WINDOW_FRAMES - 1], ids=["far-ahead", "next", "below"])
def test_frame_outside_window_rejected_and_not_recorded(offset):
    """Only the client's frame clock moves the window: a fragment header
    naming a frame that is not open, however far ahead, is rejected and
    writes nothing, and the frame being composed still accepts."""
    guard = ReplayGuard()
    guard.begin_frame(10)
    assert replay_filter(guard, fragment(CubeId(0, 0, 0), 10, 0))
    before = copy.deepcopy(guard.frames)
    assert replay_filter(guard, fragment(CubeId(1, 0, 0), 10 + offset, 0)) is None
    assert guard.frames == before
    assert replay_filter(guard, fragment(CubeId(1, 0, 0), 10, 0))


def test_begin_frame_opens_window_and_deletes_older_frames():
    """begin_frame(i) opens [i - REPLAY_WINDOW_FRAMES, i], keeps what the
    frames still open hold, and deletes the older ones with their buffers;
    the same id again changes nothing."""
    guard = ReplayGuard()
    flow = CubeId(0, 0, 0)
    guard.begin_frame(5)
    assert sorted(guard.frames) == list(range(5 - REPLAY_WINDOW_FRAMES, 6))
    for frame in guard.frames:
        assert replay_filter(guard, fragment(flow, frame, 0))
    guard.begin_frame(6)
    assert sorted(guard.frames) == list(range(6 - REPLAY_WINDOW_FRAMES, 7))
    assert guard.frames[5] == {flow: {0: fragment(flow, 5, 0)}} and guard.frames[6] == {}
    before = copy.deepcopy(guard.frames)
    guard.begin_frame(6)
    assert guard.frames == before


# --- admission ---


def test_valid_cube_admitted_and_recorded():
    state = RenderState()
    cube = CubeId(1, 1, 1)
    sealed, plain = sealed_unit(cube, frame=0)
    out = Client(ROOT, state).admit(sealed)
    assert isinstance(out, Admitted)
    assert out.plaintext == plain
    assert state.last_verified[cube][0] == 0
    assert state.failure_log == []


def test_tampered_with_history_held_over():
    state = RenderState()
    cube = CubeId(2, 1, 1)
    good, plain = sealed_unit(cube, frame=4)
    Client(ROOT, state).admit(good)
    bad, _ = sealed_unit(cube, frame=5)
    out = Client(ROOT, state).admit(tampered(bad))
    assert isinstance(out, HeldOver)
    assert out.source_frame_id == 4
    assert out.plaintext == plain
    assert state.failure_log[-1][2] == "auth_failure"


def test_tampered_without_history_dropped():
    state = RenderState()
    cube = CubeId(3, 1, 1)
    bad, _ = sealed_unit(cube, frame=0)
    out = Client(ROOT, state).admit(tampered(bad))
    assert isinstance(out, Dropped)
    assert cube not in state.last_verified
    assert state.failure_log[-1][2] == "auth_failure"


def test_no_plaintext_escapes_failed_unit():
    state = RenderState()
    cube = CubeId(4, 1, 1)
    bad, _ = sealed_unit(cube, frame=0)
    out = Client(ROOT, state).admit(tampered(bad))
    assert not hasattr(out, "plaintext")


def test_last_verified_frame_monotone():
    """A unit that verifies but is not newer than the cube's last verified
    frame is a replay: it never renders, and the newer copy holds over."""
    state = RenderState()
    cube = CubeId(5, 1, 1)
    s7, p7 = sealed_unit(cube, frame=7)
    s3, _ = sealed_unit(cube, frame=3)
    assert Client(ROOT, state).admit(s7, now_ms=1.0) == Admitted(cube, 7, p7)
    assert Client(ROOT, state).admit(s3, now_ms=2.0) == HeldOver(cube, 3, 7, p7)
    assert Client(ROOT, state).admit(s7, now_ms=3.0) == HeldOver(cube, 7, 7, p7)  # same frame again
    assert state.last_verified[cube] == (7, p7)
    assert state.failure_log == [(3, cube, "replay", 2.0), (7, cube, "replay", 3.0)]


def test_admit_plain_renders_unit_and_keeps_newest_copy():
    client = Client(ROOT)
    cube = CubeId(5, 1, 2)
    p7 = CubePlaintext(bytes(12), bytes([1, 2, 3, 0]))
    p3 = CubePlaintext(bytes(24), bytes(8))
    assert client.state.render_newest(cube, 7, p7, 0.0) == Admitted(cube, 7, p7)
    assert client.state.render_newest(cube, 3, p3, 4.0) == HeldOver(cube, 3, 7, p7)  # late: a replay
    assert client.state.last_verified[cube] == (7, p7)
    assert client.state.failure_log == [(3, cube, "replay", 4.0)]
    summary, resolved = frame_compose(8, {}, [cube], client.state)
    assert resolved[cube] == HeldOver(cube, 8, 7, p7)
    assert summary.held == 1


# --- composition ---


def test_compose_all_verified():
    state = RenderState()
    cubes = [CubeId(i, 0, 0) for i in range(4)]
    outcomes = {}
    for c in cubes:
        sealed, _ = sealed_unit(c, frame=0)
        outcomes[c] = Client(ROOT, state).admit(sealed)
    summary, resolved = frame_compose(0, outcomes, cubes, state)
    assert (summary.admitted, summary.held, summary.dropped) == (4, 0, 0)
    assert summary.cube_total == 4


def test_compose_missing_with_history_holds():
    state = RenderState()
    cube = CubeId(0, 2, 0)
    sealed, plain = sealed_unit(cube, frame=0)
    Client(ROOT, state).admit(sealed)
    summary, resolved = frame_compose(1, {}, [cube], state)
    assert (summary.admitted, summary.held, summary.dropped) == (0, 1, 0)
    assert isinstance(resolved[cube], HeldOver)
    assert resolved[cube].source_frame_id == 0


def test_compose_missing_without_history_drops_and_logs():
    state = RenderState()
    cube = CubeId(0, 3, 0)
    summary, resolved = frame_compose(0, {}, [cube], state)
    assert (summary.admitted, summary.held, summary.dropped) == (0, 0, 1)
    assert state.failure_log[-1][2] == "missing"


def test_compose_conservation_random_outcomes():
    rng = Mcg64(5)
    state = RenderState()
    cubes = [CubeId(i, 9, 9) for i in range(30)]
    # give half of them history first
    for c in cubes[:15]:
        sealed, _ = sealed_unit(c, frame=0)
        Client(ROOT, state).admit(sealed)
    outcomes = {}
    for c in cubes:
        r = rng.next_uniform()
        if r < 0.4:
            sealed, _ = sealed_unit(c, frame=1, epoch=1)
            outcomes[c] = Client(ROOT, state).admit(sealed)
        elif r < 0.6:
            sealed, _ = sealed_unit(c, frame=1, epoch=1)
            outcomes[c] = Client(ROOT, state).admit(tampered(sealed))
    summary, _ = frame_compose(1, outcomes, cubes, state)
    assert summary.admitted + summary.held + summary.dropped == len(cubes)


def test_failure_log_is_append_only_and_time_monotone():
    state = RenderState()
    cube = CubeId(1, 2, 1)
    for t, frame in ((1.0, 0), (2.0, 1), (5.0, 2)):
        bad, _ = sealed_unit(cube, frame=frame, epoch=frame)
        Client(ROOT, state).admit(tampered(bad), now_ms=t)
    times = [entry[3] for entry in state.failure_log]
    assert times == sorted(times)
    assert len(times) == 3


# --- full client over datagrams ---


def open_flows(client):
    """Flows holding fragments of a unit that has not completed yet."""
    return sum(bool(frags) for flows in client.guard.frames.values() for frags in flows.values())


def test_client_reassembles_and_admits():
    client = Client(ROOT)
    client.guard.begin_frame(0)
    cube = CubeId(0, 0, 9)
    sealed, plain = sealed_unit(cube, frame=0, n_points=400)
    frags = packetize(sealed.to_bytes(), cube, 0, mtu=300)
    assert len(frags) > 1
    got = None
    for f in frags:
        got = client.on_datagram(f, arrival_ms=1.0) or got
    assert got is not None
    out = client.admit(got)
    assert isinstance(out, Admitted)
    assert out.plaintext == plain


def test_client_ignores_duplicate_fragments():
    client = Client(ROOT)
    client.guard.begin_frame(0)
    cube = CubeId(0, 1, 9)
    sealed, _ = sealed_unit(cube, frame=0, n_points=400)
    frags = packetize(sealed.to_bytes(), cube, 0, mtu=300)
    assert client.on_datagram(frags[0], 0.0) is None
    assert client.on_datagram(frags[0], 0.1) is None  # replayed fragment
    complete = None
    for f in frags[1:]:
        complete = client.on_datagram(f, 0.2) or complete
    assert complete is not None


def test_holdover_staleness_bounded_by_rotation_interval():
    """A cube refreshed every 6 frames is held over for at most 5 frames
    before its next verified version arrives; the carried source frame id
    makes the staleness observable."""
    state = RenderState()
    cube = CubeId(6, 6, 6)
    interval = 6
    last_refresh = None
    for frame in range(13):
        outcomes = {}
        if frame % interval == 0:
            sealed, _ = sealed_unit(cube, frame=frame, epoch=frame // interval)
            outcomes[cube] = Client(ROOT, state).admit(sealed)
            last_refresh = frame
        summary, resolved = frame_compose(frame, outcomes, [cube], state)
        out = resolved[cube]
        if isinstance(out, HeldOver):
            staleness = frame - out.source_frame_id
            assert out.source_frame_id == last_refresh
            assert staleness <= interval - 1


def test_client_buffers_bounded_over_long_lossy_session():
    """One fragment of one flow is lost every frame for 10k frames: the
    half-filled flows are dropped once their frame falls below the replay
    window, and every complete unit still comes out."""
    client = Client(ROOT)
    flows = [CubeId(0, 0, k) for k in range(3)]
    completed = 0
    for frame in range(10_000):
        client.guard.begin_frame(frame)
        lost = flows[frame % len(flows)]
        for flow in flows:
            unit = sealed_unit(flow, frame=frame, epoch=0, n_points=100)[0].to_bytes()
            frags = packetize(unit, flow, frame, mtu=200)
            if flow == lost:
                frags = frags[:-1]
            completed += sum(client.on_datagram(d, 0.0) is not None for d in frags)
        assert len(client.guard.frames) <= REPLAY_WINDOW_FRAMES + 1
        assert open_flows(client) <= REPLAY_WINDOW_FRAMES + 1
    assert completed == 10_000 * (len(flows) - 1)


def test_client_completes_late_fragments_inside_replay_window():
    """Eviction keeps every buffer the replay window still accepts: the
    last fragments of frames 1..W+1 arrive after frame W+1 began, and all
    of those units complete; frame 0 fell below the window and does not."""
    client = Client(ROOT)
    flow = CubeId(0, 2, 9)
    last = {}
    for frame in range(REPLAY_WINDOW_FRAMES + 2):
        client.guard.begin_frame(frame)
        unit = sealed_unit(flow, frame=frame, n_points=100)[0].to_bytes()
        *head, last[frame] = packetize(unit, flow, frame, mtu=200)
        assert all(client.on_datagram(d, 0.0) is None for d in head)
    assert client.on_datagram(last[0], 0.0) is None
    for frame in range(1, REPLAY_WINDOW_FRAMES + 2):
        assert client.on_datagram(last[frame], 0.0) is not None


def test_malformed_datagrams_logged_and_dropped_not_raised():
    """Fragment headers and unit bytes are unauthenticated network input:
    a fragment index beyond its count, or a completed unit that does not
    parse, is logged as malformed for its frame, flow and arrival time and
    yields nothing; the flow's next honest unit still completes."""
    client = Client(ROOT)
    flow = CubeId(1, 2, 3)
    # frag_index >= frag_count: the fragments can never form a unit
    client.guard.begin_frame(0)
    assert client.on_datagram(Datagram(flow, 0, 5, 1, b"x"), 2.5) is None
    assert not client.guard.frames[0][flow]
    # one complete fragment whose bytes are not a sealed unit
    client.guard.begin_frame(1)
    assert client.on_datagram(Datagram(flow, 1, 0, 1, b"not a sealed unit"), 3.5) is None
    assert client.state.failure_log == [(0, flow, "malformed", 2.5), (1, flow, "malformed", 3.5)]
    # the same guard covers the plain-unit path, which reassembles through intake
    client.guard.begin_frame(2)
    assert client.intake(Datagram(flow, 2, 3, 2, b"x"), 4.5) is None
    assert client.intake(Datagram(flow, 2, 0, 2, b"x"), 4.6) is None
    assert client.state.failure_log[-1] == (2, flow, "malformed", 4.6)
    assert open_flows(client) == 0
    client.guard.begin_frame(3)
    sealed, plain = sealed_unit(flow, frame=3)
    (dgram,) = packetize(sealed.to_bytes(), flow, 3)
    got = client.on_datagram(dgram, 5.0)
    assert got is not None and client.admit(got).plaintext == plain


def test_fragment_after_completion_is_a_replay():
    """The sender sends at most one unit per cube and frame: once a flow's
    unit completed in a frame, a fragment under a new index for that flow
    and frame is rejected and opens no state; other frames still accept."""
    client = Client(ROOT)
    flow = CubeId(2, 2, 2)
    client.guard.begin_frame(4)
    sealed, _ = sealed_unit(flow, frame=4)
    (dgram,) = packetize(sealed.to_bytes(), flow, 4)
    assert client.on_datagram(dgram, 1.0) is not None
    late = Datagram(flow, 4, 1, 2, b"x")
    assert client.on_datagram(late, 1.1) is None
    # with a count it cannot meet, a buffer would complete as malformed
    assert client.on_datagram(Datagram(flow, 4, 2, 1, b"x"), 1.2) is None
    assert client.state.failure_log == []
    assert client.guard.frames[4] == {flow: ()}
    assert not replay_filter(client.guard, late)
    client.guard.begin_frame(5)
    assert replay_filter(client.guard, late._replace(frame_id=5))


def test_fragments_after_malformed_completion_are_replays():
    """Fragments whose counts disagree complete as malformed; every later
    fragment of that flow in that frame is rejected, and the next frame's
    unit still completes."""
    client = Client(ROOT)
    flow = CubeId(2, 3, 2)
    client.guard.begin_frame(6)
    assert client.intake(Datagram(flow, 6, 0, 3, b"x"), 1.0) is None
    assert client.intake(Datagram(flow, 6, 1, 2, b"x"), 1.1) is None
    assert client.intake(Datagram(flow, 6, 2, 1, b"x"), 1.2) is None
    assert client.state.failure_log == [(6, flow, "malformed", 1.1)]
    for index in range(3):
        assert not replay_filter(client.guard, Datagram(flow, 6, index, 3, b"x"))
    assert open_flows(client) == 0
    client.guard.begin_frame(7)
    sealed, plain = sealed_unit(flow, frame=7)
    (dgram,) = packetize(sealed.to_bytes(), flow, 7)
    assert client.admit(client.on_datagram(dgram, 2.0)).plaintext == plain


def _deliver(client, sealed, flow, frame, arrival_ms=0.0):
    """Fragment a sealed unit under the given fragment headers and feed it
    through the client; returns what the last fragment completes."""
    got = None
    for dgram in packetize(sealed.to_bytes(), flow, frame, mtu=300):
        got = client.on_datagram(dgram, arrival_ms)
    return got


def test_authenticated_replay_in_newer_fragments_is_not_admitted():
    """A sealed frame-0 unit in fragments that claim frame 5, delivered
    after frame 1: the fragment headers pass the replay filter, the unit
    verifies, yet it names frame 0, so it is logged as a replay and frame 5
    renders frame 1's copy."""
    client = Client(ROOT)
    cube = CubeId(3, 0, 7)
    s0, _ = sealed_unit(cube, frame=0, n_points=60)
    s1, p1 = sealed_unit(cube, frame=1, n_points=60)
    for frame, sealed in ((0, s0), (1, s1)):
        client.guard.begin_frame(frame)
        assert isinstance(client.admit(_deliver(client, sealed, cube, frame)), Admitted)
    client.guard.begin_frame(5)
    assert _deliver(client, s0, cube, 5, arrival_ms=9.0) is None
    assert client.state.failure_log == [(5, cube, "replay", 9.0)]
    summary, resolved = frame_compose(5, {}, [cube], client.state)
    assert resolved[cube] == HeldOver(cube, 5, 1, p1)
    assert summary.admitted == 0 and summary.held == 1


def test_unit_under_another_flow_is_a_replay():
    """The unit header names the cube; fragments of another flow carry it
    in vain."""
    client = Client(ROOT)
    cube, other = CubeId(3, 1, 7), CubeId(3, 2, 7)
    client.guard.begin_frame(2)
    sealed, _ = sealed_unit(cube, frame=2)
    assert _deliver(client, sealed, other, 2, arrival_ms=1.5) is None
    assert client.state.failure_log == [(2, other, "replay", 1.5)]
    assert client.state.last_verified == {}


def test_forged_flow_flood_stays_within_window_bound():
    """Fragment headers are unauthenticated, so a forger can name a fresh
    flow id in every datagram. Each forged fragment opens a flow that
    never completes; the table still spans at most REPLAY_WINDOW_FRAMES + 1
    frames, and each frame's entries go once the client's frame clock moves
    past the window."""
    client = Client(ROOT)
    honest = CubeId(0, 0, 0)
    per_frame = 100
    bound = REPLAY_WINDOW_FRAMES + 1
    for frame in range(200):
        client.guard.begin_frame(frame)
        for k in range(per_frame):
            forged = CubeId(1 + frame * per_frame + k, 7, 7)
            assert client.on_datagram(Datagram(forged, frame, 0, 2, b"x"), 0.0) is None
        sealed, plain = sealed_unit(honest, frame=frame)
        (dgram,) = packetize(sealed.to_bytes(), honest, frame)
        assert client.admit(client.on_datagram(dgram, 0.0)).plaintext == plain
        frames = client.guard.frames
        assert len(frames) <= bound
        assert sum(map(len, frames.values())) <= bound * (per_frame + 1)
        assert open_flows(client) <= bound * per_frame


def test_epoch_top_bit_flip_is_an_auth_failure():
    """The unit header carries the epoch as a u64; with its top bit flipped
    the receiver derives a key for that epoch, the tag fails, and the unit
    is logged as an auth failure instead of raising."""
    client = Client(ROOT)
    cube = CubeId(4, 0, 4)
    client.guard.begin_frame(3)
    sealed, _ = sealed_unit(cube, frame=3)
    wire = bytearray(sealed.to_bytes())
    wire[47] ^= 0x80  # the epoch is the u64 at header bytes 40..47
    (dgram,) = packetize(bytes(wire), cube, 3)
    got = client.on_datagram(dgram, 1.0)
    assert got is not None and got.epoch == sealed.epoch + 2**63
    assert client.admit(got, now_ms=1.0) == Dropped(cube, 3, "auth_failure")
    assert client.state.failure_log == [(3, cube, "auth_failure", 1.0)]
