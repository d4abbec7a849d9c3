import math

import pytest

from privis.errors import ConfigError, MalformedHeader
from privis.netw import (
    _CHANNEL_STREAM,
    FRAG_HEADER_LEN,
    Datagram,
    NetConfig,
    packetize,
    reassemble,
    transmit,
)
from privis.partition import CubeId
from privis.rng import Mcg64, mix64
from privis.shaping import ShapingConfig, flow_rng

FLOW = CubeId(1, 2, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        NetConfig(mtu=10)
    with pytest.raises(ConfigError):
        NetConfig(loss_prob=1.5)
    NetConfig(loss_prob=1.0)  # total loss remains expressible


def test_single_fragment_below_mtu():
    frags = packetize(bytes(100), FLOW, 0, mtu=1200)
    assert len(frags) == 1
    assert frags[0].frag_count == 1
    assert frags[0].wire_len == 100 + FRAG_HEADER_LEN


def test_exact_division_two_fragments():
    payload_max = 1200 - FRAG_HEADER_LEN
    frags = packetize(bytes(2 * payload_max), FLOW, 0, mtu=1200)
    assert len(frags) == 2
    assert [f.frag_index for f in frags] == [0, 1]
    assert all(len(f.payload) == payload_max for f in frags)


def test_datagram_wire_round_trip():
    d = Datagram(FLOW, 42, 3, 7, b"payload")
    back = Datagram.from_bytes(d.to_bytes())
    assert back == d
    with pytest.raises(MalformedHeader):
        Datagram.from_bytes(b"short")


def test_thousand_random_packetize_round_trips():
    rng = Mcg64(77)
    for trial in range(1000):
        size = rng.randint(0, 5000)
        unit = bytes(rng.randint(0, 255) for _ in range(size)) if size < 200 else bytes(size)
        mtu = rng.randint(64, 1500)
        frags = packetize(unit, FLOW, trial, mtu=mtu)
        assert all(f.wire_len <= mtu for f in frags)
        assert reassemble(frags) == unit
        # reassembly order-independent
        assert reassemble(list(reversed(frags))) == unit


def test_reassemble_incomplete_returns_none():
    frags = packetize(bytes(5000), FLOW, 0, mtu=1200)
    assert reassemble(frags[:-1]) is None
    assert reassemble([]) is None


def test_ideal_channel_delivers_everything():
    frags = [Datagram(FLOW, 0, i, 10, bytes(50)) for i in range(10)]
    sendlist = [(f, float(i)) for i, f in enumerate(frags)]
    delivered, traces = transmit(sendlist, NetConfig(rtt_ms=15.0))
    assert len(delivered) == 10
    for (d, arrival), (_d0, sent) in zip(delivered, sendlist):
        assert arrival == pytest.approx(sent + 7.5)
    assert len(traces[FLOW]) == 10


def test_total_loss_keeps_sender_side_trace():
    frags = [Datagram(FLOW, 0, i, 5, bytes(50)) for i in range(5)]
    sendlist = [(f, float(i)) for i, f in enumerate(frags)]
    delivered, traces = transmit(sendlist, NetConfig(loss_prob=1.0))
    assert delivered == []
    assert len(traces[FLOW]) == 5
    assert [t for _l, t in traces[FLOW]] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_loss_rate_within_binomial_bound():
    n = 10000
    sendlist = [(Datagram(FLOW, 0, i, n, bytes(10)), float(i)) for i in range(n)]
    delivered, _ = transmit(sendlist, NetConfig(loss_prob=0.1, seed=5))
    expected = n * 0.9
    sigma = math.sqrt(n * 0.1 * 0.9)
    assert abs(len(delivered) - expected) <= 3 * sigma


def test_trace_records_sent_lengths_and_times():
    shaped_time = 3.25
    d = Datagram(FLOW, 0, 0, 1, bytes(321))
    _, traces = transmit([(d, shaped_time)], NetConfig())
    assert traces[FLOW] == [(321 + FRAG_HEADER_LEN, shaped_time)]


def test_reorder_swaps_adjacent_pairs():
    n = 400
    sendlist = [(Datagram(FLOW, 0, i, n, bytes(10)), float(i)) for i in range(n)]
    delivered, _ = transmit(sendlist, NetConfig(reorder_prob=0.3, seed=9))
    assert len(delivered) == n
    order = [d.frag_index for d, _t in delivered]
    assert order != list(range(n))  # some swaps happened
    displacement = max(abs(pos - idx) for pos, idx in enumerate(order))
    assert displacement == 1  # swaps are only ever adjacent


def test_determinism_under_fixed_seed():
    sendlist = [(Datagram(FLOW, 0, i, 100, bytes(10)), float(i)) for i in range(100)]
    cfg = NetConfig(loss_prob=0.2, reorder_prob=0.2, seed=12)
    a, _ = transmit(sendlist, cfg)
    b, _ = transmit(sendlist, cfg)
    assert a == b


def test_flow_isolation_dropping_one_flow_leaves_other_intact():
    """Each flow run alone over the channel delivers exactly what it
    delivers in the joint run: loss in one flow never touches another."""
    flows = (CubeId(0, 0, 0), CubeId(9, 9, 9), CubeId(2, 0, 0))
    send = [(Datagram(flow, 0, i, 50, bytes(10)), float(i)) for i in range(50) for flow in flows]
    cfg = NetConfig(loss_prob=0.5, seed=21)
    joint, _ = transmit(send, cfg)
    for flow in flows:
        solo, _ = transmit([p for p in send if p[0].flow_id == flow], cfg)
        joint_flow = {d.frag_index for d, _t in joint if d.flow_id == flow}
        assert joint_flow == {d.frag_index for d, _t in solo}
        assert 0 < len(joint_flow) < 50  # the channel dropped some, not all


def test_loss_is_drawn_afresh_each_frame():
    """A one-datagram flow sent frame after frame, as a session sends it,
    is lost on some frames and delivered on others: the channel stream is
    seeded per (flow, frame), so a lost fragment is not lost for good."""
    cfg = NetConfig(loss_prob=0.5, seed=3)
    outcomes = {len(transmit([(Datagram(FLOW, frame, 0, 1, bytes(10)), 0.0)], cfg)[0]) for frame in range(32)}
    assert outcomes == {0, 1}


def test_trace_of_a_flow_over_several_frames_is_in_send_order():
    send = [(Datagram(FLOW, frame, 0, 1, bytes(10 + frame)), float(5 - frame)) for frame in range(4)]
    _, traces = transmit(send, NetConfig())
    assert traces[FLOW] == sorted(((d.wire_len, t) for d, t in send), key=lambda r: r[1])


def test_channel_loss_does_not_follow_the_shaping_draws():
    # Channel and shaping share a seed, as the CLI and the benchmark set
    # them. A one-fragment flow is lost in a frame about as often when its
    # first shaping draw is below loss_prob as when it is not.
    seed, frames = 9, 64
    cfg = NetConfig(loss_prob=0.5, seed=seed)
    shaping = ShapingConfig(rng_seed=seed)
    agree = 0
    for frame in range(frames):
        (dgram,) = packetize(bytes(100), FLOW, frame)
        delivered, _ = transmit([(dgram, 0.0)], cfg)
        shaping_says_lost = flow_rng(shaping, FLOW, frame).next_uniform() < cfg.loss_prob
        agree += (not delivered) == shaping_says_lost
    assert 16 <= agree <= 48, agree


def _reference_transmit(sendlist, cfg):
    """The channel drawing once per datagram, as it does on a lossy or
    reordering channel, with the streams grouped by setdefault."""
    streams, records = {}, {}
    for dgram, t in sorted(sendlist, key=lambda p: p[1]):
        streams.setdefault((dgram.flow_id, dgram.frame_id), []).append((dgram, t))
        records.setdefault(dgram.flow_id, []).append((dgram.wire_len, t))
    delivered = []
    for (flow_id, frame_id), items in streams.items():
        draw = Mcg64(mix64(_CHANNEL_STREAM, cfg.seed, *flow_id, frame_id)).next_uniform
        delivered.extend((d, t + cfg.rtt_ms / 2.0) for d, t in items if draw() >= cfg.loss_prob)
    delivered.sort(key=lambda p: p[1])
    return delivered, records


def test_loss_free_channel_matches_the_draw_per_datagram_reference():
    """Without loss or reordering the channel makes no draws; it delivers
    the same datagrams at the same times in the same order (ties between
    flows included) and records the same traces. Some flows send in two
    frames at once, and a third of them are jittered onto a coarse grid,
    so that datagrams of different flows tie in send time, interleaved."""
    rng = Mcg64(31)
    flows = [CubeId(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(12)]
    for frame in range(20):
        send = []
        for k, flow in enumerate(flows):
            for frame_id in (frame, frame + 1)[: 1 + (k % 4 == 0)]:
                shaped = k % 3 == 0
                for d in packetize(bytes(rng.randint(0, 9000)), flow, frame_id, mtu=1200):
                    send.append((d, 100.0 * frame + (5.0 * rng.randint(0, 3) if shaped else 0.0)))
        cfg = NetConfig(rtt_ms=rng.uniform(0.0, 40.0), seed=frame)
        delivered, traces = transmit(send, cfg)
        ref_delivered, ref_records = _reference_transmit(send, cfg)
        assert repr(delivered) == repr(ref_delivered)
        assert traces == ref_records


def _reference_packetize(unit, flow_id, frame_id, mtu):
    payload_max = mtu - FRAG_HEADER_LEN
    count = max(1, -(-len(unit) // payload_max))
    return [
        Datagram(flow_id, frame_id, i, count, unit[i * payload_max : (i + 1) * payload_max])
        for i in range(count)
    ]


def test_packetize_matches_the_slicing_reference():
    """The sizes and MTUs of test_thousand_random_packetize_round_trips;
    the long units are cut from random bytes, so a fragment taken at the
    wrong offset shows."""
    pool = bytes(Mcg64(5).randint(0, 255) for _ in range(5000))
    rng = Mcg64(77)
    for trial in range(1000):
        size = rng.randint(0, 5000)
        unit = bytes(rng.randint(0, 255) for _ in range(size)) if size < 200 else pool[:size]
        mtu = rng.randint(64, 1500)
        frags = packetize(unit, FLOW, trial, mtu=mtu)
        ref = _reference_packetize(unit, FLOW, trial, mtu)
        assert all(type(f) is Datagram and type(f.payload) is bytes for f in frags)
        assert [tuple(f) for f in frags] == [tuple(r) for r in ref]
