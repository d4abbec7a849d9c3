"""Emulated datagram transport with per-cube independent flows.

Sealed units fragment into datagrams with a 24-byte header:

    flow_id     3 x int32 LE   (cube id)
    frame_id    u64 LE
    frag_index  u16 LE
    frag_count  u16 LE

The channel is a deterministic discrete-event emulation: each datagram is
delayed by half the configured RTT, dropped independently with loss_prob,
and adjacent survivors of one flow swap arrival order with reorder_prob.
The channel randomness is a substream of the session seed per (flow,
frame), which makes a flow's delivery in a frame a function of those
datagrams and the seed alone: loss in one flow can never perturb another,
and a fragment lost in one frame is drawn afresh in the next. A fixed
channel constant is mixed into that seed, so a channel seeded like the
sender's shaping (shaping.flow_rng) still draws a stream of its own, and
a fragment's loss does not follow its shaping draws.

A flow's traffic trace is a plain list of the sender's egress, one (wire
length, send time) record per datagram, before channel loss: that is the
side a traffic-analysis adversary observes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, MalformedHeader
from .partition import CubeId
from .rng import Mcg64, mix64

__all__ = [
    "NetConfig",
    "Datagram",
    "packetize",
    "reassemble",
    "transmit",
    "FRAG_HEADER_LEN",
]

_FRAG = struct.Struct("<iiiQHH")
FRAG_HEADER_LEN = _FRAG.size  # 24
_CHANNEL_STREAM = 0x6368616E6E656C  # "channel": keeps channel draws apart from shaping's


@dataclass(frozen=True)
class NetConfig:
    rtt_ms: float = 15.0
    loss_prob: float = 0.0
    reorder_prob: float = 0.0
    mtu: int = 1200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ConfigError("rtt_ms must be >= 0")
        # 1.0 is allowed so a total-loss channel remains expressible
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError("loss_prob must be in [0, 1]")
        if not 0.0 <= self.reorder_prob < 1.0:
            raise ConfigError("reorder_prob must be in [0, 1)")
        if self.mtu < 64:
            raise ConfigError("mtu must be >= 64")


class Datagram(NamedTuple):
    flow_id: CubeId
    frame_id: int
    frag_index: int
    frag_count: int
    payload: bytes

    def to_bytes(self) -> bytes:
        return (
            _FRAG.pack(
                self.flow_id[0],
                self.flow_id[1],
                self.flow_id[2],
                self.frame_id,
                self.frag_index,
                self.frag_count,
            )
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Datagram":
        if len(data) < FRAG_HEADER_LEN:
            raise MalformedHeader("datagram shorter than fragment header")
        ix, iy, iz, frame_id, idx, count = _FRAG.unpack_from(data)
        return cls(CubeId(ix, iy, iz), frame_id, idx, count, data[FRAG_HEADER_LEN:])

    @property
    def wire_len(self) -> int:
        return FRAG_HEADER_LEN + len(self.payload)


def packetize(unit: bytes, flow_id: CubeId, frame_id: int, mtu: int = 1200) -> list[Datagram]:
    """Split one sealed unit into MTU-sized fragments."""
    payload_max = mtu - FRAG_HEADER_LEN
    if payload_max < 1:
        raise ConfigError("mtu leaves no payload room")
    count = max(1, -(-len(unit) // payload_max))
    if count > 0xFFFF:
        raise ConfigError("unit needs more fragments than the header can number")
    make = Datagram._make
    return [
        make((flow_id, frame_id, i, count, unit[at : at + payload_max]))
        for i, at in enumerate(range(0, count * payload_max, payload_max))
    ]


def reassemble(datagrams: list[Datagram]) -> bytes | None:
    """Rebuild a unit from its fragments; None while incomplete."""
    if not datagrams:
        return None
    count = datagrams[0].frag_count
    slots: list[bytes | None] = [None] * count
    for d in datagrams:
        if d.frag_count != count or not 0 <= d.frag_index < count:
            raise MalformedHeader("inconsistent fragment metadata")
        slots[d.frag_index] = d.payload
    if any(s is None for s in slots):
        return None
    return b"".join(slots)  # type: ignore[arg-type]


def transmit(
    sendlist: list[tuple[Datagram, float]],
    cfg: NetConfig = NetConfig(),
) -> tuple[list[tuple[Datagram, float]], dict[CubeId, list[tuple[int, float]]]]:
    """Run the channel over (datagram, send_time) pairs.

    Returns (delivered, traces): delivered pairs carry arrival times and
    come back sorted by arrival; traces list each flow's (wire length,
    send time) records as sent, ordered by send time, independent of loss.
    """
    # grouped with get() rather than setdefault(), which builds a list per
    # datagram; fields are read by index (flow_id, frame_id, ..., payload)
    streams: dict[tuple[CubeId, int], list[tuple[Datagram, float]]] = {}
    records: dict[CubeId, list[tuple[int, float]]] = {}
    for item in sorted(sendlist, key=itemgetter(1)):
        dgram, t = item
        flow_id = dgram[0]
        stream = streams.get((flow_id, dgram[1]))
        if stream is None:
            streams[(flow_id, dgram[1])] = [item]
        else:
            stream.append(item)
        rec = (FRAG_HEADER_LEN + len(dgram[4]), t)
        recs = records.get(flow_id)
        if recs is None:
            records[flow_id] = [rec]
        else:
            recs.append(rec)

    half_rtt = cfg.rtt_ms / 2.0
    if cfg.loss_prob == 0.0 and cfg.reorder_prob == 0.0:
        # every draw would pass (u >= 0) and none would reorder: skip them
        delivered = [(d, t + half_rtt) for items in streams.values() for d, t in items]
    else:
        delivered = []
        for (flow_id, frame_id), items in streams.items():
            draw = Mcg64(mix64(_CHANNEL_STREAM, cfg.seed, *flow_id, frame_id)).next_uniform
            survivors = [(d, t + half_rtt) for d, t in items if draw() >= cfg.loss_prob]
            if cfg.reorder_prob > 0.0:
                i = 0
                while i < len(survivors) - 1:
                    if draw() < cfg.reorder_prob:
                        (d1, t1), (d2, t2) = survivors[i], survivors[i + 1]
                        survivors[i], survivors[i + 1] = (d2, t1), (d1, t2)
                        i += 2
                    else:
                        i += 1
            delivered.extend(survivors)
    delivered.sort(key=itemgetter(1))
    return delivered, records
