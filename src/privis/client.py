"""Receiver: reassembly, replay filtering, decrypt-before-render admission.

Every sealed unit passes open_cube, in Client.admit, before anything
reaches the render path; a failed unit never releases plaintext. A plain
(noenc) unit has nothing to verify and renders by RenderState.render_newest,
the rule a verified unit follows. On verification failure the client
falls back to the last verified version of that cube (hold-over) when one
exists, else drops the region for the frame. Hold-over keeps exactly one
prior version per cube, so staleness is bounded and observable through the
carried frame id.

Replay protection has two layers. For the session, one receive window
filters the unauthenticated fragment headers. The client's own frame
clock moves it: ReplayGuard.begin_frame(i), called as frame i is composed,
opens frames [i - REPLAY_WINDOW_FRAMES, i] and deletes everything older,
so no datagram can move the window and a frame outside it never gets a
table entry. Each open frame keeps every flow's fragments by index in one
table, ReplayGuard.frames. A genuinely new fragment of an open frame is
filed there even when it arrives out of order; a duplicate index, any
frame that is not open, and any fragment of a flow whose unit already
completed or was found malformed in that frame are rejected (the sender
sends at most one unit per cube and frame). Per cube, after the
integrity check (as RFC 4303 section 3.4.3 orders it), a unit renders
only when its authenticated frame is newer than the cube's last verified
one, and a sealed unit only in fragments whose header names its own frame
and cube; anything else is logged as a replay.

Missing-versus-tampered policy: a cube that fails authentication holds
over (tamper is evidence the sender tried); a cube with no completed unit
this frame holds over with history and drops without. A frame files
only outcomes that are Admitted or name that frame: a failed or replayed
unit of an older window frame is logged and leaves the frame unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AuthFailure, MalformedHeader
from .keyring import RootKey, derive_key
from .netw import Datagram, reassemble
from .partition import CubeId
from .seal import CubePlaintext, SealedCube, open_cube

__all__ = [
    "Admitted",
    "HeldOver",
    "Dropped",
    "AdmitOutcome",
    "ReplayGuard",
    "RenderState",
    "FrameSummary",
    "Client",
    "replay_filter",
    "frame_compose",
]

REPLAY_WINDOW_FRAMES = 2  # frames below the one being composed still acceptable


@dataclass(frozen=True)
class Admitted:
    cube_id: CubeId
    frame_id: int
    plaintext: CubePlaintext


@dataclass(frozen=True)
class HeldOver:
    cube_id: CubeId
    frame_id: int  # frame being composed
    source_frame_id: int  # frame the held plaintext was verified at
    plaintext: CubePlaintext


@dataclass(frozen=True)
class Dropped:
    cube_id: CubeId
    frame_id: int
    reason: str


AdmitOutcome = Admitted | HeldOver | Dropped


_DONE = ()  # a flow's table entry once its unit completed or failed in that frame


@dataclass
class ReplayGuard:
    """Session-wide receive window: for each open frame, each flow's
    fragments by index, or _DONE once the flow's unit there completed or
    failed. Only begin_frame opens and closes frames."""

    frames: dict[int, dict[CubeId, dict[int, Datagram] | tuple[()]]] = field(default_factory=dict)

    def begin_frame(self, frame_id: int) -> None:
        """Open frames [frame_id - REPLAY_WINDOW_FRAMES, frame_id], keeping
        what they hold, and delete the older ones with their buffers. Frame
        ids must not decrease; a repeated id changes nothing."""
        held = self.frames
        self.frames = {f: held.get(f, {}) for f in range(frame_id - REPLAY_WINDOW_FRAMES, frame_id + 1)}


def replay_filter(guard: ReplayGuard, dgram: Datagram) -> dict[int, Datagram] | None:
    """File one datagram in the window; returns its flow's fragments in
    that frame, or None to reject it as replayed or stale.

    A datagram of a frame that is not open is rejected and nothing is
    written. In an open frame, a genuinely new fragment is accepted
    (reordering is not replay); a duplicate index and a fragment of a flow
    that is done in its frame are rejected.
    """
    flows = guard.frames.get(dgram[1])
    if flows is None:
        return None  # outside the window: indistinguishable from replay
    flow, index = dgram[0], dgram[2]
    frags = flows.get(flow)
    if frags is None:
        frags = flows[flow] = {}
    elif frags is _DONE or index in frags:
        return None
    frags[index] = dgram
    return frags


@dataclass
class RenderState:
    """What the render path may legally see."""

    last_verified: dict[CubeId, tuple[int, CubePlaintext]] = field(default_factory=dict)
    failure_log: list[tuple[int, CubeId, str, float]] = field(default_factory=list)

    def log_failure(self, frame_id: int, cube_id: CubeId, reason: str, time_ms: float) -> None:
        self.failure_log.append((frame_id, cube_id, reason, time_ms))

    def hold_over(self, cube_id: CubeId, frame_id: int, reason: str) -> HeldOver | Dropped:
        """The cube's last verified copy, held over into ``frame_id``; with
        no verified copy the cube drops for the frame, for ``reason``.
        Logging is left to the caller."""
        prior = self.last_verified.get(cube_id)
        if prior is None:
            return Dropped(cube_id, frame_id, reason)
        return HeldOver(cube_id, frame_id, prior[0], prior[1])

    def render_newest(
        self, cube_id: CubeId, frame_id: int, plaintext: CubePlaintext, now_ms: float
    ) -> AdmitOutcome:
        """Make an accepted unit the cube's render copy if it is newer than
        the last verified one. A unit at or below that frame is a replay:
        it is logged and the newer copy holds over."""
        prior = self.last_verified.get(cube_id)
        if prior is not None and frame_id <= prior[0]:
            self.log_failure(frame_id, cube_id, "replay", now_ms)
            return self.hold_over(cube_id, frame_id, "replay")
        self.last_verified[cube_id] = (frame_id, plaintext)
        return Admitted(cube_id, frame_id, plaintext)


@dataclass(frozen=True)
class FrameSummary:
    frame_id: int
    admitted: int
    held: int
    dropped: int
    point_total: int

    @property
    def cube_total(self) -> int:
        return self.admitted + self.held + self.dropped


def frame_compose(
    frame_id: int,
    outcomes: dict[CubeId, AdmitOutcome],
    expected_cubes: list[CubeId],
    state: RenderState,
    now_ms: float = 0.0,
) -> tuple[FrameSummary, dict[CubeId, AdmitOutcome]]:
    """Resolve a frame once every datagram delivered for it was taken in.

    Expected cubes with no outcome (nothing arrived, or the flow was not
    refreshed this frame) resolve by RenderState.hold_over; the ones that
    drop are logged as missing. Conservation: admitted + held + dropped
    equals the expected cube count.
    """
    resolved: dict[CubeId, AdmitOutcome] = {}
    admitted = held = dropped = points = 0
    for cid in expected_cubes:
        out = outcomes.get(cid)
        if out is None:
            out = state.hold_over(cid, frame_id, "missing")
            if isinstance(out, Dropped):
                state.log_failure(frame_id, cid, "missing", now_ms)
        resolved[cid] = out
        if isinstance(out, Admitted):
            admitted += 1
            points += out.plaintext.num_points
        elif isinstance(out, HeldOver):
            held += 1
            points += out.plaintext.num_points
        else:
            dropped += 1
    return FrameSummary(frame_id, admitted, held, dropped, points), resolved


@dataclass
class Client:
    """Stateful receiver: datagram intake through frame composition."""

    root: RootKey
    state: RenderState = field(default_factory=RenderState)
    guard: ReplayGuard = field(default_factory=ReplayGuard)

    def on_datagram(self, dgram: Datagram, arrival_ms: float) -> SealedCube | None:
        """Feed one datagram; returns the sealed unit when it completes.
        A completed unit that does not parse is logged as malformed and
        yields None, like an incomplete one. So does, logged as a replay,
        a unit whose header names another frame or cube than its fragment
        headers: the AEAD tag covers the unit header, so that binds the
        unauthenticated fragment headers to what admit verifies."""
        unit = self.intake(dgram, arrival_ms)
        if unit is None:
            return None
        try:
            # from_bytes checks the declared lengths; the pad stays as received
            sealed = SealedCube.from_bytes(unit)
        except MalformedHeader:
            self.state.log_failure(dgram.frame_id, dgram.flow_id, "malformed", arrival_ms)
            return None
        if sealed.frame_id != dgram.frame_id or sealed.cube_id != dgram.flow_id:
            self.state.log_failure(dgram.frame_id, dgram.flow_id, "replay", arrival_ms)
            return None
        return sealed

    def intake(self, dgram: Datagram, arrival_ms: float) -> bytes | None:
        """Replay-filter and file one datagram; returns the unit's bytes
        once its last fragment is in.

        Fragments whose headers disagree (index beyond the count, counts
        that differ) cannot form a unit: the failure is logged as malformed
        at ``arrival_ms``. Either way the flow is done in that frame.
        """
        frags = replay_filter(self.guard, dgram)
        if not frags or len(frags) < dgram.frag_count:
            return None
        self.guard.frames[dgram.frame_id][dgram.flow_id] = _DONE
        try:
            return reassemble(list(frags.values()))
        except MalformedHeader:
            self.state.log_failure(dgram.frame_id, dgram.flow_id, "malformed", arrival_ms)
            return None

    def admit(self, sealed: SealedCube, now_ms: float = 0.0) -> AdmitOutcome:
        """Verify one reassembled sealed unit and update render state.

        The key is derived from the header's (cube id, epoch) on every
        admit, so the client keeps no key state. Verification failure is
        always logged and resolves by RenderState.hold_over; a unit that
        verifies renders by RenderState.render_newest.
        """
        cid, frame_id = sealed.cube_id, sealed.frame_id
        try:
            plaintext = open_cube(sealed, derive_key(self.root, cid, sealed.epoch))
        except (AuthFailure, MalformedHeader) as e:
            reason = "auth_failure" if isinstance(e, AuthFailure) else "malformed"
            self.state.log_failure(frame_id, cid, reason, now_ms)
            return self.state.hold_over(cid, frame_id, reason)
        return self.state.render_newest(cid, frame_id, plaintext, now_ms)
