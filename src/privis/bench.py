"""End-to-end pipeline orchestration and the three-configuration benchmark.

Modes:

    noenc    raw streaming: partitioning and scoring run (region analysis
             is inherent to viewport-adaptive volumetric delivery), but
             units go out unencrypted and unshaped;
    uniform  whole-frame AEAD: one full-payload unit per frame, rekeyed
             every frame, no shaping;
    privis   full adaptive pipeline: per-cube policies, selective rekey,
             scope-aware sealing, selective shaping, leakage adaptation.

``Session.step`` is one pipeline for all three. A mode only picks a
planner (one unit per cube, or one whole-frame cube) and a unit codec
(plain, or sealed under the key schedule); serialize_cube packs every
mode's payload, and the budget pass, shaping and leakage adaptation are
switched on for privis alone.

Per-frame stage accounting (wall time, monotonic clock):

    saliency_grouping   change detection, partition/reuse, scoring, the
                        set of rebuilt cubes
    key_management      unit plan (policy assignment, budget pass), key
                        schedule
    encryption          seal_cube calls only
    decryption          Client.admit per completed unit: the receiver's
                        derive_key, open_cube, and the RenderState update
                        or hold-over with its failure log
    transport_assembly  payload serialization, shaping decisions,
                        plain-unit framing (noenc), packetization, receiver
                        intake, plain-unit admission (noenc), frame
                        composition
    total               one bracket around all of the above

Refresh rule: a unit is sealed and sent again when its key rotated this
frame or its cube is not the previous frame's object for that id
(CubeSet.rebuilt_since: new, re-partitioned, or a cell a changed point
left, entered or touched); otherwise the receiver keeps rendering its
held-over verified copy. A frame with no changed point reuses the
previous CubeSet whole, and a kept cube's payload is the plaintext
serialize_cube already holds on it, so a rotation reseals unchanged
content without packing it again; serialize_cube is still called once
per sent unit. The client takes every datagram that arrives, since
shaping already holds each within the motion-to-photon budget of its
frame's send time. The emulated network runs on virtual time and is
excluded from the latency accounting.
"""

from __future__ import annotations

import csv
import hashlib
import os
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .client import AdmitOutcome, Admitted, Client, FrameSummary, frame_compose
from .errors import ConfigError, OrderingError
from .frame_io import PointCloudFrame, SceneSpec, generate_frame
from .keyring import KeyRing, RootKey
from .leakage import (
    FEATURE_NAMES,
    LeakageConfig,
    estimate_mi,
    leakage_check_and_adapt,
    trace_features,
)
from .netw import FRAG_HEADER_LEN, Datagram, NetConfig, packetize, transmit
from .partition import (
    Cube,
    CubeId,
    CubeSet,
    PartitionConfig,
    partition_frame,
    reuse_or_repartition,
)
from .policy import (
    PolicyBudget,
    PolicyConfig,
    ProtectionLevel,
    ProtectionPolicy,
    Scope,
    assign_policy,
    enforce_budget,
    protection_level,  # not called here: perfbench/layers.py hooks this name and fails if it is missing
)
from .saliency import SaliencyConfig, score_cubes
from .seal import (
    SEAL_OVERHEAD,
    CubePlaintext,
    NonceRegistry,
    seal_cube,
    serialize_cube,
)
from .shaping import ShapingConfig, flow_rng, pad_length, shape_times

__all__ = [
    "MODES",
    "RunConfig",
    "LatencyBreakdown",
    "UnitRecord",
    "SessionResult",
    "ComparisonResult",
    "default_scene",
    "leakage_scene",
    "run_session",
    "compare_modes",
    "write_session_csvs",
]

MODES = ("noenc", "uniform", "privis")
FRAME_INTERVAL_MS = 100.0 / 3.0  # nominal 30 fps send cadence
UNIFORM_CUBE = CubeId(0, 0, 0)

_STAGES = ("saliency_grouping", "key_management", "encryption", "decryption", "transport_assembly")


def default_scene(seed: int = 7, frames: int = 60, points: int = 80_000) -> SceneSpec:
    """The benchmark's default scene: ~53 cubes, about a quarter of them
    high-saliency user content, the rest static background."""
    return SceneSpec(
        seed=seed,
        frame_count=frames,
        points_per_frame=points,
        sensitive_fraction=0.078,
        motion_amplitude=0.45,
    )


def leakage_scene(seed: int = 11, frames: int = 36) -> SceneSpec:
    """Scene tuned for leakage evaluation: static cluster, cube payloads
    sized so shaped high-saliency units blend into the background size
    band (run it with a jumbo MTU so every unit is one datagram)."""
    return SceneSpec(
        seed=seed,
        frame_count=frames,
        points_per_frame=17_565,
        sensitive_fraction=0.2269,
        motion_amplitude=0.0,
    )


@dataclass(frozen=True)
class RunConfig:
    mode: str
    scene: SceneSpec
    partition: PartitionConfig = PartitionConfig()
    saliency: SaliencyConfig = SaliencyConfig()
    policy: PolicyConfig = PolicyConfig()
    budget: PolicyBudget = PolicyBudget()
    shaping: ShapingConfig = ShapingConfig()
    net: NetConfig = NetConfig()
    leakage: LeakageConfig = LeakageConfig()
    root_key_hex: str | None = None
    shaping_enabled: bool = True
    adaptation_enabled: bool = True
    content_digests: bool = False
    # keep the per-unit records (sealed_units, unit_records, mi_samples) for
    # offline checks; without it a session's memory does not grow per unit
    keep_units: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.root_key_hex is not None:
            RootKey.from_hex(self.root_key_hex)


@dataclass
class LatencyBreakdown:
    saliency_grouping: float = 0.0
    key_management: float = 0.0
    encryption: float = 0.0
    decryption: float = 0.0
    transport_assembly: float = 0.0
    total: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in (*_STAGES, "total")}


@dataclass(frozen=True)
class UnitRecord:
    """Per sealed-and-sent unit bookkeeping used by tests and reports,
    kept with ``RunConfig.keep_units``."""

    frame_id: int
    cube_id: CubeId
    s: float
    level: int
    sigma: float
    base_len: int  # unshaped wire length of the unit
    padded_len: int  # wire length actually sent (pad included)
    send_times: tuple[float, ...]  # per fragment, after shaping
    nominal_time: float  # unshaped send time of the frame
    jitters: tuple[float, ...]


@dataclass
class SessionResult:
    """What a session records. The per-frame fields fill on every run; the
    per-unit ones only with ``RunConfig.keep_units``, and stay empty
    otherwise."""

    config: RunConfig
    frame_rows: list[dict] = field(default_factory=list)  # one per frame
    mean: LatencyBreakdown = field(default_factory=LatencyBreakdown)  # set by finalize
    # every sent unit, in send order (keep_units)
    unit_records: list[UnitRecord] = field(default_factory=list)
    # (level, flow features) per privis flow-frame (keep_units)
    mi_samples: list[tuple[int, tuple[float, float, float]]] = field(default_factory=list)
    leakage_windows: list[dict] = field(default_factory=list)  # one per closed window, with adaptation on
    failure_log: list = field(default_factory=list)  # the client's log, copied by finalize
    summaries: list[FrameSummary] = field(default_factory=list)  # one per frame
    content_digest_by_frame: dict[int, str] = field(default_factory=dict)  # with content_digests
    # every sent unit's wire bytes, by (frame, cube) (keep_units)
    sealed_units: dict[tuple[int, CubeId], bytes] = field(default_factory=dict)


class _StageClock:
    """Accumulates wall time per pipeline stage within one frame; one stage
    runs at a time."""

    def __init__(self):
        self.acc = dict.fromkeys(_STAGES, 0.0)
        self._stage = None
        self._t0 = 0.0

    def switch(self, stage: str | None) -> None:
        """Close the running stage, if any, and open ``stage`` (None opens
        none)."""
        now = time.perf_counter()
        if self._stage is not None:
            self.acc[self._stage] += now - self._t0
        self._stage, self._t0 = stage, now


def _content_digest(plaintexts: dict[CubeId, CubePlaintext]) -> str:
    """Order-independent digest of rendered points (16-byte rows, sorted)."""
    rows = []
    for _cid, plain in plaintexts.items():
        n = plain.num_points
        if n == 0:
            continue
        geo = np.frombuffer(plain.geometry, dtype=np.uint8).reshape(n, 12)
        attr = np.frombuffer(plain.attributes, dtype=np.uint8).reshape(n, 4)
        rows.append(np.hstack([geo, attr]))
    if not rows:
        return hashlib.sha256(b"").hexdigest()
    allrows = np.vstack(rows)
    order = np.lexsort(allrows.T[::-1])
    return hashlib.sha256(allrows[order].tobytes()).hexdigest()


def _changed_points(frame: PointCloudFrame, prev: PointCloudFrame | None) -> np.ndarray | None:
    """Ascending indices of the points moved, recolored or relabeled since
    the previous frame; None means everything counts as changed (first
    frame or point-count change). One flat ``!=`` per array, whose hits
    divide down to rows: the same bits as comparing column by column, so
    -0.0 against 0.0 is no change, and a static frame yields no index."""
    if prev is None or prev.num_points != frame.num_points:
        return None
    hits = [
        np.flatnonzero(frame.positions != prev.positions) // 3,
        np.flatnonzero(frame.colors != prev.colors) // 3,
        np.flatnonzero(frame.sensitivity != prev.sensitivity),
    ]
    rows = np.concatenate(hits)
    rows.sort(kind="stable")  # ascending runs: merged, not sorted afresh
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    return rows[first]


@dataclass(frozen=True)
class _CubePlanner:
    """One unit per cube, in score order, with the policy its score earns
    under the session's current policy config; given a budget,
    enforce_budget then downgrades the least salient cubes until the
    estimated cost fits."""

    budget: PolicyBudget | None

    def plan(
        self, frame: PointCloudFrame, policy: PolicyConfig, scores, by_id
    ) -> list[tuple[Cube, float, ProtectionPolicy]]:
        triplets = [(by_id[r.cube_id], r.s, assign_policy(r.s, policy)) for r in scores]
        if self.budget is None:
            return triplets
        return enforce_budget(triplets, self.budget, cfg=policy)[0]


class _FramePlanner:
    """One whole-frame cube per frame, at full-payload HIGH protection with
    a fresh key every frame and no shaping. The cube is built afresh each
    frame, so its payload is packed afresh too."""

    POLICY = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.0)

    def plan(
        self, frame: PointCloudFrame, policy: PolicyConfig, scores, by_id
    ) -> list[tuple[Cube, float, ProtectionPolicy]]:
        return [(Cube(UNIFORM_CUBE, np.arange(frame.num_points)), 1.0, self.POLICY)]


class _PlainCodec:
    """Units in the clear: a u32 point count, then the geometry and
    attribute sections. There is no key schedule and nothing to verify, so
    framing and parsing count as transport_assembly."""

    seal_stage = open_stage = "transport_assembly"

    def schedule(self, cid, frame_id, pol, stable):
        return None, False

    def encode(self, plain, key, pol, frame_id, pad_len) -> bytes:
        return plain.num_points.to_bytes(4, "little") + plain.geometry + plain.attributes

    def receiver(self, client):
        """The per-datagram call, (datagram, arrival) -> item or None,
        bound to ``client`` once per frame."""
        return partial(self.receive, client)

    def receive(self, client, dgram, arrival):
        """A completed unit whose length is not exactly its point count's
        is logged as malformed and yields None, as on the sealed path."""
        unit = client.intake(dgram, arrival)
        if unit is None:
            return None
        n = int.from_bytes(unit[:4], "little")
        if len(unit) != 4 + 16 * n:
            client.state.log_failure(dgram.frame_id, dgram.flow_id, "malformed", arrival)
            return None
        return dgram.flow_id, dgram.frame_id, CubePlaintext.from_bytes(unit[4:])

    def admit(self, client, item, arrival) -> AdmitOutcome:
        return client.state.render_newest(*item, arrival)


@dataclass(frozen=True)
class _SealedCodec:
    """AEAD units: sealed under the cube's key epoch for this frame, which
    the key schedule rotates; the client verifies before anything renders."""

    seal_stage, open_stage = "encryption", "decryption"
    overhead = SEAL_OVERHEAD
    ring: KeyRing
    registry: NonceRegistry

    def schedule(self, cid, frame_id, pol, stable):
        key = self.ring.key_for_frame(cid, frame_id, pol, stable)
        return key, key.derived_at_frame == frame_id

    def encode(self, plain, key, pol, frame_id, pad_len) -> bytes:
        sealed = seal_cube(plain, key, pol, frame_id, self.ring.session_id, pad_len=pad_len, registry=self.registry)
        return sealed.to_bytes()

    def receiver(self, client):
        return client.on_datagram

    def admit(self, client, sealed, arrival) -> AdmitOutcome:
        return client.admit(sealed, now_ms=arrival)


class Session:
    """One mode's pipeline, advanced frame by frame. The mode is resolved
    once, here, into a planner and a unit codec; ``step`` is the same for
    every mode.

    Keeping the per-frame step explicit lets compare_modes interleave the
    three configurations in lockstep, so slow environment drift (CPU
    frequency, allocator state) hits every mode equally and cancels out of
    the latency comparison.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        if cfg.root_key_hex is not None:
            self.root = RootKey.from_hex(cfg.root_key_hex)
        else:
            self.root = RootKey.generate()
        self.ring = KeyRing(self.root)
        self.registry = NonceRegistry()
        self.client = Client(self.root)
        self.result = SessionResult(config=cfg)
        adaptive = cfg.mode == "privis"
        if cfg.mode == "uniform":
            self.planner = _FramePlanner()
        else:
            self.planner = _CubePlanner(cfg.budget if adaptive else None)
        if cfg.mode == "noenc":
            self.codec = _PlainCodec()
        else:
            self.codec = _SealedCodec(self.ring, self.registry)
        self._shape = adaptive and cfg.shaping_enabled
        self._adapt = adaptive
        # cfg.policy under the current theta: replaced only when leakage
        # adaptation moves theta, so its level table is built once per theta
        self.policy = cfg.policy
        self.prev_cubes: CubeSet | None = None
        self.prev_frame: PointCloudFrame | None = None
        self._window: list[tuple[int, tuple[float, float, float]]] = []  # open leakage window's samples

    def run(self) -> SessionResult:
        for i in range(self.cfg.scene.frame_count):
            self.step(i)
        return self.finalize()

    def finalize(self) -> SessionResult:
        rows = self.result.frame_rows
        n = max(1, len(rows))
        stages = (*_STAGES, "total")
        self.result.mean = LatencyBreakdown(**{k: sum(r[f"{k}_ms"] for r in rows) / n for k in stages})
        self.result.failure_log = list(self.client.state.failure_log)
        return self.result

    def step(self, i: int) -> None:
        cfg, client, result = self.cfg, self.client, self.result
        planner, codec = self.planner, self.codec
        prev_cubes = self.prev_cubes

        frame = generate_frame(cfg.scene, i)
        clock = _StageClock()
        t_frame0 = time.perf_counter()
        nominal_time = i * FRAME_INTERVAL_MS

        # grouping and scoring (all modes, identical work); the changed
        # points tell the grid reuse which points need locating again
        clock.switch("saliency_grouping")
        changed = _changed_points(frame, self.prev_frame)
        if prev_cubes is None:
            cubes = partition_frame(frame, cfg.partition.target_cubes)
        else:
            cubes = reuse_or_repartition(prev_cubes, frame, cfg.partition, changed)
        scores = score_cubes(cubes, frame, prev_cubes, cfg.saliency)
        rebuilt = cubes.rebuilt_since(prev_cubes)
        by_id = cubes.by_id()
        stable = prev_cubes is not None and cubes.boundary_epoch == prev_cubes.boundary_epoch

        # unit plan and key schedule. A unit is refreshed when its cube was
        # rebuilt or its key rotated this frame. Units are sent in the
        # iteration order of the `refresh` set, not in plan order; the
        # goldens' `trace` hash pins it.
        clock.switch("key_management")
        plan = {cube.id: (cube, s, pol) for cube, s, pol in planner.plan(frame, self.policy, scores, by_id)}
        keys = {}
        refresh: set[CubeId] = set()
        rekeys = 0
        for cid, (_cube, _s, pol) in plan.items():
            keys[cid], rotated = codec.schedule(cid, i, pol, stable)
            rekeys += rotated
            if rotated or cid in rebuilt:
                refresh.add(cid)

        # sender: every refreshed unit's payload and pad length (flows with
        # sigma > 0); then the frame's seals (framing, for plain units) in
        # one run; then each unit is packetized and shaped
        clock.switch("transport_assembly")
        outgoing = []
        for cid in refresh:
            cube, s, pol = plan[cid]
            plain = serialize_cube(frame, cube)
            rng, pad = None, 0
            if self._shape and pol.shaping_strength > 0.0:
                rng = flow_rng(cfg.shaping, cid, i)
                base = codec.overhead + len(plain.geometry) + len(plain.attributes)
                pad = pad_length(base, pol.shaping_strength, cfg.shaping, rng) - base
            outgoing.append((cid, s, pol, plain, rng, pad))
        clock.switch(codec.seal_stage)
        units = [codec.encode(plain, keys[cid], pol, i, pad) for cid, _s, pol, plain, _rng, pad in outgoing]
        clock.switch("transport_assembly")
        sendlist: list[tuple[Datagram, float]] = []
        shaped_units = bytes_sent = 0
        for (cid, s, pol, _plain, rng, pad), unit in zip(outgoing, units):
            frags = packetize(unit, cid, i, cfg.net.mtu)
            bytes_sent += len(unit) + FRAG_HEADER_LEN * len(frags)
            times = [nominal_time] * len(frags)
            jitters = None
            if rng is not None:
                shaped_units += 1
                times, jitters = shape_times(times, pol.shaping_strength, cfg.shaping, rng)
            sendlist.extend(zip(frags, times))
            if cfg.keep_units:
                result.unit_records.append(
                    UnitRecord(
                        frame_id=i,
                        cube_id=cid,
                        s=s,
                        level=int(pol.level),
                        sigma=pol.shaping_strength,
                        base_len=len(unit) - pad,
                        padded_len=len(unit),
                        send_times=tuple(times),
                        nominal_time=nominal_time,
                        jitters=(0.0,) * len(frags) if jitters is None else tuple(jitters),
                    )
                )
                result.sealed_units[(i, cid)] = unit
        clock.switch(None)

        # emulated channel (virtual time, not part of the latency budget;
        # its simulation cost is excluded from the frame total below)
        t_net0 = time.perf_counter()
        delivered, traces = transmit(sendlist, cfg.net)
        net_cost_s = time.perf_counter() - t_net0

        # receiver: the client's frame clock moves the receive window; then
        # replay filter and reassembly per datagram; a unit is verified
        # (rendered, for plain units) as soon as it completes; then frame
        # composition, which files only Admitted outcomes and this frame's
        # own, so a bad unit of an older frame cannot displace an admitted cube
        clock.switch("transport_assembly")
        client.guard.begin_frame(i)
        outcomes = {}
        receive = codec.receiver(client)
        for dgram, arrival in delivered:
            item = receive(dgram, arrival)
            if item is not None:
                clock.switch(codec.open_stage)
                out = codec.admit(client, item, arrival)
                if isinstance(out, Admitted) or out.frame_id == i:
                    outcomes[out.cube_id] = out
                clock.switch("transport_assembly")
        summary, resolved = frame_compose(i, outcomes, sorted(plan), client.state, now_ms=nominal_time)
        clock.switch(None)
        result.summaries.append(summary)

        total_s = time.perf_counter() - t_frame0 - net_cost_s
        # leakage samples of the open window, and adaptation when it closes
        if self._adapt:
            samples = [(int(plan[cid][2].level), trace_features(trace)) for cid, trace in traces.items()]
            self._window.extend(samples)
            if cfg.keep_units:
                result.mi_samples.extend(samples)
            if (i + 1) % cfg.leakage.window_frames == 0:
                if cfg.adaptation_enabled:
                    theta = _run_adaptation(cfg, result, self._window, self.policy.theta, i)
                    if theta != self.policy.theta:
                        self.policy = replace(self.policy, theta=theta)
                self._window = []

        if cfg.content_digests:
            rendered = {
                cid: out.plaintext for cid, out in resolved.items() if hasattr(out, "plaintext")
            }
            result.content_digest_by_frame[i] = _content_digest(rendered)

        row = {
            "mode": cfg.mode,
            "frame": i,
            "cubes": len(cubes.cubes),
            "boundary_epoch": cubes.boundary_epoch,
            "changed_points": frame.num_points if changed is None else len(changed),
            "rebuilt_cubes": len(rebuilt),
            "rekeys": rekeys,
            "shaped_cubes": shaped_units,
            "sent_units": len(refresh),
            "datagrams_sent": len(sendlist),
            "bytes_sent": bytes_sent,
            "admitted": summary.admitted,
            "held": summary.held,
            "dropped": summary.dropped,
            "point_total": summary.point_total,
            "theta": self.policy.theta,
        }
        for stage in _STAGES:
            row[f"{stage}_ms"] = clock.acc[stage] * 1e3
        row["total_ms"] = total_s * 1e3
        result.frame_rows.append(row)

        self.prev_cubes, self.prev_frame = cubes, frame


def run_session(cfg: RunConfig) -> SessionResult:
    """Execute one mode over the configured scene."""
    return Session(cfg).run()


def _run_adaptation(cfg, result, window_samples, theta, frame_idx):
    """Stage-4 window close: estimate MI and tighten theta on violation."""
    if len(window_samples) < 2:
        return theta
    report = estimate_mi(window_samples, cfg.leakage)
    new_theta = leakage_check_and_adapt(report, theta, cfg.leakage)
    result.leakage_windows.append(
        {
            "window_end_frame": frame_idx,
            "samples": report.sample_count,
            "mi_bits": report.mi_bits,
            **{f"mi_{name}": report.per_feature[name] for name in FEATURE_NAMES},
            "epsilon": report.epsilon,
            "violated": report.violated,
            "theta_after": new_theta,
        }
    )
    return new_theta


@dataclass
class ComparisonResult:
    results: dict[str, SessionResult]
    ordering_ok: bool
    privis_minus_noenc: float
    uniform_minus_noenc: float

    def require_ordering(self) -> None:
        if not self.ordering_ok:
            totals = {m: r.mean.total for m, r in self.results.items()}
            raise OrderingError(
                "expected total(noenc) <= total(privis) <= total(uniform), got "
                + ", ".join(f"{m}={t:.3f} ms" for m, t in totals.items())
            )


def compare_modes(base: RunConfig) -> ComparisonResult:
    """Run every mode on the same scene and seeds; check the latency
    ordering contract noenc <= privis <= uniform on mean totals.

    Sessions advance in lockstep, one frame per mode per round, after a
    short untimed warmup, and garbage collection runs between rounds
    rather than inside timed regions. Both measures keep environment noise
    common-mode across the configurations being compared.
    """
    import gc

    warm_scene = replace(base.scene, frame_count=min(3, base.scene.frame_count))
    for mode in MODES:
        run_session(replace(base, mode=mode, scene=warm_scene))

    sessions = {mode: Session(replace(base, mode=mode)) for mode in MODES}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(base.scene.frame_count):
            for mode in MODES:
                sessions[mode].step(i)
            gc.collect(0)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    results = {mode: sessions[mode].finalize() for mode in MODES}
    noenc = results["noenc"].mean.total
    uniform = results["uniform"].mean.total
    privis = results["privis"].mean.total
    ordering_ok = noenc <= privis <= uniform
    return ComparisonResult(
        results=results,
        ordering_ok=ordering_ok,
        privis_minus_noenc=privis - noenc,
        uniform_minus_noenc=uniform - noenc,
    )


def write_session_csvs(results: Iterable[SessionResult], out_dir: str) -> None:
    """Append the rows of each session, in order, to
    frames.csv, summary.csv, leakage.csv (when a session closed leakage
    windows) and failures.csv under ``out_dir``; a new or empty file gets
    its header first. Every existing file's header is checked before
    anything is written: one that differs from the rows' columns (a file
    from another build) raises ConfigError naming the file, and no file
    is written."""
    tables: dict[str, tuple[list[str], list[list]]] = {}  # file name -> (header, rows)

    def add(name: str, header: list[str], rows) -> None:
        tables.setdefault(name, (header, []))[1].extend(rows)

    for result in results:
        mode, m = result.config.mode, result.mean
        header = list(result.frame_rows[0])
        add("frames.csv", header, ([row[k] for k in header] for row in result.frame_rows))
        add(
            "summary.csv",
            ["mode", "frames", *(f"mean_{s}_ms" for s in _STAGES), "mean_total_ms"],
            [[mode, len(result.frame_rows), *(f"{getattr(m, s):.6f}" for s in (*_STAGES, "total"))]],
        )
        if result.leakage_windows:
            header = list(result.leakage_windows[0])
            add("leakage.csv", header, ([w[k] for k in header] for w in result.leakage_windows))
        add(
            "failures.csv",
            ["mode", "frame_id", "cube_ix", "cube_iy", "cube_iz", "reason", "time_ms"],
            ([mode, frame_id, *cid, reason, t] for frame_id, cid, reason, t in result.failure_log),
        )

    os.makedirs(out_dir, exist_ok=True)
    for name, (header, _rows) in tables.items():
        path = os.path.join(out_dir, name)
        if os.path.isfile(path) and os.path.getsize(path) > 0:
            with open(path, newline="") as f:
                found = next(csv.reader(f), [])
            if found != header:
                raise ConfigError(f"{path} has columns {found}, not {header}; write to a new directory")
    for name, (header, rows) in tables.items():
        with open(os.path.join(out_dir, name), "a", newline="") as f:
            w = csv.writer(f)
            if f.tell() == 0:
                w.writerow(header)
            w.writerows(rows)
