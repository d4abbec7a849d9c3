"""End-to-end pipeline orchestration and the three-configuration benchmark.

Modes:

    noenc    raw streaming: partitioning and scoring run (region analysis
             is inherent to viewport-adaptive volumetric delivery), but
             units go out unencrypted and unshaped;
    uniform  whole-frame AEAD: one full-payload unit per frame, rekeyed
             every frame, no shaping;
    privis   full adaptive pipeline: per-cube policies, selective rekey,
             scope-aware sealing, selective shaping, leakage adaptation.

Per-frame stage accounting (wall time, monotonic clock):

    saliency_grouping   change detection, partition/reuse, scoring,
                        changed-cube lookup
    key_management      policy assignment, budget pass, key schedule
    encryption          seal_cube calls only
    decryption          open_cube calls only
    transport_assembly  payload serialization, shaping decisions,
                        packetization, schedule merge, receiver intake,
                        plain-unit admission (noenc), frame composition
    total               one bracket around all of the above

Refresh rule (all keyed modes): a cube is re-sealed and re-sent when its
key rotated this frame, its content changed, or it is new; otherwise the
receiver keeps rendering its held-over verified copy. NoEnc refreshes on
content change alone. The emulated network runs on virtual time and is
excluded from the latency accounting.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .client import Client, FrameSummary, frame_compose
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
from .netw import Datagram, NetConfig, packetize, transmit
from .partition import (
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
    protection_level,
)
from .saliency import SaliencyConfig, score_cubes
from .seal import (
    HEADER_LEN,
    NONCE_LEN,
    TAG_LEN,
    CubePlaintext,
    NonceRegistry,
    SealedCube,
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
    "main",
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
    frame_timeout_ms: float = 10.0
    content_digests: bool = False
    keep_units: bool = False  # retain sealed unit bytes for offline checks

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        self.scene.validate()
        self.partition.validate()
        self.saliency.validate()
        self.policy.validate()
        self.budget.validate()
        self.shaping.validate()
        self.net.validate()
        self.leakage.validate()
        if self.frame_timeout_ms <= 0:
            raise ConfigError("frame_timeout_ms must be positive")


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
    """Per sealed-and-sent unit bookkeeping used by tests and reports."""

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
    mode: str
    config: RunConfig
    frame_rows: list[dict] = field(default_factory=list)
    mean: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    unit_records: list[UnitRecord] = field(default_factory=list)
    mi_samples: list[tuple[int, tuple[float, float, float]]] = field(default_factory=list)
    leakage_windows: list[dict] = field(default_factory=list)
    failure_log: list = field(default_factory=list)
    summaries: list[FrameSummary] = field(default_factory=list)
    content_digest_by_frame: dict[int, str] = field(default_factory=dict)
    theta_trace: list[float] = field(default_factory=list)
    sealed_units: dict[tuple[int, CubeId], bytes] = field(default_factory=dict)


class _StageClock:
    """Accumulates wall time per pipeline stage within one frame."""

    def __init__(self):
        self.acc = dict.fromkeys(_STAGES, 0.0)
        self._stage = None
        self._t0 = 0.0

    def start(self, stage: str) -> None:
        self._stage = stage
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        if self._stage is not None:
            self.acc[self._stage] += time.perf_counter() - self._t0
            self._stage = None


def _plain_unit(plain: CubePlaintext) -> bytes:
    """NoEnc wire unit: point count then the two payload sections."""
    n = plain.num_points
    return n.to_bytes(4, "little") + plain.geometry + plain.attributes


def _parse_plain_unit(unit: bytes) -> CubePlaintext:
    n = int.from_bytes(unit[:4], "little")
    geo = unit[4 : 4 + 12 * n]
    attrs = unit[4 + 12 * n : 4 + 16 * n]
    return CubePlaintext(geo, attrs)


def _sealed_base_len(plain: CubePlaintext, scope: Scope) -> int:
    """Wire length of the sealed unit before shaping pad."""
    return HEADER_LEN + NONCE_LEN + len(plain.geometry) + len(plain.attributes) + TAG_LEN


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


def _changed_mask(frame: PointCloudFrame, prev: PointCloudFrame | None) -> np.ndarray | None:
    """Per-point moved/recolored/relabeled mask against the previous frame;
    None means everything counts as changed (first frame or point-count
    change). Columns are compared one at a time and ORed in place, which
    gives the bits of np.any(a != b, axis=1) several times faster."""
    if prev is None or prev.num_points != frame.num_points:
        return None
    changed = frame.sensitivity != prev.sensitivity
    for col in range(3):
        changed |= frame.positions[:, col] != prev.positions[:, col]
        changed |= frame.colors[:, col] != prev.colors[:, col]
    return changed


def _changed_cube_ids(cubes: CubeSet, changed: np.ndarray | None) -> set[CubeId] | None:
    """Ids of cubes containing any changed point; None means all changed."""
    if changed is None:
        return None
    points = np.flatnonzero(changed)
    if not len(points):
        return set()
    return cubes.cube_ids_of(points)


def _policy_assigner(pol_cfg: PolicyConfig):
    """assign_policy with per-frame validation hoisted and the sigma = 0
    policies shared (they are frozen, so sharing is safe)."""
    pol_cfg.validate()
    cache: dict[ProtectionLevel, ProtectionPolicy] = {}

    def assign(s: float) -> ProtectionPolicy:
        if s > pol_cfg.theta:
            return assign_policy(s, pol_cfg)
        level = protection_level(s, (pol_cfg.t_low, pol_cfg.t_high))
        pol = cache.get(level)
        if pol is None:
            pol = assign_policy(s, pol_cfg)
            cache[level] = pol
        return pol

    return assign


class Session:
    """One mode's pipeline, advanced frame by frame.

    Keeping the per-frame step explicit lets compare_modes interleave the
    three configurations in lockstep, so slow environment drift (CPU
    frequency, allocator state) hits every mode equally and cancels out of
    the latency comparison.
    """

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        if cfg.root_key_hex is not None:
            self.root = RootKey.from_hex(cfg.root_key_hex)
        else:
            self.root = RootKey.generate()
        self.ring = KeyRing(self.root)
        self.registry = NonceRegistry()
        self.client = Client(self.root)
        self.result = SessionResult(mode=cfg.mode, config=cfg)
        self.theta = cfg.policy.theta
        self.prev_cubes: CubeSet | None = None
        self.prev_frame: PointCloudFrame | None = None
        self.window_samples: list[tuple[int, tuple[float, float, float]]] = []
        self.stage_sums = dict.fromkeys((*_STAGES, "total"), 0.0)
        self._uniform_policy = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.0)
        self._frames_done = 0

    def run(self) -> SessionResult:
        for i in range(self.cfg.scene.frame_count):
            self.step(i)
        return self.finalize()

    def finalize(self) -> SessionResult:
        n = max(1, self._frames_done)
        self.result.mean = LatencyBreakdown(
            **{k: self.stage_sums[k] / n * 1e3 for k in _STAGES},
            total=self.stage_sums["total"] / n * 1e3,
        )
        self.result.failure_log = list(self.client.state.failure_log)
        return self.result

    def step(self, i: int) -> None:
        cfg = self.cfg
        root, ring, registry, client = self.root, self.ring, self.registry, self.client
        result = self.result
        theta = self.theta
        prev_cubes, prev_frame = self.prev_cubes, self.prev_frame
        window_samples = self.window_samples
        stage_sums = self.stage_sums
        uniform_policy = self._uniform_policy

        frame = generate_frame(cfg.scene, i)
        clock = _StageClock()
        t_frame0 = time.perf_counter()
        nominal_time = i * FRAME_INTERVAL_MS

        # stage 1: grouping and scoring (all modes, identical work); the
        # change mask tells the grid reuse which points need locating again
        clock.start("saliency_grouping")
        changed = _changed_mask(frame, prev_frame)
        if prev_cubes is None:
            cubes = partition_frame(frame, cfg.partition.target_cubes)
        else:
            cubes = reuse_or_repartition(prev_cubes, frame, cfg.partition, changed)
        scores = score_cubes(cubes, frame, prev_cubes, cfg.saliency)
        changed_cubes = _changed_cube_ids(cubes, changed)
        by_id = cubes.by_id()
        stable = prev_cubes is not None and cubes.boundary_epoch == prev_cubes.boundary_epoch
        clock.stop()

        # stage 2: policy and key schedule
        clock.start("key_management")
        plan: list[tuple[CubeId, float, ProtectionPolicy]] = []
        if cfg.mode == "uniform":
            key_epochs = {UNIFORM_CUBE: ring.key_for_frame(UNIFORM_CUBE, i, uniform_policy, True)}
            plan.append((UNIFORM_CUBE, 1.0, uniform_policy))
            refresh = {UNIFORM_CUBE}
        elif cfg.mode == "privis":
            pol_cfg = replace(cfg.policy, theta=theta)
            assign = _policy_assigner(pol_cfg)
            triplets = [(by_id[r.cube_id], r.s, assign(r.s)) for r in scores]
            adjusted, _cost, _exhausted = enforce_budget(
                triplets, cfg.budget, cfg=pol_cfg
            )
            key_epochs = {}
            refresh = set()
            for cube, s, pol in adjusted:
                cid = cube.id
                is_new = not ring.has_cube(cid)
                key_epochs[cid] = ring.key_for_frame(cid, i, pol, stable)
                rotated = ring.rotated_this_frame(cid, i)
                if rotated or is_new or changed_cubes is None or cid in changed_cubes:
                    refresh.add(cid)
                plan.append((cid, s, pol))
        else:  # noenc
            assign = _policy_assigner(cfg.policy)
            key_epochs = {}
            refresh = set()
            for r in scores:
                if changed_cubes is None or r.cube_id in changed_cubes:
                    refresh.add(r.cube_id)
                plan.append((r.cube_id, r.s, assign(r.s)))
        clock.stop()

        # transport pass 1: serialize refresh payloads
        clock.start("transport_assembly")
        payloads: dict[CubeId, CubePlaintext] = {}
        if cfg.mode == "uniform":
            geo = np.ascontiguousarray(frame.positions, dtype="<f4").tobytes()
            attrs = np.empty((frame.num_points, 4), dtype=np.uint8)
            attrs[:, :3] = frame.colors
            attrs[:, 3] = frame.sensitivity
            payloads[UNIFORM_CUBE] = CubePlaintext(geo, attrs.tobytes())
        else:
            for cid in refresh:
                payloads[cid] = serialize_cube(frame, by_id[cid])
        # shaping decisions: pad lengths (privis only, above-theta flows)
        plan_by_id = {cid: (s, pol) for cid, s, pol in plan}
        shaped_cfg = replace(cfg.shaping, theta=theta)
        pad_lens: dict[CubeId, int] = {}
        rngs = {}
        for cid in refresh:
            s, pol = plan_by_id[cid]
            base = _sealed_base_len(payloads[cid], pol.scope)
            if cfg.mode == "privis" and cfg.shaping_enabled and pol.shaping_strength > 0.0:
                rng = flow_rng(cfg.shaping, cid, i)
                rngs[cid] = rng
                shaped_len = pad_length(base, s, shaped_cfg, rng)
                pad_lens[cid] = shaped_len - base
            else:
                pad_lens[cid] = 0
        clock.stop()

        # stage 3a: sealing
        sealed_units: dict[CubeId, bytes] = {}
        if cfg.mode == "noenc":
            clock.start("transport_assembly")
            for cid in refresh:
                sealed_units[cid] = _plain_unit(payloads[cid])
            clock.stop()
        else:
            clock.start("encryption")
            for cid in refresh:
                s, pol = plan_by_id[cid]
                sealed = seal_cube(
                    payloads[cid],
                    key_epochs[cid],
                    pol,
                    i,
                    root.session_id,
                    pad_len=pad_lens[cid],
                    registry=registry,
                )
                sealed_units[cid] = sealed.to_bytes()
            clock.stop()

        # stage 3b: packetize, shape times, merge
        clock.start("transport_assembly")
        sendlist: list[tuple[Datagram, float]] = []
        frame_units: dict[CubeId, bytes] = {}
        for cid, s_pol in ((c, plan_by_id[c]) for c in refresh):
            s, pol = s_pol
            unit = sealed_units[cid]
            frags = packetize(unit, cid, i, cfg.net.mtu)
            times = [nominal_time] * len(frags)
            jitters = (0.0,) * len(frags)
            if cid in rngs:
                shaped, jit = shape_times(times, s, shaped_cfg, rngs[cid])
                times, jitters = shaped, tuple(jit)
            sendlist.extend(zip(frags, times))
            base = _sealed_base_len(payloads[cid], pol.scope) if cfg.mode != "noenc" else len(unit)
            result.unit_records.append(
                UnitRecord(
                    frame_id=i,
                    cube_id=cid,
                    s=s,
                    level=int(pol.level),
                    sigma=pol.shaping_strength,
                    base_len=base,
                    padded_len=len(unit),
                    send_times=tuple(times),
                    nominal_time=nominal_time,
                    jitters=jitters,
                )
            )
            frame_units[cid] = unit
            if cfg.keep_units:
                result.sealed_units[(i, cid)] = unit
        sendlist.sort(key=lambda p: p[1])
        clock.stop()

        # emulated channel (virtual time, not part of the latency budget;
        # its simulation cost is excluded from the frame total below)
        t_net0 = time.perf_counter()
        delivered, traces = transmit(sendlist, cfg.net)
        net_cost_s = time.perf_counter() - t_net0

        # receiver intake: replay filter, reassembly, timeout cutoff
        clock.start("transport_assembly")
        completed: list[tuple[SealedCube | CubePlaintext, float]] = []
        deadline = None
        for dgram, arrival in delivered:
            if deadline is None:
                deadline = arrival + cfg.frame_timeout_ms
            if arrival > deadline:
                continue
            if cfg.mode == "noenc":  # plain units skip verification
                unit = client.intake(dgram)
                if unit is not None:
                    completed.append(((dgram.flow_id, _parse_plain_unit(unit)), arrival))
            else:
                sealed = client.on_datagram(dgram, arrival)
                if sealed is not None:
                    completed.append((sealed, arrival))
        clock.stop()

        # stage 3c / client: verification (plain units need none), then
        # frame composition
        outcomes = {}
        if cfg.mode != "noenc":
            clock.start("decryption")
            for sealed, arrival in completed:
                out = client.admit(sealed, now_ms=arrival)
                outcomes[sealed.cube_id] = out
            clock.stop()
        clock.start("transport_assembly")
        if cfg.mode == "noenc":
            for (cid, unit_plain), arrival in completed:
                outcomes[cid] = _admit_plain(client, cid, i, unit_plain)
        expected = [UNIFORM_CUBE] if cfg.mode == "uniform" else sorted(by_id)
        summary, resolved = frame_compose(i, outcomes, expected, client.state, now_ms=nominal_time)
        clock.stop()
        result.summaries.append(summary)

        total_s = time.perf_counter() - t_frame0 - net_cost_s
        # leakage samples and adaptation (privis only)
        if cfg.mode == "privis":
            for cid, trace in traces.items():
                if trace.packet_count == 0:
                    continue
                level = int(plan_by_id[cid][1].level)
                feats = trace_features(trace)
                sample = (level, feats)
                window_samples.append(sample)
                result.mi_samples.append(sample)
            if cfg.adaptation_enabled and (i + 1) % cfg.leakage.window_frames == 0:
                theta = _run_adaptation(cfg, result, window_samples, theta, i, plan_by_id, frame_units)
                self.window_samples = window_samples = []
        result.theta_trace.append(theta)

        if cfg.content_digests:
            rendered = {
                cid: out.plaintext for cid, out in resolved.items() if hasattr(out, "plaintext")
            }
            result.content_digest_by_frame[i] = _content_digest(rendered)

        bytes_sent = sum(d.wire_len for d, _t in sendlist)
        row = {
            "mode": cfg.mode,
            "frame": i,
            "cubes": len(cubes.cubes),
            "boundary_epoch": cubes.boundary_epoch,
            "shaped_cubes": len(rngs),
            "sent_units": len(refresh),
            "datagrams_sent": len(sendlist),
            "bytes_sent": bytes_sent,
            "admitted": summary.admitted,
            "held": summary.held,
            "dropped": summary.dropped,
            "point_total": summary.point_total,
            "theta": theta,
        }
        for stage in _STAGES:
            row[f"{stage}_ms"] = clock.acc[stage] * 1e3
        row["total_ms"] = total_s * 1e3
        result.frame_rows.append(row)
        for stage in _STAGES:
            stage_sums[stage] += clock.acc[stage]
        stage_sums["total"] += total_s

        self.prev_cubes, self.prev_frame = cubes, frame
        self.theta = theta
        self._frames_done += 1


def run_session(cfg: RunConfig) -> SessionResult:
    """Execute one mode over the configured scene."""
    return Session(cfg).run()


def _run_adaptation(cfg, result, window_samples, theta, frame_idx, plan_by_id, frame_units):
    """Stage-4 window close: estimate MI, tighten theta on violation, and
    re-send the window's critical sealed units once (traffic-level
    remediation; the client treats the copies as replayed duplicates)."""
    if len(window_samples) < 2:
        return theta
    report = estimate_mi(window_samples, cfg.leakage)
    new_theta, action = leakage_check_and_adapt(report, theta, cfg.leakage)
    retransmitted = 0
    if action is not None:
        for cid, (s, _pol) in plan_by_id.items():
            if cid in frame_units and s > action.new_theta:
                retransmitted += 1
    result.leakage_windows.append(
        {
            "window_end_frame": frame_idx,
            "samples": report.sample_count,
            "mi_bits": report.mi_bits,
            **{f"mi_{name}": report.per_feature[name] for name in FEATURE_NAMES},
            "epsilon": report.epsilon,
            "violated": report.violated,
            "theta_after": new_theta,
            "retransmitted_units": retransmitted,
        }
    )
    return new_theta


# NoEnc admission: plain units reuse the client's render state but skip
# verification entirely.


def _admit_plain(client: Client, cid: CubeId, frame_id: int, plain: CubePlaintext):
    from .client import Admitted

    client.state.last_verified[cid] = (frame_id, plain)
    return Admitted(cid, frame_id, plain)


@dataclass
class ComparisonResult:
    results: dict[str, SessionResult]
    table: list[dict]
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


def compare_modes(base: RunConfig, modes: tuple[str, ...] = MODES) -> ComparisonResult:
    """Run every mode on the same scene and seeds; check the latency
    ordering contract noenc <= privis <= uniform on mean totals.

    Sessions advance in lockstep, one frame per mode per round, after a
    short untimed warmup, and garbage collection runs between rounds
    rather than inside timed regions. Both measures keep environment noise
    common-mode across the configurations being compared.
    """
    import gc

    warm_scene = replace(base.scene, frame_count=min(3, base.scene.frame_count))
    for mode in modes:
        run_session(replace(base, mode=mode, scene=warm_scene))

    sessions = {mode: Session(replace(base, mode=mode)) for mode in modes}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(base.scene.frame_count):
            for mode in modes:
                sessions[mode].step(i)
            gc.collect(0)
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()
    results = {mode: sessions[mode].finalize() for mode in modes}
    table = []
    for stage in (*_STAGES, "total"):
        row = {"component": stage}
        for mode in modes:
            row[mode] = getattr(results[mode].mean, stage)
        table.append(row)
    noenc = results["noenc"].mean.total
    uniform = results["uniform"].mean.total
    privis = results["privis"].mean.total
    ordering_ok = noenc <= privis <= uniform
    return ComparisonResult(
        results=results,
        table=table,
        ordering_ok=ordering_ok,
        privis_minus_noenc=privis - noenc,
        uniform_minus_noenc=uniform - noenc,
    )


def write_session_csvs(result: SessionResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    mode = result.mode
    frames_path = os.path.join(out_dir, "frames.csv")
    new = not os.path.exists(frames_path)
    with open(frames_path, "a", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(result.frame_rows[0].keys()))
        if new:
            w.writeheader()
        w.writerows(result.frame_rows)
    with open(os.path.join(out_dir, "summary.csv"), "a", newline="") as f:
        w = csv.writer(f)
        if f.tell() == 0:
            w.writerow(["mode", "frames", *(f"mean_{s}_ms" for s in _STAGES), "mean_total_ms"])
        m = result.mean
        w.writerow(
            [mode, len(result.frame_rows)]
            + [f"{getattr(m, s):.6f}" for s in _STAGES]
            + [f"{m.total:.6f}"]
        )
    if result.leakage_windows:
        with open(os.path.join(out_dir, "leakage.csv"), "a", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(result.leakage_windows[0].keys()))
            if f.tell() == 0:
                w.writeheader()
            w.writerows(result.leakage_windows)
    with open(os.path.join(out_dir, "failures.csv"), "a", newline="") as f:
        w = csv.writer(f)
        if f.tell() == 0:
            w.writerow(["mode", "frame_id", "cube_ix", "cube_iy", "cube_iz", "reason", "time_ms"])
        for frame_id, cid, reason, t in result.failure_log:
            w.writerow([mode, frame_id, cid[0], cid[1], cid[2], reason, t])


def _build_config(args, mode: str) -> RunConfig:
    scene = default_scene(seed=args.scene_seed, frames=args.frames, points=args.points)
    if args.sensitive_fraction is not None:
        scene = replace(scene, sensitive_fraction=args.sensitive_fraction)
    if args.root_key is None:
        # reproducible provisioning without leaking keys into shell history
        args.root_key = os.environ.get("PRIVIS_ROOT_KEY")
    return RunConfig(
        mode=mode,
        scene=scene,
        partition=PartitionConfig(target_cubes=args.target_cubes),
        saliency=replace(SaliencyConfig(), alpha=args.alpha),
        policy=replace(PolicyConfig(), theta=args.theta, interval_low=args.rekey_low),
        shaping=replace(ShapingConfig(), theta=args.theta, rng_seed=args.scene_seed),
        net=NetConfig(rtt_ms=args.rtt_ms, loss_prob=args.loss, seed=args.scene_seed),
        leakage=replace(LeakageConfig(), epsilon=args.epsilon),
        root_key_hex=args.root_key,
    )


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="privis-bench",
        description="Run the secure volumetric transport benchmark "
        "(omit --mode to compare all three configurations).",
    )
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--scene-seed", type=int, default=7)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--points", type=int, default=80_000)
    p.add_argument("--sensitive-fraction", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=0.6)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--target-cubes", type=int, default=64)
    p.add_argument("--rekey-low", type=int, default=6, metavar="N")
    p.add_argument("--rtt-ms", type=float, default=15.0)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--root-key", default=None, metavar="HEX")
    args = p.parse_args(argv)

    if args.mode is not None:
        cfg = _build_config(args, args.mode)
        result = run_session(cfg)
        _print_breakdown({args.mode: result})
        if args.out:
            write_session_csvs(result, args.out)
        return 0

    cfg = _build_config(args, "privis")
    comparison = compare_modes(cfg)
    _print_breakdown(comparison.results)
    print()
    print(f"privis - noenc : {comparison.privis_minus_noenc:8.3f} ms")
    print(f"uniform - noenc: {comparison.uniform_minus_noenc:8.3f} ms")
    if args.out:
        for result in comparison.results.values():
            write_session_csvs(result, args.out)
    try:
        comparison.require_ordering()
    except OrderingError as e:
        print(f"ORDERING VIOLATION: {e}", file=sys.stderr)
        return 1
    print("ordering ok: noenc <= privis <= uniform")
    return 0


def _print_breakdown(results: dict[str, SessionResult]) -> None:
    modes = list(results)
    print(f"{'component':<22}" + "".join(f"{m:>12}" for m in modes))
    for stage in (*_STAGES, "total"):
        vals = "".join(f"{getattr(results[m].mean, stage):12.3f}" for m in modes)
        print(f"{stage:<22}{vals}")


if __name__ == "__main__":
    sys.exit(main())
