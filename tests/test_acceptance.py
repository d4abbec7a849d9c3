"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions are the gate either way.
"""

import math
import time
from collections import Counter
from dataclasses import replace

import pytest

from privis.bench import (
    RunConfig,
    compare_modes,
    default_scene,
    leakage_scene,
    run_session,
)
from privis.client import Client, Dropped, HeldOver, RenderState
from privis.errors import AuthFailure, MalformedHeader
from privis.frame_io import SceneSpec, generate_frame
from privis.keyring import KeyEpoch, KeyRing, RootKey, derive_key
from privis.leakage import LeakageConfig, estimate_mi
from privis.netw import NetConfig
from privis.partition import (
    CubeId,
    PartitionConfig,
    membership_change_fraction,
    partition_frame,
    reuse_or_repartition,
)
from privis.policy import PolicyConfig, ProtectionLevel, ProtectionPolicy, Scope
from privis.rng import Mcg64
from privis.seal import CubePlaintext, SealedCube, open_cube, seal_cube
from privis.shaping import ShapingConfig

ROOT_HEX = "5a" * 32
HIGH_POLICY = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.9)
LOW_POLICY = ProtectionPolicy(ProtectionLevel.LOW, 6, Scope.GEOMETRY_ONLY, 0.0)


def verdict(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def default_comparison():
    """Three-mode comparison on the default scene, measured once."""
    base = RunConfig(mode="privis", scene=default_scene(), root_key_hex=ROOT_HEX)
    t0 = time.perf_counter()
    comp = compare_modes(base)
    comp.wall_seconds = time.perf_counter() - t0
    return comp


def test_criterion_1_latency_ordering(default_comparison):
    comp = default_comparison
    noenc = comp.results["noenc"].mean.total
    privis = comp.results["privis"].mean.total
    uniform = comp.results["uniform"].mean.total
    ordering = noenc <= privis <= uniform
    ratio = comp.privis_minus_noenc < 0.6 * comp.uniform_minus_noenc
    runtime = comp.wall_seconds < 60.0

    # scene composition claim: 20-30% of cubes are high-saliency, measured
    # at the default shaping threshold (before stage-4 adaptation tightens
    # theta and deliberately widens the shaped set)
    cfg = comp.results["privis"].config
    rows = comp.results["privis"].frame_rows
    pre_adapt = rows[1 : cfg.leakage.window_frames]
    fracs = [r["shaped_cubes"] / r["cubes"] for r in pre_adapt]
    composition = all(0.20 <= f <= 0.30 for f in fracs)

    verdict(
        1,
        ordering and ratio and runtime and composition,
        f"totals noenc {noenc:.2f} <= privis {privis:.2f} <= uniform {uniform:.2f} ms; "
        f"privis-noenc {comp.privis_minus_noenc:.2f} < 0.6*(uniform-noenc) "
        f"{0.6 * comp.uniform_minus_noenc:.2f}; wall {comp.wall_seconds:.1f}s; "
        f"high-saliency share {min(fracs):.2f}..{max(fracs):.2f}",
    )


def test_criterion_2_encryption_cost_reduction(default_comparison):
    comp = default_comparison
    enc_p = comp.results["privis"].mean.encryption
    enc_u = comp.results["uniform"].mean.encryption
    noenc_enc = comp.results["noenc"].mean.encryption
    noenc_dec = comp.results["noenc"].mean.decryption
    ok = enc_p <= 0.5 * enc_u and noenc_enc < 0.05 and noenc_dec < 0.05
    verdict(
        2,
        ok,
        f"privis encryption {enc_p:.3f} ms <= 50% of uniform {enc_u:.3f} ms "
        f"(ratio {enc_p / enc_u:.2f}); noenc enc/dec {noenc_enc:.3f}/{noenc_dec:.3f} < 0.05",
    )


def test_criterion_3_key_rotation_schedule():
    ring_high = KeyRing(RootKey.from_hex(ROOT_HEX))
    high_epochs = [
        ring_high.key_for_frame(CubeId(0, 0, 0), i, HIGH_POLICY, stable=True).epoch
        for i in range(12)
    ]
    ring_low = KeyRing(RootKey.from_hex(ROOT_HEX))
    low_epochs = [
        ring_low.key_for_frame(CubeId(0, 0, 0), i, LOW_POLICY, stable=True).epoch
        for i in range(12)
    ]
    ok = len(set(high_epochs)) == 12 and len(set(low_epochs)) == 2
    verdict(
        3,
        ok,
        f"12 stable frames: high cubes {len(set(high_epochs))} epochs (want exactly 12), "
        f"low cubes {len(set(low_epochs))} epochs (want exactly 2)",
    )


def test_criterion_4_aead_correctness():
    import json
    import os

    with open(os.path.join(os.path.dirname(__file__), "golden", "vectors.json")) as f:
        golden = json.load(f)
    root = RootKey.from_hex(ROOT_HEX)
    cube = CubeId(2, 3, 4)
    rng = Mcg64(2024)

    # 4a: golden vectors byte-exact
    golden_ok = True
    for v in golden["hkdf"]:
        r = RootKey(bytes.fromhex(v["root"]), bytes.fromhex(v["session_id"]))
        golden_ok &= derive_key(r, CubeId(*v["cube"]), v["epoch"]).hex() == v["key"]
    g = golden["sealed"]
    r = RootKey(bytes.fromhex(g["root"]), bytes.fromhex(g["session_id"]))
    key = KeyEpoch(CubeId(*g["cube"]), g["epoch"], derive_key(r, CubeId(*g["cube"]), g["epoch"]), 0)
    plain = CubePlaintext(bytes.fromhex(g["geometry"]), bytes.fromhex(g["attributes"]))
    golden_ok &= (
        seal_cube(plain, key, HIGH_POLICY, g["frame_id"], r.session_id).to_bytes().hex()
        == g["units"]["full_payload"]
    )
    golden_ok &= (
        seal_cube(plain, key, LOW_POLICY, g["frame_id"], r.session_id).to_bytes().hex()
        == g["units"]["geometry_only"]
    )

    # 4b: 1000 round trips per scope
    round_trips = 0
    for policy in (HIGH_POLICY, LOW_POLICY):
        for frame in range(1000):
            n = rng.randint(0, 30)
            pt = CubePlaintext(
                bytes(rng.randint(0, 255) for _ in range(12 * n)),
                bytes(rng.randint(0, 255) for _ in range(4 * n)),
            )
            k = KeyEpoch(cube, frame, derive_key(root, cube, frame), frame)
            sealed = seal_cube(pt, k, policy, frame, root.session_id, pad_len=rng.randint(0, 32))
            if open_cube(SealedCube.from_bytes(sealed.to_bytes()), k.key) == pt:
                round_trips += 1

    # 4c: 1000 random single-bit mutations all fail verification
    k = KeyEpoch(cube, 0, derive_key(root, cube, 0), 0)
    base_plain = CubePlaintext(bytes(range(48)), bytes(range(16)))
    wire = seal_cube(base_plain, k, HIGH_POLICY, 0, root.session_id).to_bytes()
    tamper_failures = 0
    for _ in range(1000):
        mutated = bytearray(wire)
        mutated[rng.randint(0, len(wire) - 1)] ^= 1 << rng.randint(0, 7)
        try:
            open_cube(SealedCube.from_bytes(bytes(mutated)), k.key)
        except (AuthFailure, MalformedHeader):
            tamper_failures += 1

    ok = golden_ok and round_trips == 2000 and tamper_failures == 1000
    verdict(
        4,
        ok,
        f"golden vectors {'match' if golden_ok else 'DIVERGE'}; "
        f"{round_trips}/2000 round trips; {tamper_failures}/1000 tampers rejected",
    )


@pytest.fixture(scope="module")
def shaping_pair():
    """The full privis run and its shaping-disabled twin, same seeds."""
    scene = default_scene(frames=40)
    base = RunConfig(mode="privis", scene=scene, root_key_hex=ROOT_HEX, keep_units=True)
    on = run_session(base)
    off = run_session(replace(base, shaping_enabled=False, adaptation_enabled=False))
    return on, off


def test_criterion_5_shaping_selectivity_and_bounds(shaping_pair):
    on, off = shaping_pair
    off_units = {(r.frame_id, r.cube_id): r for r in off.unit_records}
    violations = []
    unshaped_checked = shaped_checked = 0
    for rec in on.unit_records:
        twin = off_units[(rec.frame_id, rec.cube_id)]
        if rec.sigma == 0.0:
            unshaped_checked += 1
            same_bytes = (
                on.sealed_units[(rec.frame_id, rec.cube_id)]
                == off.sealed_units[(rec.frame_id, rec.cube_id)]
            )
            same_times = rec.send_times == twin.send_times
            if not (same_bytes and same_times):
                violations.append(("selectivity", rec.frame_id, rec.cube_id))
        else:
            shaped_checked += 1
            lo, hi = rec.base_len, rec.base_len * 1.25 + 256
            if not (lo <= rec.padded_len <= hi):
                violations.append(("length", rec.frame_id, rec.cube_id, rec.padded_len))
            delay = max(t - rec.nominal_time for t in rec.send_times)
            if delay > 20.0 + 1e-9:
                violations.append(("delay", rec.frame_id, rec.cube_id, delay))
    ok = not violations and unshaped_checked > 0 and shaped_checked > 0
    verdict(
        5,
        ok,
        f"{unshaped_checked} unshaped units byte/time-identical to twin, "
        f"{shaped_checked} shaped units within length and 20 ms delay bounds, "
        f"{len(violations)} violations {violations[:3]}",
    )


def brute_force_mi_binary(samples, bins):
    """Joint-table MI recomputed from scratch for the oracle check."""
    vals = [f[0] for _c, f in samples]
    lo, hi = min(vals), max(vals)

    def bin_of(v):
        if hi <= lo:
            return 0
        return min(int((v - lo) / (hi - lo) * bins), bins - 1)

    pairs = [(c, bin_of(v)) for (c, _f), v in zip(samples, vals)]
    n = len(pairs)
    joint, px, py = Counter(pairs), Counter(p[0] for p in pairs), Counter(p[1] for p in pairs)
    mi = 0.0
    for (c, b), k in joint.items():
        mi += (k / n) * math.log2((k / n) / ((px[c] / n) * (py[b] / n)))
    return mi


@pytest.fixture(scope="module")
def leakage_runs():
    scene = leakage_scene()
    base = RunConfig(
        mode="privis",
        scene=scene,
        root_key_hex=ROOT_HEX,
        policy=PolicyConfig(t_low=0.45, t_high=0.5),
        net=NetConfig(mtu=6400, seed=3),
        adaptation_enabled=False,
        keep_units=True,
    )
    on = run_session(base)
    off = run_session(replace(base, shaping_enabled=False))
    return on, off


def test_criterion_6_leakage_reduction(leakage_runs):
    on, off = leakage_runs
    cfg = LeakageConfig(saliency_classes=2)

    def binary_samples(result):
        return [(1 if lvl == 2 else 0, f) for lvl, f in result.mi_samples if lvl in (0, 2)]

    s_off, s_on = binary_samples(off), binary_samples(on)
    rep_off = estimate_mi(s_off, cfg)
    rep_on = estimate_mi(s_on, cfg)

    # plug-in estimator against the independent joint-table oracle
    oracle_ok = True
    for samples, rep in ((s_off, rep_off), (s_on, rep_on)):
        subset = samples[:1000]
        sub_rep = estimate_mi(subset, cfg)
        oracle = brute_force_mi_binary(subset, cfg.size_bins)
        oracle_ok &= abs(sub_rep.per_feature["total_bytes"] - oracle) <= 1e-9

    ok = rep_off.mi_bits > 0.5 and rep_on.mi_bits < 0.25 and oracle_ok
    verdict(
        6,
        ok,
        f"MI unshaped {rep_off.mi_bits:.3f} bits > 0.5; shaped {rep_on.mi_bits:.3f} bits < 0.25; "
        f"plug-in matches brute-force oracle within 1e-9: {oracle_ok}",
    )


def test_criterion_7_stage4_adaptation():
    scene = replace(leakage_scene(), frame_count=48)
    cfg = RunConfig(
        mode="privis",
        scene=scene,
        root_key_hex=ROOT_HEX,
        policy=PolicyConfig(t_low=0.45, t_high=0.5),
        net=NetConfig(mtu=6400, seed=3),
        shaping=ShapingConfig(pad_max_fraction=0.0, bucket_bytes=1),  # provably leaks
        leakage=LeakageConfig(window_frames=6),
    )
    result = run_session(cfg)
    thetas = [w["theta_after"] for w in result.leakage_windows]
    expected = [0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0]
    ok = len(thetas) == len(expected) and all(
        abs(a - b) < 1e-9 for a, b in zip(thetas, expected)
    )
    ok &= all(w["violated"] for w in result.leakage_windows)
    verdict(
        7,
        ok,
        f"theta staircase {[round(t, 2) for t in thetas]} == {expected} "
        "(decrement exactly 0.1 per violated window, floor at 0)",
    )


def test_criterion_8_client_policy():
    root = RootKey.from_hex(ROOT_HEX)
    cube = CubeId(1, 2, 3)
    state = RenderState()

    def unit(frame, epoch):
        k = KeyEpoch(cube, epoch, derive_key(root, cube, epoch), frame)
        pt = CubePlaintext(bytes(36), bytes(12))
        return seal_cube(pt, k, HIGH_POLICY, frame, root.session_id)

    def tamper(sealed):
        wire = bytearray(sealed.to_bytes())
        wire[-5] ^= 0x10
        return SealedCube.from_bytes(bytes(wire))

    # without history: dropped
    out0 = Client(root, state).admit(tamper(unit(0, 0)))
    no_history_ok = isinstance(out0, Dropped)
    # build history at frame 1, tamper frame 2: held over with prior id 1
    Client(root, state).admit(unit(1, 1))
    out2 = Client(root, state).admit(tamper(unit(2, 2)))
    history_ok = isinstance(out2, HeldOver) and out2.source_frame_id == 1

    # conservation across a 60-frame 10% loss run
    scene = default_scene(frames=60, points=16_000)
    result = run_session(
        RunConfig(
            mode="privis",
            scene=scene,
            root_key_hex=ROOT_HEX,
            net=NetConfig(loss_prob=0.1, seed=13),
        )
    )
    conservation = all(
        row["admitted"] + row["held"] + row["dropped"] == row["cubes"]
        for row in result.frame_rows
    )
    saw_loss = any(row["held"] > 0 or row["dropped"] > 0 for row in result.frame_rows)

    ok = no_history_ok and history_ok and conservation and saw_loss
    verdict(
        8,
        ok,
        f"tamper w/o history -> {type(out0).__name__}; tamper w/ history -> "
        f"{type(out2).__name__}(prior={getattr(out2, 'source_frame_id', None)}); "
        f"conservation on all 60 loss frames: {conservation} (loss observed: {saw_loss})",
    )


def test_criterion_9_partition_and_reuse():
    scene = SceneSpec(seed=19, frame_count=12, points_per_frame=12_000,
                      sensitive_fraction=0.2, motion_amplitude=0.08)
    frames = [generate_frame(scene, i) for i in range(11)]

    def partition_ok(cube_set, frame):
        import numpy as np

        if not cube_set.cubes:
            return frame.num_points == 0
        idx = np.concatenate([c.point_indices for c in cube_set.cubes])
        return len(idx) == frame.num_points and len(np.unique(idx)) == frame.num_points

    cur = partition_frame(frames[0], 64)
    all_partitions_ok = partition_ok(cur, frames[0])
    epochs = [cur.boundary_epoch]
    for f in frames[1:]:
        cur = reuse_or_repartition(cur, f, PartitionConfig(64, 0.2))
        all_partitions_ok &= partition_ok(cur, f)
        epochs.append(cur.boundary_epoch)
    low_motion_ok = all(e == 0 for e in epochs)

    # teleport: translate everything by 10 grid edges
    import numpy as np

    teleported = generate_frame(scene, 11)
    teleported.positions = teleported.positions + 10.0 * cur.grid_edge
    frac = membership_change_fraction(cur, teleported)
    bumped = reuse_or_repartition(cur, teleported, PartitionConfig(64, 0.2))
    teleport_ok = frac > 0.2 and bumped.boundary_epoch == 1
    all_partitions_ok &= partition_ok(bumped, teleported)

    ok = all_partitions_ok and low_motion_ok and teleport_ok
    verdict(
        9,
        ok,
        f"partition property exhaustive on 12 frames: {all_partitions_ok}; "
        f"epoch constant over 10 low-motion frames: {low_motion_ok}; "
        f"teleport (change fraction {frac:.2f}) increments epoch: {teleport_ok}",
    )
