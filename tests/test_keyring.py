import json
import os

import pytest

from privis.keyring import KeyRing, RootKey, derive_key
from privis.partition import CubeId
from privis.policy import ProtectionLevel, ProtectionPolicy, Scope
from privis.rng import Mcg64

with open(os.path.join(os.path.dirname(__file__), "golden", "vectors.json")) as _f:
    GOLDEN = json.load(_f)

HIGH = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.9)
MED = ProtectionPolicy(ProtectionLevel.MED, 3, Scope.FULL_PAYLOAD, 0.0)
LOW = ProtectionPolicy(ProtectionLevel.LOW, 6, Scope.GEOMETRY_ONLY, 0.0)


def test_golden_hkdf_vectors():
    for v in GOLDEN["hkdf"]:
        root = RootKey(bytes.fromhex(v["root"]), bytes.fromhex(v["session_id"]))
        key = derive_key(root, CubeId(*v["cube"]), v["epoch"])
        assert key.hex() == v["key"], f"vector {v['cube']}/{v['epoch']} diverged"


def test_derivation_matches_library_oracle_on_random_vectors():
    """derive_key is HKDF-SHA-256 over the documented salt and info layout,
    checked on 100 random (cube, epoch) vectors."""
    import struct

    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.kdf.hkdf import HKDF

    rng = Mcg64(31)
    root = RootKey(bytes(range(32)), bytes(range(16)))
    for _ in range(100):
        cube = CubeId(rng.randint(-1000, 1000), rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        epoch = rng.randint(0, 10000)
        info = b"privis/cube" + struct.pack("<iii", *cube) + struct.pack("<Q", epoch)
        expected = HKDF(
            algorithm=hashes.SHA256(), length=32, salt=root.session_id, info=info
        ).derive(root.key_material)
        assert derive_key(root, cube, epoch) == expected


def test_derivation_deterministic():
    root = RootKey.from_hex("ab" * 32)
    cube = CubeId(1, 2, 3)
    assert derive_key(root, cube, 5) == derive_key(root, cube, 5)


def test_epoch_rotation_changes_about_half_the_bits():
    root = RootKey(bytes(32), bytes(16))
    k0 = derive_key(root, CubeId(0, 0, 0), 0)
    k1 = derive_key(root, CubeId(0, 0, 0), 1)
    assert k0 != k1
    flipped = sum(bin(a ^ b).count("1") for a, b in zip(k0, k1))
    assert 64 <= flipped <= 192  # ~50% of 256 bits, generous band


def test_no_key_collisions_across_cubes_and_epochs():
    root = RootKey.from_hex("cd" * 32)
    keys = set()
    for ix in range(-3, 4):
        for epoch in range(8):
            keys.add(derive_key(root, CubeId(ix, ix + 1, -ix), epoch))
    assert len(keys) == 7 * 8


def test_high_cube_rotates_every_frame():
    ring = KeyRing(RootKey.from_hex("11" * 32))
    cube = CubeId(0, 0, 0)
    epochs = [ring.key_for_frame(cube, i, HIGH, stable=True).epoch for i in range(6)]
    assert epochs == [0, 1, 2, 3, 4, 5]


def test_low_cube_interval_six_schedule():
    ring = KeyRing(RootKey.from_hex("22" * 32))
    cube = CubeId(1, 0, 0)
    epochs = [ring.key_for_frame(cube, i, LOW, stable=True).epoch for i in range(12)]
    assert epochs == [0] * 6 + [1] * 6


def test_rotation_counts_over_stable_frames():
    # ceil(F / k) distinct epochs over F stable frames at interval k
    for frames, policy, expected in ((12, HIGH, 12), (12, LOW, 2), (12, MED, 4), (7, MED, 3)):
        ring = KeyRing(RootKey.from_hex("33" * 32))
        cube = CubeId(0, 1, 0)
        epochs = {ring.key_for_frame(cube, i, policy, stable=True).epoch for i in range(frames)}
        assert len(epochs) == expected


def test_instability_forces_rotation():
    ring = KeyRing(RootKey.from_hex("44" * 32))
    cube = CubeId(2, 2, 2)
    e0 = ring.key_for_frame(cube, 0, LOW, stable=True)
    e1 = ring.key_for_frame(cube, 1, LOW, stable=False)
    assert e1.epoch == e0.epoch + 1


def test_derived_at_frame_marks_exactly_the_rotations():
    """derived_at_frame == frame_id exactly when the cube is new, stability
    is lost, or its interval has elapsed since the frame its epoch counts
    from: the rotation frame, less interval // 2 when the rotation was the
    second, fourth, ... forced one (new cube or lost stability) of its
    interval in that frame, in call order. Checked against that rule over a
    random schedule in which cubes skip frames and change level."""
    ring = KeyRing(RootKey.from_hex("88" * 32))
    rng = Mcg64(41)
    start: dict[CubeId, int] = {}
    epochs: dict[CubeId, int] = {}
    rotations = shortened = 0
    for frame in range(300):
        stable = rng.next_uniform() >= 0.05
        forced: dict[int, int] = {}  # forced rotations so far this frame, per interval
        for k in range(4):
            if rng.next_uniform() < 0.3:
                continue  # cube absent this frame
            cube = CubeId(k, 0, 0)
            pol = (HIGH, MED, LOW)[rng.randint(0, 2)]
            interval = pol.key_rotation_interval
            key = ring.key_for_frame(cube, frame, pol, stable)
            is_forced = cube not in start or not stable
            expected = is_forced or frame - start[cube] >= interval
            assert (key.derived_at_frame == frame) == expected
            if expected:
                start[cube] = frame
                if is_forced:
                    n = forced.get(interval, 0)
                    forced[interval] = n + 1
                    if n % 2 and interval > 1:
                        start[cube] -= interval // 2
                        shortened += 1
                epochs[cube] = epochs.get(cube, -1) + 1
                rotations += 1
            assert key.epoch == epochs[cube]
            assert key.key == derive_key(ring.root, cube, key.epoch)
    assert 0 < rotations < 4 * 300
    assert shortened > 0


def test_no_key_outlives_its_interval_and_a_lone_cube_keeps_the_full_interval():
    """Over random schedules (cubes skip frames, change level, and lose
    stability in 5% of frames): every key returned is younger than the
    interval of the policy it seals under, and a new cube or lost stability
    always rotates. A ring serving one cube, so that every forced rotation
    is lone, follows the full-interval rule exactly."""
    for seed in range(40):
        rng = Mcg64(1000 + seed)
        ring = KeyRing(RootKey.from_hex(f"{seed:02x}" * 32))
        lone = KeyRing(RootKey.from_hex(f"{seed:02x}" * 32))
        levels = {CubeId(k, -k, 2 * k): (HIGH, MED, LOW)[rng.randint(0, 2)] for k in range(1 + seed % 12)}
        seen: set[CubeId] = set()
        solo, solo_last = CubeId(-9, -9, -9), None
        for frame in range(60):
            stable = rng.next_uniform() >= 0.05
            for cube in levels:
                if rng.next_uniform() < 0.1:
                    levels[cube] = (HIGH, MED, LOW)[rng.randint(0, 2)]
                if rng.next_uniform() < 0.2:
                    continue  # cube absent this frame
                pol = levels[cube]
                key = ring.key_for_frame(cube, frame, pol, stable)
                assert frame - key.derived_at_frame < pol.key_rotation_interval
                if cube not in seen or not stable:
                    assert key.derived_at_frame == frame
                seen.add(cube)
            pol = levels[next(iter(levels))]
            key = lone.key_for_frame(solo, frame, pol, stable)
            rotated = solo_last is None or not stable or frame - solo_last >= pol.key_rotation_interval
            assert (key.derived_at_frame == frame) == rotated
            if rotated:
                solo_last = frame


def _first_rotations(ring, calls, frame, stable):
    """Call ``calls`` ((cube, policy) in call order) at ``frame``, then at
    every stable frame after it until each cube rotated once more; return
    the frame of each cube's next rotation, in call order."""
    for cube, pol in calls:
        assert ring.key_for_frame(cube, frame, pol, stable).derived_at_frame == frame
    due: dict[CubeId, int] = {}
    for later in range(frame + 1, frame + 7):
        for cube, pol in calls:
            if ring.key_for_frame(cube, later, pol, stable=True).derived_at_frame == later:
                due.setdefault(cube, later)
    return [due[cube] for cube, _pol in calls]


def test_forced_rotations_split_into_two_cohorts():
    """The forced rotations of one frame that share an interval, new cubes
    or all cubes after lost stability, alternate in call order between the
    full interval and one shortened by interval // 2; so the two cohorts'
    sizes differ by at most one. Random cube counts, levels and orders."""
    for seed in range(40):
        rng = Mcg64(2000 + seed)
        ring = KeyRing(RootKey.from_hex(f"{seed:02x}" * 32))
        calls = [(CubeId(k, 0, -k), (HIGH, MED, LOW)[rng.randint(0, 2)]) for k in range(rng.randint(1, 30))]
        start = rng.randint(0, 100)
        for frame, stable in ((start, True), (start + 6 + rng.randint(1, 5), False)):
            calls.sort(key=lambda _call: rng.next_uniform())
            due = _first_rotations(ring, calls, frame, stable)
            for interval in (1, 3, 6):
                got = [d - frame for (_cube, pol), d in zip(calls, due) if pol.key_rotation_interval == interval]
                want = [interval - n % 2 * (interval // 2) for n in range(len(got))]
                assert got == want
                shortened = sum(g < interval for g in got)
                if interval > 1:
                    assert len(got) - 2 * shortened in (0, 1)


def test_newcomer_burst_splits_into_two_cohorts():
    """40 LOW cubes appearing at frame 0 rekey as two cohorts of 20, at
    frames 3 and 9 and at frames 6 and 12, never all 40 together."""
    ring = KeyRing(RootKey.from_hex("99" * 32))
    cubes = [CubeId(k % 8, k // 8, 0) for k in range(40)]
    rotations = []
    for frame in range(13):
        keys = [ring.key_for_frame(cube, frame, LOW, stable=True) for cube in cubes]
        rotations.append(sum(key.derived_at_frame == frame for key in keys))
    assert rotations[0] == 40
    assert max(rotations[1:]) <= 20
    assert rotations == [40, 0, 0, 20, 0, 0, 20, 0, 0, 20, 0, 0, 20]


def test_reused_epoch_returns_identical_key_object_fields():
    ring = KeyRing(RootKey.from_hex("55" * 32))
    cube = CubeId(0, 0, 1)
    a = ring.key_for_frame(cube, 0, LOW, stable=True)
    b = ring.key_for_frame(cube, 1, LOW, stable=True)
    assert (a.epoch, a.key) == (b.epoch, b.key)
    assert derive_key(ring.root, cube, a.epoch) == a.key


def test_receiver_side_derivation_matches_sender():
    ring = KeyRing(RootKey.from_hex("66" * 32))
    cube = CubeId(-1, 4, 2)
    sender = ring.key_for_frame(cube, 0, HIGH, stable=True)
    assert derive_key(RootKey.from_hex("66" * 32), cube, sender.epoch) == sender.key


def test_root_key_validation():
    with pytest.raises(Exception):
        RootKey(b"short", bytes(16))
    with pytest.raises(Exception):
        RootKey(bytes(32), b"short")


def test_from_hex_session_id_stable():
    a = RootKey.from_hex("77" * 32)
    b = RootKey.from_hex("77" * 32)
    assert a.session_id == b.session_id
    assert len(a.session_id) == 16

