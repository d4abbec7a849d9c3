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
    """derived_at_frame == frame_id exactly when the cube is new, its
    interval has elapsed since its last rotation, or stability is lost,
    checked against that rule over a random schedule in which cubes skip
    frames and change level."""
    ring = KeyRing(RootKey.from_hex("88" * 32))
    rng = Mcg64(41)
    last_rotation: dict[CubeId, int] = {}
    epochs: dict[CubeId, int] = {}
    rotations = 0
    for frame in range(300):
        stable = rng.next_uniform() >= 0.05
        for k in range(4):
            if rng.next_uniform() < 0.3:
                continue  # cube absent this frame
            cube = CubeId(k, 0, 0)
            pol = (HIGH, MED, LOW)[rng.randint(0, 2)]
            key = ring.key_for_frame(cube, frame, pol, stable)
            prev = last_rotation.get(cube)
            expected = prev is None or not stable or frame - prev >= pol.key_rotation_interval
            assert (key.derived_at_frame == frame) == expected
            if expected:
                last_rotation[cube] = frame
                epochs[cube] = epochs.get(cube, -1) + 1
                rotations += 1
            assert key.epoch == epochs[cube]
            assert key.key == derive_key(ring.root, cube, key.epoch)
    assert 0 < rotations < 4 * 300


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

