import json
import os

import numpy as np
import pytest

from privis.errors import AuthFailure, MalformedHeader, NonceReuseError
from privis.keyring import KeyEpoch, KeyRing, RootKey, derive_key
from privis.partition import CubeId, partition_frame
from privis.policy import ProtectionLevel, ProtectionPolicy, Scope
from privis.rng import Mcg64
from privis.seal import (
    HEADER_LEN,
    NONCE_LEN,
    SEAL_OVERHEAD,
    TAG_LEN,
    CubePlaintext,
    NonceRegistry,
    SealedCube,
    nonce_for,
    open_cube,
    seal_cube,
    serialize_cube,
)

with open(os.path.join(os.path.dirname(__file__), "golden", "vectors.json")) as _f:
    GOLDEN = json.load(_f)

ROOT = RootKey.from_hex("10" * 32)
FULL = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.9)
GEOM = ProtectionPolicy(ProtectionLevel.LOW, 6, Scope.GEOMETRY_ONLY, 0.0)


def key_for(cube, epoch=0, frame=0):
    return KeyEpoch(cube, epoch, derive_key(ROOT, cube, epoch), frame)


def random_plain(rng, max_points=40):
    n = rng.randint(0, max_points)
    geo = bytes(rng.randint(0, 255) for _ in range(12 * n))
    attrs = bytes(rng.randint(0, 255) for _ in range(4 * n))
    return CubePlaintext(geo, attrs)


def test_golden_sealed_units_byte_exact():
    g = GOLDEN["sealed"]
    root = RootKey(bytes.fromhex(g["root"]), bytes.fromhex(g["session_id"]))
    cube = CubeId(*g["cube"])
    key = KeyEpoch(cube, g["epoch"], derive_key(root, cube, g["epoch"]), 0)
    plain = CubePlaintext(bytes.fromhex(g["geometry"]), bytes.fromhex(g["attributes"]))

    units = {
        "full_payload": seal_cube(plain, key, FULL, g["frame_id"], root.session_id),
        "geometry_only": seal_cube(plain, key, GEOM, g["frame_id"], root.session_id),
        "empty_full_payload": seal_cube(CubePlaintext(b"", b""), key, FULL, g["frame_id"], root.session_id),
    }
    for name, sealed in units.items():
        wire = sealed.to_bytes()
        assert wire.hex() == g["units"][name]
        assert SealedCube.from_bytes(wire).to_bytes() == wire


def test_nonce_layout():
    cube = CubeId(1, 2, 3)
    n = nonce_for(cube, 5)
    assert len(n) == 12
    assert n[4:] == (5).to_bytes(8, "little")
    assert nonce_for(cube, 6)[:4] == n[:4]
    assert nonce_for(CubeId(1, 2, 4), 5)[:4] != n[:4]


def test_empty_cube_full_payload_round_trip():
    cube = CubeId(0, 0, 0)
    sealed = seal_cube(CubePlaintext(b"", b""), key_for(cube), FULL, 0, ROOT.session_id)
    assert len(sealed.ciphertext) == 0
    assert len(sealed.tag) == TAG_LEN
    back = open_cube(SealedCube.from_bytes(sealed.to_bytes()), key_for(cube).key)
    assert back == CubePlaintext(b"", b"")


@pytest.mark.parametrize("policy", [FULL, GEOM], ids=["full", "geometry_only"])
def test_one_point_round_trip(policy):
    cube = CubeId(4, 5, 6)
    plain = CubePlaintext(bytes(range(12)), bytes([9, 8, 7, 1]))
    sealed = seal_cube(plain, key_for(cube), policy, 3, ROOT.session_id)
    back = open_cube(SealedCube.from_bytes(sealed.to_bytes()), key_for(cube).key)
    assert back == plain


@pytest.mark.parametrize("policy", [FULL, GEOM], ids=["full", "geometry_only"])
def test_thousand_random_round_trips(policy):
    rng = Mcg64(101)
    cube = CubeId(1, 1, 1)
    key = key_for(cube)
    for frame in range(1000):
        plain = random_plain(rng)
        pad = rng.randint(0, 64)
        sealed = seal_cube(plain, key, policy, frame, ROOT.session_id, pad_len=pad)
        wire = sealed.to_bytes()
        assert len(wire) == sealed.wire_len
        back = open_cube(SealedCube.from_bytes(wire), key.key)
        assert back == plain


def test_geometry_only_keeps_attributes_in_clear_but_authenticated():
    cube = CubeId(2, 2, 2)
    plain = CubePlaintext(bytes(24), bytes([1, 2, 3, 4, 5, 6, 7, 8]))
    sealed = seal_cube(plain, key_for(cube), GEOM, 0, ROOT.session_id)
    assert sealed.plain_attributes == plain.attributes  # readable without the key
    wire = bytearray(sealed.to_bytes())
    attr_off = HEADER_LEN + NONCE_LEN + len(sealed.ciphertext)
    wire[attr_off] ^= 0x01  # flip one clear attribute bit
    with pytest.raises(AuthFailure):
        open_cube(SealedCube.from_bytes(bytes(wire)), key_for(cube).key)


def test_exhaustive_single_bit_flip_sweep_fails_auth():
    """Every single-bit corruption of a small sealed unit (header, nonce,
    ciphertext, tag) must fail verification or parsing."""
    cube = CubeId(3, 1, 2)
    plain = CubePlaintext(bytes(range(24)), bytes(range(8)))
    sealed = seal_cube(plain, key_for(cube), FULL, 7, ROOT.session_id)
    wire = sealed.to_bytes()
    key = key_for(cube).key
    for byte_idx in range(len(wire)):
        for bit in range(8):
            mutated = bytearray(wire)
            mutated[byte_idx] ^= 1 << bit
            with pytest.raises((AuthFailure, MalformedHeader)):
                open_cube(SealedCube.from_bytes(bytes(mutated)), key)


def test_wrong_epoch_key_fails():
    cube = CubeId(0, 1, 0)
    sealed = seal_cube(CubePlaintext(bytes(12), bytes(4)), key_for(cube, epoch=0), FULL, 0, ROOT.session_id)
    with pytest.raises(AuthFailure):
        open_cube(sealed, key_for(cube, epoch=1).key)


def test_truncation_fuzz_gives_malformed_header():
    rng = Mcg64(55)
    cube = CubeId(9, 9, 9)
    plain = CubePlaintext(bytes(120), bytes(40))
    sealed = seal_cube(plain, key_for(cube), FULL, 1, ROOT.session_id, pad_len=17)
    wire = sealed.to_bytes()
    for _ in range(1000):
        cut = rng.randint(0, len(wire) - 1)
        with pytest.raises(MalformedHeader):
            SealedCube.from_bytes(wire[:cut])


def test_bad_magic_rejected():
    cube = CubeId(0, 0, 0)
    wire = bytearray(seal_cube(CubePlaintext(b"", b""), key_for(cube), FULL, 0, ROOT.session_id).to_bytes())
    wire[0] = ord("X")
    with pytest.raises(MalformedHeader):
        SealedCube.from_bytes(bytes(wire))


def test_pad_bytes_round_trip_and_strip():
    """The sealer pads with zeros. The pad is not authenticated, so a unit
    whose pad bytes were rewritten on the path still opens, and its parsed
    form gives back the bytes as received."""
    cube = CubeId(5, 0, 5)
    plain = CubePlaintext(bytes(36), bytes(12))
    sealed = seal_cube(plain, key_for(cube), FULL, 2, ROOT.session_id, pad_len=100)
    wire = sealed.to_bytes()
    assert len(wire) == SEAL_OVERHEAD + len(plain.geometry) + len(plain.attributes) + 100
    assert wire[-100:] == bytes(100)
    for pad in (bytes(100), bytes(range(1, 101))):
        received = wire[:-100] + pad
        parsed = SealedCube.from_bytes(received)
        assert parsed.pad_len == 100
        assert parsed.to_bytes() == received
        assert open_cube(parsed, key_for(cube).key) == plain


def test_nonce_registry_detects_reuse():
    cube = CubeId(1, 2, 3)
    registry = NonceRegistry()
    plain = CubePlaintext(bytes(12), bytes(4))
    seal_cube(plain, key_for(cube), FULL, 0, ROOT.session_id, registry=registry)
    # same key + same frame -> same nonce -> hard fault
    with pytest.raises(NonceReuseError):
        seal_cube(plain, key_for(cube), FULL, 0, ROOT.session_id, registry=registry)
    # new frame or new epoch is fine
    seal_cube(plain, key_for(cube), FULL, 1, ROOT.session_id, registry=registry)
    seal_cube(plain, key_for(cube, epoch=1), FULL, 0, ROOT.session_id, registry=registry)


def test_nonce_uniqueness_over_session_schedule():
    """Epoch rotation at frame granularity or finer keeps (key, nonce)
    pairs unique across an entire simulated schedule."""
    registry = NonceRegistry()
    plain = CubePlaintext(bytes(12), bytes(4))
    for cube in (CubeId(0, 0, 0), CubeId(0, 0, 1)):
        for frame in range(50):
            epoch = frame // 6
            seal_cube(plain, key_for(cube, epoch=epoch), GEOM, frame, ROOT.session_id, registry=registry)


def test_nonce_registry_mark_per_cube():
    """The mark is the highest (epoch, frame) sealed per cube: an equal or
    lower pair is refused, a new epoch at the same frame is not, and other
    cubes are unaffected."""
    registry = NonceRegistry()
    cube, other = CubeId(4, 0, 0), CubeId(4, 0, 1)
    registry.register(key_for(cube, epoch=1), 5)
    for epoch, frame in ((1, 5), (1, 4), (0, 9)):
        with pytest.raises(NonceReuseError):
            registry.register(key_for(cube, epoch=epoch), frame)
    registry.register(key_for(other, epoch=0), 0)
    registry.register(key_for(cube, epoch=2), 5)
    registry.register(key_for(cube, epoch=2), 6)


def test_nonce_registry_bounded_over_key_schedule():
    """1,000 frames of a session's key schedule (HIGH, MED, LOW cubes,
    stability lost every 50 frames) seal without a refusal and leave one
    mark per cube."""
    ring = KeyRing(ROOT)
    registry = NonceRegistry()
    plain = CubePlaintext(bytes(12), bytes(4))
    cubes = {
        CubeId(0, 0, 0): FULL,
        CubeId(0, 0, 1): ProtectionPolicy(ProtectionLevel.MED, 3, Scope.FULL_PAYLOAD, 0.0),
        CubeId(0, 0, 2): GEOM,
    }
    for frame in range(1000):
        for cube, pol in cubes.items():
            key = ring.key_for_frame(cube, frame, pol, stable=frame % 50 != 0)
            seal_cube(plain, key, pol, frame, ROOT.session_id, registry=registry)
    assert len(registry._marks) == len(cubes)


def test_serialize_cube_matches_frame_slices(small_frames):
    frame = small_frames[0]
    cs = partition_frame(frame, 64)
    cube = cs.cubes[0]
    plain = serialize_cube(frame, cube)
    assert plain.num_points == cube.num_points
    geo = np.frombuffer(plain.geometry, dtype="<f4").reshape(-1, 3)
    assert np.allclose(geo, frame.positions[cube.point_indices].astype("<f4"))
    attrs = np.frombuffer(plain.attributes, dtype=np.uint8).reshape(-1, 4)
    assert np.array_equal(attrs[:, :3], frame.colors[cube.point_indices])
    assert np.array_equal(attrs[:, 3], frame.sensitivity[cube.point_indices])


def test_mismatched_plaintext_sections_rejected():
    with pytest.raises(Exception):
        CubePlaintext(bytes(12), bytes(8))  # 1 point geometry, 2 points attrs
    with pytest.raises(Exception):
        CubePlaintext(bytes(13), bytes(4))  # bad stride
