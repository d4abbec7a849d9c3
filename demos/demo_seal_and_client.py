"""Key derivation, sealing, tampering, and the client's hold-over policy.

Walks one cube through the secure path: derive its epoch key from the
session root, seal under both protection scopes, fragment and reassemble,
then corrupt a unit in transit and watch the client fall back to the last
verified version instead of rendering garbage.
"""

from privis import (
    Client,
    CubeId,
    CubePlaintext,
    KeyRing,
    ProtectionLevel,
    ProtectionPolicy,
    RootKey,
    Scope,
    SealedCube,
    frame_compose,
    packetize,
    seal_cube,
)

root = RootKey.from_hex("2f" * 32)
ring = KeyRing(root)
cube = CubeId(4, 8, 4)
high = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.8)
low = ProtectionPolicy(ProtectionLevel.LOW, 6, Scope.GEOMETRY_ONLY, 0.0)

plain = CubePlaintext(bytes(12 * 40), bytes(4 * 40))
key = ring.key_for_frame(cube, 0, high)
print(f"epoch {key.epoch} key for cube {tuple(cube)}: {key.key.hex()[:16]}...")

sealed_full = seal_cube(plain, key, high, 0, root.session_id)
sealed_geom = seal_cube(plain, key, low, 0, root.session_id)
print(f"full-payload unit: {sealed_full.wire_len} bytes "
      f"({len(sealed_full.ciphertext)} ciphertext, 0 clear)")
print(f"geometry-only unit: {sealed_geom.wire_len} bytes "
      f"({len(sealed_geom.ciphertext)} ciphertext, {len(sealed_geom.plain_attributes)} clear"
      " but tag-covered)")

# fragment, deliver, verify
client = Client(root)
client.guard.begin_frame(0)  # the client's frame clock opens frame 0's receive window
for frag in packetize(sealed_full.to_bytes(), cube, 0, mtu=300):
    unit = client.on_datagram(frag, arrival_ms=1.0)
outcome = client.admit(unit)
print(f"\nframe 0 delivery: {type(outcome).__name__}, "
      f"{outcome.plaintext.num_points} points admitted")

# frame 1 arrives corrupted: one flipped tag bit
key1 = ring.key_for_frame(cube, 1, high)
sealed1 = seal_cube(plain, key1, high, 1, root.session_id)
wire = bytearray(sealed1.to_bytes())
wire[-1] ^= 0x01
outcome1 = client.admit(SealedCube.from_bytes(bytes(wire)))
print(f"frame 1 (tampered): {type(outcome1).__name__} "
      f"-> rendering the copy verified at frame {outcome1.source_frame_id}")

summary, _ = frame_compose(1, {cube: outcome1}, [cube], client.state)
print(f"frame 1 composition: admitted {summary.admitted}, held {summary.held}, "
      f"dropped {summary.dropped}")
print("failure log:", client.state.failure_log)
