"""Per-cube authenticated encryption and the sealed-unit wire format.

Wire layout, little-endian throughout:

    header (62 bytes):
        magic           4s   "PRV1"
        session_id      16s
        frame_id        u64
        cube_id         3 x int32
        epoch           u64
        level           u8
        scope           u8   0 = geometry only, 1 = full payload
        plain_attr_len  u32
        cipher_len      u32
        pad_len         u32
    nonce               12 bytes
    ciphertext          cipher_len bytes
    plaintext_attrs     plain_attr_len bytes (geometry-only scope)
    tag                 16 bytes
    padding             pad_len zero bytes (shaping cover, unauthenticated)

The cipher is AES-256-GCM. The header is always authenticated as
associated data, as the bytes received: the opener never packs it again
from the parsed fields. Under geometry-only scope the cleartext
attributes are appended to the associated data, so scope changes
confidentiality coverage but never integrity coverage. A parsed unit
keeps its pad bytes as they were sent; only their count is covered.

Nonces are deterministic: 4 bytes of SHA-256 over the packed cube id,
then the frame id as u64. Keys are per (cube, epoch), so a (key, nonce)
pair repeats only when a cube seals the same (epoch, frame) twice; the
session's NonceRegistry enforces that each cube's (epoch, frame)
strictly rises.

Saliency metadata (the level byte) rides in the clear; the shaping module
addresses what an observer can do with traffic patterns, and the residual
implication is documented rather than hidden.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthFailure, MalformedHeader, NonceReuseError, ValidationError
from .frame_io import PointCloudFrame
from .keyring import KeyEpoch
from .partition import Cube, CubeId
from .policy import ProtectionLevel, ProtectionPolicy, Scope

__all__ = [
    "CubePlaintext",
    "SealedCube",
    "NonceRegistry",
    "seal_cube",
    "open_cube",
    "serialize_cube",
    "nonce_for",
    "HEADER_LEN",
    "NONCE_LEN",
    "TAG_LEN",
    "SEAL_OVERHEAD",
    "MAGIC",
]

MAGIC = b"PRV1"
_HEADER = struct.Struct("<4s16sQiiiQBBIII")
HEADER_LEN = _HEADER.size  # 62
NONCE_LEN = 12
TAG_LEN = 16
SEAL_OVERHEAD = HEADER_LEN + NONCE_LEN + TAG_LEN
_BODY = HEADER_LEN + NONCE_LEN  # where the ciphertext starts

_GEOMETRY_STRIDE = 12  # 3 x float32
_ATTR_STRIDE = 4  # r, g, b, label


@dataclass(frozen=True)
class CubePlaintext:
    """Serialized cube content: positions and color+label attributes."""

    geometry: bytes  # 3 x float32 LE per point
    attributes: bytes  # 4 bytes per point

    def __post_init__(self):
        if len(self.geometry) % _GEOMETRY_STRIDE:
            raise ValidationError("geometry length not a multiple of 12")
        if len(self.attributes) % _ATTR_STRIDE:
            raise ValidationError("attributes length not a multiple of 4")
        if len(self.geometry) // _GEOMETRY_STRIDE != len(self.attributes) // _ATTR_STRIDE:
            raise ValidationError("geometry/attribute point counts differ")

    @classmethod
    def from_bytes(cls, data: bytes) -> "CubePlaintext":
        """Split ``geometry || attributes``, the inverse of joining them;
        a length that is not whole points raises ValidationError."""
        geo_len = len(data) // (_GEOMETRY_STRIDE + _ATTR_STRIDE) * _GEOMETRY_STRIDE
        return cls(data[:geo_len], data[geo_len:])

    @property
    def num_points(self) -> int:
        return len(self.geometry) // _GEOMETRY_STRIDE


class SealedCube(NamedTuple):
    """A sealed unit as it is on the wire, and its parsed header fields.

    ``wire`` is the unit's one copy: the nonce, ciphertext, clear
    attributes and tag are slices of it, and ``to_bytes`` returns it
    unchanged, pad bytes included.
    """

    wire: bytes
    session_id: bytes
    frame_id: int
    cube_id: CubeId
    epoch: int
    level: int
    scope: Scope
    plain_attr_len: int
    cipher_len: int
    pad_len: int

    @property
    def ciphertext(self) -> bytes:
        return self.wire[_BODY : _BODY + self.cipher_len]

    @property
    def plain_attributes(self) -> bytes:
        off = _BODY + self.cipher_len
        return self.wire[off : off + self.plain_attr_len]

    @property
    def tag(self) -> bytes:
        off = _BODY + self.cipher_len + self.plain_attr_len
        return self.wire[off : off + TAG_LEN]

    def to_bytes(self) -> bytes:
        return self.wire

    @property
    def wire_len(self) -> int:
        return len(self.wire)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedCube":
        if len(data) < SEAL_OVERHEAD:
            raise MalformedHeader(f"unit truncated at {len(data)} bytes")
        (
            magic,
            session_id,
            frame_id,
            ix,
            iy,
            iz,
            epoch,
            level,
            scope,
            plain_attr_len,
            cipher_len,
            pad_len,
        ) = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise MalformedHeader(f"bad magic {magic!r}")
        if scope not in (0, 1):
            raise MalformedHeader(f"bad scope {scope}")
        if level > int(ProtectionLevel.HIGH):
            raise MalformedHeader(f"bad level {level}")
        expected = SEAL_OVERHEAD + cipher_len + plain_attr_len + pad_len
        if len(data) != expected:
            raise MalformedHeader(f"length mismatch: header says {expected}, unit is {len(data)}")
        return cls(
            data, session_id, frame_id, CubeId(ix, iy, iz), epoch, level, Scope(scope),
            plain_attr_len, cipher_len, pad_len,
        )


@lru_cache(maxsize=4096)
def _nonce_prefix(cube_id: CubeId) -> bytes:
    return hashlib.sha256(struct.pack("<iii", *cube_id)).digest()[:4]


_NONCE = struct.Struct("<4sQ")


def nonce_for(cube_id: CubeId, frame_id: int) -> bytes:
    """Deterministic nonce: cube-id hash prefix plus the frame counter."""
    return _NONCE.pack(_nonce_prefix(cube_id), frame_id)


class NonceRegistry:
    """Refuses to seal a (key, nonce) pair twice in a session.

    The key is HKDF(cube, epoch) and the nonce is prefix(cube) || frame, so
    a pair repeats only if a cube's (epoch, frame) does. The registry keeps
    one high-water mark per cube, the highest (epoch, frame) sealed, and
    refuses any seal at or below it (the per-key invocation-counter form
    NIST SP 800-38D section 8 allows); memory is one entry per cube however
    long the session runs.
    """

    def __init__(self):
        self._marks: dict[CubeId, tuple[int, int]] = {}

    def register(self, key: KeyEpoch, frame_id: int) -> None:
        mark = (key.epoch, frame_id)
        prev = self._marks.get(key.cube_id)
        if prev is not None and mark <= prev:
            raise NonceReuseError(
                f"cube {tuple(key.cube_id)}: (epoch, frame) {mark} not above {prev}; refusing to seal"
            )
        self._marks[key.cube_id] = mark


def serialize_cube(frame: PointCloudFrame, cube: Cube) -> CubePlaintext:
    """Pack a cube's points into wire plaintext sections, once per Cube:
    the result is held on the cube and returned by every later call. A
    Cube outlives its frame only while no changed point left, entered or
    touched its cell (see reuse_or_repartition), so the held bytes are the
    ones ``frame`` would give.

    ``take`` gathers the same rows as fancy indexing, several times faster
    on (N, 3); the array method skips the ``np.take`` wrapper, about 0.5 us
    a call. The attributes interleave r, g, b, label through a flat buffer,
    one strided column at a time: the same bytes as assigning into an
    (N, 4) array's column block, which takes a slower copy loop."""
    if cube.plaintext is not None:
        return cube.plaintext
    idx = cube.point_indices
    geometry = frame.positions.take(idx, axis=0).astype("<f4").tobytes()
    colors = frame.colors.take(idx, axis=0)
    attrs = np.empty(4 * len(idx), dtype=np.uint8)
    attrs[0::4] = colors[:, 0]
    attrs[1::4] = colors[:, 1]
    attrs[2::4] = colors[:, 2]
    attrs[3::4] = frame.sensitivity.take(idx)
    cube.plaintext = CubePlaintext(geometry, attrs.tobytes())
    return cube.plaintext


def seal_cube(
    plain: CubePlaintext,
    key: KeyEpoch,
    policy: ProtectionPolicy,
    frame_id: int,
    session_id: bytes,
    pad_len: int = 0,
    registry: NonceRegistry | None = None,
) -> SealedCube:
    """Encrypt one cube under its epoch key.

    Full-payload scope encrypts geometry plus attributes; geometry-only
    scope encrypts geometry and authenticates the cleartext attributes as
    associated data. ``pad_len`` is the shaping cover decided upstream; it
    is recorded in the (authenticated) header and appended as zero bytes.
    """
    if pad_len < 0:
        raise ValidationError("pad_len must be >= 0")
    cube_id, epoch = key.cube_id, key.epoch
    nonce = nonce_for(cube_id, frame_id)
    if registry is not None:
        registry.register(key, frame_id)
    level, scope = int(policy.level), policy.scope
    if scope is Scope.FULL_PAYLOAD:
        plaintext, plain_attrs = plain.geometry + plain.attributes, b""
    else:
        plaintext, plain_attrs = plain.geometry, plain.attributes
    attr_len, cipher_len = len(plain_attrs), len(plaintext)
    header = _HEADER.pack(
        MAGIC, session_id, frame_id, *cube_id, epoch, level, scope, attr_len, cipher_len, pad_len
    )
    # GCM output is the ciphertext, as long as its plaintext, then the tag;
    # clear attributes go between the two
    out = AESGCM(key.key).encrypt(nonce, plaintext, header + plain_attrs)
    if attr_len:
        out = memoryview(out)
        wire = b"".join((header, nonce, out[:-TAG_LEN], plain_attrs, out[-TAG_LEN:], bytes(pad_len)))
    else:
        wire = b"".join((header, nonce, out, bytes(pad_len)))
    return SealedCube(
        wire, session_id, frame_id, cube_id, epoch, level, scope, attr_len, cipher_len, pad_len
    )


def open_cube(sealed: SealedCube, key: bytes) -> CubePlaintext:
    """Verify and decrypt; raises AuthFailure without releasing plaintext.

    ``key`` must be derived from the header's (cube_id, epoch). The header
    is authenticated as received, so any header tamper fails here. Without
    clear attributes the ciphertext and tag are contiguous in the wire and
    are decrypted in place; geometry-only units hold the attributes
    between them, so those two are joined first.
    """
    wire = memoryview(sealed.wire)
    ct_end = _BODY + sealed.cipher_len
    tag_at = ct_end + sealed.plain_attr_len
    aad, data = wire[:HEADER_LEN], wire[_BODY : tag_at + TAG_LEN]
    if sealed.plain_attr_len:
        aad = b"".join((aad, wire[ct_end:tag_at]))
        data = b"".join((wire[_BODY:ct_end], wire[tag_at : tag_at + TAG_LEN]))
    try:
        plaintext = AESGCM(key).decrypt(wire[HEADER_LEN:_BODY], data, aad)
    except InvalidTag:
        raise AuthFailure(
            f"cube {tuple(sealed.cube_id)} frame {sealed.frame_id}: tag verification failed"
        ) from None
    try:
        if sealed.scope is Scope.FULL_PAYLOAD:
            return CubePlaintext.from_bytes(plaintext)
        return CubePlaintext(plaintext, sealed.plain_attributes)
    except ValidationError as e:
        raise MalformedHeader(str(e)) from None
