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
associated data; under geometry-only scope the cleartext attributes are
appended to the associated data, so scope changes confidentiality
coverage but never integrity coverage. Nonces are deterministic:
4 bytes of SHA-256 over the packed cube id, then the frame id as u64.
Keys are per (cube, epoch), so a (key, nonce) pair repeats only when a
cube seals the same (epoch, frame) twice; the session's NonceRegistry
enforces that each cube's (epoch, frame) strictly rises.

Saliency metadata (the level byte) rides in the clear; the shaping module
addresses what an observer can do with traffic patterns, and the residual
implication is documented rather than hidden.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

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
    "MAGIC",
]

MAGIC = b"PRV1"
_HEADER = struct.Struct("<4s16sQiiiQBBIII")
HEADER_LEN = _HEADER.size  # 62
NONCE_LEN = 12
TAG_LEN = 16

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

    @property
    def num_points(self) -> int:
        return len(self.geometry) // _GEOMETRY_STRIDE


def _pack_header(
    session_id: bytes,
    frame_id: int,
    cube_id: CubeId,
    epoch: int,
    level: int,
    scope: Scope,
    plain_attr_len: int,
    cipher_len: int,
    pad_len: int,
) -> bytes:
    """The 62-byte unit header; it is the start of the AEAD's associated
    data, so sealing and opening must pack it the same way."""
    return _HEADER.pack(
        MAGIC, session_id, frame_id, *cube_id, epoch, int(level), int(scope),
        plain_attr_len, cipher_len, pad_len,
    )


@dataclass(frozen=True)
class SealedCube:
    session_id: bytes
    frame_id: int
    cube_id: CubeId
    epoch: int
    level: int
    scope: Scope
    nonce: bytes
    ciphertext: bytes
    plain_attributes: bytes
    tag: bytes
    pad_len: int = 0

    def header_bytes(self) -> bytes:
        return _pack_header(
            self.session_id, self.frame_id, self.cube_id, self.epoch, self.level, self.scope,
            len(self.plain_attributes), len(self.ciphertext), self.pad_len,
        )

    def to_bytes(self) -> bytes:
        return (
            self.header_bytes()
            + self.nonce
            + self.ciphertext
            + self.plain_attributes
            + self.tag
            + bytes(self.pad_len)
        )

    @property
    def wire_len(self) -> int:
        return (
            HEADER_LEN
            + NONCE_LEN
            + len(self.ciphertext)
            + len(self.plain_attributes)
            + TAG_LEN
            + self.pad_len
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedCube":
        if len(data) < HEADER_LEN + NONCE_LEN + TAG_LEN:
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
        expected = HEADER_LEN + NONCE_LEN + cipher_len + plain_attr_len + TAG_LEN + pad_len
        if len(data) != expected:
            raise MalformedHeader(f"length mismatch: header says {expected}, unit is {len(data)}")
        off = HEADER_LEN
        nonce = data[off : off + NONCE_LEN]
        off += NONCE_LEN
        ciphertext = data[off : off + cipher_len]
        off += cipher_len
        plain_attrs = data[off : off + plain_attr_len]
        off += plain_attr_len
        tag = data[off : off + TAG_LEN]
        return cls(
            session_id=session_id,
            frame_id=frame_id,
            cube_id=CubeId(ix, iy, iz),
            epoch=epoch,
            level=level,
            scope=Scope(scope),
            nonce=nonce,
            ciphertext=ciphertext,
            plain_attributes=plain_attrs,
            tag=tag,
            pad_len=pad_len,
        )


@lru_cache(maxsize=4096)
def _nonce_prefix(cube_id: CubeId) -> bytes:
    return hashlib.sha256(struct.pack("<iii", *cube_id)).digest()[:4]


def nonce_for(cube_id: CubeId, frame_id: int) -> bytes:
    """Deterministic nonce: cube-id hash prefix plus the frame counter."""
    return _nonce_prefix(cube_id) + struct.pack("<Q", frame_id)


@lru_cache(maxsize=4096)
def _aead(key: bytes) -> AESGCM:
    return AESGCM(key)


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
    """Pack a cube's points into wire plaintext sections. np.take gathers
    the same rows as fancy indexing, several times faster on (N, 3)."""
    idx = cube.point_indices
    geometry = np.take(frame.positions, idx, axis=0).astype("<f4").tobytes()
    attrs = np.empty((len(idx), 4), dtype=np.uint8)
    attrs[:, :3] = np.take(frame.colors, idx, axis=0)
    attrs[:, 3] = np.take(frame.sensitivity, idx)
    return CubePlaintext(geometry, attrs.tobytes())


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
    nonce = nonce_for(key.cube_id, frame_id)
    if registry is not None:
        registry.register(key, frame_id)
    if policy.scope is Scope.FULL_PAYLOAD:
        plaintext = plain.geometry + plain.attributes
        plain_attrs = b""
    else:
        plaintext = plain.geometry
        plain_attrs = plain.attributes
    # GCM ciphertext is as long as its plaintext
    header = _pack_header(
        session_id, frame_id, key.cube_id, key.epoch, policy.level, policy.scope,
        len(plain_attrs), len(plaintext), pad_len,
    )
    aad = header + plain_attrs
    out = _aead(key.key).encrypt(nonce, plaintext, aad)
    return SealedCube(
        session_id=session_id,
        frame_id=frame_id,
        cube_id=key.cube_id,
        epoch=key.epoch,
        level=int(policy.level),
        scope=policy.scope,
        nonce=nonce,
        ciphertext=out[:-TAG_LEN],
        plain_attributes=plain_attrs,
        tag=out[-TAG_LEN:],
        pad_len=pad_len,
    )


def open_cube(sealed: SealedCube, key: bytes) -> CubePlaintext:
    """Verify and decrypt; raises AuthFailure without releasing plaintext.

    ``key`` must be derived from the header's (cube_id, epoch); the header
    itself is covered by the tag, so any header tamper fails here.
    """
    aad = sealed.header_bytes() + sealed.plain_attributes
    try:
        plaintext = _aead(key).decrypt(sealed.nonce, sealed.ciphertext + sealed.tag, aad)
    except InvalidTag:
        raise AuthFailure(
            f"cube {tuple(sealed.cube_id)} frame {sealed.frame_id}: tag verification failed"
        ) from None
    if sealed.scope is Scope.FULL_PAYLOAD:
        n = len(plaintext)
        geo_len = (n // (_GEOMETRY_STRIDE + _ATTR_STRIDE)) * _GEOMETRY_STRIDE
        geometry, attrs = plaintext[:geo_len], plaintext[geo_len:]
    else:
        geometry, attrs = plaintext, sealed.plain_attributes
    try:
        return CubePlaintext(geometry, attrs)
    except ValidationError as e:
        raise MalformedHeader(str(e)) from None
