"""Session root key, per-cube key derivation, and rotation scheduling.

Per-cube keys come from HKDF-SHA-256 (RFC 5869 extract-then-expand) with
the session id as salt and an info string binding the cube id and epoch:

    salt = session_id (16 bytes)
    info = "privis/cube" || ix || iy || iz (int32 LE each) || epoch (u64 LE)
    key  = HKDF(root, salt, info, 32 bytes)

The extract step depends only on the root and the salt, so it runs once
per root; each key is one HKDF-Expand of that pseudorandom key.

Both sides derive keys independently from the shared root plus the sealed
unit's header fields; no key material ever crosses the wire. Rotation
happens when the policy interval elapses, when cube boundaries change
(stability lost), or when a cube first appears. The key ring keeps one
record per cube: its current KeyEpoch, whose ``derived_at_frame`` marks
the rotation, and the frame its interval counts from.

Cohorts: the rotations a new cube or lost stability forces in one frame
would otherwise all fall due together, every interval after. So, among
the forced rotations of one frame that share an interval, in call order,
every second one starts a first epoch shortened by ``interval // 2``; the
others, and every rotation the elapsed interval causes, get the full
interval. At intervals 1/3/6, HIGH is unchanged, MED splits into two
cohorts at offsets 0 and 2 (mod 3) and LOW at 0 and 3 (mod 6), until a
re-partition splits them again. A lone newcomer keeps the full interval,
and no epoch outlasts its interval.

Note on forward secrecy: rotating HKDF outputs from a static root bounds
key exposure windows but is not a ratchet; compromise of the root reveals
all epochs. The scheme matches the declared scope of this transport layer.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand

from .errors import ValidationError
from .partition import CubeId
from .policy import ProtectionPolicy

__all__ = ["RootKey", "KeyEpoch", "KeyRing", "derive_key"]

_INFO_PREFIX = b"privis/cube"


@dataclass(frozen=True)
class RootKey:
    key_material: bytes  # 32 bytes
    session_id: bytes  # 16 bytes

    def __post_init__(self):
        if len(self.key_material) != 32:
            raise ValidationError("root key must be 32 bytes")
        if len(self.session_id) != 16:
            raise ValidationError("session id must be 16 bytes")

    @cached_property
    def _prk(self) -> bytes:
        """HKDF-Extract (RFC 5869 section 2.2): HMAC-SHA-256 keyed by the
        salt, over the root key material."""
        return hmac.digest(self.session_id, self.key_material, "sha256")

    @classmethod
    def generate(cls) -> "RootKey":
        return cls(os.urandom(32), os.urandom(16))

    @classmethod
    def from_hex(cls, key_hex: str, session_id: bytes | None = None) -> "RootKey":
        """Reproducible provisioning: 64 hex chars; session id defaults to
        the first 16 bytes of SHA-256 over the key (stable per root)."""
        try:
            material = bytes.fromhex(key_hex)
        except ValueError:
            raise ValidationError("root key must be 64 hex characters") from None
        if session_id is None:
            session_id = hashlib.sha256(material).digest()[:16]
        return cls(material, session_id)


@dataclass(frozen=True)
class KeyEpoch:
    cube_id: CubeId
    epoch: int
    key: bytes  # 32 bytes
    derived_at_frame: int  # the frame this epoch's key was derived (rotated) at


def derive_key(root: RootKey, cube_id: CubeId, epoch: int) -> bytes:
    """Deterministic 32-byte cube key for one epoch."""
    if epoch < 0:
        raise ValidationError("epoch must be >= 0")
    info = _INFO_PREFIX + struct.pack("<iiiQ", *cube_id, epoch)
    return HKDFExpand(SHA256(), 32, info).derive(root._prk)


@dataclass
class KeyRing:
    """Per-session key table: each cube's current KeyEpoch, whose
    ``derived_at_frame`` is the cube's rotation record, and the frame its
    rotation interval counts from. Single logical writer per cube id;
    readers see the epoch recorded in each sealed header, so there is no
    torn epoch/key pairing."""

    root: RootKey
    _table: dict[CubeId, tuple[KeyEpoch, int]] = field(default_factory=dict)
    # forced derivations so far in frame _forced_frame, per rotation interval
    _forced_frame: int | None = None
    _forced: dict[int, int] = field(default_factory=dict)

    @property
    def session_id(self) -> bytes:
        return self.root.session_id

    def key_for_frame(
        self,
        cube_id: CubeId,
        frame_id: int,
        policy: ProtectionPolicy,
        stable: bool = True,
    ) -> KeyEpoch:
        """Current KeyEpoch for sealing this cube at this frame.

        Rotates (epoch + 1, fresh derivation) when the rotation interval
        elapsed, stability was lost, or the cube is new; reuses otherwise.
        The returned key rotated this frame exactly when its
        ``derived_at_frame`` equals ``frame_id``. Of the forced rotations
        (new cube, lost stability) of one frame that share an interval,
        every second one, in call order, starts an epoch shortened by
        ``interval // 2``.
        """
        interval = policy.key_rotation_interval
        current, start = self._table.get(cube_id, (None, 0))
        if current is not None and stable and frame_id - start < interval:
            return current
        epoch = 0 if current is None else current.epoch + 1
        start = frame_id
        if current is None or not stable:  # forced: count it in this frame's cohorts
            if frame_id != self._forced_frame:
                self._forced_frame, self._forced = frame_id, {}
            n = self._forced.get(interval, 0)
            self._forced[interval] = n + 1
            start -= n % 2 * (interval // 2)
        key = KeyEpoch(cube_id, epoch, derive_key(self.root, cube_id, epoch), frame_id)
        self._table[cube_id] = (key, start)
        return key
