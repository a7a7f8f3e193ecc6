"""Wire-visible message types exchanged by managers, verifiers and clients.

These are plain value objects; byte encodings live in ``codec``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .ercset import BloomFilter
from .pseudonym import Capability


class DenialReason(enum.IntEnum):
    NONE = 0
    UNKNOWN_CLIENT = 1
    REVOKED = 2
    BUDGET_EXHAUSTED = 3
    EPOCH_OUT_OF_WINDOW = 4
    BAD_PROOF = 5
    QUARANTINE = 6


@dataclass(frozen=True)
class RevocationOrder:
    """Administrator order: revoke ``cid`` from slot ``rts`` to epoch end."""

    cid: bytes
    rts: int
    epoch_id: int
    admin_sig: bytes

    def signed_payload(self) -> bytes:
        return self.cid + self.rts.to_bytes(8, "big") + self.epoch_id.to_bytes(8, "big")


@dataclass(frozen=True)
class RequestRrp:
    """Ask for ``count`` pseudonyms, 1..255 (one byte on the wire; a
    request for none would cost the manager keys and signatures)."""

    cid: bytes
    epoch_id: int
    count: int
    proof: Capability | None = None
    proof_slot: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.count <= 255:
            raise ValueError(f"count must be in 1..255, got {self.count}")
        if (self.proof is None) != (self.proof_slot is None):
            raise ValueError("a proof needs its slot and a slot its proof")


@dataclass(frozen=True)
class RrpResponse:
    reason: DenialReason
    epoch_id: int
    endorsements: tuple[tuple[int, bytes], ...] = ()  # (instance, signature)

    def __post_init__(self) -> None:
        if self.endorsements and not self.granted:
            raise ValueError("a denied response carries no endorsements")

    @property
    def granted(self) -> bool:
        return self.reason is DenialReason.NONE


@dataclass(frozen=True)
class ErcPush:
    current: BloomFilter
    next: BloomFilter


@dataclass(frozen=True)
class ErcPullReq:
    """Ask for both live filters; the responder picks the epochs."""


@dataclass(frozen=True)
class ErcPullResp:
    current: BloomFilter
    next: BloomFilter


@dataclass(frozen=True)
class EpochReport:
    """Transition broadcast: a manager's filters for the epoch just ended
    and its successor."""

    from_epoch: int
    current: BloomFilter
    next: BloomFilter


Message = (RequestRrp | RrpResponse | RevocationOrder | ErcPush
           | ErcPullReq | ErcPullResp | EpochReport)


@dataclass
class Outgoing:
    """A message a node answers with, and the node it is for."""

    dst: str
    msg: Message
