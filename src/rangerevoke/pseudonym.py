"""Pseudonym lifecycle: issuance, capability generation, verification.

A pseudonym is an epoch-bound credential: a key pair derived
deterministically from the client id, plus an endorsement signature from
the issuing manager.  The client id is not yet a secret: it travels in
clear in every ``RequestRrp`` and ``RevocationOrder``, so whoever reads
one can derive the client's keys (ROADMAP item 14).  A capability
instantiates a pseudonym for one time slot; it carries the pseudonym
public key, the endorsement and one latchkey (a deterministic signature
over a tree-node label) for every node on the slot's root-to-leaf path.
A pseudonym keeps the latchkeys of the last capability it built, so the
next one signs only the labels of its path that differ: about two for the
next slot, whatever the tree height.

Determinism is the point: the manager can re-create any pseudonym it ever
issued from (cid, epoch, instance) alone, so it needs no per-pseudonym
storage.  What it keeps to save work (``TrustedCore.firsts``) is public.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import KeyPair, det_keygen, det_sign, seed_from_parts, ver_sign
from .slot_tree import EpochConfig, NodeLabel, path_to_root

CLIENT_ID_LEN = 32


@dataclass(frozen=True)
class Latchkey:
    """A (label, signature) pair binding one pseudonym to one tree node."""

    label: NodeLabel
    sig: bytes


@dataclass(frozen=True)
class Rrp:
    """Range-revocable pseudonym.

    ``cid`` seeds every pseudonym key of its client, and neither it nor
    the private half of ``keypair`` ever appears in a capability.  The
    cid is not yet a secret of the client and the manager: it travels in
    clear in every ``RequestRrp`` and ``RevocationOrder``, so whoever
    reads one can derive the client's keys (ROADMAP item 14).

    ``last_path`` holds the latchkeys of the last capability built from
    this pseudonym, leaf first, so at most one per tree level.  They are
    public (that capability carried them) and follow from the key pair, so
    equality, hashing and repr leave them out, and ``__init__`` does not
    take them: a pseudonym built with ``dataclasses.replace`` starts with
    none and cannot reuse another key's signatures.
    """

    cid: bytes
    epoch_id: int
    instance: int
    keypair: KeyPair
    endorsement: bytes
    last_path: list[Latchkey] = field(default_factory=list, init=False, compare=False,
                                      repr=False)


@dataclass(frozen=True)
class Capability:
    """Slot-bound authentication token.

    ``latchkeys`` runs leaf first, root last; its length is tree height + 1.
    """

    epoch_id: int
    pseudonym_pub: bytes
    endorsement: bytes
    latchkeys: tuple[Latchkey, ...]

    @property
    def slot(self) -> int:
        """Slot index encoded by the leaf latchkey."""
        return self.latchkeys[0].label.index


def endorsement_message(epoch_id: int, public: bytes) -> bytes:
    """The exact bytes the manager signs: epoch_id u64 BE || public key."""
    return epoch_id.to_bytes(8, "big") + public


def pseudonym_seed(cid: bytes, epoch_id: int, instance: int) -> bytes:
    """Seed of pseudonym instance i: digest(cid, epoch, i)."""
    return seed_from_parts(cid, epoch_id, instance)


def pseudonym_keypair(cid: bytes, epoch_id: int, instance: int) -> KeyPair:
    """Key pair of pseudonym instance i: det_keygen of its seed."""
    return det_keygen(pseudonym_seed(cid, epoch_id, instance))


def create_rrp(cid: bytes, epoch_id: int, instance: int, pm_key: KeyPair,
               max_instances: int) -> Rrp:
    """Issue pseudonym instance ``instance`` of a client for an epoch.

    Pure and deterministic: identical inputs reproduce the identical
    pseudonym, endorsement included.
    """
    if not 1 <= instance <= max_instances:
        raise ValueError(f"instance {instance} outside [1, {max_instances}]")
    return endorse(cid, epoch_id, instance, pseudonym_keypair(cid, epoch_id, instance),
                   pm_key)


def endorse(cid: bytes, epoch_id: int, instance: int, keypair: KeyPair,
            pm_key: KeyPair) -> Rrp:
    """Pseudonym instance ``instance`` from its already derived key pair:
    the manager signs the endorsement."""
    if len(cid) != CLIENT_ID_LEN:
        raise ValueError(f"cid must be {CLIENT_ID_LEN} bytes")
    return Rrp(cid, epoch_id, instance, keypair,
               det_sign(pm_key, endorsement_message(epoch_id, keypair.public)))


def get_capability(rrp: Rrp, slot: int, cfg: EpochConfig) -> Capability:
    """Capability of ``rrp`` for one slot; latchkeys are generated on demand.

    Capabilities from the same pseudonym share latchkey bytes near the root
    (they are linkable by design); capabilities from different pseudonyms
    share nothing.  A latchkey whose whole label equals the one at its
    place in ``rrp.last_path`` is reused, and only the others are signed:
    the first capability of a pseudonym signs h + 1 labels, the next slot's
    about two.  Signing is deterministic, so the bytes are those a fresh
    pseudonym would give.  A slot outside the epoch raises and keeps the
    last path.
    """
    if rrp.epoch_id != cfg.epoch_id:
        raise ValueError(
            f"pseudonym epoch {rrp.epoch_id} does not match config epoch {cfg.epoch_id}")
    kept = rrp.last_path[:]     # a snapshot, whatever another caller writes meanwhile
    latchkeys = tuple(
        kept[j] if j < len(kept) and kept[j].label == label
        else Latchkey(label, det_sign(rrp.keypair, label.canonical_bytes))
        for j, label in enumerate(path_to_root(cfg, slot))
    )
    rrp.last_path[:] = latchkeys
    return Capability(rrp.epoch_id, rrp.keypair.public, rrp.endorsement, latchkeys)


def carries_path(cap: Capability, slot: int, geometry: EpochConfig) -> bool:
    """The one label rule, walked up the tree with no path built: ``cap`` has
    h + 1 latchkeys, ``slot`` lies in [0, T) and latchkey j is the ``NodeLabel``
    (cap's epoch, h - j, slot // d**j); T, h and d come from ``geometry``."""
    height, fanout, epoch_id = geometry.height, geometry.fanout, cap.epoch_id
    if not 0 <= slot < geometry.slots or len(cap.latchkeys) != height + 1:
        return False
    for level, lk in zip(range(height, -1, -1), cap.latchkeys):
        label = lk.label
        if type(label) is not NodeLabel or label.index != slot \
                or label.level != level or label.epoch_id != epoch_id:
            return False
        slot //= fanout
    return True


def verify_capability(cap: Capability, pm_public: bytes, expected_slot: int,
                      cfg: EpochConfig) -> bool:
    """Genuineness check; revocation is a separate, later check.

    True iff the endorsement verifies under the manager key, the labels are
    exactly the expected slot's leaf-to-root path, and every latchkey
    verifies under the pseudonym key.  Any failure, malformed input
    included, yields False.  The epoch and the labels are checked first
    (``carries_path``, the manager's rule too), then the signatures: the
    endorsement first and the latchkeys leaf to root, stopping at the first
    that fails.  The latchkey checks are independent and may run in parallel.
    """
    if cap.epoch_id != cfg.epoch_id or not carries_path(cap, expected_slot, cfg):
        return False
    public = cap.pseudonym_pub
    if not ver_sign(pm_public, endorsement_message(cap.epoch_id, public), cap.endorsement):
        return False
    for lk in cap.latchkeys:
        if not ver_sign(public, lk.label.canonical_bytes, lk.sig):
            return False
    return True


def pseudonym_public_keys_of(cid: bytes, epoch_id: int, max_instances: int) -> list[bytes]:
    """Public keys of all pseudonym instances a client can hold in an epoch.

    Lets the manager recognize a presented capability as belonging to a
    known client without storing any per-pseudonym state.
    """
    return [
        pseudonym_keypair(cid, epoch_id, i).public
        for i in range(1, max_instances + 1)
    ]
