"""Range-revocable pseudonyms and the distributed access-control stack
built on them: slot-tree latchkeys, Bloom-filter revocation sets,
replicated pseudonym managers with gossip dissemination, verifiers, and a
deterministic discrete-event simulator.
"""

from .crypto import KeyPair, det_keygen, det_sign, digest, ver_sign
from .ercset import (
    BloomFilter,
    ErcSet,
    FilterParams,
    create_ercset,
    is_revoked,
    merge_ercset,
)
from .pseudonym import (
    Capability,
    Latchkey,
    Rrp,
    create_rrp,
    get_capability,
    pseudonym_public_keys_of,
    verify_capability,
)
from .slot_tree import EpochConfig, NodeLabel, SlotRange, path_to_root, safe_cover

__all__ = [
    "BloomFilter", "Capability", "EpochConfig", "ErcSet", "FilterParams",
    "KeyPair", "Latchkey", "NodeLabel", "Rrp", "SlotRange",
    "create_ercset", "create_rrp", "det_keygen", "det_sign", "digest",
    "get_capability", "is_revoked", "merge_ercset", "path_to_root",
    "pseudonym_public_keys_of", "safe_cover", "ver_sign", "verify_capability",
]

__version__ = "0.1.0"
