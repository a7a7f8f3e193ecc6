"""Range-revocable pseudonyms and the distributed access-control stack
built on them: slot-tree latchkeys, Bloom-filter revocation sets,
replicated pseudonym managers with gossip dissemination, verifiers, and a
deterministic discrete-event simulator.
"""
