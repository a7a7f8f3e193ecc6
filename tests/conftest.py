from dataclasses import replace
from typing import get_args

import pytest

from rangerevoke import codec
from rangerevoke.crypto import det_keygen, det_sign, seed_from_parts
from rangerevoke.ercset import BloomFilter, FilterParams
from rangerevoke.messages import (
    DenialReason,
    EpochReport,
    ErcPullReq,
    ErcPullResp,
    ErcPush,
    Message,
    RequestRrp,
    RevocationOrder,
    RrpResponse,
)
from rangerevoke.pseudonym import create_rrp, get_capability
from rangerevoke.slot_tree import EpochConfig


@pytest.fixture(scope="session")
def pm_key():
    return det_keygen(seed_from_parts(b"test-pm", 0))


@pytest.fixture(scope="session")
def admin_key():
    return det_keygen(seed_from_parts(b"test-admin", 0))


@pytest.fixture(scope="session")
def cid():
    return seed_from_parts(b"test-client", 0)


@pytest.fixture
def fig_cfg():
    """The four-slot worked example: epoch [0, 60), delta 15, binary tree."""
    return EpochConfig(0, 60, 15, 2)


@pytest.fixture
def wire_messages(pm_key, admin_key, cid, fig_cfg):
    """(label, message) pairs as decoded from their wire bytes: one of every
    wire type, and hostile ones (forged, out of range, far epochs), for
    ``fig_cfg`` and the plan of 8192-bit filters with k = 4, which every
    filter is built and decoded with.  A filter of another plan does not
    decode (``test_codec``).  A hostile message's label is the label of its
    well-formed kind plus a suffix (see ``hostile_messages``)."""
    params = FilterParams(8192, 4)

    def filters(epoch):
        return BloomFilter(params, epoch), BloomFilter(params, epoch + 1)

    def gainful(epoch):
        """A filter with one bit pattern that no other sample holds."""
        flt = BloomFilter(params, epoch)
        flt.add(b"hostile")
        return flt

    def order(rts, epoch, sig=None):
        unsigned = RevocationOrder(cid, rts, epoch, b"")
        return replace(unsigned, admin_sig=sig or det_sign(admin_key,
                                                           unsigned.signed_payload()))

    proof = get_capability(create_rrp(cid, 0, 1, pm_key, 8), 0, fig_cfg)
    samples = [
        ("request", RequestRrp(cid, 0, 2)),
        ("request-unknown-client", RequestRrp(bytes(32), 0, 1)),
        ("request-proof-slot-outside-epoch", RequestRrp(cid, 0, 1, proof, 99)),
        ("response", RrpResponse(DenialReason.NONE, 0, ((1, bytes(64)),))),
        ("order", order(1, 0)),
        ("order-forged", order(2, 0, bytes(64))),
        ("order-rts-outside-epoch", order(2**64 - 1, 0)),
        ("push", ErcPush(*filters(0))),
        ("push-far-epoch", ErcPush(gainful(5), gainful(6))),
        ("pull-request", ErcPullReq()),
        ("pull-response", ErcPullResp(*filters(0))),
        ("pull-response-far-epoch", ErcPullResp(*filters(5))),
        ("report", EpochReport(0, *filters(0))),
        ("report-future", EpochReport(7, *filters(7))),
    ]
    assert {type(msg) for _, msg in samples} == set(get_args(Message))
    return [(label, codec.decode_message(codec.encode_message(msg), params))
            for label, msg in samples]


@pytest.fixture
def hostile_messages(wire_messages):
    """The hostile ``wire_messages``: each label extends a well-formed one's."""
    labels = [label for label, _ in wire_messages]
    return [(label, msg) for label, msg in wire_messages
            if any(label.startswith(f"{base}-") for base in labels)]
