"""Deterministic discrete-event simulation of the whole system.

One seeded event loop drives manager nodes, verifiers, clients and the
administrator under partial synchrony: bounded message delay in stable
windows, arbitrary delay in unstable ones, and scripted crash windows of
managers.  Every run uses one binary slot tree, ``FILTER`` and
``INSTANCES``, and every node reads one clock, ``Simulation.now``.
Identical (config, seed) pairs reproduce byte-identical reports.  The
loop carries bytes, keeps time and applies crashes by three event kinds:
``action``, ``deliver`` and one periodic ``tick`` per node.  A node's rules
are its own, behind two entry points, ``deliver`` and ``on_tick``; a node
down runs neither, so a crash ends at the node's first tick after it.

Time is integer microseconds.  Messages travel as wire bytes, encoded
once per message object per run and decoded under ``FILTER`` on
delivery, after the receiver's crash check.  A run keeps each object it
sent with its bytes, so an object sent again (an unchanged pull
response, the pull request, a resent order) is not encoded again; no
node writes into a message or filter it sent.  A run decodes each
distinct byte string once:
later deliveries of equal bytes get the same message object, so
receivers share immutable decoded messages (no handler writes a decoded
filter), and none gets the sender's own object.  Every run exercises the
codec end to end, and a message lost to a crash or the horizon is never
decoded.

A run keeps every capability its clients presented
(``Simulation.presented``) for the checks in ``scenario`` to read.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from dataclasses import dataclass, field, replace

from . import codec
from .crypto import det_keygen, det_sign, seed_from_parts
from .ercset import BloomFilter, FilterParams
from .manager import PmNode, TrustedCore
from .messages import Message, Outgoing, RequestRrp, RevocationOrder, RrpResponse
from .pseudonym import Capability, Rrp, get_capability, pseudonym_keypair
from .slot_tree import EpochConfig
from .verifier import VerifierNode

MICRO = 1_000_000
REQUIRED = "required"     # an ACTION_ARGS default: the argument must be given
EVENT_BUDGET = 200_000    # a run past this many events has a divergent schedule
DECODED_LIMIT = 1_024     # messages a run keeps decoded, and sent objects it keeps
                          # encoded; each cache is cleared when full
FILTER = FilterParams(8192, 4)  # every manager's filter (m, k)
INSTANCES = 8                   # I: pseudonyms per client and epoch


@dataclass(frozen=True)
class Window:
    start: int
    end: int

    def __contains__(self, t: int) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class CrashWindow:
    """Manager ``node`` is down over [start, end); ``Simulation`` refuses
    a window on any other node."""

    node: str
    start: int
    end: int


@dataclass(frozen=True)
class Action:
    """Scripted workload step; ``kind`` and ``args`` follow
    ``Simulation.ACTION_ARGS``."""

    at: int
    kind: str
    args: dict = field(default_factory=dict)


@dataclass
class SimConfig:
    seed: int = 0
    n_pms: int = 4
    fault_bound: int = 1
    n_verifiers: int = 1
    n_clients: int = 1
    epoch_len: int = 60 * MICRO
    delta: int = 15 * MICRO
    delta_net: int = 100_000          # max delay in stable windows
    unstable: tuple[Window, ...] = ()
    crashes: tuple[CrashWindow, ...] = ()
    script: tuple[Action, ...] = ()
    horizon: int = 2 * 60 * MICRO
    gossip_timeout: int = 5 * MICRO
    pull_period: int = 5 * MICRO

    def geometry(self) -> EpochConfig:
        return EpochConfig(0, self.epoch_len, self.delta)

    def pm_ids(self) -> list[str]:
        return [f"pm{i}" for i in range(self.n_pms)]

    def verifier_ids(self) -> list[str]:
        return [f"v{i}" for i in range(self.n_verifiers)]


@dataclass(frozen=True)
class IssuanceRecord:
    at: int
    pm: str
    client: int
    epoch_id: int
    granted: bool
    reason: str
    count: int


@dataclass(frozen=True)
class AuthRecord:
    at: int
    verifier: str
    client: int
    slot: int
    epoch_id: int
    decision: str
    pseudonym_pub: bytes


@dataclass
class SimReport:
    """Everything observable after a run, in deterministic order."""

    seed: int
    horizon: int
    events_processed: int
    pm_state: list[tuple[str, int, str, str, str]]  # id, epoch, mode, cur, next
    verifier_state: list[tuple[str, str, str]]      # id, mode, filter digest
    issuance: list[IssuanceRecord]
    auths: list[AuthRecord]
    revocations: list[tuple[int, int, int]]         # at, client, rts
    revocation_latency: list[tuple[int, int]]       # client, latency (µs, -1 if never denied)
    messages: dict[str, int]

    def as_text(self) -> str:
        lines = [f"seed={self.seed} horizon={self.horizon} events={self.events_processed}"]
        lines.append("[managers]")
        for node, epoch, mode, cur, nxt in self.pm_state:
            lines.append(f"{node}\tepoch={epoch}\tmode={mode}\tcurrent={cur}\tnext={nxt}")
        lines.append("[verifiers]")
        for node, mode, digest_hex in self.verifier_state:
            lines.append(f"{node}\tmode={mode}\tfilter={digest_hex}")
        lines.append("[issuance]")
        for r in self.issuance:
            lines.append(f"{r.at}\t{r.pm}\tclient{r.client}\tepoch={r.epoch_id}\t"
                         f"granted={int(r.granted)}\treason={r.reason}\tcount={r.count}")
        lines.append("[authentications]")
        for a in self.auths:
            lines.append(f"{a.at}\t{a.verifier}\tclient{a.client}\tslot={a.slot}\t"
                         f"epoch={a.epoch_id}\t{a.decision}\t{a.pseudonym_pub.hex()}")
        lines.append("[revocations]")
        for at, client, rts in self.revocations:
            lines.append(f"{at}\tclient{client}\trts={rts}")
        lines.append("[revocation-latency]")
        for client, latency in self.revocation_latency:
            lines.append(f"client{client}\t{latency}")
        lines.append("[messages]")
        for key in sorted(self.messages):
            lines.append(f"{key}\t{self.messages[key]}")
        return "\n".join(lines) + "\n"

    def auth_csv(self) -> str:
        rows = ["at,verifier,client,slot,epoch,decision"]
        rows += [f"{a.at},{a.verifier},{a.client},{a.slot},{a.epoch_id},{a.decision}"
                 for a in self.auths]
        return "\n".join(rows) + "\n"


def _filter_digest(flt: BloomFilter | None) -> str:
    if flt is None:
        return "-"
    return hashlib.sha256(flt.bits).hexdigest()[:16]


class _Client:
    """Client-side state: secret id and, per epoch, the endorsements not shown yet."""

    def __init__(self, index: int, cid: bytes):
        self.index = index
        self.cid = cid
        self.unused: dict[int, list[tuple[int, bytes]]] = {}
        self.last_proof: tuple[Capability, int] | None = None

    def take(self, epoch_id: int) -> Rrp | None:
        """The next unused pseudonym, its key derived now and its endorsement as sent."""
        pool = self.unused.get(epoch_id)
        if not pool:
            return None
        instance, endorsement = pool.pop(0)
        return Rrp(self.cid, epoch_id, instance,
                   pseudonym_keypair(self.cid, epoch_id, instance), endorsement)


class Simulation:
    """One deterministic run; build, then call ``run()``."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.now = 0
        self._seq = itertools.count()
        self._queue: list = []
        self.events_processed = 0
        self.messages: dict[str, int] = {}
        self._decoded: dict[bytes, Message] = {}   # wire bytes -> their message
        self._encoded: dict[int, tuple[Message, bytes]] = {}  # id(sent) -> it, its bytes

        geometry = cfg.geometry()
        self.geometry = geometry

        self.admin_key = det_keygen(seed_from_parts(b"admin", cfg.seed))
        self.pm_key = det_keygen(seed_from_parts(b"manager", cfg.seed))

        pm_ids = cfg.pm_ids()
        self.pms: dict[str, PmNode] = {}
        for node_id in pm_ids:
            core = TrustedCore(self.pm_key, self.admin_key.public, geometry, FILTER, INSTANCES,
                               [p for p in pm_ids if p != node_id], cfg.fault_bound)
            self.pms[node_id] = PmNode(node_id, core, random.Random(self.rng.getrandbits(64)),
                                       cfg.gossip_timeout)

        self.verifiers: dict[str, VerifierNode] = {}
        for node_id in cfg.verifier_ids():
            self.verifiers[node_id] = VerifierNode(
                node_id, self.pm_key.public, geometry, pm_ids,
                random.Random(self.rng.getrandbits(64)),
                pull_period=cfg.pull_period)

        self.clients = [
            _Client(i, seed_from_parts(b"client", cfg.seed, i))
            for i in range(cfg.n_clients)
        ]
        for client in self.clients:
            for pm in self.pms.values():
                pm.core.register(client.cid)
        self._nodes: dict[str, PmNode | VerifierNode] = {**self.pms, **self.verifiers}
        self._crash_windows: dict[str, list[tuple[int, int]]] = {}
        for crash in cfg.crashes:
            if crash.node not in self.pms:
                raise ValueError(f"no manager {crash.node!r}")
            self._crash_windows.setdefault(crash.node, []).append((crash.start, crash.end))

        self.issuance: list[IssuanceRecord] = []
        self.auths: list[AuthRecord] = []
        self.revocations: list[tuple[int, int, int]] = []
        self.presented: list[tuple[int, Capability]] = []  # (client, capability)

        for action in cfg.script:
            self._schedule(action.at, ("action", action))
        for pm_id in self.pms:
            self._schedule(cfg.gossip_timeout, ("tick", pm_id, cfg.gossip_timeout))
        for v_id in self.verifiers:
            self._schedule(1, ("tick", v_id, cfg.pull_period))

    # -- plumbing ---------------------------------------------------------

    def _schedule(self, at: int, item) -> None:
        heapq.heappush(self._queue, (at, next(self._seq), item))

    def _crashed(self, node: str, t: int) -> bool:
        windows = self._crash_windows.get(node)
        return windows is not None and any(start <= t < end for start, end in windows)

    def _delay(self) -> int:
        rng, delta_net, windows = self.rng, self.cfg.delta_net, self.cfg.unstable
        if not windows:
            return 1 + rng.randrange(delta_net)     # randint(1, delta_net)'s one draw
        deliver_at = self.now + rng.randint(1, delta_net)
        for w in windows:
            if deliver_at in w or self.now in w:
                # unstable window: hold the message until stability returns
                deliver_at = w.end + rng.randint(1, delta_net)
        # a hold can end inside another window: hold on until none holds it
        while held := [w for w in windows if deliver_at in w]:
            deliver_at = held[0].end + rng.randint(1, delta_net)
        return deliver_at - self.now

    def _emit(self, src: str, outgoing: list[Outgoing]) -> None:
        """Schedule each delivery of ``src``, which is up, with its wire
        bytes: those kept for the object if the run sent it before.  An
        entry holds its object, so no other object can take its id."""
        now = self.now
        if not outgoing:
            return
        messages, delay, queue, seq = self.messages, self._delay, self._queue, self._seq
        encoded = self._encoded
        for out in outgoing:
            msg = out.msg
            name = type(msg).__name__
            messages[name] = messages.get(name, 0) + 1
            kept = encoded.get(id(msg))
            if kept is not None:
                data = kept[1]
            else:
                data = codec.encode_message(msg)
                if len(encoded) < DECODED_LIMIT:
                    encoded[id(msg)] = (msg, data)
                else:
                    encoded.clear()
            heapq.heappush(queue, (now + delay(), next(seq), ("deliver", src, out.dst, data)))

    def local_time(self, node: str) -> int:
        """Every node's clock: ``now``.  Kept for perfbench/workloads.py."""
        return self.now

    # -- event handlers ---------------------------------------------------

    def run(self) -> SimReport:
        queue, horizon = self._queue, self.cfg.horizon
        handlers = {}           # event kind -> its bound ``_on_<kind>`` method
        while queue:
            at, _, item = heapq.heappop(queue)
            if at > horizon:
                break
            self.now = at
            self.events_processed += 1
            if self.events_processed > EVENT_BUDGET:
                raise ValueError(f"event budget of {EVENT_BUDGET} events exceeded at "
                                 f"t={at / MICRO:g} s, before the [sim] horizon of "
                                 f"{horizon / MICRO:g} s")
            handler = handlers.get(item[0])
            if handler is None:
                handler = handlers[item[0]] = getattr(self, f"_on_{item[0]}")
            handler(*item[1:])
        return self._report()

    def _on_deliver(self, src: str, dst: str, data: bytes) -> None:
        if dst in self._crash_windows and self._crashed(dst, self.now):
            return
        decoded = self._decoded
        msg = decoded.get(data)
        if msg is None:
            msg = codec.decode_message(data, FILTER)
            if len(decoded) < DECODED_LIMIT:
                decoded[data] = msg
            else:
                decoded.clear()
        node = self._nodes.get(dst)
        if node is None:
            client = self.clients[int(dst.removeprefix("client"))]
            if isinstance(msg, RrpResponse) and msg.granted:
                client.unused.setdefault(msg.epoch_id, []).extend(msg.endorsements)
            return
        outgoing = node.deliver(src, msg, self.now)
        if isinstance(msg, RequestRrp) and dst in self.pms:
            resp = outgoing[0].msg
            self.issuance.append(IssuanceRecord(
                self.now, dst, int(src.removeprefix("client")), msg.epoch_id,
                resp.granted, "-" if resp.granted else resp.reason.name.lower(),
                len(resp.endorsements)))
        self._emit(dst, outgoing)

    def _on_tick(self, node_id: str, period: int) -> None:
        """Run a node's ``on_tick`` unless it is down."""
        now = self.now
        self._schedule(now + period, ("tick", node_id, period))
        if not self._crashed(node_id, now):
            self._emit(node_id, self._nodes[node_id].on_tick(now))

    # -- scripted workload ------------------------------------------------

    # Action kind -> every argument ``_on_action`` reads: (role, default).
    # Roles: "client" a client index, "manager" or "verifier" an existing
    # node id, "count" a batch of 1..255 pseudonyms, "epoch" an epoch id,
    # "slot" a slot of the epoch.  An argument with default REQUIRED must
    # be given; a default of None is none known before the run:
    # ``_on_action`` works it out when the action runs (the current epoch
    # or slot, a random manager).
    ACTION_ARGS = {
        "request": {"client": ("client", REQUIRED), "count": ("count", 4),
                    "epoch": ("epoch", None), "pm": ("manager", None)},
        "authenticate": {"client": ("client", REQUIRED),
                         "verifier": ("verifier", "v0")},
        "revoke": {"client": ("client", REQUIRED), "rts": ("slot", None),
                   "pm": ("manager", "pm0")},
    }

    def _arg(self, action: Action, name: str):
        """``action``'s argument ``name``, or its default in ACTION_ARGS."""
        return action.args.get(name, self.ACTION_ARGS[action.kind][name][1])

    def _on_action(self, action: Action) -> None:
        args = action.args
        epoch_id, slot = self.geometry.epoch_and_slot(self.now)
        if action.kind == "request":
            client = self.clients[args["client"]]
            epoch_id = args.get("epoch", epoch_id)
            proof, proof_slot = client.last_proof or (None, None)
            req = RequestRrp(client.cid, epoch_id, self._arg(action, "count"),
                             proof, proof_slot)
            pm = args.get("pm") or self.rng.choice(sorted(self.pms))
            self._emit(f"client{client.index}", [Outgoing(pm, req)])
        elif action.kind == "authenticate":
            client = self.clients[args["client"]]
            v_id = self._arg(action, "verifier")
            v = self.verifiers[v_id]
            rrp = client.take(epoch_id)
            if rrp is None:
                return
            cap = get_capability(rrp, slot, self.geometry.with_epoch(epoch_id))
            client.last_proof = (cap, slot)
            decision = v.authenticate(cap, self.now)
            self.presented.append((client.index, cap))
            self.auths.append(AuthRecord(self.now, v_id, client.index, slot,
                                         epoch_id, decision.value,
                                         cap.pseudonym_pub))
        elif action.kind == "revoke":
            client = self.clients[args["client"]]
            rts = args.get("rts", slot)
            order = RevocationOrder(client.cid, rts, epoch_id, b"")
            order = replace(order, admin_sig=det_sign(self.admin_key,
                                                      order.signed_payload()))
            self.revocations.append((self.now, client.index, rts))
            # to pm= and the next f managers in id order, so that one correct
            # manager gets the order whichever f are down
            ids = self.cfg.pm_ids()
            first = ids.index(self._arg(action, "pm"))
            self._emit("admin", [Outgoing(ids[(first + j) % len(ids)], order)
                                 for j in range(self.cfg.fault_bound + 1)])
        else:
            raise ValueError(f"unknown action kind {action.kind!r}")

    # -- reporting --------------------------------------------------------

    def correct_pms(self) -> list[str]:
        crashed_ever = {c.node for c in self.cfg.crashes if c.end > self.cfg.horizon}
        return [p for p in sorted(self.pms) if p not in crashed_ever]

    def _report(self) -> SimReport:
        pm_state = [(node_id, pm.core.epoch_now,
                     "quarantine" if pm.core.quarantined else "serving",
                     _filter_digest(pm.core.erc_current), _filter_digest(pm.core.erc_next))
                    for node_id, pm in sorted(self.pms.items())]
        verifier_state = [(v_id, "safe" if v.is_stale(self.now) else "serving",
                           _filter_digest(v.erc_local))
                          for v_id, v in sorted(self.verifiers.items())]
        latency = []
        for at, client_idx, _rts in self.revocations:
            denied = [a.at for a in self.auths
                      if a.client == client_idx and a.decision == "revoked"
                      and a.at >= at]
            latency.append((client_idx, min(denied) - at if denied else -1))
        return SimReport(
            seed=self.cfg.seed, horizon=self.cfg.horizon,
            events_processed=self.events_processed,
            pm_state=pm_state, verifier_state=verifier_state,
            issuance=self.issuance, auths=self.auths,
            revocations=self.revocations, revocation_latency=latency,
            messages=self.messages,
        )
