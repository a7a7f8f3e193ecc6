"""Seeded workloads of the rangerevoke benchmark, each with its own oracle.

A workload object does its whole set-up in ``__init__``: it generates the
inputs from the seed and builds the program state the timed operations
run against.  It calls ``tick()`` between set-up steps, where the
benchmark samples the host's speed.  The benchmark then drives it as a closed loop with one
caller, one pass at a time::

    wl.start_pass()
    for i in range(wl.n_ops):
        outcome = wl.op(i)             # the timed call into the program
        failed += wl.check(i, outcome)  # the oracle, outside the timing

Expectations come from what the generator itself decided (which clients
it revoked and from which slot, which bits it flipped, how many
pseudonyms it asked for), never from the program's own answers.
"""

from __future__ import annotations

import copy
import hashlib
import random
import statistics
from collections import Counter

from rangerevoke import codec, sizing
from rangerevoke.cli import SCENARIO_DIR, parse_scenario, run_checks
from rangerevoke.crypto import det_keygen, det_sign, seed_from_parts, ver_sign
from rangerevoke.ercset import FilterParams
from rangerevoke.manager import IssuanceDenied, TrustedCore
from rangerevoke.messages import DenialReason, ErcPullResp, RequestRrp, RevocationOrder
from rangerevoke.pseudonym import (
    Capability,
    Latchkey,
    create_rrp,
    endorsement_message,
    get_capability,
)
from rangerevoke.simnet import MICRO, Action, AuthRecord, CrashWindow, SimConfig, Simulation
from rangerevoke.slot_tree import EpochConfig
from rangerevoke.verifier import Decision, VerifierNode

INSTANCES = 10                   # the paper's I: pseudonyms per client and epoch
TARGET_FP = 0.001                # `rangerevoke size` default target
VERIFY_POOL = 300                # capabilities presented in one verify pass
MANAGE_REVOCATIONS = 30          # revocation orders in one manage pass
GOSSIP_DELAY_SEEDS = 2           # delay seeds per crash-grid cell

GRANTED, REVOKED, NOT_GENUINE = "granted", "revoked", "not-genuine"


def planned_filter(delta: int) -> sizing.SizingResult:
    """The `rangerevoke size` defaults for a one-day epoch at this slot length."""
    return sizing.plan_filter(sizing.DeploymentParams(
        clients=250_000_000, pseudonyms=INSTANCES, revoked_fraction=1e-4 / 365,
        fanout=2, epoch_len=86_400, delta=delta), TARGET_FP)


def cover_size(first: int, last: int, cfg: EpochConfig) -> int:
    """Labels in the minimal binary-tree cover of slots [first, last].

    Counted top-down, independently of ``slot_tree.safe_cover``: a node is
    in the cover when all its real leaves lie in the range and its
    parent's do not.
    """
    def walk(level: int, index: int) -> int:
        width = 2 ** (cfg.height - level)
        lo, hi = index * width, min(index * width + width - 1, cfg.slots - 1)
        if lo > hi or hi < first or lo > last:
            return 0
        if first <= lo and hi <= last:
            return 1
        return walk(level + 1, 2 * index) + walk(level + 1, 2 * index + 1)
    return walk(0, 0)


def signed_order(admin, cid: bytes, rts: int, epoch_id: int = 0) -> RevocationOrder:
    payload = cid + rts.to_bytes(8, "big") + epoch_id.to_bytes(8, "big")
    return RevocationOrder(cid, rts, epoch_id, det_sign(admin, payload))


def filter_metrics(flt, entries: int, probes: int, fp: int, eligible: int) -> dict:
    """Fill of a filter, and the false-positive share seen next to the
    plan's per-capability rate at the entries actually inserted."""
    x = sizing.false_positive_rate(flt.m, flt.k, entries)
    return {"ercset.fill_ratio": sum(bin(b).count("1") for b in flt.bits) / flt.m,
            "ercset.fp_share": fp / max(1, eligible),
            "ercset.fp_share_plan": sizing.capability_false_positive(x, probes)}


class _Digest:
    """Running SHA-256 over the generated inputs, for determinism checks."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            self._h.update(part if isinstance(part, bytes) else repr(part).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class _Keys:
    def __init__(self, name: str, seed: int):
        self.pm = det_keygen(seed_from_parts(b"perfbench-pm-" + name.encode(), seed))
        self.admin = det_keygen(seed_from_parts(b"perfbench-admin-" + name.encode(), seed))

    @staticmethod
    def cid(name: str, seed: int, j: int) -> bytes:
        return seed_from_parts(b"perfbench-client-" + name.encode(), seed, j)


# -- verify -------------------------------------------------------------------

class Verify:
    """Decode and authenticate capabilities at one verifier.

    One-day epoch of 60 s slots (T = 1,440, h = 11).  The filter is the
    size planner's at that slot length, filled to its planned load by
    real revocation orders and handed to the verifier as a pull response.
    Each pseudonym shows a run of consecutive slots, so its latchkeys near
    the root repeat from one capability to the next.

    The shares of ``SHARES`` are chosen so that every decision the oracle
    checks occurs often in a pass; they are not a deployment's traffic, in
    which revoked clients are a few in ten million.
    """

    name = "verify"
    geometry = EpochConfig(0, 86_400, 60)
    SHARES = {"honest": 0.7, "pre_rts": 0.1, REVOKED: 0.1, NOT_GENUINE: 0.1}

    def __init__(self, seed: int, tick=lambda: None):
        rng = random.Random(f"verify/{seed}")
        cfg, slots = self.geometry, self.geometry.slots
        self.digest = _Digest()
        keys = _Keys(self.name, seed)
        self.plan = planned_filter(cfg.delta)
        core = TrustedCore(keys.pm, keys.admin.public, cfg,
                           FilterParams(self.plan.m, self.plan.k), INSTANCES)
        self.rts: dict[bytes, int] = {}
        self.entries = 0
        while self.entries < self.plan.n:
            cid = _Keys.cid("verify-revoked", seed, len(self.rts))
            rts = rng.randrange(slots)
            core.revoke(signed_order(keys.admin, cid, rts))
            self.rts[cid] = rts
            self.entries += INSTANCES * cover_size(rts, slots - 1, cfg)
            self.digest.add(cid, rts)
            tick()
        self.base = VerifierNode("v0", keys.pm.public, cfg, ["pm0"], random.Random(seed))
        if not self.base.handle_pull_response(
                ErcPullResp(core.erc_current, core.erc_next), 0):
            raise RuntimeError("verifier refused the filter hand-over")

        quota = {kind: round(share * VERIFY_POOL) for kind, share in self.SHARES.items()}
        revoked = list(self.rts)
        honest: list[Capability] = []
        stream: list[tuple[Capability, int, str]] = []

        def show_run(cid: bytes, lo: int, hi: int, kind: str) -> None:
            length = min(rng.randint(8, 24), quota[kind], hi - lo + 1)
            start = rng.randint(lo, hi - length + 1)
            rrp = create_rrp(cid, 0, rng.randint(1, INSTANCES), keys.pm, INSTANCES)
            for slot in range(start, start + length):
                cap = get_capability(rrp, slot, cfg)
                stream.append((cap, slot, REVOKED if kind == REVOKED else GRANTED))
                if kind == "honest":
                    honest.append(cap)
            quota[kind] -= length
            tick()

        j = 0
        while quota["honest"] > 0:
            show_run(_Keys.cid("verify-honest", seed, j), 0, slots - 1, "honest")
            j += 1
        while quota["pre_rts"] > 0:
            cid = rng.choice(revoked)
            if self.rts[cid] > 0:
                show_run(cid, 0, self.rts[cid] - 1, "pre_rts")
        while quota[REVOKED] > 0:
            cid = rng.choice(revoked)
            show_run(cid, self.rts[cid], slots - 1, REVOKED)
        for cap in rng.sample(honest, quota[NOT_GENUINE]):
            stream.append((_flip_bit(cap, rng), cap.slot, NOT_GENUINE))

        rng.shuffle(stream)
        self.blobs = [codec.encode_capability(cap) for cap, _, _ in stream]
        self.now = [slot * cfg.delta + rng.randrange(cfg.delta) for _, slot, _ in stream]
        self.expected = [kind for _, _, kind in stream]
        for blob, now, kind in zip(self.blobs, self.now, self.expected):
            self.digest.add(blob, now, kind)
        self.start_pass()

    @property
    def n_ops(self) -> int:
        return len(self.blobs)

    def kind(self, i: int) -> str:
        return "auth"

    def start_pass(self) -> None:
        self.verifier = copy.deepcopy(self.base)
        self.false_positives = self.granted_expected = 0

    def op(self, i: int) -> Decision:
        cap = codec.decode_capability(self.blobs[i])
        return self.verifier.authenticate(cap, self.now[i])

    def check(self, i: int, decision: Decision) -> bool:
        """True when the decision breaks the oracle.

        An expected grant that comes back REVOKED is a Bloom false
        positive, counted apart; every other mismatch is a failure.
        """
        expected = self.expected[i]
        if expected == GRANTED:
            self.granted_expected += 1
            if decision is Decision.REVOKED:
                self.false_positives += 1
                return False
        return decision.value != expected

    def layer_metrics(self) -> dict[str, float]:
        return filter_metrics(self.verifier.erc_local.filter, self.entries,
                              self.geometry.height + 1, self.false_positives,
                              self.granted_expected)


def _flip_bit(cap: Capability, rng: random.Random) -> Capability:
    latchkeys = list(cap.latchkeys)
    at = rng.randrange(len(latchkeys))
    bit = rng.randrange(8 * len(latchkeys[at].sig))
    sig = bytearray(latchkeys[at].sig)
    sig[bit // 8] ^= 1 << (bit % 8)
    latchkeys[at] = Latchkey(latchkeys[at].label, bytes(sig))
    return Capability(cap.epoch_id, cap.pseudonym_pub, cap.endorsement, tuple(latchkeys))


# -- manage -------------------------------------------------------------------

class Manage:
    """Issuance requests mixed with revocation orders at one manager core.

    One-day epoch of 600 s slots (T = 144, h = 8), the size planner's
    filter for it and I = 10.  Every client is registered and holds its
    first pseudonym after set-up.  The 30 orders of a pass, at rts spread
    evenly over the epoch, fill the current-epoch filter to about a
    quarter of its planned load.  Each pass replays the stream on a fresh
    copy of the set-up core.

    The mix (one order per four requests, one requester in five spending
    its budget) is chosen so that every result the ledger predicts occurs
    often in a pass; a deployment sees about one order per tens of
    millions of requests.
    """

    name = "manage"
    geometry = EpochConfig(0, 86_400, 600)

    def __init__(self, seed: int, tick=lambda: None):
        rng = random.Random(f"manage/{seed}")
        cfg, slots = self.geometry, self.geometry.slots
        self.digest = _Digest()
        keys = self.keys = _Keys(self.name, seed)
        self.plan = planned_filter(cfg.delta)
        core = TrustedCore(keys.pm, keys.admin.public, cfg,
                           FilterParams(self.plan.m, self.plan.k), INSTANCES)

        self._next_client = 0

        def new_client() -> bytes:
            cid = _Keys.cid(self.name, seed, self._next_client)
            self._next_client += 1
            core.register(cid)
            core.issue(RequestRrp(cid, 0, 1))
            tick()
            return cid

        def request(cid: bytes, instance: int, count: int, epoch_id: int) -> RequestRrp:
            rrp = create_rrp(cid, 0, instance, keys.pm, INSTANCES)
            slot = rng.randrange(slots)
            return RequestRrp(cid, epoch_id, count, get_capability(rrp, slot, cfg), slot)

        # The mix is fixed and only identities, slots and order come from the
        # seed, so every seed does the same kinds of work in the same shares.
        # (sort key, op): an op that depends on an earlier one gets a later key.
        ops: list[tuple[float, object]] = []
        self.entries = 0
        for j in range(MANAGE_REVOCATIONS):
            cid, at = new_client(), rng.random()
            rts = int((j + rng.random()) * slots / MANAGE_REVOCATIONS)   # stratified
            ops.append((at, signed_order(keys.admin, cid, rts)))
            self.entries += INSTANCES * cover_size(rts, slots - 1, cfg)
            if j % 2:                   # every second revoked client asks again
                ops.append((rng.uniform(at, 1.0), request(cid, 1, 1, 0)))
        for j in range(3 * MANAGE_REVOCATIONS):
            cid, at = new_client(), rng.random()
            if j % 5 == 0:              # spends its budget, then asks again
                ops.append((at, request(cid, 1, 6, 0)))
                ops.append((rng.uniform(at, 1.0), request(cid, 2, 4 + j % 3, 0)))
            else:                       # 1 to 4 pseudonyms of epoch 0 or 1
                ops.append((at, request(cid, 1, 1 + j % 4, j // 4 % 2)))
        ops.sort(key=lambda pair: pair[0])
        self.base = core
        self.stream = [op for _, op in ops]
        for op in self.stream:
            if isinstance(op, RevocationOrder):
                self.digest.add("revoke", op.cid, op.rts)
            else:
                self.digest.add("issue", op.cid, op.epoch_id, op.count, op.proof_slot,
                                op.proof.pseudonym_pub)
        self.core = core
        self.start_pass()

    @property
    def n_ops(self) -> int:
        return len(self.stream)

    def kind(self, i: int) -> str:
        return "revoke" if isinstance(self.stream[i], RevocationOrder) else "issue"

    def start_pass(self) -> None:
        self.core = copy.deepcopy(self.base)
        self.revoked: set[bytes] = set()
        self.issued: dict[tuple[bytes, int], int] = {}
        self.false_positives = self.eligible = 0

    def op(self, i: int):
        item = self.stream[i]
        if isinstance(item, RevocationOrder):
            return self.core.revoke(item)
        try:
            return self.core.issue(item)
        except IssuanceDenied as denied:
            return denied.reason

    def check(self, i: int, outcome) -> bool:
        """Compare with the ledger, then advance the ledger."""
        item = self.stream[i]
        if isinstance(item, RevocationOrder):
            self.revoked.add(item.cid)
            return outcome is not None
        key = (item.cid, item.epoch_id)
        held = self.issued.get(key, 1 if item.epoch_id == 0 else 0)
        if item.cid in self.revoked:
            return outcome is not DenialReason.REVOKED
        self.eligible += 1
        if outcome is DenialReason.REVOKED:
            self.false_positives += 1          # Bloom false positive
            return False
        if held + item.count > INSTANCES:
            return outcome is not DenialReason.BUDGET_EXHAUSTED
        if not isinstance(outcome, list):
            return True
        self.issued[key] = held + item.count
        want = list(range(held + 1, held + item.count + 1))
        return [r.instance for r in outcome] != want or not all(
            r.cid == item.cid and r.epoch_id == item.epoch_id and ver_sign(
                self.keys.pm.public,
                endorsement_message(r.epoch_id, r.keypair.public), r.endorsement)
            for r in outcome)

    def layer_metrics(self) -> dict[str, float]:
        return filter_metrics(self.core.erc_current.filter, self.entries,
                              self.geometry.height + 1, self.false_positives,
                              self.eligible)


# -- gossip -------------------------------------------------------------------

GRID_HORIZONS = ((100, 1), (150, 2))   # horizon s, final epoch
GRID_SIZES = (3, 4, 5)
SCENARIOS = ("linkage", "quarantine", "safemode")


class ProbingSimulation(Simulation):
    """Adds one scripted action, ``probe``: client 0 shows v0 its capability
    for the current slot (a fresh pseudonym only when the slot changed),
    and probes again a simulated second later until v0 denies it."""

    def _on_action(self, action: Action) -> None:
        if action.kind != "probe":
            super()._on_action(action)
            return
        client = self.clients[0]
        epoch_id = self.now // self.cfg.epoch_len
        slot = (self.now % self.cfg.epoch_len) // self.cfg.delta
        cap, cap_slot = client.last_proof or (None, None)
        if cap is None or cap.epoch_id != epoch_id or cap_slot != slot:
            rrp = client.take(epoch_id)
            if rrp is None:
                return
            cap = get_capability(rrp, slot, self.geometry.with_epoch(epoch_id))
            client.last_proof = (cap, slot)
        decision = self.verifiers["v0"].authenticate(cap, self.local_time("v0"))
        self.auths.append(AuthRecord(self.now, "v0", 0, slot, epoch_id,
                                     decision.value, cap.pseudonym_pub))
        if decision is not Decision.REVOKED:
            self._schedule(self.now + MICRO, ("action", action))


def grid_config(n_pms: int, crash: str | None, seed: int, horizon_s: int) -> SimConfig:
    """One run of a crash grid built on acceptance 8's
    (``_safety_cfg`` in tests/test_acceptance.py), with three differences:
    client 0 first asks for 8 pseudonyms, not 6; the probe, from one
    simulated second after the order until v0 denies client 0, replaces
    its authentications at 36 s and 50 s; and ``seed`` is drawn from the
    benchmark seed rather than taken from (1, 2, 3)."""
    s = MICRO
    up = "pm1" if crash == "pm0" else "pm0"   # the admin's order goes to a live manager
    script = [
        Action(2 * s, "request", {"client": 0, "count": 8, "pm": "pm0"}),
        Action(3 * s, "request", {"client": 1, "count": 6, "pm": f"pm{1 % n_pms}"}),
        Action(8 * s, "authenticate", {"client": 0}),
        Action(10 * s, "authenticate", {"client": 1}),
        Action(20 * s, "request", {"client": 0, "count": 4, "epoch": 1,
                                   "pm": f"pm{1 % n_pms}"}),
        Action(21 * s, "request", {"client": 1, "count": 4, "epoch": 1,
                                   "pm": f"pm{2 % n_pms}"}),
        Action(30 * s, "revoke", {"client": 0, "pm": up}),
        Action(31 * s, "probe"),
        Action(70 * s, "authenticate", {"client": 0}),
    ]
    request_times = [74, 84] + ([125] if horizon_s > 120 else [])
    for base in request_times:
        for i in range(n_pms):
            script.append(Action((base + i) * s + s // 2, "request",
                                 {"client": 0, "count": 2, "epoch": 2, "pm": f"pm{i}"}))
    crashes = (CrashWindow(crash, 25 * s, 80 * s),) if crash else ()
    return SimConfig(seed=seed, n_pms=n_pms, fault_bound=1, n_verifiers=1,
                     n_clients=2, epoch_len=60 * s, delta=15 * s,
                     delta_net=100_000, crashes=crashes, script=tuple(script),
                     horizon=horizon_s * s, gossip_timeout=5 * s, pull_period=5 * s)


def grid_ok(sim: Simulation, report, final_epoch: int) -> bool:
    """The acceptance-8 conditions, plus: once v0 denied the revoked client
    it never grants it again."""
    if any(r.granted for r in report.issuance if r.client == 0 and r.epoch_id == 2):
        return False
    correct = set(sim.correct_pms())
    rows = [r for r in report.pm_state if r[0] in correct]
    if not (all(r[1] == final_epoch and r[2] == "serving" for r in rows)
            and len({r[3] for r in rows}) == 1 and len({r[4] for r in rows}) == 1):
        return False
    decisions = [a.decision for a in report.auths if a.client == 0 and a.at >= 30 * MICRO]
    first = decisions.index("revoked") if "revoked" in decisions else len(decisions)
    return "granted" not in decisions[first:]


class Gossip:
    """Whole simulations: a crash grid after acceptance 8's (see
    ``grid_config``) and the bundled scenarios.

    The grid is N in {3, 4, 5}, f = 1, no crash or one manager down from
    25 s to 80 s, two horizons and ``GOSSIP_DELAY_SEEDS`` delay seeds
    drawn from the benchmark seed.  Scenarios keep their own seeds, for which their
    checks are known to hold.  Simulator defaults throughout.
    """

    name = "gossip"

    def __init__(self, seed: int, tick=lambda: None):
        rng = random.Random(f"gossip/{seed}")
        self.digest = _Digest()
        seeds = [rng.randrange(1, 2**31) for _ in range(GOSSIP_DELAY_SEEDS)]
        self.runs: list[tuple[str, SimConfig, object]] = []
        for horizon_s, final_epoch in GRID_HORIZONS:
            for n_pms in GRID_SIZES:
                for crash in [None] + [f"pm{i}" for i in range(n_pms)]:
                    for s in seeds:
                        self.runs.append((f"grid/{n_pms}/{crash}/{s}/{horizon_s}",
                                          grid_config(n_pms, crash, s, horizon_s),
                                          final_epoch))
        for name in SCENARIOS:
            scenario, checks = parse_scenario(SCENARIO_DIR / f"{name}.scn")
            self.runs.append((f"scenario/{name}", scenario, checks))
            tick()
        rng.shuffle(self.runs)
        for label, cfg, _ in self.runs:
            self.digest.add(label, cfg.seed, len(cfg.script))
        self.passes = self.events_total = 0

    @property
    def n_ops(self) -> int:
        return len(self.runs)

    def kind(self, i: int) -> str:
        return "sim"

    def start_pass(self) -> None:
        self.passes += 1
        if self.passes == 1:
            self.first_pass = {"events": 0, "messages": Counter(), "stats": Counter(),
                               "reach": [], "unreached": 0}

    def op(self, i: int):
        label, cfg, _ = self.runs[i]
        sim = ProbingSimulation(cfg) if label.startswith("grid/") else Simulation(cfg)
        return sim, sim.run()

    def check(self, i: int, outcome) -> bool:
        sim, report = outcome
        label, _, expect = self.runs[i]
        self.events_total += report.events_processed
        if self.passes == 1:
            self._record(label, sim, report)
        if isinstance(expect, dict):
            return not all(ok for _, ok, _ in run_checks(sim, report, expect))
        return not grid_ok(sim, report, expect)

    def _record(self, label: str, sim: Simulation, report) -> None:
        fp = self.first_pass
        fp["events"] += report.events_processed
        fp["messages"].update(report.messages)
        for pm in sim.pms.values():
            fp["stats"].update(pm.stats)
        if label.startswith("grid/"):
            for _client, latency in report.revocation_latency:
                if latency < 0:
                    fp["unreached"] += 1
                else:
                    fp["reach"].append(latency / MICRO)

    def reach(self) -> tuple[float, float]:
        reach = self.first_pass["reach"]
        return statistics.median(reach), max(reach)

    def layer_metrics(self) -> dict[str, float]:
        fp = self.first_pass
        p50, worst = self.reach()
        out = {"simnet.events": fp["events"],
               "simnet.revoke_reach_p50_s": p50,
               "simnet.revoke_reach_max_s": worst,
               "simnet.revoke_unreached": fp["unreached"]}
        for key in ("pushes", "pulls", "forwards"):
            out[f"manager.{key}"] = fp["stats"].get(key, 0)
        for key, n in fp["messages"].items():
            out[f"simnet.messages.{key}"] = n
        return out


WORKLOADS = {cls.name: cls for cls in (Verify, Manage, Gossip)}
