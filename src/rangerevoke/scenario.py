"""Scenario files: the INI format that ``rangerevoke simulate`` runs.

``parse_scenario`` reads a file whole and checks every entry before a
simulation starts.  An unknown section, ``[sim]`` key, action, argument or
check, a malformed value, a client or node that the ``[sim]`` section
does not create (also one an action falls back on when an argument is
omitted), and ``[sim]`` values the simulator cannot run (see
``_check_nodes``) all raise ``ValueError`` naming the section and key.
``run_checks`` evaluates the parsed checks against a finished run; the
linkage adversary is the two functions beside the checks that read it.

Times are seconds (floats allowed)::

    [sim]
    seed = 7
    managers = 4
    fault_bound = 1
    verifiers = 1
    clients = 2
    epoch_len = 60
    delta = 15
    horizon = 100
    ...                     ; also delta_net, gossip_timeout, pull_period;
                            ; absent keys keep the SimConfig defaults

    [crashes]
    c1 = pm3 55..80         ; manager, then down-window

    [unstable]
    w1 = 20..35             ; network partitions: messages held until end

    [script]                ; keys are only for ordering/uniqueness
    a1 = 2 request client=0 count=6 pm=pm0
    a2 = 8 authenticate client=0 verifier=v0
    a3 = 30 revoke client=0

    [checks]                ; NAME or NAME.LABEL = argument, see _CHECKS
    convergence = yes
    denied_after = 0:40
"""

from __future__ import annotations

import configparser
import itertools
import math
import random
from pathlib import Path

from .pseudonym import create_rrp, get_capability
from .simnet import (
    MICRO,
    REQUIRED,
    Action,
    CrashWindow,
    SimConfig,
    Simulation,
    SimReport,
    Window,
)

SCENARIO_DIR = Path(__file__).parent / "scenarios"

_SECTIONS = ("sim", "crashes", "unstable", "script", "checks")

# [sim] keys besides seed: integer keys name their SimConfig field, the
# rest are SimConfig times given in seconds
_SIM_INTS = {"managers": "n_pms", "fault_bound": "fault_bound",
             "verifiers": "n_verifiers", "clients": "n_clients"}
_SIM_SECONDS = ("epoch_len", "delta", "delta_net", "horizon", "gossip_timeout",
                "pull_period")
# least [sim] values the simulator runs; times are periods and delays
_SIM_LEAST = {"managers": 1, "verifiers": 0, "clients": 0, "epoch_len": 1, "delta": 1,
              "delta_net": 1, "gossip_timeout": 1, "pull_period": 1}


def resolve_scenario(name: str) -> Path:
    """A scenario file path, or the name of a bundled scenario."""
    path = Path(name)
    if path.is_file():
        return path
    bundled = SCENARIO_DIR / f"{name}.scn"
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(f"no scenario file or bundled scenario {name!r}")


# -- values -----------------------------------------------------------------

def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _bounded(text: str, low: int, high: int, what: str) -> int:
    value = _int(text)
    if not low <= value < high:
        raise ValueError(f"{what} must be in {low}..{high - 1}, got {value}")
    return value


def u64(text: str, what: str = "value") -> int:
    """0..2**64-1: an epoch id, or a seed (``seed_from_parts`` encodes both)."""
    return _bounded(text, 0, 2**64, what)


def _seconds(text: str) -> int:
    """Non-negative seconds (floats allowed) -> integer microseconds."""
    try:
        value = float(text)
        if math.isfinite(value) and value >= 0:
            return round(value * MICRO)
    except ValueError:
        pass
    raise ValueError(f"expected a time in seconds >= 0, got {text!r}")


def _span(text: str) -> tuple[int, int]:
    """'START..END' in seconds -> (start, end) in microseconds."""
    start, sep, end = text.partition("..")
    if not sep:
        raise ValueError(f"expected START..END, got {text!r}")
    start, end = _seconds(start), _seconds(end)
    if start > end:
        raise ValueError(f"window ends before it starts: {text!r}")
    return start, end


def _member(text: str, ids: list[str], what: str) -> str:
    if text not in ids:
        raise ValueError(f"no {what} {text!r} (have {', '.join(ids) or 'none'})")
    return text


# the roles of Simulation.ACTION_ARGS and of the checks' arguments
_ROLES = {
    "client": lambda text, cfg: _bounded(text, 0, cfg.n_clients, "client"),
    "manager": lambda text, cfg: _member(text, cfg.pm_ids(), "manager"),
    "verifier": lambda text, cfg: _member(text, cfg.verifier_ids(), "verifier"),
    "count": lambda text, cfg: _bounded(text, 1, 256, "count"),
    "epoch": lambda text, cfg: u64(text, "epoch"),
    "slot": lambda text, cfg: _bounded(text, 0, cfg.geometry().slots, "slot"),
    "time": lambda text, cfg: _seconds(text),
    "span": lambda text, cfg: _span(text),
}


# -- sections ---------------------------------------------------------------

def _sim_entry(key: str, value: str) -> tuple[str, int]:
    if key == "seed":
        return key, u64(value, "seed")
    if key in _SIM_INTS:
        return _SIM_INTS[key], _int(value)
    if key in _SIM_SECONDS:
        return key, _seconds(value)
    raise ValueError("unknown [sim] key")


def _check_nodes(cfg: SimConfig) -> None:
    """Values at least ``_SIM_LEAST``, a slot within its epoch, and f < N
    so that the quarantine quorum N - f is not empty."""
    for key, least in _SIM_LEAST.items():
        value = getattr(cfg, _SIM_INTS.get(key, key))
        if value < least:
            raise ValueError(f"[sim] {key}: must be >= {least}, got {value}" if key in _SIM_INTS
                             else f"[sim] {key}: must be > 0 s, got {value / MICRO:g} s")
    if cfg.delta > cfg.epoch_len:
        raise ValueError(f"[sim] delta: must not exceed epoch_len ({cfg.epoch_len / MICRO:g} s)")
    if not 0 <= cfg.fault_bound < cfg.n_pms:
        raise ValueError(f"[sim] fault_bound: must be in 0..{cfg.n_pms - 1}, "
                         f"got {cfg.fault_bound}")


def _crash(value: str, cfg: SimConfig) -> CrashWindow:
    parts = value.split()
    if len(parts) != 2:
        raise ValueError(f"expected MANAGER START..END, got {value!r}")
    return CrashWindow(_ROLES["manager"](parts[0], cfg), *_span(parts[1]))


def _action(value: str, cfg: SimConfig) -> Action:
    tokens = value.split()
    if len(tokens) < 2:
        raise ValueError(f"expected TIME KIND [ARG=VALUE ...], got {value!r}")
    at, kind, *pairs = tokens
    roles = Simulation.ACTION_ARGS.get(kind)
    if roles is None:
        raise ValueError(f"unknown action {kind!r}")
    args: dict[str, int | str] = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep:
            raise ValueError(f"expected ARG=VALUE, got {pair!r}")
        if key not in roles:
            raise ValueError(f"{kind} takes no argument {key!r}")
        if key in args:
            raise ValueError(f"argument {key!r} given twice")
        args[key] = _ROLES[roles[key][0]](text, cfg)
    for key, (role, default) in roles.items():
        if key in args:
            continue
        if default is REQUIRED:
            raise ValueError(f"{kind} needs {key}=")
        if default is not None:
            try:
                _ROLES[role](str(default), cfg)
            except ValueError as exc:
                raise ValueError(f"{kind} without {key}= uses {default}: {exc}") from None
    return Action(_seconds(at), kind, args)


def _check_args(key: str, value: str, cfg: SimConfig) -> tuple[str, tuple]:
    """A check's arguments: ``yes`` for a check without roles, else one
    ``:``-separated value per role."""
    check = _CHECKS.get(key.split(".")[0])
    if check is None:
        raise ValueError("unknown check")
    roles, _ = check
    form = ":".join(role.upper() for role in roles) or "yes"
    parts = value.split(":") if roles else ([] if value == "yes" else [value])
    if len(parts) != len(roles):
        raise ValueError(f"expected {form}, got {value!r}")
    return key, tuple(_ROLES[role](part.strip(), cfg) for role, part in zip(roles, parts))


def _section(ini: configparser.ConfigParser, name: str, parse) -> list:
    """``parse(key, value)`` of every entry, in file order; a ValueError
    gains the section and key."""
    out = []
    for key, value in ini.items(name) if ini.has_section(name) else ():
        try:
            out.append(parse(key, value))
        except ValueError as exc:
            raise ValueError(f"[{name}] {key}: {exc}") from None
    return out


def parse_scenario(path: Path) -> tuple[SimConfig, dict[str, tuple]]:
    """Read and check a whole scenario file: its SimConfig, plus each
    check's key mapped to its parsed arguments.  Raises ``ValueError``."""
    ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                    interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            ini.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    for name in ini.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]")
    cfg = SimConfig(**dict(_section(ini, "sim", _sim_entry)))
    _check_nodes(cfg)
    cfg.unstable = tuple(_section(ini, "unstable", lambda _, v: Window(*_span(v))))
    cfg.crashes = tuple(_section(ini, "crashes", lambda _, v: _crash(v, cfg)))
    cfg.script = tuple(sorted(_section(ini, "script", lambda _, v: _action(v, cfg)),
                              key=lambda a: a.at))
    checks = dict(_section(ini, "checks", lambda k, v: _check_args(k, v, cfg)))
    return cfg, checks


# -- checks -----------------------------------------------------------------
# Each check names the roles of its ``:``-separated arguments (none: the
# check is set with ``yes``) and has a function of (sim, report, *those
# arguments) returning (ok, detail).

def _check_convergence(sim: Simulation, report: SimReport) -> tuple[bool, str]:
    states = {}
    for node, epoch, mode, cur, nxt in report.pm_state:
        if node in sim.correct_pms():
            states[node] = (epoch, mode, cur, nxt)
    distinct = set(states.values())
    if len(distinct) == 1 and next(iter(distinct))[1] == "serving":
        epoch, _, cur, _ = next(iter(distinct))
        return True, f"{len(states)} managers agree at epoch {epoch} ({cur})"
    return False, f"divergent manager states: {sorted(states.items())}"


def _check_denied_after(sim: Simulation, report: SimReport, client: int,
                        at: int) -> tuple[bool, str]:
    hits = [a for a in report.auths if a.client == client and a.at >= at]
    if not hits:
        return False, f"client{client} never authenticated after t={at}"
    bad = [a for a in hits if a.decision == "granted"]
    if bad:
        return False, f"client{client} granted at t={bad[0].at}"
    return True, f"all {len(hits)} attempts denied"


def _check_no_grant_after(sim: Simulation, report: SimReport, client: int,
                          at: int) -> tuple[bool, str]:
    bad = [r for r in report.issuance
           if r.client == client and r.at >= at and r.granted]
    if bad:
        return False, f"client{client} issued {bad[0].count} at t={bad[0].at}"
    n = sum(1 for r in report.issuance if r.client == client and r.at >= at)
    return True, f"{n} requests, none granted"


def _check_safemode(sim: Simulation, report: SimReport, vid: str,
                    window: tuple[int, int]) -> tuple[bool, str]:
    start, end = window
    hits = [a for a in report.auths
            if a.verifier == vid and start <= a.at < end]
    if not hits:
        return False, f"no attempts at {vid} in [{start}, {end})"
    bad = [a for a in hits if a.decision != "stale-state"]
    if bad:
        return False, f"{vid} answered {bad[0].decision} at t={bad[0].at}"
    return True, f"all {len(hits)} attempts refused as stale"


def _check_recovers(sim: Simulation, report: SimReport, vid: str,
                    at: int) -> tuple[bool, str]:
    hits = [a for a in report.auths
            if a.verifier == vid and a.at >= at and a.decision == "granted"]
    if hits:
        return True, f"{vid} granting again at t={hits[0].at}"
    return False, f"{vid} never granted after t={at}"


def transcript_links(sim: Simulation) -> tuple[int, int]:
    """(linked, cross-client) pairs among the capabilities presented in a
    run: a pair is linked when it shares a token, the pseudonym key or a
    latchkey's bytes, and cross-client when two clients presented it."""
    linked = cross = 0
    pairs = itertools.combinations(sim.presented, 2)
    for (client_a, cap_a), (client_b, cap_b) in pairs:
        tokens_a = {cap_a.pseudonym_pub} | {lk.sig for lk in cap_a.latchkeys}
        tokens_b = {cap_b.pseudonym_pub} | {lk.sig for lk in cap_b.latchkeys}
        if tokens_a & tokens_b:
            linked += 1
            cross += client_a != client_b
    return linked, cross


def _check_no_cross_links(sim: Simulation, report: SimReport) -> tuple[bool, str]:
    linked, cross = transcript_links(sim)
    if cross:
        return False, f"{cross} cross-client transcript links"
    return True, f"{len(sim.presented)} capabilities, {linked} links, all same-client"


RANDOM_PROBES = 10_000


def prerevocation_probe(sim: Simulation, client: int, rts: int) -> tuple[int, int, int]:
    """The backward-unlinkability probe against pm0's current filter:
    (hits, probes) of every latchkey of ``client``'s pseudonyms in slots
    before ``rts``, and the hits of RANDOM_PROBES random strings.  With no
    latchkey to probe, no random string is drawn either."""
    core = sim.pms["pm0"].core
    erc = core.erc_current
    cid = sim.clients[client].cid
    geometry = sim.geometry.with_epoch(erc.epoch_id)
    seen: set[bytes] = set()
    for instance in range(1, core.max_instances + 1):
        rrp = create_rrp(cid, erc.epoch_id, instance, sim.pm_key, core.max_instances)
        for slot in range(rts):
            seen.update(lk.sig for lk in get_capability(rrp, slot, geometry).latchkeys)
    if not seen:
        return 0, 0, 0
    hits = sum(erc.query(sig) for sig in seen)
    probe_rng = random.Random(sim.cfg.seed ^ 0x5EED)
    random_hits = sum(erc.query(probe_rng.randbytes(64))
                      for _ in range(RANDOM_PROBES))
    return hits, len(seen), random_hits


def _check_linkage(sim: Simulation, report: SimReport, client: int,
                   rts: int) -> tuple[bool, str]:
    hits, probes, random_hits = prerevocation_probe(sim, client, rts)
    if probes == 0:
        return False, "no pre-revocation latchkeys to probe"
    p1 = hits / probes
    p2 = random_hits / RANDOM_PROBES
    pooled = (hits + random_hits) / (probes + RANDOM_PROBES)
    se = math.sqrt(max(pooled * (1 - pooled), 1e-12)
                   * (1 / probes + 1 / RANDOM_PROBES))
    z = (p1 - p2) / se
    detail = (f"pre-revocation hit rate {p1:.4f} vs random {p2:.4f} "
              f"(z={z:.2f}, {probes} probes)")
    return z <= 3.0, detail


_CHECKS = {
    "convergence": ((), _check_convergence),
    "denied_after": (("client", "time"), _check_denied_after),
    "no_grant_after": (("client", "time"), _check_no_grant_after),
    "safemode": (("verifier", "span"), _check_safemode),
    "recovers": (("verifier", "time"), _check_recovers),
    "no_cross_links": ((), _check_no_cross_links),
    "linkage": (("client", "slot"), _check_linkage),
}


def run_checks(sim: Simulation, report: SimReport,
               checks: dict[str, tuple]) -> list[tuple[str, bool, str]]:
    """(key, ok, detail) for each check ``parse_scenario`` returned."""
    results = []
    for key, args in checks.items():
        _, check = _CHECKS[key.split(".")[0]]
        ok, detail = check(sim, report, *args)
        results.append((key, ok, detail))
    return results
