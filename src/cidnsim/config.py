"""Scenario configuration: JSON schema, fail-closed validation, dataclasses.

Unknown fields are rejected everywhere.  ``schema_version`` is mandatory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .consensus import ConsensusParams
from .node import Behavior
from .trust import TrustParams

__all__ = ["ConfigError", "NetParams", "HostSpec", "NodeSpec", "SimConfig", "load_config", "config_from_dict"]

SCHEMA_VERSION = 1
# the most nodes a config may define: each costs a key before a run or a
# verify starts, and a round's work grows with the cube of the count
MAX_NODES = 1000


class ConfigError(ValueError):
    """Malformed scenario config; message lists the offending fields."""


@dataclass(frozen=True)
class NetParams:
    """The message fabric.  A message sent in round r arrives in round
    r + max(delay_rounds, 1): nodes act after the round's deliveries, so
    ``delay_rounds`` 0 and 1 give the same delay."""

    drop_prob: float = 0.0
    delay_rounds: int = 0
    challenge_prob: float = 0.5
    challenge_priorities: str = "uniform"  # uniform | binary

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError(f"network.drop_prob must be in [0,1): {self.drop_prob}")
        if self.delay_rounds < 0:
            raise ConfigError("network.delay_rounds must be >= 0")
        if not 0.0 < self.challenge_prob <= 1.0:
            raise ConfigError("network.challenge_prob must be in (0,1]")
        if self.challenge_priorities not in ("uniform", "binary"):
            raise ConfigError(
                f"network.challenge_priorities must be uniform or binary: "
                f"{self.challenge_priorities}"
            )


@dataclass(frozen=True)
class HostSpec:
    p_mal: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_mal <= 1.0:
            raise ConfigError(f"hosts[].p_mal must be in [0,1]: {self.p_mal}")


@dataclass(frozen=True)
class NodeSpec:
    behavior: Behavior = field(default_factory=Behavior)
    know_prob: float = 1.0
    fp: float = 0.0
    fn: float = 0.0
    monitors: tuple[int, ...] = ()  # host indices; empty means "all hosts"

    def __post_init__(self) -> None:
        for name in ("know_prob", "fp", "fn"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"nodes[].{name} must be in [0,1]: {v}")


@dataclass(frozen=True)
class SimConfig:
    rounds: int
    rng_seed: int
    trust: TrustParams
    consensus: ConsensusParams
    network: NetParams
    hosts: tuple[HostSpec, ...]
    nodes: tuple[NodeSpec, ...]

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if not self.hosts:
            raise ConfigError("at least one host is required")
        if not 1 <= len(self.nodes) <= MAX_NODES:
            raise ConfigError(f"a config needs 1 to {MAX_NODES} nodes, got {len(self.nodes)}")
        monitored: set[int] = set()
        for i, spec in enumerate(self.nodes):
            for h in spec.monitors:
                if not 0 <= h < len(self.hosts):
                    raise ConfigError(f"nodes[{i}].monitors references unknown host {h}")
            if spec.behavior.kind != "sybil" and not self._monitor_set(spec):
                raise ConfigError(f"nodes[{i}] must monitor at least one host")
            monitored.update(self._monitor_set(spec))
            sr = spec.behavior.spawn_round
            if sr < 0 or (self.rounds and sr > self.rounds):
                raise ConfigError(f"nodes[{i}].spawn_round outside the horizon")
            tr = spec.behavior.turn_round
            if tr is not None and (tr < 0 or (self.rounds and tr > self.rounds)):
                raise ConfigError(f"nodes[{i}].turn_round outside the horizon")
        if self.rounds and monitored != set(range(len(self.hosts))):
            missing = sorted(set(range(len(self.hosts))) - monitored)
            raise ConfigError(f"hosts with no monitoring node: {missing}")

    def _monitor_set(self, spec: NodeSpec) -> set[int]:
        if spec.behavior.kind == "sybil":
            return set(spec.monitors)
        return set(spec.monitors) if spec.monitors else set(range(len(self.hosts)))

    def monitors_for(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(self._monitor_set(self.nodes[i])))


def _check_keys(d: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {unknown}")


def _integer(value: Any, name: str) -> int:
    """An integer-valued JSON number; bools, strings and fractions are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value: Any, name: str) -> float:
    """A JSON number as a float; bools and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _object(value: Any, name: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def _array(value: Any, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be an array, got {value!r}")
    return value


def _sybil_strategy(value: Any, where: str) -> str:
    if value not in ("invert", "empty"):
        raise ConfigError(f"{where}.strategy must be invert or empty, got {value!r}")
    return value


def _behavior_from(value: Any, where: str) -> Behavior:
    if value is None:
        return Behavior()
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict):
        raise ConfigError(f"{where}.behavior must be a string or object")
    kind = value.get("kind", "honest")
    # only a sybil has a strategy: betrayal and collusion have one fixed
    # behaviour each, so a strategy there would be ignored
    allowed = {
        "honest": {"kind"},
        "sybil": {"kind", "spawn_round", "strategy"},
        "betrayal": {"kind", "turn_round"},
        "collusion": {"kind", "group_id"},
    }
    if not isinstance(kind, str) or kind not in allowed:
        raise ConfigError(f"{where}.behavior.kind unknown: {kind!r}")
    where = f"{where}.behavior"
    _check_keys(value, allowed[kind], where)
    if kind == "betrayal" and "turn_round" not in value:
        raise ConfigError(f"{where}: betrayal requires turn_round")
    if kind == "collusion" and "group_id" not in value:
        raise ConfigError(f"{where}: collusion requires group_id")
    integer_fields = {
        name: _integer(value[name], f"{where}.{name}")
        for name in ("spawn_round", "turn_round", "group_id")
        if name in value
    }
    return Behavior(
        kind=kind,
        strategy=_sybil_strategy(value.get("strategy", "invert"), where),
        **integer_fields,
    )


def config_from_dict(d: Mapping[str, Any]) -> SimConfig:
    if not isinstance(d, Mapping):
        raise ConfigError("config root must be an object")
    _check_keys(
        d,
        {"schema_version", "rounds", "rng_seed", "trust", "consensus", "network",
         "hosts", "nodes", "sybil"},
        "config",
    )
    if _integer(d.get("schema_version"), "schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {d.get('schema_version')}"
        )
    for req in ("rounds", "rng_seed", "trust", "consensus", "hosts", "nodes"):
        if req not in d:
            raise ConfigError(f"missing required field: {req}")

    t = _object(d["trust"], "trust")
    _check_keys(
        t,
        {"forgetting", "severity", "cred_threshold", "initial_trust",
         "blacklist_threshold", "interval_len"},
        "trust",
    )
    try:
        trust_params = TrustParams(
            forgetting=_real(t["forgetting"], "forgetting"),
            severity=_real(t["severity"], "severity"),
            cred_threshold=_real(t["cred_threshold"], "cred_threshold"),
            initial_trust=_real(t["initial_trust"], "initial_trust"),
            blacklist_threshold=_real(t["blacklist_threshold"], "blacklist_threshold"),
            interval_len=_integer(t["interval_len"], "interval_len"),
        )
    except (KeyError, ValueError) as e:
        raise ConfigError(f"trust: {e}") from e

    c = _object(d["consensus"], "consensus")
    _check_keys(c, {"d_cred", "d_stake", "r_bits", "q_max", "t_cap"}, "consensus")
    try:
        consensus_params = ConsensusParams(
            d_cred=_real(c["d_cred"], "d_cred"),
            d_stake=_real(c["d_stake"], "d_stake"),
            r_bits=_integer(c["r_bits"], "r_bits"),
            q_max=_integer(c["q_max"], "q_max"),
            t_cap=_integer(c["t_cap"], "t_cap"),
        )
    except (KeyError, ValueError) as e:
        raise ConfigError(f"consensus: {e}") from e

    n = _object(d.get("network", {}), "network")
    _check_keys(
        n,
        {"drop_prob", "delay_rounds", "challenge_prob", "challenge_priorities"},
        "network",
    )
    network = NetParams(
        drop_prob=_real(n.get("drop_prob", 0.0), "network.drop_prob"),
        delay_rounds=_integer(n.get("delay_rounds", 0), "network.delay_rounds"),
        challenge_prob=_real(n.get("challenge_prob", 0.5), "network.challenge_prob"),
        challenge_priorities=n.get("challenge_priorities", "uniform"),
    )

    hosts = []
    for i, h in enumerate(_array(d["hosts"], "hosts")):
        where = f"hosts[{i}]"
        _check_keys(_object(h, where), {"p_mal"}, where)
        hosts.append(HostSpec(p_mal=_real(h.get("p_mal", 0.0), f"{where}.p_mal")))

    nodes = []
    for i, nd in enumerate(_array(d["nodes"], "nodes")):
        where = f"nodes[{i}]"
        _check_keys(
            _object(nd, where), {"behavior", "know_prob", "fp", "fn", "monitors"}, where
        )
        nodes.append(
            NodeSpec(
                behavior=_behavior_from(nd.get("behavior"), where),
                know_prob=_real(nd.get("know_prob", 1.0), f"{where}.know_prob"),
                fp=_real(nd.get("fp", 0.0), f"{where}.fp"),
                fn=_real(nd.get("fn", 0.0), f"{where}.fn"),
                monitors=tuple(
                    _integer(x, f"{where}.monitors[]")
                    for x in _array(nd.get("monitors", []), f"{where}.monitors")
                ),
            )
        )

    # convenience expansion: a "sybil" section appends n_fakes fake identities
    if "sybil" in d:
        s = _object(d["sybil"], "sybil")
        _check_keys(s, {"n_fakes", "spawn_round", "strategy"}, "sybil")
        n_fakes = _integer(s.get("n_fakes"), "sybil.n_fakes")
        if not 0 <= n_fakes <= MAX_NODES:
            raise ConfigError(f"sybil.n_fakes must be in [0, {MAX_NODES}], got {n_fakes}")
        fake = Behavior(
            kind="sybil",
            spawn_round=_integer(s.get("spawn_round", 0), "sybil.spawn_round"),
            strategy=_sybil_strategy(s.get("strategy", "invert"), "sybil"),
        )
        nodes.extend(NodeSpec(behavior=fake) for _ in range(n_fakes))

    try:
        return SimConfig(
            rounds=_integer(d["rounds"], "rounds"),
            rng_seed=_integer(d["rng_seed"], "rng_seed"),
            trust=trust_params,
            consensus=consensus_params,
            network=network,
            hosts=tuple(hosts),
            nodes=tuple(nodes),
        )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e)) from e


def load_config(path: str) -> SimConfig:
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal beyond the interpreter's digit limit
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from e
    return config_from_dict(data)
