"""Fail-closed schema validation for scenario configs."""

import copy
import json
import math
from pathlib import Path

import pytest

from cidnsim.cli import EXIT_CONFIG, main
from cidnsim.config import ConfigError, config_from_dict, load_config

BASE = {
    "schema_version": 1,
    "rounds": 10,
    "rng_seed": 1,
    "trust": {
        "forgetting": 0.9,
        "severity": 1.0,
        "cred_threshold": 0.8,
        "initial_trust": 0.5,
        "blacklist_threshold": 0.2,
        "interval_len": 50,
    },
    "consensus": {"d_cred": 1.0, "d_stake": 0.05, "r_bits": 16, "q_max": 4096, "t_cap": 16},
    "network": {"challenge_prob": 0.5},
    "hosts": [{"p_mal": 0.0}, {"p_mal": 0.9}],
    "nodes": [{"fp": 0.02}, {"fp": 0.02}],
}


def variant(**overrides):
    d = copy.deepcopy(BASE)
    d.update(overrides)
    return d


def test_base_config_parses():
    config = config_from_dict(BASE)
    assert config.rounds == 10
    assert len(config.nodes) == 2
    # empty monitors list means "watch every host"
    assert config.monitors_for(0) == (0, 1)


@pytest.mark.parametrize(
    "broken",
    [
        variant(extra_field=1),
        variant(schema_version=2),
        variant(schema_version=None),
        variant(trust={**BASE["trust"], "typo": 1}),
        variant(consensus={**BASE["consensus"], "difficulty": 3}),
        variant(network={"challenge_prob": 0.5, "mtu": 1500}),
        variant(hosts=[{"p_mal": 0.0, "name": "x"}]),
        variant(nodes=[{"fp": 0.02, "role": "x"}]),
        variant(hosts=[]),
        variant(nodes=[]),
        variant(rounds=-1),
        variant(nodes=[{"monitors": [5]}]),
        variant(nodes=[{"behavior": {"kind": "betrayal"}}]),  # missing turn_round
        variant(nodes=[{"behavior": {"kind": "collusion"}}]),  # missing group_id
        variant(nodes=[{"behavior": {"kind": "mystery"}}]),
        variant(nodes=[{"behavior": {"kind": "betrayal", "turn_round": 99}}]),
        variant(trust={**BASE["trust"], "forgetting": 1.5}),
        variant(consensus={**BASE["consensus"], "r_bits": 4}),
    ],
)
def test_malformed_configs_rejected(broken):
    with pytest.raises(ConfigError):
        config_from_dict(broken)


def test_missing_required_field_rejected():
    d = variant()
    del d["rng_seed"]
    with pytest.raises(ConfigError, match="rng_seed"):
        config_from_dict(d)


def test_every_host_must_be_monitored():
    d = variant(nodes=[{"monitors": [0]}, {"monitors": [0]}])
    with pytest.raises(ConfigError, match="no monitoring node"):
        config_from_dict(d)


def test_sybil_section_expands_fake_identities():
    d = variant(sybil={"n_fakes": 3, "spawn_round": 5, "strategy": "invert"})
    config = config_from_dict(d)
    assert len(config.nodes) == 5
    fakes = [n for n in config.nodes if n.behavior.kind == "sybil"]
    assert len(fakes) == 3
    assert all(n.behavior.spawn_round == 5 for n in fakes)
    # fake identities have no monitoring assignment
    assert config.monitors_for(4) == ()


def test_bundled_scenarios_parse():
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("baseline_honest", "betrayal", "sybil", "collusion"):
        config = load_config(str(scenarios / f"{name}.json"))
        assert config.rounds > 0


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(b"{not json", id="not-json"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, id="nested-too-deeply"),
        pytest.param(b"\xff\xfe", id="not-utf-8"),
        pytest.param(b'{"rounds": ' + b"1" * 5000 + b"}", id="integer-beyond-digit-limit"),
    ],
)
def test_invalid_json_raises_config_error(tmp_path, capsys, raw):
    """A config file the JSON parser cannot take exits 1 with a message
    from both ``run`` and ``verify``, never with a traceback."""
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    with pytest.raises(ConfigError):
        load_config(str(p))
    capsys.readouterr()
    for args in (
        ["run", "--config", str(p), "--out", str(tmp_path / "out")],
        ["verify", "--chain", str(tmp_path / "chain.jsonl"), "--config", str(p)],
    ):
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "field,value",
    [
        ("d_stake", math.inf),
        ("d_stake", math.nan),
        ("r_bits", 16.5),
        ("r_bits", True),
        ("q_max", 3.7),
        ("q_max", True),
        ("q_max", "4096"),
        ("t_cap", False),
        ("t_cap", None),
    ],
)
def test_bad_consensus_values_exit_1_with_a_message(field, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(variant(consensus={**BASE["consensus"], field: value})))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: consensus:") and field in err


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_an_initial_trust_at_an_endpoint_exits_1_with_a_message(value, tmp_path, capsys):
    """Host trust starts at ``initial_trust`` and must stay inside (0,1)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(variant(trust={**BASE["trust"], "initial_trust": value})))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: trust:") and "initial_trust" in err


def test_integral_float_consensus_values_are_accepted():
    config = config_from_dict(variant(consensus={**BASE["consensus"], "q_max": 4096.0}))
    assert config.consensus.q_max == 4096 and type(config.consensus.q_max) is int


BETRAYER = {"kind": "betrayal", "turn_round": 5}
COLLUDER = {"kind": "collusion", "group_id": 0}


def with_behavior(behavior):
    return variant(nodes=[{"fp": 0.02}, {"fp": 0.02, "behavior": behavior}])


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(with_behavior({**BETRAYER, "strategy": "nonsense"}), id="betrayal-strategy"),
        pytest.param(with_behavior({**COLLUDER, "strategy": "invert"}), id="collusion-strategy"),
        pytest.param(with_behavior({"kind": "sybil", "strategy": "bogus"}), id="sybil-strategy"),
        pytest.param(variant(sybil={"n_fakes": 2, "strategy": "bogus"}), id="sybil-section-strategy"),
        pytest.param(with_behavior({**BETRAYER, "turn_round": "2"}), id="turn_round-string"),
        pytest.param(with_behavior({**BETRAYER, "turn_round": None}), id="turn_round-null"),
        pytest.param(with_behavior({**COLLUDER, "group_id": "x"}), id="group_id-string"),
        pytest.param(with_behavior({"kind": "sybil", "spawn_round": 2.5}), id="spawn_round-fraction"),
        pytest.param(with_behavior({"kind": ["sybil"]}), id="kind-list"),
        pytest.param(variant(sybil={"n_fakes": -2}), id="n_fakes-negative"),
        pytest.param(variant(sybil={"n_fakes": "3"}), id="n_fakes-string"),
        pytest.param(variant(sybil={"spawn_round": 2}), id="n_fakes-missing"),
        pytest.param(variant(sybil={"n_fakes": 1, "spawn_round": True}), id="sybil-spawn_round-bool"),
    ],
)
def test_bad_behavior_config_exits_1_with_a_message(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(variant(trust=5), id="trust-number"),
        pytest.param(variant(consensus=[1]), id="consensus-array"),
        pytest.param(variant(network=5), id="network-number"),
        pytest.param(variant(hosts=[5]), id="host-entry-number"),
        pytest.param(variant(hosts={"p_mal": 0.0}), id="hosts-object"),
        pytest.param(variant(nodes=[{"fp": 0.02}, 5]), id="node-entry-number"),
        pytest.param(variant(sybil=3), id="sybil-number"),
        pytest.param(variant(rounds=3.7), id="rounds-fraction"),
        pytest.param(variant(rounds="10"), id="rounds-string"),
        pytest.param(variant(rounds=True), id="rounds-bool"),
        pytest.param(variant(rng_seed="1"), id="rng_seed-string"),
        pytest.param(variant(schema_version=True), id="schema_version-bool"),
        pytest.param(variant(trust={**BASE["trust"], "forgetting": "0.9"}), id="forgetting-string"),
        pytest.param(variant(trust={**BASE["trust"], "interval_len": 50.5}), id="interval_len-fraction"),
        pytest.param(variant(network={"delay_rounds": 1.5}), id="delay_rounds-fraction"),
        pytest.param(variant(network={"drop_prob": False}), id="drop_prob-bool"),
        pytest.param(variant(hosts=[{"p_mal": "0.9"}]), id="p_mal-string"),
        pytest.param(variant(nodes=[{"monitors": ["0"]}, {}]), id="monitors-entry-string"),
        pytest.param(variant(nodes=[{"monitors": 0}, {}]), id="monitors-number"),
    ],
)
def test_bad_field_types_exit_1_with_a_message(config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
