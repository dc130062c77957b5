"""End-to-end CLI behavior: run / verify / report, exit codes, determinism."""

import csv
import hashlib
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from cidnsim.chain import (
    Chain,
    build_transaction,
    export_chain,
    genesis_block,
    hash_block,
    import_chain,
)
from cidnsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from cidnsim.config import config_from_dict, load_config
from cidnsim.consensus import Reason, ValidationContext, propose, validate_block
from cidnsim.experiments import spearman_rho
from cidnsim.keys import KeyPair
from cidnsim.netsim import Network
from cidnsim.simulation import Simulation, membership

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture()
def tiny_config(tmp_path):
    d = {
        "schema_version": 1,
        "rounds": 15,
        "rng_seed": 13,
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
        "nodes": [{"fp": 0.02, "fn": 0.02} for _ in range(4)],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(d))
    return path, d


def test_run_writes_all_outputs(tiny_config, tmp_path):
    config, _ = tiny_config
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    for name in ("chain.jsonl", "metrics.csv", "result.json"):
        assert (out / name).exists()
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    assert rows[0]["round"] == "1"
    summaries = json.loads((out / "result.json").read_text())["node_summaries"]
    assert sum(s["mining_attempts"] for s in summaries.values()) > 0
    for s in summaries.values():
        assert sum(s["invalid_reasons"].values()) == s["invalid_blocks"]


def test_leader_counts_sum_to_the_blocks_proposed_column(tiny_config, tmp_path):
    config, _ = tiny_config
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    with open(out / "metrics.csv", newline="") as fh:
        proposed = sum(int(row["blocks_proposed"]) for row in csv.DictReader(fh))
    result = json.loads((out / "result.json").read_text())
    assert proposed > 0
    assert sum(result["leader_counts"].values()) == proposed
    assert result["leader_counts"] == {
        node_id: s["blocks_mined"]
        for node_id, s in result["node_summaries"].items()
        if s["blocks_mined"]
    }


def test_run_is_byte_deterministic(tiny_config, tmp_path):
    config, _ = tiny_config
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(a)]) == EXIT_OK
    assert main(["run", "--config", str(config), "--out", str(b)]) == EXIT_OK
    for name in ("chain.jsonl", "metrics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_output(tiny_config, tmp_path):
    config, _ = tiny_config
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config), "--out", str(a)])
    main(["run", "--config", str(config), "--seed", "99", "--out", str(b)])
    assert (a / "chain.jsonl").read_bytes() != (b / "chain.jsonl").read_bytes()


def test_verify_seed_rebuilds_the_membership_of_run_seed(tiny_config, tmp_path, capsys):
    """``--seed`` means the same in ``verify`` as in ``run``: the keys, and
    so the registry, that the seed derives."""
    config, _ = tiny_config
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", "5", "--out", str(out)]) == EXIT_OK
    verify = ["verify", "--chain", str(out / "chain.jsonl"), "--config", str(config)]
    assert main(verify + ["--seed", "5"]) == EXIT_OK
    capsys.readouterr()
    assert main(verify) == EXIT_VERIFY
    assert "registry differs from the configured membership" in capsys.readouterr().out


def test_zero_rounds_gives_genesis_only_export(tiny_config, tmp_path):
    config, d = tiny_config
    d["rounds"] = 0
    config.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    lines = (out / "chain.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2  # registry line + genesis block
    with open(out / "metrics.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == []


def test_verify_accepts_honest_export(tiny_config, tmp_path):
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    rc = main(["verify", "--chain", str(out / "chain.jsonl"), "--config", str(config)])
    assert rc == EXIT_OK


def test_the_export_links_each_block_to_its_parent_by_the_printed_id(
    tiny_config, tmp_path, capsys
):
    """An auditor follows the chain by the fields each line prints: each
    block's ``prev_hash`` is the previous line's ``block_id``, and ``verify``
    names the last ``block_id`` as the tip."""
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    lines = (out / "chain.jsonl").read_text().splitlines()[1:]
    headers = [json.loads(line)["header"] for line in lines]
    assert len(headers) > 2
    for parent, child in zip(headers, headers[1:]):
        assert child["prev_hash"] == parent["block_id"]
    capsys.readouterr()
    rc = main(["verify", "--chain", str(out / "chain.jsonl"), "--config", str(config)])
    assert rc == EXIT_OK
    assert f"tip {headers[-1]['block_id'][:16]}" in capsys.readouterr().out


def test_verify_rejects_tampered_export(tiny_config, tmp_path):
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    chain_path = out / "chain.jsonl"
    lines = chain_path.read_text().splitlines()
    assert len(lines) > 2, "run produced no blocks to tamper with"
    record = json.loads(lines[-1])
    digit = record["header"]["block_id"][0]
    record["header"]["block_id"] = (
        ("0" if digit != "0" else "1") + record["header"]["block_id"][1:]
    )
    lines[-1] = json.dumps(record, sort_keys=True)
    chain_path.write_text("\n".join(lines) + "\n")
    rc = main(["verify", "--chain", str(chain_path), "--config", str(config)])
    assert rc == EXIT_VERIFY


def block_line(header=(), tx=(), **fields):
    """An export line of a block on genesis, well formed apart from the
    fields given."""
    evidence = {"host": "h", "alert_digests": [], "normal_count": 1, "packet_count": 1}
    transaction = {
        "tx_id": "00" * 32, "ids_id": "n", "seq": 1, "peer_list": [], "cred_list": [],
        "host_list": ["h"], "trust_list": [0.5], "evidence_list": [evidence],
        "signature": "", **dict(tx),
    }
    record = {
        "header": {
            "block_id": "00" * 32, "leader_id": "n", "gen_time": 1,
            "prev_hash": hash_block(genesis_block()).hex(), "ctr": 1, "target_v": 0.5,
            **dict(header),
        },
        "transactions": [transaction],
        "leader_signature": "",
        **fields,
    }
    return json.dumps(record)


@pytest.mark.parametrize(
    "line",
    ["[1, 2]", "null", "5", '"block"', '{"header": 5, "transactions": [], "leader_signature": ""}',
     '{"type": "registry", "keys": [1]}',
     pytest.param(block_line(header={"block_id": 5}), id="block_id-number"),
     pytest.param(block_line(transactions=5), id="transactions-number"),
     pytest.param(block_line(tx={"evidence_list": [5]}), id="evidence-entry-number"),
     pytest.param(block_line(header={"leader_id": 7}), id="leader_id-number"),
     pytest.param(block_line(tx={"cred_list": [[1]]}), id="cred_list-entry-array"),
     pytest.param(block_line(header={"gen_time": 2**64}), id="gen_time-beyond-64-bits"),
     pytest.param(block_line(header={"ctr": True}), id="ctr-bool"),
     pytest.param(block_line(tx={"seq": 2**63}), id="seq-beyond-64-bits"),
     pytest.param(block_line(tx={"seq": "1"}), id="seq-string"),
     pytest.param('{"type": "registry", "keys": {"n": 5}}', id="registry-key-number"),
     pytest.param("[" * 200_000 + "]" * 200_000, id="nested-too-deeply")],
)
def test_verify_rejects_a_malformed_line_with_exit_3(tiny_config, tmp_path, capsys, line):
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    chain_path = out / "chain.jsonl"
    lines = chain_path.read_text().splitlines()
    lines.insert(2, line)
    chain_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["verify", "--chain", str(chain_path), "--config", str(config)])
    assert rc == EXIT_VERIFY
    assert "malformed export" in capsys.readouterr().out


def test_verify_rejects_a_block_by_a_key_outside_the_configured_membership(
    tiny_config, tmp_path, capsys
):
    """An outsider mines a block that is valid in every other respect on an
    honest export and adds its key to the registry line: the configured
    membership, not the export, decides who may lead."""
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    chain_path = out / "chain.jsonl"
    blocks, registry = import_chain(str(chain_path))
    chain = Chain.genesis()
    for b in blocks[1:]:
        chain = chain.extended(b, 0.0)

    outsider = KeyPair.from_seed(hashlib.sha256(b"outsider").digest())
    registry.register(outsider.public_bytes)
    _, configured = membership(load_config(str(config)))
    widened = ValidationContext(
        configured.params, registry, configured.initial_trust,
        lambda rnd: sorted(registry.as_dict()),
    )
    gen_time = chain.tip.header.gen_time + 1
    for salt in range(200):
        tx = build_transaction(outsider, gen_time - 1, {}, {"10.0.0.1": 0.99 - salt * 1e-9})
        forged, _ = propose(chain, outsider, gen_time, [tx], widened)
        if forged is not None:
            break
    else:
        raise AssertionError("setup: the outsider never won the lottery")
    assert validate_block(forged, chain, widened)[:2] == (True, Reason.OK)

    export_chain(chain.extended(forged, 0.0), registry, str(chain_path))
    capsys.readouterr()
    assert main(["verify", "--chain", str(chain_path), "--config", str(config)]) == EXIT_VERIFY
    assert "registry differs from the configured membership" in capsys.readouterr().out


def test_verify_rejects_a_transaction_signed_before_its_signer_joined(
    tiny_config, tmp_path, capsys
):
    """A member leads a block, valid in every other respect, that carries a
    transaction of a configured node before that node's spawn round."""
    path, d = tiny_config
    d["nodes"].append({"behavior": {"kind": "sybil", "spawn_round": 10}})
    path.write_text(json.dumps(d))
    keys_, ctx = membership(load_config(str(path)))
    leader, late = keys_[0], keys_[-1]
    assert late.node_id not in ctx.members_at(1)
    chain = Chain.genesis()
    early = build_transaction(late, 0, {}, {"10.0.0.1": 0.1})
    for salt in range(200):
        own = build_transaction(leader, 0, {}, {"10.0.0.1": 0.99 - salt * 1e-9})
        forged, _ = propose(chain, leader, 1, [own, early], ctx)
        if forged is not None:
            break
    else:
        raise AssertionError("setup: the leader never won the lottery")

    chain_path = tmp_path / "chain.jsonl"
    export_chain(chain.extended(forged, 0.0), ctx.registry, str(chain_path))
    capsys.readouterr()
    assert main(["verify", "--chain", str(chain_path), "--config", str(path)]) == EXIT_VERIFY
    assert '"reason": "tx-invalid"' in capsys.readouterr().out


def test_verify_rejects_a_transaction_built_after_its_block(tiny_config, tmp_path, capsys):
    """A member leads a block on genesis, valid in every other respect, that
    carries its own transaction claiming seq 2^61: a transaction's seq is the
    round it was built in, so it must precede the block's round."""
    path, _ = tiny_config
    keys_, ctx = membership(load_config(str(path)))
    leader = keys_[0]
    chain = Chain.genesis()
    for salt in range(200):
        own = build_transaction(leader, 2**61, {}, {"10.0.0.1": 0.99 - salt * 1e-9})
        forged, _ = propose(chain, leader, 1, [own], ctx)
        if forged is not None:
            break
    else:
        raise AssertionError("setup: the leader never won the lottery")

    chain_path = tmp_path / "chain.jsonl"
    export_chain(chain.extended(forged, 0.0), ctx.registry, str(chain_path))
    capsys.readouterr()
    assert main(["verify", "--chain", str(chain_path), "--config", str(path)]) == EXIT_VERIFY
    assert '"reason": "tx-invalid"' in capsys.readouterr().out


def test_verify_rejects_an_export_that_replays_a_transaction(tiny_config, tmp_path, capsys):
    """A member leads a block, valid in every other respect, on the tip of an
    honest export that commits again the first transaction of that export:
    the replay rule makes ``verify`` exit 3."""
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    chain_path = out / "chain.jsonl"
    blocks, registry = import_chain(str(chain_path))
    keys_, ctx = membership(load_config(str(config)))
    chain = Chain.genesis()
    for b in blocks[1:]:
        chain = chain.extended(b, 0.0)
    first = next(tx for b in blocks for tx in b.transactions)
    start = chain.tip.header.gen_time + 1
    replay = next(
        block
        for gen_time in range(start, start + 50)
        for key in keys_
        if (block := propose(chain, key, gen_time, [first], ctx)[0]) is not None
    )

    export_chain(chain.extended(replay, 0.0), registry, str(chain_path))
    capsys.readouterr()
    assert main(["verify", "--chain", str(chain_path), "--config", str(config)]) == EXIT_VERIFY
    assert f'"block": {len(blocks)}, "reason": "tx-invalid"' in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda lines: lines[:3] + lines[2:], id="duplicated"),
        pytest.param(lambda lines: lines[:2] + lines[3:], id="dropped"),
        pytest.param(lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:], id="swapped"),
    ],
)
def test_verify_rejects_a_reordered_export_as_linkage(tiny_config, tmp_path, capsys, edit):
    """Block lines duplicated, dropped or swapped break the parent links;
    line 0 is the registry, line 1 genesis."""
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    chain_path = out / "chain.jsonl"
    lines = chain_path.read_text().splitlines()
    assert len(lines) >= 5, "run produced too few blocks to reorder"
    chain_path.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert main(["verify", "--chain", str(chain_path), "--config", str(config)]) == EXIT_VERIFY
    assert '"reason": "linkage"' in capsys.readouterr().out


def _summary_without_blocks_mined(summary):
    for s in summary["node_summaries"].values():
        del s["blocks_mined"]
    return json.dumps(summary)


def _open_forks_not_a_number(metrics):
    rows = list(csv.DictReader(metrics.splitlines()))
    rows[-1]["open_forks"] = "many"
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize(
    "name,rewrite",
    [
        pytest.param("result.json", lambda text: "{not json", id="result-not-json"),
        pytest.param("result.json", lambda text: "[1, 2]", id="result-array"),
        pytest.param(
            "result.json",
            lambda text: _summary_without_blocks_mined(json.loads(text)),
            id="no-blocks_mined",
        ),
        pytest.param("metrics.csv", _open_forks_not_a_number, id="open_forks-not-a-number"),
    ],
)
def test_report_on_malformed_inputs_exits_2_with_a_message(
    tiny_config, tmp_path, capsys, name, rewrite
):
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    path = out / name
    path.write_text(rewrite(path.read_text()))
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == EXIT_IO
    assert "malformed input" in capsys.readouterr().err


def test_report_summarizes_run(tiny_config, tmp_path, capsys):
    config, _ = tiny_config
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--dir", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "blacklist_recall" in text
    assert "rank correlation" in text


# few distinct values, so most samples hold ties in one list or both
_tied = st.one_of(st.integers(0, 3).map(float), st.floats(-1e3, 1e3))


@pytest.mark.filterwarnings("ignore")  # scipy warns on a constant input
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_tied, _tied), min_size=2, max_size=25))
def test_spearman_matches_scipy_with_ties(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    expected = float(spearmanr(xs, ys).statistic)
    if expected != expected:  # undefined for a constant input
        expected = 0.0
    assert spearman_rho(xs, ys) == pytest.approx(expected, abs=1e-12)


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_io_error_exit_codes(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "o")]) == EXIT_IO
    assert main(["report", "--dir", str(tmp_path / "empty")]) == EXIT_IO


def test_verbose_run_emits_events(tiny_config, tmp_path):
    config, _ = tiny_config
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--verbose"]) == EXIT_OK
    lines = (out / "events.jsonl").read_text().strip().splitlines()
    assert len(lines) == 15
    event = json.loads(lines[0])
    assert event["round"] == 1 and "nodes" in event


def test_baseline_scenario_reaches_full_recall_by_round_30(tmp_path):
    out = tmp_path / "baseline"
    rc = main(
        ["run", "--config", str(SCENARIOS / "baseline_honest.json"), "--out", str(out)]
    )
    assert rc == EXIT_OK
    with open(out / "metrics.csv", newline="") as fh:
        rows = {int(r["round"]): r for r in csv.DictReader(fh)}
    assert float(rows[30]["blacklist_recall"]) == 1.0
    assert float(rows[30]["blacklist_precision"]) == 1.0


def test_a_run_with_subnormal_detector_rates_exits_0(tmp_path):
    """A host that is always malicious, watched by detectors with a subnormal
    fn, has a subnormal chance of a normal label; its count must still be
    drawn, not fail on that chance's logarithm or odds."""
    d = json.loads((SCENARIOS / "baseline_honest.json").read_text())
    d["hosts"][0]["p_mal"] = 1.0
    for node in d["nodes"]:
        node["fn"] = 1e-310
    config = tmp_path / "subnormal.json"
    config.write_text(json.dumps(d))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK


# SHA-256 of the exports of the four bundled scenarios, of HARD_LOTTERY and of
# late_spawn_config().  A change that alters them changes simulated behaviour, and must say so where
# it updates them.
GOLDEN_DIGESTS = {
    "baseline_honest": (
        "1d6e20242b56c1eb674d623f77de236c55fbc53e4dadc37471bbe79e95ae88ff",
        "6b395f7f0d95f158f35c5850ffc4cb9c794b459b3c15751c691a53f4abaf1aab",
    ),
    "collusion": (
        "89a06e121376c3b535f85e5233bb52dd69d3ea565cfa2c6ea0fc9a4798370506",
        "35738d8a60371fe8bfbbc2a9f8fb9a8ed78ca5f379f20eb122a883741f650315",
    ),
    "sybil": (
        "8295d2a0616c631e9161ae9dcd8f66fd118a648dc5114c362d444d55e83651d3",
        "860729084bf41339691bbaa26001124f2935206df27cd29474d0828cd6387c3b",
    ),
    "betrayal": (
        "4d8a4e1571652983eca72e9a4a917ab723f76c217f7272cdab568628e2cc7109",
        "e035ba3da89b534649df6723808ab5cca59c75f170a90989dbc4266f220c05a4",
    ),
    "hard_lottery": (
        "a395c933714ca3299c16fe764ea8089af3e50749ce6d8642c0ac592c0ad64a77",
        "9e0b1d1d023880e9997f40e20831ac424495100ff1c864f20d7172eddddb5073",
    ),
    "late_spawn": (
        "198ec64fd633b04e7c4ab9b0168b5cf0761d1075d4a28b2451d67680311969d4",
        "aaa6d7785b1543b3f5be50e1662081948aad1b1354cbc84fc9295f2f81959190",
    ),
}

# A hard lottery on a lossy, delayed network: 30 of its 33 mine calls exhaust
# q_max and 3 blocks are found, so the export pins the exhaustion path, a block
# delivered a round late, and the monitoring and credibility columns of
# metrics.csv.
HARD_LOTTERY = {
    "schema_version": 1,
    "rounds": 12,
    "rng_seed": 3,
    "trust": {
        "forgetting": 0.9,
        "severity": 1.0,
        "cred_threshold": 0.8,
        "initial_trust": 0.5,
        "blacklist_threshold": 0.2,
        "interval_len": 100,
    },
    "consensus": {"d_cred": 1.0, "d_stake": 3e-7, "r_bits": 16, "q_max": 4096, "t_cap": 16},
    "network": {
        "drop_prob": 0.02,
        "delay_rounds": 1,
        "challenge_prob": 0.5,
        "challenge_priorities": "uniform",
    },
    "hosts": [{"p_mal": 0.9 if i % 3 == 0 else 0.05} for i in range(6)],
    "nodes": [{"fp": 0.02, "fn": 0.02} for _ in range(4)],
}


def late_spawn_config():
    """The sybil scenario with node 0 turned into a sybil that joins at round
    7, after the nodes behind it, on a lossy, delayed network: the membership
    grows twice, out of index order, while messages are dropped and held."""
    d = json.loads((SCENARIOS / "sybil.json").read_text())
    d["nodes"][0] = {"behavior": {"kind": "sybil", "spawn_round": 7}}
    d["network"].update(drop_prob=0.05, delay_rounds=2)
    return d


def export_digests(config, out):
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("chain.jsonl", "metrics.csv")
    )


@pytest.mark.parametrize("scenario", ["baseline_honest", "collusion", "sybil", "betrayal"])
def test_bundled_scenario_exports_match_golden_digests(scenario, tmp_path):
    digests = export_digests(SCENARIOS / f"{scenario}.json", tmp_path / "out")
    assert digests == GOLDEN_DIGESTS[scenario]


def test_hard_lottery_exports_match_golden_digests(tmp_path):
    config = tmp_path / "hard_lottery.json"
    config.write_text(json.dumps(HARD_LOTTERY))
    digests = export_digests(config, tmp_path / "out")
    assert digests == GOLDEN_DIGESTS["hard_lottery"]


def test_late_spawn_exports_match_golden_digests(tmp_path):
    config = tmp_path / "late_spawn.json"
    config.write_text(json.dumps(late_spawn_config()))
    digests = export_digests(config, tmp_path / "out")
    assert digests == GOLDEN_DIGESTS["late_spawn"]


def test_late_spawn_reference_replica_switches_branches_by_score():
    """Among the pinned exports only the late-spawn run moves its reference
    replica from one branch to another (31 times), so its digest is the one
    that covers fork choice by score; this keeps that coverage from silently
    disappearing."""
    tips = []
    Simulation(config_from_dict(late_spawn_config())).run(
        round_hook=lambda sim, rnd: tips.append(sim.reference.replica)
    )

    def extends(new, old):
        while new.height > old.height:
            new = new.parent
        return new is old

    assert sum(not extends(new, old) for old, new in zip(tips, tips[1:])) >= 1


@pytest.mark.parametrize(
    "name", ["baseline_honest", "collusion", "sybil", "betrayal", "hard_lottery", "late_spawn"]
)
def test_exports_do_not_depend_on_the_order_of_delivery(name, tmp_path, monkeypatch):
    """Each receiver's messages handed over in a seeded random order export
    the same bytes: no reader depends on the order of a round's deliveries."""
    step = Network.step
    rng = random.Random(19)

    def shuffled_step(self, rnd):
        delivered = step(self, rnd)
        for inbox in delivered.values():
            rng.shuffle(inbox)
        return delivered

    monkeypatch.setattr(Network, "step", shuffled_step)
    generated = {"hard_lottery": HARD_LOTTERY, "late_spawn": late_spawn_config()}
    config = SCENARIOS / f"{name}.json"
    if name in generated:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(generated[name]))
    assert export_digests(config, tmp_path / "out") == GOLDEN_DIGESTS[name]


# -- fuzz: one value of a valid input replaced by any JSON value ------------

# Any JSON value the reader can meet, weighted toward the awkward ones: NaN,
# the infinities and integers beyond 64 bits, alone or nested.
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**70)
    | st.integers(min_value=-(2**70), max_value=-(2**63) + 1)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text(max_size=8)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """The path of ``value`` and of every value nested in it."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _fuzzed(data, doc, values=lambda path: _JSON_VALUES):
    """``doc`` with the value at one drawn path replaced by a value drawn from
    ``values(path)``, or, for a path inside an object or array, deleted."""
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    if not path:
        return data.draw(values(path), label="document")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(values(path), label="value")
    return doc


@pytest.fixture(scope="module")
def verified_export(tmp_path_factory):
    """A valid config and the export of its run, which ``verify`` accepts."""
    root = tmp_path_factory.mktemp("fuzz")
    config = {
        "schema_version": 1,
        "rounds": 6,
        "rng_seed": 5,
        "trust": {
            "forgetting": 0.9,
            "severity": 1.0,
            "cred_threshold": 0.8,
            "initial_trust": 0.5,
            "blacklist_threshold": 0.2,
            "interval_len": 20,
        },
        "consensus": {"d_cred": 1.0, "d_stake": 0.05, "r_bits": 16, "q_max": 4096, "t_cap": 16},
        "network": {"challenge_prob": 0.5},
        "hosts": [{"p_mal": 0.0}, {"p_mal": 0.9}],
        "nodes": [{"fp": 0.02, "fn": 0.02} for _ in range(3)],
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    out = root / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    lines = [json.loads(line) for line in (out / "chain.jsonl").read_text().splitlines()]
    assert len(lines) > 3, "the run committed too few blocks to fuzz"
    args = ["verify", "--chain", str(out / "chain.jsonl"), "--config", str(config_path)]
    assert main(args) == EXIT_OK
    return root, config, lines


_DOCUMENTED_EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VERIFY}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_of_a_fuzzed_config_ends_in_a_documented_exit_code(verified_export, data):
    root, config, _ = verified_export
    fuzzed = root / "fuzzed-config.json"
    fuzzed.write_text(json.dumps(_fuzzed(data, config)))
    chain = root / "out" / "chain.jsonl"
    rc = main(["verify", "--chain", str(chain), "--config", str(fuzzed)])
    assert rc in _DOCUMENTED_EXITS


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_of_a_fuzzed_export_line_ends_in_a_documented_exit_code(
    verified_export, data
):
    root, _, lines = verified_export
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    fuzzed = root / "fuzzed-chain.jsonl"
    fuzzed.write_text(
        "".join(json.dumps(_fuzzed(data, v) if j == i else v) + "\n"
                for j, v in enumerate(lines))
    )
    rc = main(["verify", "--chain", str(fuzzed), "--config", str(root / "config.json")])
    assert rc in _DOCUMENTED_EXITS


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_of_an_export_with_a_changed_or_missing_seq_exits_3(verified_export, data):
    """A transaction's ``seq`` is read as a 64-bit integer and is signed, so
    any other JSON value in its place, or none, fails verification."""
    root, _, lines = verified_export
    i = data.draw(
        st.sampled_from([j for j, v in enumerate(lines) if v.get("transactions")]),
        label="line",
    )
    line = json.loads(json.dumps(lines[i]))
    tx = data.draw(st.sampled_from(line["transactions"]), label="transaction")
    seq = tx.pop("seq")
    if not data.draw(st.booleans(), label="delete"):
        tx["seq"] = data.draw(
            _JSON_VALUES.filter(lambda v: not (type(v) is int and v == seq)), label="seq"
        )
    fuzzed = root / "fuzzed-seq.jsonl"
    fuzzed.write_text(
        "".join(json.dumps(line if j == i else v) + "\n" for j, v in enumerate(lines))
    )
    rc = main(["verify", "--chain", str(fuzzed), "--config", str(root / "config.json")])
    assert rc == EXIT_VERIFY


# -- fuzz: one value of a small config replaced, then run ---------------------

# Three rounds, four nodes (one a sybil fake) and at most 64 hash attempts per
# mine call, so each case runs in milliseconds; the lottery is easy enough that
# rounds 2 and 3 each see a proposal.  Host 1 is always malicious, so one
# subnormal fn makes a subnormal rate of normal labels.
SMALL_RUN = {
    "schema_version": 1,
    "rounds": 3,
    "rng_seed": 2,
    "trust": {
        "forgetting": 0.9,
        "severity": 1.0,
        "cred_threshold": 0.8,
        "initial_trust": 0.5,
        "blacklist_threshold": 0.2,
        "interval_len": 20,
    },
    "consensus": {"d_cred": 1.0, "d_stake": 2.0, "r_bits": 16, "q_max": 64, "t_cap": 16},
    "network": {
        "drop_prob": 0.1,
        "delay_rounds": 0,
        "challenge_prob": 0.5,
        "challenge_priorities": "binary",
    },
    "hosts": [{"p_mal": 0.0}, {"p_mal": 1.0}],
    "nodes": [
        {"fp": 0.02, "fn": 0.02},
        {"fp": 0.02, "fn": 0.02, "monitors": [0, 1]},
        {"fp": 0.02, "fn": 0.02, "behavior": {"kind": "betrayal", "turn_round": 2}},
    ],
    "sybil": {"n_fakes": 1, "spawn_round": 1},
}

# Numbers stay at most 16, so no replacement makes rounds, q_max, n_fakes or
# delays costly.  At least half the draws are numbers, and the edges of [0, 1]
# (an always-malicious host, subnormal detector errors) come often.
_RUN_NUMBERS = (
    st.integers(-2, 16)
    | st.floats(-2.0, 16.0)
    | st.floats(0.0, 1.0)
    | st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1.0 - 2**-53, float("nan"), float("inf")])
)
_RUN_VALUES = _RUN_NUMBERS | st.recursive(
    _RUN_NUMBERS | st.none() | st.booleans() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _run_values(path):
    """An interval may hold up to 10^6 packets: its count costs one draw per
    packet of the rarer label."""
    if path and path[-1] == "interval_len":
        return st.integers(1, 10**6) | _RUN_VALUES
    return _RUN_VALUES


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run-fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(SMALL_RUN))
    assert main(["run", "--config", str(config), "--out", str(root / "out")]) == EXIT_OK
    return root


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_of_a_fuzzed_config_ends_in_a_documented_exit_code(run_dir, data):
    config = run_dir / "fuzzed-config.json"
    config.write_text(json.dumps(_fuzzed(data, SMALL_RUN, _run_values)))
    rc = main(["run", "--config", str(config), "--out", str(run_dir / "out")])
    assert rc in _DOCUMENTED_EXITS
