"""Tests of the benchmark itself: span arithmetic, the workload generator,
and the traced run's counts and side-effect freedom.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cidnsim import cli
from cidnsim.config import config_from_dict
from layers import Tracer, self_times
from run import VERIFY_LAYERS, VERIFY_ONLY, declared_units, is_timing, percentile
from workloads import WORKLOADS, config_json, configs_for, premise_failures

BENCH_DIR = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 7, 123456789)


def test_self_times_on_a_synthetic_span_tree():
    # 0 [0,10) has children 1 [1,5) and 2 [6,9); 1 has child 3 [2,3); 4 is a root
    parents = [-1, 0, 0, 1, -1]
    durations = [10, 4, 3, 1, 5]
    assert self_times(parents, durations) == [3, 3, 3, 1, 5]
    assert sum(self_times(parents, durations)) == 10 + 5


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert percentile(ordered, 50) == 50
    assert percentile(ordered, 90) == 90
    assert percentile(ordered, 100) == 100
    assert percentile([7.0], 95) == 7.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_configs_are_valid_and_byte_stable(workload):
    texts = set()
    seeds = set()
    for seed in SEEDS:
        configs = configs_for(workload, seed)
        assert [config_json(c) for c in configs] == [
            config_json(c) for c in configs_for(workload, seed)]
        for j, d in enumerate(configs):
            assert d["rng_seed"] == len(configs) * seed + j
            assert config_from_dict(json.loads(config_json(d))).rng_seed == d["rng_seed"]
            seeds.add(d["rng_seed"])
            texts.add(config_json(dict(d, rng_seed=0)))
    assert len(texts) == 1  # the seed is the only thing that varies
    assert len(seeds) == len(SEEDS) * len(configs)  # no two instances share one


def test_premise_checks_flag_a_wrong_shape():
    rows = [{"blocks_proposed": "1"}] * 5
    sim = {"rows": rows, "blocks": 5, "txs": 5, "mining_attempts": 0, "blocks_mined": 5}
    for workload in WORKLOADS:
        assert premise_failures(workload, configs_for(workload, 1)[0], [sim, sim])


def _small_config(tmp_path, seed):
    d = configs_for("replicated_forks", seed)[0]
    d["rounds"] = 6
    d["nodes"][-1]["behavior"]["turn_round"] = 3
    path = tmp_path / f"config-{seed}.json"
    path.write_text(json.dumps(d))
    return path


def _traced(argv):
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def _counts(tracer):
    return {k: v for k, v in tracer.layer_metrics().items() if not is_timing(k)}


def test_traced_counts_repeat_and_exports_are_unchanged(tmp_path):
    config = str(_small_config(tmp_path, 3))
    outs = [tmp_path / name for name in ("plain", "traced1", "traced2")]
    assert cli.main(["run", "--config", config, "--out", str(outs[0])]) == 0
    tracers = [_traced(["run", "--config", config, "--out", str(o)]) for o in outs[1:]]
    for tracer in tracers:
        assert tracer.missing("sim") == []
    assert _counts(tracers[0]) == _counts(tracers[1])
    reported = set(tracers[0].layer_metrics()) - set(VERIFY_ONLY)
    reported |= {f"verify.{name}" for name in VERIFY_LAYERS}
    assert reported <= set(declared_units("per_layer"))
    counts = _counts(tracers[0])
    assert counts["consensus.validate_calls"] > 0
    assert counts["consensus.mine_attempts"] > 0
    assert counts["netsim.packets"] > 0
    for name in ("chain.jsonl", "metrics.csv"):
        plain = (outs[0] / name).read_bytes()
        assert all((o / name).read_bytes() == plain for o in outs[1:])


def test_traced_verify_validates_each_block_once(tmp_path):
    config = str(_small_config(tmp_path, 4))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    tracer = _traced(["verify", "--chain", str(out / "chain.jsonl"), "--config", config])
    assert tracer.missing("verify") == []
    metrics = tracer.layer_metrics()
    assert metrics["consensus.validate_calls"] > 1
    assert metrics["consensus.validate_per_block"] == 1.0
    assert metrics["consensus.mine_calls"] == 0


def _block_with_transactions(tmp_path):
    import cidnsim.chain as chain

    config = str(_small_config(tmp_path, 5))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    blocks, _ = chain.import_chain(str(out / "chain.jsonl"))
    return next(b for b in blocks if b.transactions)


def test_encoding_bytes_are_the_bytes_produced(tmp_path):
    import cidnsim.chain as chain

    block = _block_with_transactions(tmp_path)
    signed = len(block.signed_bytes())
    header, payload = len(block.header.encode()), len(block.payload_bytes())
    assert signed == header + payload
    tracer = Tracer()
    tracer.install()
    try:
        block.signed_bytes()
        block.signed_bytes()
        chain.hash_block(block)  # the digest is not counted, its encodes are
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["encoding.calls"] > 3
    assert metrics["encoding.bytes"] == 2 * signed + header + payload
    # distinct results: the signed bytes, the header and the payload
    assert metrics["encoding.reencode_ratio"] == (3 * signed) / (2 * signed)


def test_a_memoized_encode_adds_no_bytes(tmp_path, monkeypatch):
    import cidnsim.chain as chain

    block = _block_with_transactions(tmp_path)
    original = chain.Block.signed_bytes
    memo = {}

    def signed_bytes(self):
        if id(self) not in memo:
            memo[id(self)] = original(self)
        return memo[id(self)]

    monkeypatch.setattr(chain.Block, "signed_bytes", signed_bytes)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(3):
            block.signed_bytes()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["encoding.bytes"] == len(memo[id(block)])
    assert metrics["encoding.reencode_ratio"] == 1.0


def test_uninstall_restores_every_binding():
    import cidnsim.chain as chain
    import cidnsim.consensus as consensus
    import cidnsim.node as node

    before = (consensus.validate_block, node.validate_block, cli.validate_block,
              chain.Chain.__dict__["tip_hash"], chain.Transaction.encode)
    tracer = Tracer()
    tracer.install()
    assert node.validate_block is consensus.validate_block is cli.validate_block
    assert node.validate_block is not before[0]
    tracer.uninstall()
    after = (consensus.validate_block, node.validate_block, cli.validate_block,
             chain.Chain.__dict__["tip_hash"], chain.Transaction.encode)
    assert after == before


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "child.py", "layers.py", "workloads.py"):
        shutil.copy(BENCH_DIR / name, bench / name)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lottery_monitoring",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()
