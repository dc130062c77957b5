"""Per-layer tracing of a cidnsim process from outside the program.

``Tracer.install`` replaces each traced public function at every place it is
bound (its defining module, every cidnsim module that imported the name, or
its class), so calls made through any binding are recorded.  Every call
becomes a span (target, start, end, parent) kept in compact in-memory arrays;
self time is derived from the spans afterwards.  Counts that the layers'
return values carry (hash attempts, packets, reason codes, bytes) are taken
at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from typing import Any, Callable, Sequence

MODULES = (
    "encoding", "keys", "trust", "chain", "consensus", "netsim", "node",
    "config", "simulation", "experiments", "cli",
)

# (target name, layer, defining module, attribute path).  The encode entry
# points are the encoding layer even though they live in cidnsim.chain; the
# enc_* helpers are left unwrapped because they run millions of times.
TARGETS = (
    ("tx_body_bytes", "encoding", "chain", "Transaction.body_bytes"),
    ("tx_encode", "encoding", "chain", "Transaction.encode"),
    ("block_payload_bytes", "encoding", "chain", "Block.payload_bytes"),
    ("block_signed_bytes", "encoding", "chain", "Block.signed_bytes"),
    ("header_encode", "encoding", "chain", "BlockHeader.encode"),
    ("hash_block", "encoding", "chain", "hash_block"),
    ("validate_block", "consensus", "consensus", "validate_block"),
    ("check_eligibility", "consensus", "consensus", "check_eligibility"),
    ("mine", "consensus", "consensus", "mine"),
    ("avg_cred", "consensus", "consensus", "chain_average_credibility"),
    ("extended", "chain", "chain", "Chain.extended"),
    ("tip_hash", "chain", "chain", "Chain.tip_hash"),
    ("verify_tx", "chain", "chain", "verify_transaction"),
    ("build_tx", "chain", "chain", "build_transaction"),
    ("export_chain", "chain", "chain", "export_chain"),
    ("import_chain", "chain", "chain", "import_chain"),
    ("keys_verify", "keys", "keys", "verify"),
    ("keys_sign", "keys", "keys", "KeyPair.sign"),
    ("net_send", "netsim", "netsim", "Network.send"),
    ("net_step", "netsim", "netsim", "Network.step"),
    ("host_traffic", "netsim", "netsim", "host_traffic"),
    ("run_round", "node", "node", "Node.run_round"),
    ("sim_run", "simulation", "simulation", "Simulation.run"),
    ("load_config", "config", "config", "load_config"),
    ("verify_chain", "cli", "cli", "verify_chain"),
)

ENCODING_TARGETS = tuple(t[0] for t in TARGETS if t[1] == "encoding")
# hash_block is timed with the encoding layer, but it returns a digest, not an
# encoding; the encodes it makes are counted through the nested calls.
BYTE_TARGETS = tuple(t for t in ENCODING_TARGETS if t != "hash_block")

# Validation reason codes of cidnsim.consensus.Reason other than "ok".
REASONS = (
    "linkage", "gen-time", "block-id", "unknown-leader", "tx-order",
    "tx-invalid", "eligibility", "target-mismatch", "ctr-bound", "mining",
    "leader-signature",
)

# Targets that must record at least one call in a traced operation of each
# kind; a binding the tracer missed then fails the run instead of reading 0.
EXPECTED = {
    "sim": (
        "tx_body_bytes", "tx_encode", "block_payload_bytes",
        "block_signed_bytes", "header_encode", "hash_block", "validate_block",
        "check_eligibility", "mine", "avg_cred", "extended", "tip_hash",
        "verify_tx", "build_tx", "export_chain", "keys_verify", "keys_sign",
        "net_send", "net_step", "host_traffic", "run_round", "sim_run",
        "load_config", "trust.*",
    ),
    "verify": (
        "tx_body_bytes", "tx_encode", "block_payload_bytes",
        "block_signed_bytes", "header_encode", "hash_block", "validate_block",
        "check_eligibility", "avg_cred", "extended", "tip_hash", "verify_tx",
        "import_chain", "keys_verify", "load_config", "verify_chain", "trust.*",
    ),
}


def self_times(parents: Sequence[int], durations: Sequence[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root; a
    parent always precedes its children.
    """
    out = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= durations[i]
    return out


class Tracer:
    """Records spans and boundary counts for the traced cidnsim functions."""

    def __init__(self) -> None:
        self.names: list[str] = []  # target id -> name
        self.layers: list[str] = []  # target id -> layer
        self._span_target = array("H")
        self._span_parent = array("l")
        self._span_start = array("q")
        self._span_end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._encoded: dict[tuple[int, int], bytes] = {}  # (length, hash) -> first result
        self._byte_tids: set[int] = set()
        self._blocks_validated: set[bytes] = set()
        self._verified: set[int] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"cidnsim.{m}") for m in MODULES}
        for name, layer, mod, path in TARGETS:
            self._install_one(mods, name, layer, mods[mod], path)
        trust = mods["trust"]
        for fname in trust.__all__:
            fn = getattr(trust, fname)
            if callable(fn) and not isinstance(fn, type):
                self._install_one(mods, f"trust.{fname}", "trust", trust, fname)
        self._check_bindings(mods)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install_one(self, mods: dict, name: str, layer: str, module: Any,
                     path: str) -> None:
        tid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        if name in BYTE_TARGETS:
            self._byte_tids.add(tid)
        observe = self._observer(name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(original.fget, tid, observe))
            else:
                wrapped = self._wrap(original, tid, observe)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, path)
        wrapped = self._wrap(original, tid, observe)
        for mod in mods.values():
            for bound_name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, bound_name, original))
                    setattr(mod, bound_name, wrapped)

    def _check_bindings(self, mods: dict) -> None:
        originals = {id(original) for _, _, original in self._restore}
        for mod_name, mod in mods.items():
            for bound_name, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(
                        f"cidnsim.{mod_name}.{bound_name} still bound to an untraced function"
                    )

    def _wrap(self, fn: Callable, tid: int, observe: Callable | None) -> Callable:
        targets, parents = self._span_target, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(targets)
            targets.append(tid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- boundary counts --------------------------------------------------

    def _observer(self, name: str) -> Callable | None:
        counts = self.counts
        if name in BYTE_TARGETS:
            encoded, byte_tids = self._encoded, self._byte_tids
            targets, stack = self._span_target, self._stack

            def observe(args, result):
                # Only the outermost encode counts: a nested one is part of
                # its caller's result (stack holds the open ancestor spans).
                # A call that hands back the very object an earlier call
                # returned encoded nothing (a memoized result) and adds no bytes.
                if any(targets[i] in byte_tids for i in stack[1:]):
                    return
                key = (len(result), hash(result))
                first = encoded.get(key)
                if first is None:
                    encoded[key] = result
                elif first is result:
                    return
                counts["encoding.bytes"] += key[0]

            return observe
        if name == "validate_block":
            seen = self._blocks_validated

            def observe(args, result):
                seen.add(args[0].header.block_id)
                if not result[0]:
                    counts[f"consensus.invalid.{result[1]}"] += 1

            return observe
        if name == "check_eligibility":
            def observe(args, result):
                counts["consensus.eligible"] += bool(result[0])

            return observe
        if name == "mine":
            def observe(args, result):
                counts["consensus.mine_attempts"] += result[1]
                counts["consensus.mine_success"] += result[0] is not None

            return observe
        if name == "keys_verify":
            verified = self._verified

            def observe(args, result):
                verified.add(hash((bytes(args[0]), bytes(args[1]), bytes(args[2]))))

            return observe
        if name == "net_step":
            def observe(args, result):
                counts["netsim.messages_delivered"] += sum(len(v) for v in result.values())

            return observe
        if name == "host_traffic":
            def observe(args, result):
                counts["netsim.packets"] += result[1]

            return observe
        return None

    # -- results ----------------------------------------------------------

    def target_stats(self) -> dict[str, dict[str, float]]:
        """Per target: calls, inclusive seconds and self seconds."""
        durations = [e - s for s, e in zip(self._span_start, self._span_end)]
        selfs = self_times(self._span_parent, durations)
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for tid, d, sd in zip(self._span_target, durations, selfs):
            calls[tid] += 1
            total[tid] += d
            own[tid] += sd
        return {
            name: {"calls": calls[t], "s": total[t] / 1e9, "self_s": own[t] / 1e9}
            for t, name in enumerate(self.names)
        }

    def missing(self, kind: str) -> list[str]:
        """Expected targets of an operation kind that recorded no call."""
        stats = self.target_stats()
        out = []
        for name in EXPECTED[kind]:
            if name == "trust.*":
                if not any(v["calls"] for k, v in stats.items() if k.startswith("trust.")):
                    out.append(name)
            elif stats[name]["calls"] == 0:
                out.append(name)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics a traced operation contributes."""
        st = self.target_stats()
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def layer_self(layer: str) -> float:
            return sum(st[name]["self_s"]
                       for name, lay in zip(self.names, self.layers) if lay == layer)

        enc_calls = sum(st[t]["calls"] for t in ENCODING_TARGETS)
        distinct_bytes = sum(n for n, _ in self._encoded)
        validate = st["validate_block"]["calls"]
        mine = st["mine"]
        verify_calls = st["keys_verify"]["calls"]
        out = {
            "encoding.calls": enc_calls,
            "encoding.bytes": c["encoding.bytes"],
            "encoding.reencode_ratio": ratio(c["encoding.bytes"], distinct_bytes),
            "encoding.self_s": layer_self("encoding"),
            "consensus.validate_calls": validate,
            "consensus.validate_per_block": ratio(validate, len(self._blocks_validated)),
            "consensus.validate_s": st["validate_block"]["s"],
        }
        for reason in REASONS:
            out[f"consensus.invalid.{reason}"] = c[f"consensus.invalid.{reason}"]
        out.update({
            "consensus.eligibility_calls": st["check_eligibility"]["calls"],
            "consensus.eligible_ratio": ratio(c["consensus.eligible"],
                                              st["check_eligibility"]["calls"]),
            "consensus.mine_calls": mine["calls"],
            "consensus.mine_attempts": c["consensus.mine_attempts"],
            "consensus.mine_success_ratio": ratio(c["consensus.mine_success"], mine["calls"]),
            "consensus.mine_s": mine["s"],
            "consensus.hashes_per_s": ratio(c["consensus.mine_attempts"], mine["s"]),
            "consensus.avg_cred_s": st["avg_cred"]["s"],
            "chain.extended_calls": st["extended"]["calls"],
            "chain.extended_s": st["extended"]["s"],
            "chain.tip_hash_calls": st["tip_hash"]["calls"],
            "chain.verify_tx_calls": st["verify_tx"]["calls"],
            "chain.verify_tx_s": st["verify_tx"]["s"],
            "chain.build_tx_calls": st["build_tx"]["calls"],
            "chain.export_s": st["export_chain"]["s"],
            "chain.import_s": st["import_chain"]["s"],
            "keys.verify_calls": verify_calls,
            "keys.verify_distinct_ratio": ratio(len(self._verified), verify_calls),
            "keys.verify_s": st["keys_verify"]["s"],
            "keys.sign_calls": st["keys_sign"]["calls"],
            "keys.sign_s": st["keys_sign"]["s"],
            "netsim.messages_sent": st["net_send"]["calls"],
            "netsim.messages_delivered": c["netsim.messages_delivered"],
            "netsim.step_s": st["net_step"]["s"],
            "netsim.packets": c["netsim.packets"],
            "netsim.host_traffic_s": st["host_traffic"]["s"],
            "trust.calls": sum(v["calls"] for k, v in st.items() if k.startswith("trust.")),
            "trust.self_s": layer_self("trust"),
            "node.run_round_self_s": st["run_round"]["self_s"],
            "simulation.self_s": st["sim_run"]["self_s"],
            "config.load_s": st["load_config"]["s"],
            "cli.verify_s": st["verify_chain"]["s"],
        })
        return out
