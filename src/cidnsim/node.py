"""Per-peer behavior loop: chain ingestion, trust diffusion, challenges,
transaction publication, and mining, plus pluggable adversarial behaviors.

One ``run_round`` call realizes a single round: ingest delivered blocks and
transactions, adopt the fork-choice winner, fold the committed network view
into local host trust (adopt-then-combine), refresh the blacklist, measure
local traffic, handle challenges, publish a transaction when the local
lists changed, and finally attempt to mine.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Sequence

from . import trust
from .chain import (
    Block,
    Chain,
    EvidenceRecord,
    Transaction,
    build_transaction,
    hash_block,
)
from .consensus import (
    ConsensusParams,
    Reason,
    ValidationContext,
    block_weight,
    propose,
    validate_block,
)
from .encoding import enc_int, enc_str
from .keys import KeyPair, KeyRegistry
from .netsim import (
    KIND_BLOCK,
    KIND_CHALLENGE,
    KIND_RESPONSE,
    KIND_TRANSACTION,
    Message,
    derived_rng,
    host_traffic,
)
from .trust import (
    UNSURE,
    ChallengeOutcome,
    HostTrustState,
    PeerTrustState,
    TrustParams,
    satisfaction,
    update_accumulated_trust,
    update_blacklist,
    update_satisfaction,
    update_unsure,
)

__all__ = [
    "Behavior",
    "StoredBlock",
    "BlockStore",
    "RuntimeContext",
    "Node",
    "Challenge",
    "ChallengeResponse",
]

# keep combined scores strictly inside (0,1); adversaries may publish endpoints
_EPS = 1e-15


@dataclass(frozen=True)
class Behavior:
    """Which role a node plays and when.

    kind: honest | sybil | betrayal | collusion.  Sybil nodes are the fake
    identities themselves (spawned mid-run, no monitoring duty); betrayal
    nodes act honestly until turn_round; colluders share a group strategy.
    """

    kind: str = "honest"
    spawn_round: int = 0
    turn_round: int | None = None
    strategy: str = "invert"  # invert | empty
    group_id: int | None = None

    def is_adversarial_at(self, rnd: int) -> bool:
        if self.kind == "honest":
            return False
        if self.kind == "betrayal":
            return self.turn_round is not None and rnd >= self.turn_round
        return True


@dataclass(frozen=True)
class Challenge:
    challenger: str
    target: str
    sent_round: int
    priority: float


@dataclass(frozen=True)
class ChallengeResponse:
    challenger: str
    target: str
    sent_round: int
    answer: float | Any  # priority or UNSURE


@dataclass(frozen=True)
class StoredBlock:
    """A block's validation outcome and, when valid, the state it derives.

    chain: the parent chain extended by the block (None when invalid).
    score: cumulative fork-choice weight from genesis to the block.
    """

    ok: bool
    reason: str
    chain: Chain | None = None
    score: float = 0.0


class BlockStore:
    """Validation results and derived state of every distinct block, shared
    by all replicas that agree on one ``ValidationContext``.

    Validity, the derived chain and the score are pure functions of the
    block and its parent, so each block is validated and extended once,
    however many replicas receive it.  Entries are keyed on the full block
    identity: ``hash_block`` leaves the leader signature out, and a copy with
    a forged signature must not shadow the genuine block.  The parent is
    named by ``prev_hash``; every parent with that hash derives the same
    state, so one entry serves all of them.

    Each transaction id is indexed to the (height, hash) of the valid blocks
    that hold it, so whether a chain commits a transaction is a look at those
    heights of the chain, with no per-block set of everything committed.
    """

    def __init__(self) -> None:
        self.genesis = StoredBlock(True, Reason.OK, Chain.genesis())
        self._entries: dict[tuple[bytes, bytes], StoredBlock] = {}
        self._holders: dict[bytes, list[tuple[int, bytes]]] = {}

    def admit(
        self, b: Block, parent: StoredBlock, ctx: ValidationContext
    ) -> StoredBlock:
        """The entry of ``b`` on ``parent``, validating and extending only on
        first sight."""
        bh = hash_block(b)
        key = (bh, b.leader_signature)
        entry = self._entries.get(key)
        if entry is None:
            ok, reason = validate_block(b, parent.chain, ctx)
            if ok:
                entry = StoredBlock(
                    ok,
                    reason,
                    parent.chain.extended(b),
                    parent.score + block_weight(parent.chain, b, ctx),
                )
                holder = (len(parent.chain), bh)
                for tx in b.transactions:
                    self._holders.setdefault(tx.tx_id, []).append(holder)
            else:
                entry = StoredBlock(ok, reason)
            self._entries[key] = entry
        return entry

    def commits(self, chain: Chain, tx_id: bytes) -> bool:
        """Whether a block of ``chain`` holds the transaction ``tx_id``."""
        blocks = chain.blocks
        return any(
            height < len(blocks) and hash_block(blocks[height]) == bh
            for height, bh in self._holders.get(tx_id, ())
        )


@dataclass
class RuntimeContext:
    """Shared simulation plumbing every node agrees on; everything but the
    append-only block store and transaction verdicts is read-only."""

    seed: int
    trust_params: TrustParams
    consensus_params: ConsensusParams
    registry: KeyRegistry
    members_at: Callable[[int], list[str]]
    index_of: dict[str, int]
    host_ids: list[str]
    host_pmal: dict[str, float]
    challenge_prob: float
    challenge_priorities: str  # uniform | binary
    collusion_groups: dict[str, int] = field(default_factory=dict)  # node_id -> group id
    block_store: BlockStore = field(default_factory=BlockStore)

    @cached_property
    def validation_context(self) -> ValidationContext:
        """The one context of the run, so its transaction verdicts are shared
        by every replica and every block validation."""
        return ValidationContext(
            params=self.consensus_params,
            registry=self.registry,
            initial_trust=self.trust_params.initial_trust,
            members_at=self.members_at,
        )


class Node:
    """A simulated CIDN peer with its chain replica and trust state."""

    def __init__(
        self,
        ctx: RuntimeContext,
        index: int,
        key: KeyPair,
        behavior: Behavior,
        monitors: Sequence[str],
        know_prob: float = 1.0,
        fp: float = 0.0,
        fn: float = 0.0,
    ):
        self.ctx = ctx
        self.index = index
        self.key = key
        self.node_id = key.node_id
        self.behavior = behavior
        self.monitors = list(monitors)
        self.know_prob = know_prob
        self.fp = fp
        self.fn = fn

        p = ctx.trust_params
        self.peer_trust: dict[str, PeerTrustState] = {}
        self.host_trust: dict[str, HostTrustState] = {
            ip: HostTrustState.fresh(p) for ip in self.monitors
        }
        self.evidence: dict[str, EvidenceRecord] = {}

        # the valid blocks this replica has received, by hash; their derived
        # state lives in the shared block store
        genesis = ctx.block_store.genesis
        self._received: dict[bytes, StoredBlock] = {genesis.chain.tip_hash: genesis}
        self._leaves: set[bytes] = {genesis.chain.tip_hash}
        self._orphans: list[Block] = []
        self.replica: Chain = genesis.chain

        self.pending_txs: dict[str, Transaction] = {}
        self.outstanding: dict[tuple[str, int], float] = {}
        self.last_published: tuple | None = None

        self.invalid_reasons: Counter[str] = Counter()  # reason code -> blocks dropped
        self.mining_attempts = 0
        self.blocks_mined = 0

        self._traffic_rngs = {
            ip: derived_rng(ctx.seed, "traffic", index, ip) for ip in self.monitors
        }
        self._challenge_rngs: dict[int, Any] = {}
        self._response_rngs: dict[int, Any] = {}

    # -- helpers ----------------------------------------------------------

    @property
    def invalid_blocks(self) -> int:
        return sum(self.invalid_reasons.values())

    @property
    def blacklist(self) -> set[str]:
        return {ip for ip, st in self.host_trust.items() if st.blacklisted}

    def _pair_rng(self, cache: dict, purpose: str, other_index: int):
        rng = cache.get(other_index)
        if rng is None:
            rng = derived_rng(self.ctx.seed, purpose, self.index, other_index)
            cache[other_index] = rng
        return rng

    def _sync_peers(self, rnd: int) -> list[str]:
        peers = [m for m in self.ctx.members_at(rnd) if m != self.node_id]
        for peer in peers:
            if peer not in self.peer_trust:
                self.peer_trust[peer] = PeerTrustState.fresh(self.ctx.trust_params)
        return peers

    # -- round loop -------------------------------------------------------

    def run_round(
        self, deliveries: Sequence[Message], rnd: int
    ) -> list[tuple[str, str | None, Any]]:
        """Process one round; returns outgoing (kind, receiver-or-None, payload)."""
        peers = self._sync_peers(rnd)
        out: list[tuple[str, str | None, Any]] = []

        blocks = [m.payload for m in deliveries if m.kind == KIND_BLOCK]
        txs = [m.payload for m in deliveries if m.kind == KIND_TRANSACTION]
        challenges = [m.payload for m in deliveries if m.kind == KIND_CHALLENGE]
        responses = [m.payload for m in deliveries if m.kind == KIND_RESPONSE]

        # (1) chain ingestion and fork choice
        tip_advanced = self._ingest_blocks(blocks)
        for tx in txs:
            if self.ctx.validation_context.transaction_ok(tx):
                self.pending_txs[tx.ids_id] = tx
        self._drop_committed_pending()

        # (2) adopt-then-combine when new data got committed
        if tip_advanced and self.monitors:
            self._combine_from_chain()

        # (3) blacklist refresh
        self._refresh_blacklist()

        # (4) local traffic measurement (blacklisted hosts produce no packets
        # to inspect; redemption happens through peers' scores)
        self._measure_traffic(rnd)
        self._refresh_blacklist()

        # (5) challenges: answer, evaluate, issue
        for ch in challenges:
            out.append((KIND_RESPONSE, ch.challenger, self.respond_to_challenge(ch, rnd)))
        for resp in responses:
            self._evaluate_response(resp)
        out.extend(self._issue_challenges(peers, rnd))

        # (6) publish a transaction when the local lists changed
        tx = self._maybe_build_transaction(rnd)
        if tx is not None:
            out.append((KIND_TRANSACTION, None, tx))

        # (7) consensus attempt
        block = self._attempt_mining(rnd)
        if block is not None:
            self.blocks_mined += 1
            out.append((KIND_BLOCK, None, block))
        return out

    # -- (1) chain --------------------------------------------------------

    def _fork_key(self, h: bytes) -> tuple[float, bytes]:
        """Fork-choice order: highest accumulated stake x credibility first,
        ties toward the smallest tip hash (as in ``consensus.resolve``)."""
        return (-self._received[h].score, h)

    def _ingest_blocks(self, blocks: Sequence[Block]) -> bool:
        vctx = self.ctx.validation_context
        queue = list(blocks) + self._orphans
        self._orphans = []
        # the best leaf starts as the replica's tip and is updated as each
        # admitted block replaces its parent among the leaves; the leaves are
        # rescanned only when the best leaf's child ranks below another leaf
        tip = best = self.replica.tip_hash
        progress = True
        while progress:
            progress = False
            remaining: list[Block] = []
            for b in queue:
                bh = hash_block(b)
                if bh in self._received:
                    continue  # duplicate
                parent = self._received.get(b.header.prev_hash)
                if parent is None:
                    remaining.append(b)
                    continue
                entry = self.ctx.block_store.admit(b, parent, vctx)
                progress = True
                if not entry.ok:
                    self.invalid_reasons[entry.reason] += 1
                    continue
                self._received[bh] = entry
                parent_hash = b.header.prev_hash
                self._leaves.discard(parent_hash)
                self._leaves.add(bh)
                if self._fork_key(bh) < self._fork_key(best):
                    best = bh
                elif parent_hash == best:
                    best = min(self._leaves, key=self._fork_key)
            queue = remaining
        self._orphans = queue

        if best != tip:
            self.replica = self._received[best].chain
            return True
        return False

    def _drop_committed_pending(self) -> None:
        commits = self.ctx.block_store.commits
        self.pending_txs = {
            sid: tx
            for sid, tx in self.pending_txs.items()
            if not commits(self.replica, tx.tx_id)
        }

    # -- (2) diffusion ----------------------------------------------------

    def _combine_from_chain(self) -> None:
        p = self.ctx.trust_params
        crds = {peer: st.crd for peer, st in self.peer_trust.items()}
        weights = trust.compute_weights(self.node_id, crds, p)
        latest = self.replica.latest_trust
        for ip, state in self.host_trust.items():
            scores = {
                obs: published[ip]
                for obs, published in latest.items()
                if ip in published and obs != self.node_id
            }
            scores[self.node_id] = state.tr_ids
            combined = trust.combine_trust(self.node_id, weights, scores)
            combined = min(max(combined, _EPS), 1.0 - _EPS)
            self.host_trust[ip] = replace(state, tr_ids=combined)

    def _refresh_blacklist(self) -> None:
        p = self.ctx.trust_params
        for ip, state in self.host_trust.items():
            self.host_trust[ip] = update_blacklist(state, p)

    # -- (4) measurement --------------------------------------------------

    def _measure_traffic(self, rnd: int) -> None:
        p = self.ctx.trust_params
        for ip in self.monitors:
            state = self.host_trust[ip]
            if state.blacklisted:
                continue  # packets dropped unseen
            k, n = host_traffic(
                self.ctx.host_pmal[ip], self.fp, self.fn, p.interval_len,
                self._traffic_rngs[ip],
            )
            tr_inst = trust.measure_instantaneous_trust(k, n)
            self.host_trust[ip] = update_accumulated_trust(state, tr_inst, p)
            digests: tuple[bytes, ...] = ()
            if n - k > 0:
                alert = enc_int(rnd) + enc_str(self.node_id) + enc_str(ip) + enc_int(n - k)
                digests = (hashlib.sha256(alert).digest(),)
            self.evidence[ip] = EvidenceRecord(ip, digests, k, n)

    # -- (5) challenges ---------------------------------------------------

    def respond_to_challenge(self, ch: Challenge, rnd: int) -> ChallengeResponse:
        """Behavior-dependent answer to a received challenge."""
        b = self.behavior
        if b.kind == "sybil":
            answer: float | Any = UNSURE
        elif b.kind in ("betrayal", "collusion") and b.is_adversarial_at(rnd):
            answer = 1.0 - ch.priority
        else:
            rng = self._pair_rng(
                self._response_rngs, "response", self.ctx.index_of[ch.challenger]
            )
            answer = ch.priority if rng.random() < self.know_prob else UNSURE
        return ChallengeResponse(ch.challenger, self.node_id, ch.sent_round, answer)

    def _evaluate_response(self, resp: ChallengeResponse) -> None:
        expected = self.outstanding.pop((resp.target, resp.sent_round), None)
        if expected is None:
            return
        p = self.ctx.trust_params
        state = self.peer_trust.get(resp.target)
        if state is None:
            state = PeerTrustState.fresh(p)
        outcome = ChallengeOutcome(expected, resp.answer)
        if outcome.is_unsure:
            self.peer_trust[resp.target] = update_unsure(state, p)
        else:
            self.peer_trust[resp.target] = update_satisfaction(
                state, satisfaction(outcome), p
            )

    def _issue_challenges(
        self, peers: Sequence[str], rnd: int
    ) -> list[tuple[str, str, Challenge]]:
        out = []
        for peer in peers:
            rng = self._pair_rng(
                self._challenge_rngs, "challenge", self.ctx.index_of[peer]
            )
            if rng.random() >= self.ctx.challenge_prob:
                continue
            u = rng.random()
            priority = u if self.ctx.challenge_priorities == "uniform" else (
                0.0 if u < 0.5 else 1.0
            )
            self.outstanding[(peer, rnd)] = priority
            out.append(
                (KIND_CHALLENGE, peer, Challenge(self.node_id, peer, rnd, priority))
            )
        return out

    # -- (6) transaction --------------------------------------------------

    def current_lists(self) -> tuple[dict[str, float], dict[str, float]]:
        """Honest view: peer credibilities and monitored-host trust scores."""
        creds = {peer: st.crd for peer, st in self.peer_trust.items()}
        trusts = {ip: st.tr_ids for ip, st in self.host_trust.items()}
        return creds, trusts

    def distorted_lists(self, rnd: int) -> tuple[dict[str, float], dict[str, float]]:
        """Behavior-dependent published lists (validly signed, false content)."""
        creds, trusts = self.current_lists()
        b = self.behavior
        if not b.is_adversarial_at(rnd):
            return creds, trusts
        if b.kind == "sybil":
            if b.strategy == "empty":
                return creds, {}
            latest = self.replica.latest_trust
            fabricated = {}
            for ip in self.ctx.host_ids:
                published = [v[ip] for v in latest.values() if ip in v]
                mean = sum(published) / len(published) if published else 0.5
                fabricated[ip] = 1.0 - mean
            return creds, fabricated
        if b.kind == "collusion":
            groups = self.ctx.collusion_groups
            creds = {
                peer: (1.0 if groups.get(peer) == b.group_id else 1.0 - c)
                for peer, c in creds.items()
            }
            return creds, {ip: 1.0 - t for ip, t in trusts.items()}
        # betrayal: plain inversion
        return (
            {peer: 1.0 - c for peer, c in creds.items()},
            {ip: 1.0 - t for ip, t in trusts.items()},
        )

    def _maybe_build_transaction(self, rnd: int) -> Transaction | None:
        creds, trusts = self.distorted_lists(rnd)
        fingerprint = (tuple(sorted(creds.items())), tuple(sorted(trusts.items())))
        if fingerprint == self.last_published:
            return None
        self.last_published = fingerprint
        evidence = {ip: ev for ip, ev in self.evidence.items() if ip in trusts}
        return build_transaction(self.key, creds, trusts, evidence)

    # -- (7) mining -------------------------------------------------------

    def _attempt_mining(self, rnd: int) -> Block | None:
        block, attempts = propose(
            self.replica, self.key, rnd, self.pending_txs.values(),
            self.ctx.validation_context,
        )
        self.mining_attempts += attempts
        return block
