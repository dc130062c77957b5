"""Per-peer behavior loop: chain ingestion, trust diffusion, challenges,
transaction publication, and mining, plus pluggable adversarial behaviors.

One ``run_round`` call realizes a single round: ingest delivered blocks and
transactions, adopt the fork-choice winner, fold the committed network view
into local host trust (adopt-then-combine), measure local traffic of the
hosts not blacklisted, handle challenges, publish a transaction when the
local lists changed, and finally attempt to mine.

Fork choice lives here: the block store scores each valid block by the
weight its validation returns, added to its parent's score, and every
replica follows the leaf of best ``Chain.rank``.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from . import trust
from .chain import (
    Block,
    Chain,
    EvidenceRecord,
    Transaction,
    build_transaction,
    hash_block,
)
from .consensus import ValidationContext, propose, validate_block
from .encoding import enc_int, enc_str, sha256
from .keys import KeyPair
from .netsim import (
    KIND_BLOCK,
    KIND_CHALLENGE,
    KIND_RESPONSE,
    KIND_TRANSACTION,
    Message,
    host_traffic,
    keyed_draws,
)
from .trust import (
    UNSURE,
    HostTrustState,
    PeerTrustState,
    TrustParams,
    is_blacklisted,
    satisfaction,
    update_accumulated_trust,
    update_satisfaction,
    update_unsure,
)

if TYPE_CHECKING:
    from .config import NetParams

__all__ = [
    "Behavior",
    "BlockStore",
    "RuntimeContext",
    "Node",
]

# keep combined scores strictly inside (0,1); adversaries may publish endpoints
_EPS = 1e-15


class Behavior(NamedTuple):
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


class BlockStore:
    """Validation results and derived chains of every distinct block, shared
    by all replicas that agree on one ``ValidationContext``.

    Validity and the derived chain (with its score) are pure functions of
    the block and its parent, so each block is validated and extended once,
    however many replicas receive it.  Entries are keyed on every byte of the
    block: its id (``hash_block``), the id its header claims and the leader
    signature.  The id leaves the other two out, so a copy that forges
    either must not shadow the genuine block.  The parent is named by
    ``prev_hash``; every parent with that id derives the same state, so one
    entry serves all of them.
    """

    def __init__(self) -> None:
        self.genesis = Chain.genesis()
        self._entries: dict[tuple[bytes, bytes, bytes], tuple[str, Chain | None]] = {}

    def admit(
        self, b: Block, parent: Chain, ctx: ValidationContext
    ) -> tuple[str, Chain | None]:
        """The reason code of ``b`` on ``parent`` and, when valid, the chain
        it derives; validating and extending only on first sight."""
        key = (hash_block(b), b.header.block_id, b.leader_signature)
        entry = self._entries.get(key)
        if entry is None:
            ok, reason, weight = validate_block(b, parent, ctx)
            chain = parent.extended(b, weight) if ok else None
            entry = self._entries[key] = (reason, chain)
        return entry


class RuntimeContext:
    """Shared simulation plumbing every node agrees on; everything but the
    append-only block store and transaction verdicts is read-only.

    validation_context: the one context of the run, so its transaction
    verdicts are shared by every replica and every block validation.
    network: the config's network section (challenges, and the delay that
    bounds when a challenge can still be answered).
    """

    __slots__ = ("seed", "trust_params", "validation_context", "index_of", "host_ids",
                 "host_index", "host_pmal", "network", "collusion_groups", "block_store")

    def __init__(
        self, seed: int, trust_params: TrustParams, validation_context: ValidationContext,
        index_of: dict[str, int], host_ids: list[str], host_pmal: dict[str, float],
        network: NetParams, collusion_groups: dict[str, int] | None = None,
    ) -> None:
        self.seed = seed
        self.trust_params = trust_params
        self.validation_context = validation_context
        self.index_of = index_of
        self.host_ids = host_ids
        # host id -> its number, which keys the host's traffic draws
        self.host_index = {ip: i for i, ip in enumerate(host_ids)}
        self.host_pmal = host_pmal
        self.network = network
        # node_id -> group id
        self.collusion_groups = {} if collusion_groups is None else collusion_groups
        self.block_store = BlockStore()


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

        # the chains of the valid blocks this replica has received, by block
        # id; they are the shared block store's
        genesis = ctx.block_store.genesis
        self._received: dict[bytes, Chain] = {genesis.tip_hash: genesis}
        self._leaves: set[bytes] = {genesis.tip_hash}
        self._orphans: list[Block] = []
        self.replica: Chain = genesis

        self.pending_txs: dict[str, Transaction] = {}
        self.outstanding: dict[tuple[str, int], float] = {}
        self.last_published: tuple | None = None

        self.invalid_reasons: Counter[str] = Counter()  # reason code -> blocks dropped
        self.mining_attempts = 0
        self.blocks_mined = 0

    # -- helpers ----------------------------------------------------------

    @property
    def invalid_blocks(self) -> int:
        return sum(self.invalid_reasons.values())

    @property
    def blacklist(self) -> set[str]:
        p = self.ctx.trust_params
        return {ip for ip, st in self.host_trust.items() if is_blacklisted(st, p)}

    def _sync_peers(self, rnd: int) -> tuple[str, ...]:
        """The members at ``rnd``, after giving each peer not met before a
        fresh trust state."""
        members = tuple(self.ctx.validation_context.members_at(rnd))
        for peer in members:
            if peer != self.node_id and peer not in self.peer_trust:
                self.peer_trust[peer] = PeerTrustState.fresh(self.ctx.trust_params)
        return members

    # -- round loop -------------------------------------------------------

    def run_round(
        self, deliveries: Sequence[Message], rnd: int
    ) -> list[tuple[str, tuple[str, ...], Any]]:
        """Process one round; returns outgoing (kind, receivers, payload).

        A transaction or a block goes to every member, this node included.
        A round sends at most one challenge message, whose payload is
        (round, {challenged peer: priority}), and one response message,
        whose payload is {challenger: (round challenged, answer)}; each
        receiver reads its own entry."""
        members = self._sync_peers(rnd)
        out: list[tuple[str, tuple[str, ...], Any]] = []

        inbox: dict[str, list[Message]] = {
            KIND_BLOCK: [], KIND_TRANSACTION: [], KIND_CHALLENGE: [], KIND_RESPONSE: []
        }
        for m in deliveries:
            inbox[m.kind].append(m)
        blocks, txs, challenges, responses = inbox.values()

        # (1) chain ingestion and fork choice
        tip_advanced = self._ingest_blocks([m.payload for m in blocks])
        for m in txs:
            tx = m.payload
            if self.ctx.validation_context.transaction_ok(tx):
                self.pending_txs[tx.ids_id] = tx
        self._drop_committed_pending()

        # (2) adopt-then-combine when new data got committed
        if tip_advanced and self.monitors:
            self._combine_from_chain()

        # (3) local traffic measurement (blacklisted hosts produce no packets
        # to inspect; redemption happens through peers' scores)
        self._measure_traffic(rnd)

        # (4) challenges: answer, evaluate, issue
        me = self.node_id
        answers = {}
        for m in challenges:
            sent_round, priorities = m.payload
            answers[m.sender] = (
                sent_round, self.answer_challenge(m.sender, priorities[me], rnd)
            )
        if answers:
            out.append((KIND_RESPONSE, tuple(answers), answers))
        for m in responses:
            self._evaluate_response(m.sender, *m.payload[me])
        self._expire_challenges(rnd)
        priorities = self._issue_challenges(members, rnd)
        if priorities:
            out.append((KIND_CHALLENGE, tuple(priorities), (rnd, priorities)))

        # (5) publish a transaction when the local lists changed
        tx = self._maybe_build_transaction(rnd)
        if tx is not None:
            out.append((KIND_TRANSACTION, members, tx))

        # (6) consensus attempt
        block = self._attempt_mining(rnd)
        if block is not None:
            self.blocks_mined += 1
            out.append((KIND_BLOCK, members, block))
        return out

    # -- (1) chain --------------------------------------------------------

    def _ingest_blocks(self, blocks: Sequence[Block]) -> bool:
        vctx = self.ctx.validation_context
        queue = list(blocks) + self._orphans
        self._orphans = []
        # the best leaf starts as the replica's tip and is updated as each
        # admitted block replaces its parent among the leaves; the leaves are
        # rescanned only when the best leaf's child ranks below another leaf
        tip = best = self.replica
        progress = True
        while progress:
            progress = False
            remaining: list[Block] = []
            for b in queue:
                bh = hash_block(b)
                known = self._received.get(bh)
                if known is not None and known.tip == b:
                    continue  # duplicate; a forged copy of a known block is validated
                parent = self._received.get(b.header.prev_hash)
                if parent is None:
                    remaining.append(b)
                    continue
                reason, chain = self.ctx.block_store.admit(b, parent, vctx)
                progress = True
                if chain is None:
                    self.invalid_reasons[reason] += 1
                    continue
                self._received[bh] = chain
                self._leaves.discard(b.header.prev_hash)
                self._leaves.add(bh)
                if chain.rank < best.rank:
                    best = chain
                elif parent is best:
                    leaves = map(self._received.__getitem__, self._leaves)
                    best = min(leaves, key=attrgetter("rank"))
            queue = remaining
        self._orphans = queue

        if best is not tip:
            self.replica = best
            return True
        return False

    def _drop_committed_pending(self) -> None:
        """Keep the pending transactions still new on the replica: neither
        committed nor outdated by a later one of their signer."""
        is_new = self.replica.is_new
        self.pending_txs = {
            sid: tx for sid, tx in self.pending_txs.items() if is_new(tx)
        }

    # -- (2) diffusion ----------------------------------------------------

    def _combine_from_chain(self) -> None:
        p = self.ctx.trust_params
        crds = {peer: st.crd for peer, st in self.peer_trust.items()}
        weights = trust.compute_weights(self.node_id, crds, p)
        latest = {
            obs: tx.host_trusts()
            for obs, tx in self.replica.latest_tx.items()
            if obs != self.node_id
        }
        for ip, state in self.host_trust.items():
            scores = {
                obs: published[ip] for obs, published in latest.items() if ip in published
            }
            scores[self.node_id] = state.tr_ids
            combined = trust.combine_trust(self.node_id, weights, scores)
            combined = min(max(combined, _EPS), 1.0 - _EPS)
            self.host_trust[ip] = HostTrustState(tr_ids=combined)

    # -- (3) measurement --------------------------------------------------

    def _measure_traffic(self, rnd: int) -> None:
        """Count each monitored host's packets of round ``rnd`` from the one
        draw keyed (this node, host, ``rnd``), so a skipped round shifts no
        other round's count."""
        ctx = self.ctx
        p = ctx.trust_params
        for ip in self.monitors:
            state = self.host_trust[ip]
            if is_blacklisted(state, p):
                continue  # packets dropped unseen
            u = keyed_draws(ctx.seed, "traffic", self.index, ctx.host_index[ip], rnd)[0]
            k, n = host_traffic(ctx.host_pmal[ip], self.fp, self.fn, p.interval_len, u)
            tr_inst = trust.measure_instantaneous_trust(k, n)
            self.host_trust[ip] = update_accumulated_trust(state, tr_inst, p)
            digests: tuple[bytes, ...] = ()
            if n - k > 0:
                alert = enc_int(rnd) + enc_str(self.node_id) + enc_str(ip) + enc_int(n - k)
                digests = (sha256(alert),)
            self.evidence[ip] = EvidenceRecord(ip, digests, k, n)

    # -- (4) challenges ---------------------------------------------------

    def answer_challenge(self, challenger: str, priority: float, rnd: int) -> float | Any:
        """Behavior-dependent answer to a challenge of ``priority``: a
        priority, or UNSURE."""
        b = self.behavior
        if b.kind == "sybil":
            return UNSURE
        if b.kind in ("betrayal", "collusion") and b.is_adversarial_at(rnd):
            return 1.0 - priority
        # a draw lies in [0, 1), so only a know_prob inside (0, 1) needs one
        if self.know_prob in (0.0, 1.0):
            return priority if self.know_prob else UNSURE
        challenger_index = self.ctx.index_of[challenger]
        u = keyed_draws(self.ctx.seed, "response", self.index, challenger_index, rnd)[0]
        return priority if u < self.know_prob else UNSURE

    def _evaluate_response(self, peer: str, sent_round: int, answer: float | Any) -> None:
        expected = self.outstanding.pop((peer, sent_round), None)
        if expected is None:
            return
        p = self.ctx.trust_params
        state = self.peer_trust[peer]
        if answer is UNSURE:
            self.peer_trust[peer] = update_unsure(state, p)
        else:
            self.peer_trust[peer] = update_satisfaction(
                state, satisfaction(expected, answer), p
            )

    def _expire_challenges(self, rnd: int) -> None:
        """Forget the challenges no response can still answer.  A message
        sent in round r is delivered in round r + max(delay_rounds, 1), and a
        challenge is answered the round it arrives, so the response to one
        sent in round r is evaluated by round r + 2 max(delay_rounds, 1); a
        response that was dropped never comes."""
        horizon = rnd - 2 * max(self.ctx.network.delay_rounds, 1)
        # challenges are held in the order they were issued, so the first is
        # the oldest
        oldest = next(iter(self.outstanding), None)
        if oldest is None or oldest[1] > horizon:
            return
        self.outstanding = {
            key: priority for key, priority in self.outstanding.items()
            if key[1] > horizon
        }

    def _issue_challenges(self, members: Sequence[str], rnd: int) -> dict[str, float]:
        """Challenge the peers this round's draws pick; returns each
        challenged peer's priority.  The decision and the priority come from
        the one draw keyed (this node, peer, ``rnd``)."""
        net = self.ctx.network
        seed, index_of = self.ctx.seed, self.ctx.index_of
        priorities = {}
        for peer in members:
            if peer == self.node_id:
                continue
            decide, u, _, _ = keyed_draws(seed, "challenge", self.index, index_of[peer], rnd)
            if decide >= net.challenge_prob:
                continue
            priority = u if net.challenge_priorities == "uniform" else (
                0.0 if u < 0.5 else 1.0
            )
            self.outstanding[(peer, rnd)] = priority
            priorities[peer] = priority
        return priorities

    # -- (5) transaction --------------------------------------------------

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
            latest = [tx.host_trusts() for tx in self.replica.latest_tx.values()]
            fabricated = {}
            for ip in self.ctx.host_ids:
                published = [v[ip] for v in latest if ip in v]
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
        return build_transaction(self.key, rnd, creds, trusts, evidence)

    # -- (6) mining -------------------------------------------------------

    def _attempt_mining(self, rnd: int) -> Block | None:
        block, attempts = propose(
            self.replica, self.key, rnd, self.pending_txs.values(),
            self.ctx.validation_context,
        )
        self.mining_attempts += attempts
        return block
