"""Deterministic single-field block mutations and their expected
validation-failure reason codes.  Shared by the consensus unit tests and
the large duality fuzz in the acceptance gate."""

from cidnsim.chain import Block, build_transaction, hash_block
from cidnsim.consensus import Reason

MUTATION_CLASSES = [
    ("prev_hash", Reason.LINKAGE),
    ("gen_time", Reason.GEN_TIME),
    ("block_id", Reason.BLOCK_ID),
    ("payload", Reason.BLOCK_ID),
    ("leader_id", Reason.UNKNOWN_LEADER),
    ("tx_order", Reason.TX_ORDER),
    ("tx_invalid", Reason.TX_INVALID),
    ("target_v", Reason.TARGET_MISMATCH),
    ("ctr", Reason.CTR_BOUND),
    ("signature", Reason.LEADER_SIGNATURE),
]


def mutate_block(block: Block, how: str, q_max: int, other_key=None) -> Block:
    """Apply one mutation class; recompute the block id where needed so the
    deeper check (not the id check) is the one that fires."""
    h = block.header

    def reheader(transactions=block.transactions, **changes):
        unsigned = block._replace(header=h._replace(**changes), transactions=transactions)
        header = unsigned.header._replace(block_id=hash_block(unsigned))
        return unsigned._replace(header=header)

    def with_other_tx(reverse=False):
        tx = build_transaction(other_key, 1, {}, {"h0": 0.9})
        return tuple(
            sorted(block.transactions + (tx,), key=lambda t: t.ids_id, reverse=reverse)
        )

    if how == "prev_hash":
        return block._replace(header=h._replace(prev_hash=b"\xaa" * 32))
    if how == "gen_time":
        return block._replace(header=h._replace(gen_time=0))
    if how == "block_id":
        flipped = bytes([h.block_id[0] ^ 1]) + h.block_id[1:]
        return block._replace(header=h._replace(block_id=flipped))
    if how == "payload":
        # the genuine header and signature over another transaction tuple
        return block._replace(transactions=with_other_tx())
    if how == "leader_id":
        return reheader(leader_id="f" * 64)
    if how == "tx_order":
        return reheader(with_other_tx(reverse=True))
    if how == "tx_invalid":
        good = block.transactions[0]
        bad = good._replace(trust_list=(2.0,) * max(1, len(good.trust_list)))
        return reheader((bad,) + block.transactions[1:])
    if how == "target_v":
        return reheader(target_v=0.123)
    if how == "ctr":
        return reheader(ctr=q_max + 1)
    if how == "signature":
        sig = bytearray(block.leader_signature)
        sig[0] ^= 1
        return block._replace(leader_signature=bytes(sig))
    raise AssertionError(f"unknown mutation class {how}")
