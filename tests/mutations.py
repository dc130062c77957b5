"""Deterministic single-field block mutations and their expected
validation-failure reason codes.  Shared by the consensus unit tests and
the large duality fuzz in the acceptance gate."""

import dataclasses

from cidnsim.chain import Block, block_id, build_transaction
from cidnsim.consensus import Reason

MUTATION_CLASSES = [
    ("prev_hash", Reason.LINKAGE),
    ("gen_time", Reason.GEN_TIME),
    ("block_id", Reason.BLOCK_ID),
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
        body = dataclasses.replace(block, transactions=transactions)
        header = dataclasses.replace(h, **changes)
        header = dataclasses.replace(
            header, block_id=block_id(header, body.payload_bytes())
        )
        return dataclasses.replace(body, header=header)

    if how == "prev_hash":
        return dataclasses.replace(
            block, header=dataclasses.replace(h, prev_hash=b"\xaa" * 32)
        )
    if how == "gen_time":
        return dataclasses.replace(block, header=dataclasses.replace(h, gen_time=0))
    if how == "block_id":
        flipped = bytes([h.block_id[0] ^ 1]) + h.block_id[1:]
        return dataclasses.replace(
            block, header=dataclasses.replace(h, block_id=flipped)
        )
    if how == "leader_id":
        return reheader(leader_id="f" * 64)
    if how == "tx_order":
        tx2 = build_transaction(other_key, {}, {"h0": 0.9})
        return reheader(
            tuple(sorted(block.transactions + (tx2,), key=lambda t: t.ids_id, reverse=True))
        )
    if how == "tx_invalid":
        good = block.transactions[0]
        bad = dataclasses.replace(good, trust_list=(2.0,) * max(1, len(good.trust_list)))
        return reheader((bad,) + block.transactions[1:])
    if how == "target_v":
        return reheader(target_v=0.123)
    if how == "ctr":
        return reheader(ctr=q_max + 1)
    if how == "signature":
        sig = bytearray(block.leader_signature)
        sig[0] ^= 1
        return dataclasses.replace(block, leader_signature=bytes(sig))
    raise AssertionError(f"unknown mutation class {how}")
