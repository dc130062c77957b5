"""Brute-force oracles the tests check incremental state against."""


def last_committed(chain) -> dict:
    """Each signer's last committed transaction, from a scan of the chain's
    blocks in order."""
    return {tx.ids_id: tx for b in chain.blocks for tx in b.transactions}


def last_seqs(chain) -> dict:
    """Each signer's last committed sequence number, from the same scan."""
    return {signer: tx.seq for signer, tx in last_committed(chain).items()}


def replay_check(chain) -> bool:
    """The chain's derived state equals a from-genesis replay of its blocks:
    each signer's last transaction and each leader's last round."""
    led = {}
    for b in chain.blocks[1:]:
        if b.header.leader_id:
            led[b.header.leader_id] = b.header.gen_time
    return (last_committed(chain), led) == (chain.latest_tx, chain.last_led_round)
