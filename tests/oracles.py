"""Brute-force oracles the tests check incremental state against."""


def replay_check(chain) -> bool:
    """The chain's derived state equals a from-genesis replay of its blocks:
    each signer's latest lists and each leader's last round."""
    cred, trust, led = {}, {}, {}
    for b in chain.blocks[1:]:
        for tx in b.transactions:
            cred[tx.ids_id] = dict(zip(tx.peer_list, tx.cred_list))
            trust[tx.ids_id] = dict(zip(tx.host_list, tx.trust_list))
        if b.header.leader_id:
            led[b.header.leader_id] = b.header.gen_time
    return (cred, trust, led) == (
        chain.latest_cred, chain.latest_trust, chain.last_led_round
    )
