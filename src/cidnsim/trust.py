"""Trust arithmetic for the collaborative IDS network.

Two kinds of scores are maintained:

* peer *credibility*: how much an observer trusts another IDS node,
  built from its responses to challenges (EWMA of satisfaction, with a
  punishment term for habitual Unsure answers);
* host *trustworthiness*: how benign an external host's traffic looks,
  built from per-interval packet counts and diffused across the network
  as a credibility-weighted average.

All functions are pure; state types are immutable records.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .records import Record, set_field

__all__ = [
    "UNSURE",
    "TrustParams",
    "PeerTrustState",
    "HostTrustState",
    "satisfaction",
    "update_satisfaction",
    "update_unsure",
    "compute_credibility",
    "compute_weights",
    "measure_instantaneous_trust",
    "update_accumulated_trust",
    "combine_trust",
    "is_blacklisted",
    "average_credibility",
]


class _Unsure:
    """Distinguished response of a node that lacks knowledge of the item."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Unsure"


UNSURE = _Unsure()

# the most packets a monitoring interval may hold: each node counts a
# monitored host's traffic every round, by a search of O(sqrt(packets)) steps
MAX_INTERVAL_LEN = 10**6


class TrustParams(Record):
    """Model constants.

    forgetting: EWMA weight on past behavior (higher = slower reaction).
    severity: exponent punishing frequent Unsure answers.
    cred_threshold: minimum credibility for a peer's data to be used.
    initial_trust: score assigned to newcomers (peers and hosts alike).
    blacklist_threshold: hosts at or below it are blacklisted.
    interval_len: packets per monitoring interval.
    """

    __slots__ = ("forgetting", "severity", "cred_threshold", "initial_trust",
                 "blacklist_threshold", "interval_len")

    def __init__(
        self, forgetting: float, severity: float, cred_threshold: float,
        initial_trust: float, blacklist_threshold: float, interval_len: int,
    ) -> None:
        self._set(forgetting, severity, cred_threshold, initial_trust,
                  blacklist_threshold, interval_len)
        if not 0.0 < self.forgetting < 1.0:
            raise ValueError(f"forgetting must be in (0,1), got {self.forgetting}")
        if not self.severity > 0.0:
            raise ValueError(f"severity must be > 0, got {self.severity}")
        if not 0.0 < self.cred_threshold < 1.0:
            raise ValueError(
                f"cred_threshold must be in (0,1), got {self.cred_threshold}"
            )
        # a host starts at initial_trust, and host trust stays inside (0,1)
        if not 0.0 < self.initial_trust < 1.0:
            raise ValueError(
                f"initial_trust must be in (0,1), got {self.initial_trust}"
            )
        if not 0.0 < self.blacklist_threshold < 1.0:
            raise ValueError(
                f"blacklist_threshold must be in (0,1), got {self.blacklist_threshold}"
            )
        if not (
            isinstance(self.interval_len, int) and 0 < self.interval_len <= MAX_INTERVAL_LEN
        ):
            raise ValueError(
                f"interval_len must be an integer in [1, {MAX_INTERVAL_LEN}], "
                f"got {self.interval_len}"
            )


class PeerTrustState(NamedTuple):
    """Running per-(observer, peer) values: satisfaction, Unsure rate, credibility."""

    gamma: float  # accumulated satisfaction
    alpha: float  # accumulated Unsure rate
    crd: float  # credibility

    @staticmethod
    def fresh(p: TrustParams) -> "PeerTrustState":
        # Newcomers start at the initial trust score with no Unsure history,
        # so their credibility equals initial_trust.
        return PeerTrustState(gamma=p.initial_trust, alpha=0.0, crd=p.initial_trust)


class HostTrustState(Record):
    """Per-(observer, host) accumulated trust."""

    __slots__ = ("tr_ids",)

    def __init__(self, tr_ids: float) -> None:
        if not 0.0 < tr_ids < 1.0:
            raise ValueError(f"tr_ids must be strictly inside (0,1): {tr_ids}")
        set_field(self, "tr_ids", tr_ids)

    @staticmethod
    def fresh(p: TrustParams) -> "HostTrustState":
        return HostTrustState(tr_ids=p.initial_trust)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def satisfaction(expected: float, actual: float | _Unsure) -> float:
    """Satisfaction with an answered challenge: one minus the gap between the
    priority it carried and the priority answered, both in [0,1]."""
    if isinstance(actual, _Unsure):
        raise ValueError("satisfaction is undefined for Unsure; use update_unsure")
    if not (0.0 <= expected <= 1.0 and 0.0 <= actual <= 1.0):
        raise ValueError(f"priorities out of [0,1]: expected {expected}, actual {actual}")
    return 1.0 - abs(expected - actual)


def update_satisfaction(
    state: PeerTrustState, sat: float, p: TrustParams
) -> PeerTrustState:
    """Fold a satisfaction sample into the EWMA; an answer counts as not-Unsure."""
    if not 0.0 <= sat <= 1.0:
        raise ValueError(f"satisfaction out of [0,1]: {sat}")
    lam = p.forgetting
    gamma = (1.0 - lam) * sat + lam * state.gamma
    alpha = lam * state.alpha  # ans = 0 for a priority answer
    return PeerTrustState(gamma=gamma, alpha=alpha, crd=compute_credibility(gamma, alpha, p))


def update_unsure(state: PeerTrustState, p: TrustParams) -> PeerTrustState:
    """Fold an Unsure answer into the Unsure rate; satisfaction is untouched."""
    lam = p.forgetting
    alpha = (1.0 - lam) * 1.0 + lam * state.alpha
    return PeerTrustState(
        gamma=state.gamma,
        alpha=alpha,
        crd=compute_credibility(state.gamma, alpha, p),
    )


def compute_credibility(gamma: float, alpha: float, p: TrustParams) -> float:
    """Credibility: satisfaction relative to the newcomer baseline, shrunk
    toward the baseline by the Unsure rate raised to the severity exponent.

    A node that always answers Unsure keeps credibility exactly at the
    newcomer value.  Output clamped to [0,1] against floating-point drift.
    """
    if not 0.0 <= gamma <= 1.0 or not 0.0 <= alpha <= 1.0:
        raise ValueError("gamma and alpha must be in [0,1]")
    raw = (1.0 - alpha) ** p.severity * (gamma - p.initial_trust) + p.initial_trust
    return _clamp01(raw)


def compute_weights(
    observer: str, crds: Mapping[str, float], p: TrustParams
) -> dict[str, float]:
    """Relative weights over the whole network as seen by ``observer``.

    Peers below the credibility threshold get weight 0; the observer's own
    credibility is 1 by definition, so the normalizer is never zero and the
    returned map (observer included) sums to 1.
    """
    eligible = {i: c for i, c in crds.items() if i != observer and c >= p.cred_threshold}
    eligible[observer] = 1.0
    total = sum(eligible.values())
    weights = {i: 0.0 for i in crds}
    for i, c in eligible.items():
        weights[i] = c / total
    return weights


def measure_instantaneous_trust(k: int, n: int) -> float:
    """Probability the next packet is normal after seeing k normal out of n."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"invalid counts k={k}, n={n}")
    return (1.0 + k) / (2.0 + n)


def update_accumulated_trust(
    state: HostTrustState, tr_inst: float, p: TrustParams
) -> HostTrustState:
    """Fold an instantaneous trust observation into the accumulated score."""
    if not 0.0 < tr_inst < 1.0:
        raise ValueError(f"instantaneous trust must be in (0,1): {tr_inst}")
    lam = p.forgetting
    return HostTrustState(tr_ids=(1.0 - lam) * tr_inst + lam * state.tr_ids)


def combine_trust(
    observer: str,
    weights: Mapping[str, float],
    scores: Mapping[str, float],
) -> float:
    """Credibility-weighted network aggregate of per-host trust scores.

    Peers without a published score for this host are dropped and the
    remaining weights renormalized.  If everything drops out, the observer's
    own score is returned unchanged.
    """
    contributing = {i: w for i, w in weights.items() if w > 0.0 and i in scores}
    total = sum(contributing.values())
    if total <= 0.0:
        return scores[observer]
    return sum(w * scores[i] for i, w in contributing.items()) / total


def is_blacklisted(state: HostTrustState, p: TrustParams) -> bool:
    """A host is blacklisted iff its accumulated trust is at or below the
    threshold (inclusive)."""
    return state.tr_ids <= p.blacklist_threshold


def average_credibility(
    target: str, chain_state: Mapping[str, float], n_total: int
) -> float:
    """Network-wide average credibility of ``target``.

    ``chain_state`` maps every other member to its committed credibility of
    the target; the constant 1 is the target's self-credibility.
    """
    if n_total < 1:
        raise ValueError(f"network size must be >= 1, got {n_total}")
    return (1.0 + sum(chain_state.values())) / n_total
