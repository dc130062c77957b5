"""Unit and property tests for the trust arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cidnsim.trust import (
    MAX_INTERVAL_LEN,
    UNSURE,
    HostTrustState,
    PeerTrustState,
    TrustParams,
    average_credibility,
    combine_trust,
    compute_credibility,
    compute_weights,
    is_blacklisted,
    measure_instantaneous_trust,
    satisfaction,
    update_accumulated_trust,
    update_satisfaction,
    update_unsure,
)

P = TrustParams(
    forgetting=0.9,
    severity=1.0,
    cred_threshold=0.8,
    initial_trust=0.5,
    blacklist_threshold=0.2,
    interval_len=50,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# -- parameter validation ---------------------------------------------------


@pytest.mark.parametrize(
    "field,value",
    [
        ("forgetting", 0.0),
        ("forgetting", 1.0),
        ("severity", 0.0),
        ("severity", -1.0),
        ("cred_threshold", 1.0),
        ("initial_trust", 1.5),
        ("initial_trust", 0.0),
        ("initial_trust", 1.0),
        ("blacklist_threshold", 0.0),
        ("interval_len", 0),
        ("interval_len", 2.5),
        ("interval_len", MAX_INTERVAL_LEN + 1),
    ],
)
def test_params_rejects_out_of_range(field, value):
    kwargs = dict(
        forgetting=0.9,
        severity=1.0,
        cred_threshold=0.8,
        initial_trust=0.5,
        blacklist_threshold=0.2,
        interval_len=50,
    )
    kwargs[field] = value
    with pytest.raises(ValueError):
        TrustParams(**kwargs)


def test_outcome_rejects_out_of_range():
    with pytest.raises(ValueError):
        satisfaction(expected=1.2, actual=0.5)
    with pytest.raises(ValueError):
        satisfaction(expected=0.5, actual=-0.1)


# -- satisfaction and the credibility EWMA ----------------------------------


def test_satisfaction_examples():
    assert satisfaction(0.7, 0.7) == 1.0
    assert satisfaction(0.0, 1.0) == 0.0
    assert satisfaction(0.25, 0.75) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        satisfaction(0.5, UNSURE)


@given(st.lists(unit, min_size=1, max_size=60))
def test_satisfaction_ewma_matches_closed_form(sats):
    """gamma_m = lam^m * gamma_0 + (1-lam) * sum lam^(m-i) * s_i."""
    state = PeerTrustState.fresh(P)
    for s in sats:
        state = update_satisfaction(state, s, P)
    lam = P.forgetting
    m = len(sats)
    expected = lam**m * P.initial_trust + (1.0 - lam) * sum(
        lam ** (m - i) * s for i, s in enumerate(sats, start=1)
    )
    assert state.gamma == pytest.approx(expected, abs=1e-12)
    assert state.alpha == pytest.approx(0.0, abs=1e-12)
    assert 0.0 <= state.crd <= 1.0


@given(st.lists(st.booleans(), min_size=1, max_size=60), unit)
def test_unsure_rate_matches_closed_form(flags, sat):
    """alpha folds a 0/1 indicator per event regardless of the answer value."""
    state = PeerTrustState.fresh(P)
    for unsure in flags:
        state = update_unsure(state, P) if unsure else update_satisfaction(state, sat, P)
    lam = P.forgetting
    m = len(flags)
    expected = (1.0 - lam) * sum(
        lam ** (m - i) * (1.0 if f else 0.0) for i, f in enumerate(flags, start=1)
    )
    assert state.alpha == pytest.approx(expected, abs=1e-12)


def test_always_unsure_pins_credibility_at_newcomer_value():
    state = PeerTrustState.fresh(P)
    for _ in range(50):
        state = update_unsure(state, P)
    assert state.crd == pytest.approx(P.initial_trust, abs=1e-12)


@given(unit, unit)
def test_credibility_range_and_baseline(gamma, alpha):
    crd = compute_credibility(gamma, alpha, P)
    assert 0.0 <= crd <= 1.0
    # full Unsure rate collapses to the newcomer baseline
    assert compute_credibility(gamma, 1.0, P) == pytest.approx(P.initial_trust)


def test_severity_punishes_unsure_harder():
    harsh = TrustParams(
        forgetting=0.9,
        severity=3.0,
        cred_threshold=0.8,
        initial_trust=0.5,
        blacklist_threshold=0.2,
        interval_len=50,
    )
    # with gamma above baseline, a nonzero Unsure rate drags a harsher
    # severity closer to the baseline
    assert compute_credibility(0.9, 0.3, harsh) < compute_credibility(0.9, 0.3, P)


# -- weights ----------------------------------------------------------------


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=6), unit, min_size=0, max_size=12
    )
)
def test_weights_sum_to_one(crds):
    crds.pop("me", None)
    weights = compute_weights("me", crds, P)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert weights["me"] == max(weights.values())
    for peer, c in crds.items():
        if c < P.cred_threshold:
            assert weights[peer] == 0.0


def test_weights_all_below_threshold_gives_self_everything():
    weights = compute_weights("me", {"a": 0.1, "b": 0.79}, P)
    assert weights == {"a": 0.0, "b": 0.0, "me": 1.0}


# -- host trust -------------------------------------------------------------


@given(st.integers(0, 2000), st.integers(0, 2000))
def test_instantaneous_trust_matches_rational_form(a, b):
    k, n = min(a, b), max(a, b)
    got = measure_instantaneous_trust(k, n)
    assert abs(got - float(Fraction(1 + k, 2 + n))) <= 1e-15
    assert 0.0 < got < 1.0


def test_instantaneous_trust_rejects_bad_counts():
    with pytest.raises(ValueError):
        measure_instantaneous_trust(5, 3)
    with pytest.raises(ValueError):
        measure_instantaneous_trust(-1, 3)


def test_accumulated_trust_moves_toward_observation():
    state = HostTrustState(tr_ids=0.5)
    updated = update_accumulated_trust(state, 0.9, P)
    assert 0.5 < updated.tr_ids < 0.9
    assert updated.tr_ids == pytest.approx(0.1 * 0.9 + 0.9 * 0.5)


def test_blacklist_threshold_is_inclusive():
    at = HostTrustState(tr_ids=P.blacklist_threshold)
    above = HostTrustState(tr_ids=P.blacklist_threshold + 1e-9)
    assert is_blacklisted(at, P)
    assert not is_blacklisted(above, P)


# -- network aggregation ----------------------------------------------------


@given(
    st.lists(st.tuples(unit, unit), min_size=1, max_size=10),
    unit,
)
def test_combine_trust_is_convex(pairs, own):
    weights = {f"p{i}": w for i, (w, _) in enumerate(pairs)}
    scores = {f"p{i}": s for i, (_, s) in enumerate(pairs)}
    weights["me"] = 1.0
    scores["me"] = own
    combined = combine_trust("me", weights, scores)
    used = [scores[i] for i, w in weights.items() if w > 0.0]
    assert min(used) - 1e-12 <= combined <= max(used) + 1e-12


def test_combine_trust_falls_back_to_own_score():
    # peers have weight but no published score for this host
    combined = combine_trust("me", {"a": 0.7, "me": 0.0}, {"me": 0.42})
    assert combined == 0.42


def test_combine_trust_renormalizes_over_reporters():
    weights = {"a": 0.5, "b": 0.25, "me": 0.25}
    scores = {"a": 1.0, "me": 0.0}  # b never published
    assert combine_trust("me", weights, scores) == pytest.approx(2.0 / 3.0)


def test_average_credibility_includes_self_as_one():
    got = average_credibility("x", {"a": 0.6, "b": 0.8}, 3)
    assert got == pytest.approx((1.0 + 0.6 + 0.8) / 3.0)
    with pytest.raises(ValueError):
        average_credibility("x", {}, 0)
