"""Timed-session simulation: timing arithmetic, verdicts, freshness, events.

The default geometry puts the prover 3 ticks out with a 5-tick bound, so
an honest round trip is 6 ticks and the estimate lands exactly on 3.
"""

import json
import math

import pytest

from hkbound.bits import BitString
from hkbound.protocol import (
    CounterReuseRefused,
    CounterStore,
    ProtocolConfig,
    RandomOracle,
    Transcript,
    run_session,
    verifier_decide,
)


def test_honest_session_accepts_with_exact_timing():
    cfg = ProtocolConfig(ell=4)
    transcript, verdict = run_session(cfg, "baseline")
    assert verdict.accepted and verdict.reason == "ok"
    assert verdict.bits_correct == 4
    assert verdict.per_bit_rtt == (6, 6, 6, 6)
    assert verdict.estimated_distance == 3.0
    assert transcript.responses == transcript.expected


def test_sessions_are_seed_deterministic():
    cfg = ProtocolConfig(ell=6)
    t1, v1 = run_session(cfg, 123)
    t2, v2 = run_session(cfg, 123)
    assert v1 == v2
    assert t1.to_jsonl() == t2.to_jsonl()
    t3, _ = run_session(cfg, 124)
    assert t1.to_jsonl() != t3.to_jsonl()


def test_verdict_is_recomputable_from_the_transcript():
    cfg = ProtocolConfig(ell=5, rtt_mode="mean")
    transcript, verdict = run_session(cfg, 9)
    assert verifier_decide(transcript, cfg) == verdict


def test_out_of_range_prover_is_too_far():
    cfg = ProtocolConfig(ell=3, positions={"verifier": 0.0, "prover": 8.0})
    _, verdict = run_session(cfg, 1)
    # she answers correctly but the measured trip betrays the distance
    assert verdict.bits_correct == 3
    assert verdict.estimated_distance == 8.0
    assert not verdict.accepted and verdict.reason == "too_far"


def test_acceptance_slack_widens_the_bound():
    positions = {"verifier": 0.0, "prover": 8.0}
    lax = ProtocolConfig(ell=3, positions=positions, acceptance_slack=3.0)
    _, verdict = run_session(lax, 1)
    assert verdict.estimated_distance == 8.0
    assert verdict.accepted
    # the verifier also waits long enough for the slackened trips
    assert lax.timeout_rtt == 16.0
    with pytest.raises(ValueError):
        ProtocolConfig(ell=1, acceptance_slack=-0.5)


def test_mean_mode_matches_max_mode_for_honest_runs():
    base = dict(ell=4, positions={"verifier": 0.0, "prover": 2.0})
    _, v_max = run_session(ProtocolConfig(rtt_mode="max", **base), 5)
    _, v_mean = run_session(ProtocolConfig(rtt_mode="mean", **base), 5)
    assert v_max.estimated_distance == v_mean.estimated_distance == 2.0
    assert v_max.accepted and v_mean.accepted


def test_processing_ticks_are_subtracted():
    cfg = ProtocolConfig(ell=2, processing_ticks=2)
    _, verdict = run_session(cfg, 3)
    assert verdict.per_bit_rtt == (8, 8)
    assert verdict.estimated_distance == 3.0
    assert verdict.accepted


def test_slow_medium_changes_ticks_not_distance():
    cfg = ProtocolConfig(ell=2, velocity=0.5)
    _, verdict = run_session(cfg, 3)
    assert verdict.per_bit_rtt == (12, 12)
    assert verdict.estimated_distance == 3.0


def test_counter_replay_is_flagged_by_the_verifier():
    cfg = ProtocolConfig(ell=4)
    store = CounterStore()
    _, first = run_session(cfg, 42, verifier_store=store)
    _, second = run_session(cfg, 42, verifier_store=store)
    assert first.accepted
    assert not second.accepted and second.reason == "counter_reused"
    assert second.per_bit_rtt == () and second.bits_correct == 0


def test_replay_against_a_remembering_prover_times_out():
    cfg = ProtocolConfig(ell=3)
    prover_store = CounterStore()
    _, first = run_session(cfg, 7, prover_store=prover_store)
    transcript, second = run_session(cfg, 7, prover_store=prover_store)
    assert first.accepted
    # fresh verifier store, so the counters pass; the prover stays silent
    assert transcript.responses == [None, None, None]
    assert not second.accepted and second.reason == "wrong_bits"
    cutoff = math.ceil(cfg.timeout_rtt)
    assert second.per_bit_rtt == (cutoff,) * 3


def test_freshness_can_be_disabled():
    cfg = ProtocolConfig(ell=3, enforce_counter_freshness=False)
    store = CounterStore()
    _, first = run_session(cfg, 11, verifier_store=store)
    _, second = run_session(cfg, 11, verifier_store=store)
    assert first.accepted and second.accepted


def test_transcript_validation():
    cfg = ProtocolConfig(ell=3)
    transcript, _ = run_session(cfg, 2)
    short = Transcript([], [0], [6], [0], [0], [0])
    with pytest.raises(ValueError):
        verifier_decide(short, cfg)
    warped = Transcript(
        [],
        transcript.challenge_send_ticks,
        [t - 20 for t in transcript.challenge_send_ticks],
        transcript.challenges,
        transcript.responses,
        transcript.expected,
    )
    with pytest.raises(ValueError):
        verifier_decide(warped, cfg)


def test_event_log_is_ordered_and_causal():
    cfg = ProtocolConfig(ell=4, processing_ticks=1)
    transcript, _ = run_session(cfg, "events")
    events = transcript.events
    assert all(e.tick >= 0 for e in events)
    assert [e.tick for e in events] == sorted(e.tick for e in events)
    delay = cfg.delay_ticks("verifier", "prover")
    for i, sent in enumerate(transcript.challenge_send_ticks, start=1):
        (recv,) = [e for e in events if e.name == f"r{i}" and e.kind == "receive"]
        assert recv.tick == sent + 2 * delay + cfg.processing_ticks
        (hear,) = [e for e in events if e.name == f"x{i}" and e.kind == "receive"]
        assert hear.tick == sent + delay


def test_jsonl_round_trips_fields():
    transcript, _ = run_session(ProtocolConfig(ell=2), "jsonl")
    lines = transcript.to_jsonl().splitlines()
    assert len(lines) == len(transcript.events)
    first = json.loads(lines[0])
    assert set(first) == {"tick", "principal", "kind", "name", "value", "channel", "term"}


def test_record_false_skips_events_only():
    cfg = ProtocolConfig(ell=4)
    t_rec, v_rec = run_session(cfg, 31, record=True)
    t_bare, v_bare = run_session(cfg, 31, record=False)
    assert t_bare.events == []
    assert v_rec == v_bare
    assert t_rec.responses == t_bare.responses


# --- config -----------------------------------------------------------------


def test_config_validation():
    for bad in (
        dict(ell=0),
        dict(ell=1, secret_bits=0),
        dict(ell=1, counter_bits=0),
        dict(ell=1, velocity=0.0),
        dict(ell=1, distance_bound=-1.0),
        dict(ell=1, processing_ticks=-1),
        dict(ell=1, rtt_mode="median"),
        dict(ell=1, positions={"verifier": 0.0}),
    ):
        with pytest.raises(ValueError):
            ProtocolConfig(**bad)


def test_config_defaults_and_json():
    cfg = ProtocolConfig(ell=8)
    assert cfg.counter_width == 8
    assert cfg.timeout_rtt == 10.0
    assert cfg.position("adversary") == cfg.position("verifier")
    again = ProtocolConfig.from_json(cfg.to_json())
    assert again.to_json() == cfg.to_json()
    with pytest.raises(ValueError):
        ProtocolConfig.from_json({"ell": 2, "surprise": 1})


def test_counter_width_override():
    cfg = ProtocolConfig(ell=8, counter_bits=16)
    assert cfg.counter_width == 16
    transcript, _ = run_session(cfg, 0)
    a_events = [e for e in transcript.events if e.name == "a"]
    assert all(e.value.length == 16 for e in a_events)


# --- random oracle and counter store ------------------------------------------


def test_oracle_memoizes_and_replays():
    o1 = RandomOracle("seed", 16)
    o2 = RandomOracle("seed", 16)
    key = BitString.from_text("0110")
    assert o1.query(key) == o2.query(key)
    assert o1.query(key) is o1.query(key)
    assert len(o1) == 1
    assert RandomOracle("other", 16).query(key) != o1.query(key)
    with pytest.raises(ValueError):
        RandomOracle("seed", 0)


def test_oracle_outputs_are_unbiased():
    # 10**4 distinct inputs, 16 output bits: every position within 5 sigma
    oracle = RandomOracle("bias-check", 16)
    n = 10_000
    ones = [0] * 16
    for v in range(n):
        out = oracle.query(BitString(16, v))
        for i in range(1, 17):
            ones[i - 1] += out.bit(i)
    sigma = 0.5 / math.sqrt(n)
    for count in ones:
        assert abs(count / n - 0.5) < 5 * sigma


def test_oracle_long_outputs():
    out = RandomOracle(1, 600).query(BitString(4, 5))
    assert out.length == 600


def test_counter_store_semantics():
    store = CounterStore()
    a, b = BitString.from_text("01"), BitString.from_text("10")
    assert len(store) == 0
    assert store.check_and_mark(a, b)
    assert not store.check_and_mark(a, b)
    assert len(store) == 1
    # order matters: (b, a) is a different pair
    assert store.check_and_mark(b, a)
    assert len(store) == 2


def test_prover_handle_refuses_replayed_counters():
    from hkbound.protocol import ProverHandle, _Session
    import random as _random

    cfg = ProtocolConfig(ell=2)
    sess = _Session(cfg, _random.Random(0), RandomOracle(0, 4), CounterStore(), CounterStore(), False)
    sess.secret = BitString.from_text("1" * cfg.secret_bits)
    sess.a = BitString.from_text("00")
    sess.b = BitString.from_text("01")
    from hkbound.hkfun import ResponseToken
    sess.token = ResponseToken.from_bits(BitString.from_text("0110"))
    handle = ProverHandle(sess)
    z = BitString.from_text("10")
    handle.respond_to(sess.a, sess.b, z)
    with pytest.raises(CounterReuseRefused):
        handle.respond_to(sess.a, sess.b, z.negate())
