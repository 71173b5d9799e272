"""Timed-session simulation: timing arithmetic, verdicts, freshness, events.

The default geometry puts the prover 3 ticks out with a 5-tick bound, so
an honest round trip is 6 ticks and the estimate lands exactly on 3.
"""

import collections
import copy
import dataclasses
import hashlib
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from hkbound.adversary import PreQueryStick, StrategyInfeasibleError, make_strategy
from hkbound import bits, harness, hkfun
from hkbound.hkfun import select
from hkbound.protocol import (
    PROVER,
    Event,
    CounterReuseRefused,
    CounterStore,
    ProtocolConfig,
    RandomOracle,
    Responder,
    SessionView,
    Transcript,
    _JSON_FIELDS,
    _judge,
    _round_labels,
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


def test_positions_are_frozen():
    positions = {"verifier": 0.0, "prover": 3.0}
    cfg = ProtocolConfig(ell=2, positions=positions)
    ticks = cfg.delay_ticks("verifier", "prover")
    with pytest.raises(TypeError):
        cfg.positions["prover"] = 50.0
    positions["prover"] = 50.0  # the caller's dict is not the config's
    assert cfg.delay_ticks("verifier", "prover") == ticks == 3
    assert cfg.to_json()["positions"] == {"verifier": 0.0, "prover": 3.0}
    assert dataclasses.replace(cfg, ell=3).positions == cfg.positions
    # a copy, as a process pool makes, is equal and as read-only
    for again in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
        assert again == cfg and again.delay_ticks("verifier", "prover") == 3
        with pytest.raises(TypeError):
            again.positions["prover"] = 50.0


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


def test_events_are_frozen_records_of_the_dataclass_era():
    transcript, _ = run_session(ProtocolConfig(ell=2), "repr")
    event = transcript.events[2]
    with pytest.raises(AttributeError):
        event.tick = 0
    # the repr and JSON the frozen-dataclass events had
    assert repr(event) == ("Event(tick=3, principal='prover', kind='receive', name='a', "
                           "value=BitString(length=2, value=3), channel=('verifier', 'prover'), "
                           "term='a')")
    assert event.to_json() == {"tick": 3, "principal": "prover", "kind": "receive", "name": "a",
                               "value": "11", "channel": ["verifier", "prover"], "term": "a"}
    assert Event(0, "verifier", "fresh", "x") == Event(0, "verifier", "fresh", "x", None, None, None)
    again, _ = run_session(ProtocolConfig(ell=2), "repr")
    assert again.events == transcript.events
    assert [hash(e) for e in again.events] == [hash(e) for e in transcript.events]
    assert again.to_jsonl() == transcript.to_jsonl()


def test_round_labels_are_the_formatted_names():
    for ell in (1, 9, 32):
        assert _round_labels(ell) == tuple(
            (f"x{i}", f"r{i}", f"boxplus(x{i},h)") for i in range(1, ell + 1))


def test_record_false_keeps_only_the_verdict():
    # an unrecorded transcript has no events and no per-round arrays; it
    # carries counter_reused, and the session's verdict stands for it
    cfg = ProtocolConfig(ell=4)
    t_rec, v_rec = run_session(cfg, 31, record=True)
    t_bare, v_bare = run_session(cfg, 31, record=False)
    assert v_rec == v_bare
    assert t_bare == Transcript()
    assert len(t_rec.responses) == 4 and t_rec.events
    store = CounterStore()
    run_session(cfg, 31, verifier_store=store, record=False)
    t_again, v_again = run_session(cfg, 31, verifier_store=store, record=False)
    assert t_again == Transcript(counter_reused=True)
    assert v_again.reason == "counter_reused"
    with pytest.raises(ValueError):
        verifier_decide(t_bare, cfg)
    # the unrecorded transcripts are shared constants, so nothing may modify them
    for bare in (t_bare, t_again):
        with pytest.raises(dataclasses.FrozenInstanceError):
            bare.counter_reused = not bare.counter_reused
        with pytest.raises(AttributeError):
            bare.events.append(None)
    assert run_session(cfg, 32, record=False)[0] is t_bare


# --- the unrecorded fast path against the recorded reference -------------------

# None is the honest prover
SESSION_KINDS = (None, *map(make_strategy, ("naive-guess", "prequery-stick", "counter-reuse",
                                           "early-kernel", "early-full", "secret-guess")),
                 PreQueryStick(2))


def _paths_agree(cfg, plays) -> set[str]:
    """Play each session kind with and without recording, in lockstep.

    plays lists (seed, share_verifier_store) pairs.  The prover store is
    shared by every session of a kind, and the verifier store by those
    that ask for it, so replayed seeds and colliding counters reach the
    silent prover and the counter_reused verdict.  Returns the outcomes
    seen: verdict reasons, "silent", or the name of an exception raised.
    """
    seen = set()
    for actor in SESSION_KINDS:
        stores = {record: (CounterStore(), CounterStore()) for record in (False, True)}
        for seed, share in plays:
            out = {}
            for record, (verifier_store, prover_store) in stores.items():
                try:
                    out[record] = run_session(
                        cfg, seed, adversary=actor, prover_store=prover_store,
                        verifier_store=verifier_store if share else None, record=record)
                except (StrategyInfeasibleError, CounterReuseRefused) as exc:
                    out[record] = type(exc).__name__
            if isinstance(out[True], str):
                assert out[False] == out[True]
                seen.add(out[True])
                continue
            (bare, fast), (transcript, slow) = out[False], out[True]
            assert fast == slow == verifier_decide(transcript, cfg)
            assert bare == Transcript(counter_reused=transcript.counter_reused)
            seen.add(fast.reason)
            if transcript.responses and transcript.responses[0] is None:
                seen.add("silent")
    return seen


@st.composite
def session_configs(draw):
    tenths = st.integers(-60, 60).map(lambda v: v / 10)
    positions = {"verifier": draw(tenths), "prover": draw(tenths)}
    if draw(st.booleans()):
        positions["adversary"] = draw(tenths)
    return ProtocolConfig(
        ell=draw(st.integers(1, 40)),
        secret_bits=draw(st.integers(1, 6)),
        counter_bits=draw(st.sampled_from((None, 1, 2))),
        velocity=draw(st.sampled_from((0.4, 1.0, 1.3))),
        distance_bound=draw(st.integers(0, 60).map(lambda v: v / 10)),
        acceptance_slack=draw(st.sampled_from((0.0, 0.5, 2.0))),
        processing_ticks=draw(st.integers(0, 3)),
        positions=positions,
        rtt_mode=draw(st.sampled_from(("max", "mean"))),
        enforce_counter_freshness=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(session_configs(),
       st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=5))
def test_unrecorded_verdicts_match_the_recorded_reference(cfg, plays):
    _paths_agree(cfg, plays)


def test_unrecorded_chunks_build_no_bitstrings(monkeypatch):
    # sessions carry ints; BitString and ResponseToken appear only in events
    built = []
    for cls in (bits.BitString, hkfun.ResponseToken):
        def counted(self, _check=cls.__post_init__):
            built.append(type(self).__name__)
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    cfg = ProtocolConfig(ell=4, counter_bits=2, secret_bits=3, enforce_counter_freshness=False)
    for actor in SESSION_KINDS:
        assert 0 <= harness.monte_carlo_range(cfg, actor, "no-bits", 0, 50) <= 50
    assert built == []
    # the counters see a recorded session's event values
    run_session(cfg, "no-bits", adversary=SESSION_KINDS[2], record=True)
    hkfun.ResponseToken.from_bits(bits.BitString(2, 1))
    assert "BitString" in built and "ResponseToken" in built


def test_the_reference_grid_reaches_every_outcome():
    plays = [(seed % 3, seed % 2 == 0) for seed in range(8)]
    seen = set()
    for cfg in (ProtocolConfig(ell=3, counter_bits=1),
                ProtocolConfig(ell=5, counter_bits=1, enforce_counter_freshness=False,
                               rtt_mode="mean", processing_ticks=1),
                ProtocolConfig(ell=4, secret_bits=1, positions={
                    "verifier": 0.0, "prover": 7.5, "adversary": 0.4}),
                # early-kernel round trips from the per-byte table: a padded top byte, whole bytes
                ProtocolConfig(ell=13, rtt_mode="mean"),
                ProtocolConfig(ell=64)):
        seen |= _paths_agree(cfg, plays)
    assert seen >= {"ok", "wrong_bits", "too_far", "counter_reused", "silent",
                    "StrategyInfeasibleError", "CounterReuseRefused"}


# --- one generator per chunk, and the verdict memo ---------------------------


class GaussGuess(Responder):
    """A dishonest prover that answers right iff one normal draw is positive.

    ``random.Random.gauss`` makes normals in pairs and keeps the second in
    ``gauss_next``, so a generator reseeded without clearing it plays the
    next session on the last session's draw.
    """

    kind = "gauss-guess"
    position_key = PROVER

    def play(self, view, challenges):
        ell, token = view.cfg.ell, view.token
        right = select(challenges, token >> ell, token, ell)
        return (right if view.rng.gauss(0.0, 1.0) > 0 else ~right), 0


REUSE_KINDS = (*SESSION_KINDS, GaussGuess())


def _outcome(cfg, seed, actor, **kwargs):
    try:
        return run_session(cfg, seed, adversary=actor, **kwargs)
    except StrategyInfeasibleError as exc:
        return type(exc).__name__


def test_a_seeded_generator_replays_the_session_it_seeds():
    plain = ProtocolConfig(ell=5, counter_bits=2, secret_bits=3)
    for cfg in (plain, dataclasses.replace(plain, enforce_counter_freshness=False)):
        for actor in REUSE_KINDS:
            for seed in range(6):
                for record in (False, True):
                    alone = _outcome(cfg, seed, actor, record=record)
                    given = _outcome(cfg, seed, actor, record=record, rng=random.Random(seed))
                    assert given == alone
                    if not isinstance(alone, str):
                        assert given[0].to_jsonl() == alone[0].to_jsonl()
    # the check bites: a C-level reseed keeps gauss_next, and the session changes
    stale = random.Random()
    changed = 0
    for seed in range(20):
        stale.gauss(0.0, 1.0)
        super(random.Random, stale).seed(seed)
        changed += (run_session(plain, seed, adversary=GaussGuess(), rng=stale)
                    != run_session(plain, seed, adversary=GaussGuess()))
    assert changed


def test_a_chunk_reuses_one_generator_as_fresh_ones_would(monkeypatch):
    cfg = ProtocolConfig(ell=4, counter_bits=2, secret_bits=3, enforce_counter_freshness=False)
    seen = []

    def spy(*args, **kwargs):
        out = run_session(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(harness, "run_session", spy)
    for actor in REUSE_KINDS:
        alone = [run_session(cfg, harness.trial_seed("reuse", i), adversary=actor, record=False)
                 for i in range(40)]
        seen.clear()
        wins = sum(harness.monte_carlo_range(cfg, actor, "reuse", lo, hi)
                   for lo, hi in ((0, 7), (7, 8), (8, 40)))
        assert seen == alone
        assert wins == sum(verdict.accepted for _, verdict in alone)


def test_uniform_verdicts_are_memoised_on_the_config():
    # honest round trip 7, relayed 3, early 0, and the timeout when silent
    for mode in ("max", "mean"):
        cfg = ProtocolConfig(ell=6, counter_bits=2, processing_ticks=1, rtt_mode=mode,
                             positions={"verifier": 0.0, "prover": 3.0, "adversary": 1.0})
        kinds = (None, *map(make_strategy, ("naive-guess", "early-full", "early-kernel",
                                            "prequery-stick")))
        prover_stores = {record: CounterStore() for record in (False, True)}
        uniform = set()
        for seed in range(60):
            for actor in kinds:  # interleaved on one config object
                share = actor is None and seed % 2 == 0
                out = {record: run_session(cfg, seed % 23, adversary=actor, record=record,
                                           prover_store=prover_stores[record] if share else None)
                       for record in (False, True)}
                (_, fast), (transcript, slow) = out[False], out[True]
                assert fast == slow == verifier_decide(transcript, cfg)
                if len(set(fast.per_bit_rtt)) == 1:
                    uniform.add(fast.per_bit_rtt[0])
        assert uniform == {7, 3, 0, cfg.timeout_ticks}
        memo = cfg._uniform_verdicts
        assert {rtt for _, rtt in memo} == uniform
        for (bits_correct, rtt), verdict in memo.items():
            assert verdict == _judge(cfg, bits_correct, (rtt,) * cfg.ell)
        # a copy decides as the original, memo and all
        for again in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            for seed in range(30):
                for actor in kinds:
                    assert (run_session(again, seed, adversary=actor, record=False)
                            == run_session(cfg, seed, adversary=actor, record=False))


def test_the_verdict_memo_stays_small():
    cfg = ProtocolConfig(ell=32)
    assert harness.monte_carlo_range(cfg, "early-kernel", "memo", 0, 10_000) == 10_000
    for strategy in ("naive-guess", "early-full", "honest"):
        harness.monte_carlo_range(cfg, strategy, "memo", 0, 2_000)
    per_rtt = collections.Counter(rtt for _, rtt in cfg._uniform_verdicts)
    assert set(per_rtt) == {0, 6} and max(per_rtt.values()) <= cfg.ell + 1


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
        # non-finite numbers, and finite ones whose tick counts overflow
        dict(ell=1, velocity=float("nan")),
        dict(ell=1, velocity=float("inf")),
        dict(ell=1, distance_bound=float("inf")),
        dict(ell=1, acceptance_slack=float("nan")),
        dict(ell=1, positions={"verifier": 0.0, "prover": float("-inf")}),
        dict(ell=1, positions={"verifier": 0.0, "prover": 3.0, "adversary": float("nan")}),
        dict(ell=1, velocity=1e-320),
        dict(ell=1, positions={"verifier": -1e308, "prover": 1e308}),
        dict(ell=1, distance_bound=1e308, velocity=1e-10),
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


def test_config_json_fields_are_the_dataclass_fields():
    names = [f.name for f in dataclasses.fields(ProtocolConfig)]
    assert list(_JSON_FIELDS) == names
    doc = ProtocolConfig(ell=8).to_json()
    assert list(doc) == names and type(doc["positions"]) is dict
    assert json.dumps(doc) == (
        '{"ell": 8, "secret_bits": 256, "counter_bits": null, "velocity": 1.0, '
        '"distance_bound": 5.0, "acceptance_slack": 0.0, "processing_ticks": 0, '
        '"positions": {"verifier": 0.0, "prover": 3.0}, "rtt_mode": "max", '
        '"enforce_counter_freshness": true}')


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
    key = (4, 0b0110)
    assert o1.query(*key) == o2.query(*key)
    assert o1.query(*key) is o1.query(*key)
    assert len(o1) == 1
    assert 0 <= o1.query(*key) < 1 << 16
    assert RandomOracle("other", 16).query(*key) != o1.query(*key)
    # the width is part of the input: 0110 and 110 are different strings
    assert o1.query(3, 0b110) != o1.query(*key) and len(o1) == 2
    with pytest.raises(ValueError):
        RandomOracle("seed", 0)


def test_oracle_outputs_are_unbiased():
    # 10**4 distinct inputs, 16 output bits: every position within 5 sigma
    oracle = RandomOracle("bias-check", 16)
    n = 10_000
    ones = [0] * 16
    for v in range(n):
        out = oracle.query(16, v)
        for i in range(16):
            ones[i] += (out >> i) & 1
    sigma = 0.5 / math.sqrt(n)
    for count in ones:
        assert abs(count / n - 0.5) < 5 * sigma


def test_oracle_long_outputs():
    out = RandomOracle(1, 600).query(4, 5)
    assert 0 <= out < 1 << 600


def test_oracle_entries_follow_the_documented_derivation():
    def entry(seed, out_bits, length, value):
        material = f"{seed}|{length}|{value:x}#".encode()
        blocks = -(-out_bits // 256)
        raw = b"".join(hashlib.sha256(material + str(i).encode()).digest()
                       for i in range(blocks))
        return int.from_bytes(raw, "big") >> (256 * blocks - out_bits)

    for seed in ("seed", 7, 2**64 - 1):
        for out_bits in (1, 16, 64, 255, 256, 257, 600):
            for length, value in ((4, 5), (320, (1 << 319) | 12345)):
                oracle = RandomOracle(seed, out_bits)
                assert oracle.query(length, value) == entry(seed, out_bits, length, value)


def test_counter_store_semantics():
    store = CounterStore()
    a, b = 0b01, 0b10
    assert len(store) == 0
    assert store.check_and_mark(a, b, 2)
    assert not store.check_and_mark(a, b, 2)
    assert len(store) == 1
    # order matters: (b, a) is a different pair
    assert store.check_and_mark(b, a, 2)
    assert len(store) == 2
    # so does the width: 001,010 are not 01,10
    assert store.check_and_mark(a, b, 3)
    assert len(store) == 3


def _handle(cfg):
    """A session view whose counters, secret and token are set by hand, and its prover."""
    view = SessionView(cfg, random.Random(0), RandomOracle(0, 2 * cfg.ell), 0b00, 0b01,
                       (1 << cfg.secret_bits) - 1, 0b0110, CounterStore(), None, 0)
    return view, view.prover


def test_prover_handle_refuses_replayed_counters():
    sess, handle = _handle(ProtocolConfig(ell=2))
    z = 0b10
    # h0 = 01, h1 = 10: bit 1 comes from h1, bit 2 from h0
    assert handle.respond_to(sess.a, sess.b, z) == 0b11
    with pytest.raises(CounterReuseRefused):
        handle.respond_to(sess.a, sess.b, z ^ 0b11)


def test_prover_handle_checks_widths():
    sess, handle = _handle(ProtocolConfig(ell=2, enforce_counter_freshness=False))
    for z in (4, 7, 1 << 40, -1):
        with pytest.raises(ValueError):
            handle.respond_to(sess.a, sess.b, z)
    for a, b in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(ValueError):
            handle.respond_to(a, b, 0)
    # nothing was marked or answered on the way
    assert len(sess.prover_store) == 0
    assert handle.respond_to(sess.a, sess.b, 0b11) == 0b10


def test_prover_store_is_made_on_the_first_query():
    cfg = ProtocolConfig(ell=2)
    view = SessionView(cfg, random.Random(0), RandomOracle(0, 4), 0b00, 0b01, 0, 0b0110, None, None, 0)
    assert view.prover is view and view.prover_store is None
    assert view.prover.respond_to(view.a, view.b, 0b10) == 0b11
    assert len(view.prover_store) == 1
    with pytest.raises(CounterReuseRefused):
        view.prover.respond_to(view.a, view.b, 0b01)
