"""Discrete-event simulation of the timed challenge-response exchange.

A session runs on a single logical timeline measured in integer ticks.
Stage 1 exchanges the fresh counters a and b; both sides then derive the
response token h = H(s::a::b) from the shared secret.  Stage 2 performs
ell sequential timed rounds: the verifier sends one challenge bit, the
responder answers with the matching token bit, and the verifier logs the
round-trip time.  The verdict combines bit correctness, the distance
estimate recovered from the round trips, and counter freshness.

Distances resolve to whole ticks: propagation delay is ceil(dist /
velocity), so estimates are exact only on configs whose distances sit on
the tick grid (the default ones do).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Mapping

from .bits import BitString, concat, sample_uniform
from .exprs import json_field
from .hkfun import ResponseToken, boxplus, select

VERIFIER = "verifier"
PROVER = "prover"
ADVERSARY = "adversary"

REASON_OK = "ok"
REASON_WRONG_BITS = "wrong_bits"
REASON_TOO_FAR = "too_far"
REASON_COUNTER_REUSED = "counter_reused"


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of one protocol deployment.

    ``positions`` maps principal names to coordinates on a line; the
    adversary's entry is optional and defaults to the verifier's own
    coordinate (the attacker walks right up to the reader).
    """

    ell: int
    secret_bits: int = 256
    counter_bits: int | None = None  # None: same width as the challenge
    velocity: float = 1.0
    distance_bound: float = 5.0
    acceptance_slack: float = 0.0  # extra distance the verifier tolerates
    processing_ticks: int = 0
    positions: Mapping[str, float] = field(
        default_factory=lambda: {VERIFIER: 0.0, PROVER: 3.0}
    )
    rtt_mode: str = "max"  # "max" or "mean" aggregation of per-bit RTTs
    enforce_counter_freshness: bool = True

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError("ell must be at least 1")
        if self.secret_bits < 1:
            raise ValueError("secret_bits must be at least 1")
        if self.counter_bits is not None and self.counter_bits < 1:
            raise ValueError("counter_bits must be at least 1 when given")
        if self.velocity <= 0:
            raise ValueError("velocity must be positive")
        if self.distance_bound < 0:
            raise ValueError("distance_bound must be nonnegative")
        if self.acceptance_slack < 0:
            raise ValueError("acceptance_slack must be nonnegative")
        if self.processing_ticks < 0:
            raise ValueError("processing_ticks must be nonnegative")
        if self.rtt_mode not in ("max", "mean"):
            raise ValueError("rtt_mode must be 'max' or 'mean'")
        for who in (VERIFIER, PROVER):
            if who not in self.positions:
                raise ValueError(f"positions must place the {who}")

    @property
    def counter_width(self) -> int:
        return self.counter_bits if self.counter_bits is not None else self.ell

    def position(self, principal: str) -> float:
        if principal == ADVERSARY and principal not in self.positions:
            return self.positions[VERIFIER]
        return self.positions[principal]

    def distance(self, p: str, q: str) -> float:
        return abs(self.position(p) - self.position(q))

    def delay_ticks(self, p: str, q: str) -> int:
        return math.ceil(self.distance(p, q) / self.velocity)

    @property
    def timeout_rtt(self) -> float:
        """Ticks the verifier waits for a round before giving up."""
        reach = self.distance_bound + self.acceptance_slack
        return 2.0 * reach / self.velocity + self.processing_ticks

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "secret_bits": self.secret_bits,
            "counter_bits": self.counter_bits,
            "velocity": self.velocity,
            "distance_bound": self.distance_bound,
            "acceptance_slack": self.acceptance_slack,
            "processing_ticks": self.processing_ticks,
            "positions": dict(self.positions),
            "rtt_mode": self.rtt_mode,
            "enforce_counter_freshness": self.enforce_counter_freshness,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ProtocolConfig":
        """Build from a JSON object; a field of the wrong type is a ValueError."""
        if not isinstance(data, Mapping):
            raise ValueError("config must be a JSON object")
        extra = set(data) - set(_JSON_FIELDS)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        for key in data:
            json_field(data, key, _JSON_FIELDS[key])
        json_field(data, "positions", dict, {}, item=_NUMBER)
        return cls(**data)


_NUMBER = (int, float)
# JSON field -> the exact types it may hold (a bool is not a number here).
_JSON_FIELDS = {
    "ell": (int,),
    "secret_bits": (int,),
    "counter_bits": (int, type(None)),
    "velocity": _NUMBER,
    "distance_bound": _NUMBER,
    "acceptance_slack": _NUMBER,
    "processing_ticks": (int,),
    "positions": (dict,),
    "rtt_mode": (str,),
    "enforce_counter_freshness": (bool,),
}


class RandomOracle:
    """Idealized hash: independent uniform outputs, memoized per input.

    Entries are derived from a dedicated master seed, not a real hash,
    so replaying a seed replays the whole table.  Concurrent insert is
    first-writer-wins; every writer would store the same value anyway.
    """

    def __init__(self, master_seed, out_bits: int):
        if out_bits < 1:
            raise ValueError("out_bits must be at least 1")
        self.master_seed = master_seed
        self.out_bits = out_bits
        self._table: dict[tuple[int, int], BitString] = {}

    def query(self, key: BitString) -> BitString:
        k = (key.length, key.value)
        hit = self._table.get(k)
        if hit is not None:
            return hit
        material = f"{self.master_seed}|{key.length}|{key.value:x}".encode()
        value = 0
        need = self.out_bits
        block = 0
        while need > 0:
            digest = hashlib.sha256(material + b"#%d" % block).digest()
            take = min(need, 256)
            value = (value << take) | (int.from_bytes(digest, "big") >> (256 - take))
            need -= take
            block += 1
        out = BitString(self.out_bits, value)
        self._table[k] = out
        return out

    def __len__(self) -> int:
        return len(self._table)


class CounterStore:
    """Insertion-only record of counter pairs a principal has used."""

    def __init__(self) -> None:
        self._seen: set[tuple[int, int, int, int]] = set()

    @staticmethod
    def _key(a: BitString, b: BitString) -> tuple[int, int, int, int]:
        return (a.length, a.value, b.length, b.value)

    def check_and_mark(self, a: BitString, b: BitString) -> bool:
        """True iff the pair was fresh; the pair is recorded either way."""
        key = self._key(a, b)
        fresh = key not in self._seen
        self._seen.add(key)
        return fresh

    def __len__(self) -> int:
        return len(self._seen)


@dataclass(frozen=True)
class Event:
    tick: int
    principal: str
    kind: str  # "fresh" | "send" | "receive"
    name: str
    value: BitString | None = None
    channel: tuple[str, str] | None = None
    term: str | None = None  # symbolic label for knowledge-tracking

    def to_json(self) -> dict:
        return {
            "tick": self.tick,
            "principal": self.principal,
            "kind": self.kind,
            "name": self.name,
            "value": None if self.value is None else self.value.text(),
            "channel": None if self.channel is None else list(self.channel),
            "term": self.term,
        }


@dataclass
class Transcript:
    """Everything the verifier observed, plus the event log when recorded.

    The summary arrays are always filled; ``events`` is empty when the
    session ran with ``record=False`` (bulk Monte Carlo).
    """

    events: list[Event]
    challenge_send_ticks: list[int]
    response_recv_ticks: list[int | None]
    challenges: list[int]
    responses: list[int | None]
    expected: list[int]
    counter_reused: bool = False

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_json()) + "\n" for e in self.events)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    bits_correct: int
    per_bit_rtt: tuple[int, ...]
    estimated_distance: float
    reason: str


def verifier_decide(t: Transcript, cfg: ProtocolConfig) -> Verdict:
    """Recompute the verdict from the transcript alone.

    Reason precedence: counter_reused, then wrong_bits, then too_far.
    A round whose response never arrived counts as a wrong bit and
    contributes the timeout window to the distance estimate; a response
    that did arrive is measured at its true round trip, so an honest but
    out-of-range prover is rejected as too_far rather than wrong_bits.
    """
    if t.counter_reused:
        return Verdict(False, 0, (), 0.0, REASON_COUNTER_REUSED)
    ell = cfg.ell
    lists = (
        t.challenge_send_ticks,
        t.response_recv_ticks,
        t.challenges,
        t.responses,
        t.expected,
    )
    if any(len(xs) != ell for xs in lists):
        raise ValueError(f"transcript does not cover all {ell} rounds")
    cutoff = cfg.timeout_rtt
    rtts: list[int] = []
    bits_correct = 0
    for sent, got, answer, want in zip(
        t.challenge_send_ticks, t.response_recv_ticks, t.responses, t.expected
    ):
        if got is None or answer is None:
            rtts.append(math.ceil(cutoff))
            continue
        if got < sent:
            raise ValueError("response received before its challenge was sent")
        rtts.append(got - sent)
        if answer == want:
            bits_correct += 1
    agg = max(rtts) if cfg.rtt_mode == "max" else sum(rtts) / ell
    estimated = max(0.0, (agg - cfg.processing_ticks) * cfg.velocity / 2.0)
    if bits_correct != ell:
        reason = REASON_WRONG_BITS
    elif estimated > cfg.distance_bound + cfg.acceptance_slack:
        reason = REASON_TOO_FAR
    else:
        reason = REASON_OK
    return Verdict(reason == REASON_OK, bits_correct, tuple(rtts), estimated, reason)


class CounterReuseRefused(Exception):
    """The prover declined to answer under an already-used counter pair."""


class ProverHandle:
    """Query access to the honest prover, for an attacker's pre-phase.

    Each call is one full challenge-response interaction under the given
    counters.  The prover enforces counter freshness when configured to,
    refusing repeats; timing is irrelevant here because the attacker is
    under no clock until the verifier's timed phase starts.
    """

    def __init__(self, session: "_Session"):
        self._s = session

    def respond_to(self, a: BitString, b: BitString, challenges: BitString) -> BitString:
        s = self._s
        if challenges.length != s.cfg.ell:
            raise ValueError("challenge string must cover all rounds")
        if not s.prover_store.check_and_mark(a, b) and s.cfg.enforce_counter_freshness:
            raise CounterReuseRefused(
                f"prover already answered under counters {a.text()},{b.text()}"
            )
        if (a, b) == (s.a, s.b):
            token = s.token
        else:
            token = ResponseToken.from_bits(s.oracle.query(concat(s.secret, a, b)))
        reply = boxplus(challenges, token)
        s.note_interrogation(a, b, challenges, reply)
        return reply


class Responder:
    """Hook for whoever answers the verifier's timed challenges.

    Subclasses (the attack strategies) override ``setup`` to run their
    pre-phase and ``play`` to commit responses.  ``play`` returns the
    response bits and an early mask, both as ell-bit integers with round
    1 in the most significant position: rounds in the mask are answered
    at the instant the challenge leaves the verifier (round trip 0), and
    their bits must not depend on the challenge string.
    """

    position_key: str = ADVERSARY

    def setup(self, view: "SessionView") -> None:
        pass

    def play(self, view: "SessionView", challenges: BitString) -> tuple[int, int]:
        raise NotImplementedError


@dataclass
class SessionView:
    """What the responder may consult while playing one session."""

    cfg: ProtocolConfig
    rng: random.Random
    oracle: RandomOracle
    a: BitString
    b: BitString
    prover: ProverHandle
    secret: BitString  # only dishonest-prover strategies may read these
    token: ResponseToken


class _Session:
    """Mutable state threaded through one run_session call."""

    def __init__(self, cfg, rng, oracle, verifier_store, prover_store, record):
        self.cfg = cfg
        self.rng = rng
        self.oracle = oracle
        self.verifier_store = verifier_store
        self.prover_store = prover_store
        self.events: list[Event] | None = [] if record else None
        self.clock = 0
        self.secret: BitString = None  # type: ignore[assignment]
        self.a: BitString = None  # type: ignore[assignment]
        self.b: BitString = None  # type: ignore[assignment]
        self.token: ResponseToken = None  # type: ignore[assignment]
        # labels for pre-phase queries: value -> symbolic name, per pair
        self._query_labels: dict[tuple, dict[int, str]] = {}
        self._query_count = 0
        self._pair_count = 0
        self._token_labels: dict[tuple, str] = {}

    def emit(self, *args, **kwargs) -> None:
        if self.events is not None:
            self.events.append(Event(*args, **kwargs))

    def _pre_labels(self, a, b, challenges) -> tuple[str, str]:
        """Symbolic labels for a pre-phase query and its response.

        A challenge that is the bitwise negation of an earlier query
        under the same counter pair is labelled as that negation, so the
        knowledge-context analysis can see the two responses pin the
        token down.  Tokens of non-session pairs get their own names.
        """
        pair = (a.length, a.value, b.length, b.value)
        if (a, b) == (self.a, self.b):
            token_label = "h"
        else:
            token_label = self._token_labels.get(pair)
            if token_label is None:
                self._pair_count += 1
                token_label = self._token_labels[pair] = f"h{self._pair_count}"
        known = self._query_labels.setdefault(pair, {})
        label = known.get(challenges.value)
        if label is None:
            flipped = known.get(challenges.value ^ ((1 << challenges.length) - 1))
            if flipped is not None:
                label = f"neg({flipped})"
            else:
                self._query_count += 1
                label = f"z{self._query_count}"
            known[challenges.value] = label
        return label, f"boxplus({label},{token_label})"

    def note_interrogation(self, a, b, challenges, reply) -> None:
        if self.events is None:
            return
        z_term, r_term = self._pre_labels(a, b, challenges)
        t = self.clock = self.clock + 1
        pair = (ADVERSARY, PROVER)
        self.events.append(Event(t, ADVERSARY, "fresh", "pre_challenge", challenges, term=z_term))
        self.events.append(Event(t, ADVERSARY, "send", "pre_challenge", challenges, pair, term=z_term))
        self.events.append(Event(t + 1, PROVER, "receive", "pre_challenge", challenges, pair, term=z_term))
        back = (PROVER, ADVERSARY)
        self.events.append(Event(t + 2, PROVER, "send", "pre_response", reply, back, term=r_term))
        self.events.append(Event(t + 3, ADVERSARY, "receive", "pre_response", reply, back, term=r_term))
        self.clock = t + 3


def run_session(
    cfg: ProtocolConfig,
    seed,
    adversary: Responder | None = None,
    verifier_store: CounterStore | None = None,
    prover_store: CounterStore | None = None,
    oracle: RandomOracle | None = None,
    record: bool = True,
) -> tuple[Transcript, Verdict]:
    """Run one complete session and decide it.

    With no adversary the honest prover answers from its configured
    position.  With one, the adversary answers the timed phase from its
    own position (stage-1 counters are relayed unchanged), optionally
    interrogating the prover first through the view's handle.

    Identical (cfg, seed, adversary kind) replays identically.  Passing
    the same stores across calls models parties with memory: replaying a
    seed against the same verifier store trips the freshness check.
    """
    rng = random.Random(seed)
    if oracle is None:
        oracle = RandomOracle(seed, 2 * cfg.ell)
    if verifier_store is None:
        verifier_store = CounterStore()
    if prover_store is None:
        prover_store = CounterStore()
    sess = _Session(cfg, rng, oracle, verifier_store, prover_store, record)

    secret = sample_uniform(rng, cfg.secret_bits)
    a = sample_uniform(rng, cfg.counter_width)
    b = sample_uniform(rng, cfg.counter_width)
    sess.secret = secret

    responder_pos = adversary.position_key if adversary is not None else PROVER
    delay = cfg.delay_ticks(VERIFIER, responder_pos)
    rtt_wait = 2 * delay + cfg.processing_ticks

    # Stage 1: counter exchange, relayed unchanged when an adversary sits
    # in the middle (it gains nothing by tampering: the token would not
    # match the verifier's).
    hop = (
        cfg.delay_ticks(VERIFIER, ADVERSARY) + cfg.delay_ticks(ADVERSARY, PROVER)
        if adversary is not None
        else cfg.delay_ticks(VERIFIER, PROVER)
    )
    sess.emit(0, VERIFIER, "fresh", "a", a, term="a")
    sess.emit(0, VERIFIER, "send", "a", a, (VERIFIER, PROVER), term="a")
    sess.emit(hop, PROVER, "receive", "a", a, (VERIFIER, PROVER), term="a")
    sess.emit(hop, PROVER, "fresh", "b", b, term="b")
    sess.emit(hop, PROVER, "send", "b", b, (PROVER, VERIFIER), term="b")
    sess.emit(2 * hop, VERIFIER, "receive", "b", b, (PROVER, VERIFIER), term="b")
    sess.clock = 2 * hop

    fresh = verifier_store.check_and_mark(a, b)
    if cfg.enforce_counter_freshness and not fresh:
        sess.emit(sess.clock, VERIFIER, "fresh", "counter_reused", None)
        transcript = Transcript(
            sess.events or [], [], [], [], [], [], counter_reused=True
        )
        return transcript, verifier_decide(transcript, cfg)

    token = ResponseToken.from_bits(oracle.query(concat(secret, a, b)))
    sess.a, sess.b, sess.token = a, b, token
    mask = (1 << cfg.ell) - 1

    silent = False
    if adversary is not None:
        view = SessionView(cfg, rng, oracle, a, b, ProverHandle(sess), secret, token)
        adversary.setup(view)
    else:
        # The honest prover answers under these counters exactly once; on
        # a replayed pair she stays silent and the rounds time out.
        fresh_for_prover = prover_store.check_and_mark(a, b)
        silent = cfg.enforce_counter_freshness and not fresh_for_prover

    challenges = sample_uniform(rng, cfg.ell)
    expected_value = select(challenges.value, token.h0.value, token.h1.value, cfg.ell)
    if adversary is not None:
        response_value, early_mask = adversary.play(view, challenges)
        response_value &= mask
        early_mask &= mask
    else:
        response_value = expected_value
        early_mask = 0

    # Stage 2: sequential timed rounds.
    who = PROVER if responder_pos == PROVER else ADVERSARY
    send_ticks: list[int] = []
    recv_ticks: list[int | None] = []
    xs: list[int] = []
    rs: list[int | None] = []
    es: list[int] = []
    t = sess.clock
    for i in range(1, cfg.ell + 1):
        shift = cfg.ell - i
        x_i = (challenges.value >> shift) & 1
        r_i = (response_value >> shift) & 1
        e_i = (expected_value >> shift) & 1
        early = (early_mask >> shift) & 1
        recv: int | None = t if early else t + rtt_wait
        if silent:
            recv = None
        send_ticks.append(t)
        recv_ticks.append(recv)
        xs.append(x_i)
        rs.append(None if silent else r_i)
        es.append(e_i)
        if sess.events is not None:
            xb = BitString(1, x_i)
            rb = BitString(1, r_i)
            cpath = (VERIFIER, who)
            rpath = (who, VERIFIER)
            sess.emit(t, VERIFIER, "send", f"x{i}", xb, cpath, term=f"x{i}")
            if not silent:
                if early:
                    # Sent blind, timed so it lands as the challenge departs.
                    sess.emit(max(0, t - delay), who, "send", f"r{i}", rb, rpath,
                              term=f"boxplus(x{i},h)")
                else:
                    sess.emit(t + delay, who, "receive", f"x{i}", xb, cpath,
                              term=f"x{i}")
                    sess.emit(t + delay + cfg.processing_ticks, who, "send", f"r{i}",
                              rb, rpath, term=f"boxplus(x{i},h)")
                sess.emit(recv, VERIFIER, "receive", f"r{i}", rb, rpath,
                          term=f"boxplus(x{i},h)")
        t = (t + rtt_wait if recv is None else recv) + 1

    if sess.events:
        sess.events.sort(key=lambda e: e.tick)
    transcript = Transcript(
        sess.events if sess.events is not None else [],
        send_ticks,
        recv_ticks,
        xs,
        rs,
        es,
    )
    return transcript, verifier_decide(transcript, cfg)
