"""Discrete-event simulation of the timed challenge-response exchange.

A session runs on a single logical timeline measured in integer ticks.
Stage 1 exchanges the fresh counters a and b; both sides then derive the
response token h = H(s::a::b) from the shared secret.  Stage 2 performs
ell sequential timed rounds: the verifier sends one challenge bit, the
responder answers with the matching token bit, and the verifier logs the
round-trip time.  The verdict combines bit correctness, the distance
estimate recovered from the round trips, and counter freshness.  Every
value in a session is a plain int at its config width, round 1 (or bit
1) in the most significant position.  A recorded session also keeps an
event log: ``Event`` tuples, built only when recording, whose values are
the bit text of those ints (``f"{v:0{w}b}"``), as their JSON holds it.

Distances resolve to whole ticks: propagation delay is ceil(dist /
velocity), so estimates are exact only on configs whose distances sit on
the tick grid (the default ones do).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from ._slotted import Slotted
from .bits import concat, sample_uniform  # noqa: F401 (bench/layers.py patches the last two)
from .exprs import json_field, json_fields
from .hkfun import select

try:  # the built-in module: hashlib loads OpenSSL's libcrypto, about 3.5 MB
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed it _sha2
    from hashlib import sha256

if TYPE_CHECKING:  # symbolic imports the oracle, which this module does not need
    from .symbolic import Term

VERIFIER = "verifier"
PROVER = "prover"
ADVERSARY = "adversary"

REASON_OK = "ok"
REASON_WRONG_BITS = "wrong_bits"
REASON_TOO_FAR = "too_far"
REASON_COUNTER_REUSED = "counter_reused"


def _ticks(span: float) -> int:
    """``span`` rounded up to whole ticks; a span too long for a tick
    count (a tiny velocity, or far-apart positions) is a ValueError."""
    try:
        return math.ceil(span)
    except OverflowError:
        raise ValueError(f"a span of {span} ticks is too long; raise the velocity "
                         "or bring the positions closer") from None


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of one protocol deployment.

    ``positions`` maps principal names to coordinates on a line; the
    adversary's entry is optional and defaults to the verifier's own
    coordinate (the attacker walks right up to the reader).  A config is
    immutable, ``positions`` included (it holds a read-only copy of the
    mapping it was given).  Building one checks every field and derives,
    once, what every session reads: ``counter_width``, ``reach`` (the
    greatest distance estimate accepted), ``timeout_rtt`` and
    ``timeout_ticks`` (the wait for a round, and the round trip logged
    when its answer never arrives), ``_session_ticks`` ((delay, rtt_wait,
    hop) keyed by (relayed?, responder): the trip to the responder, its
    honest round trip, a counter's stage-1 trip) and the empty memo
    ``_uniform_verdicts``; a tick count too long to take, or past a float's
    range, raises here.  A copy (pickle, deepcopy) is rebuilt from ``to_json()``.
    """

    ell: int
    secret_bits: int = 256
    counter_bits: int | None = None  # None: same width as the challenge
    velocity: float = 1.0
    distance_bound: float = 5.0
    acceptance_slack: float = 0.0  # extra distance the verifier tolerates
    processing_ticks: int = 0
    positions: Mapping[str, float] = field(default_factory=lambda: {VERIFIER: 0.0, PROVER: 3.0})
    rtt_mode: str = "max"  # "max" or "mean" aggregation of per-bit RTTs
    enforce_counter_freshness: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.positions, Mapping):
            raise ValueError(f"positions must be a mapping, got {self.positions!r}")
        object.__setattr__(self, "positions", MappingProxyType(dict(self.positions)))
        doc = self.to_json()
        for key, kinds in _JSON_FIELDS.items():
            json_field(doc, key, kinds)
        json_field(doc, "positions", dict, item=_NUMBER)
        for name in ("ell", "secret_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.counter_bits is not None and self.counter_bits < 1:
            raise ValueError("counter_bits must be at least 1 when given")
        for name in ("velocity", "distance_bound", "acceptance_slack"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for who, at in self.positions.items():
            if not math.isfinite(at):
                raise ValueError(f"the position of the {who} must be finite, got {at}")
        if self.velocity <= 0:
            raise ValueError("velocity must be positive")
        for name in ("distance_bound", "acceptance_slack", "processing_ticks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.rtt_mode not in ("max", "mean"):
            raise ValueError("rtt_mode must be 'max' or 'mean'")
        for who in (VERIFIER, PROVER):
            if who not in self.positions:
                raise ValueError(f"positions must place the {who}")
        d, wait = self.delay_ticks, self.processing_ticks
        hops = {False: d(VERIFIER, PROVER), True: d(VERIFIER, ADVERSARY) + d(ADVERSARY, PROVER)}
        ticks = {(relayed, who): (d(VERIFIER, who), 2 * d(VERIFIER, who) + wait, hop)
                 for relayed, hop in hops.items() for who in sorted({*self.positions, ADVERSARY})}
        # a verdict takes round trips as floats; a delay, and the direct hop, is at most a round trip
        for what, n in (("processing_ticks", wait),
                        *((f"the round trip to the {who}", rtt) for (_, who), (_, rtt, _) in ticks.items()),
                        ("the relayed counter hop", hops[True])):
            try:
                float(n)
            except OverflowError:
                raise ValueError(f"{what} is too long: a tick count of {n.bit_length()} bits "
                                 "does not fit a float") from None
        reach = self.distance_bound + self.acceptance_slack
        timeout_rtt = 2.0 * reach / self.velocity + wait
        for name, value in dict(
            counter_width=self.ell if self.counter_bits is None else self.counter_bits,
            reach=reach, timeout_rtt=timeout_rtt, _session_ticks=ticks,
            timeout_ticks=_ticks(timeout_rtt), _uniform_verdicts={},
        ).items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # a read-only mapping does not pickle: a copy is rebuilt, and checked, from the JSON
        return type(self).from_json, (self.to_json(),)

    def position(self, principal: str) -> float:
        if principal == ADVERSARY and principal not in self.positions:
            return self.positions[VERIFIER]
        return self.positions[principal]

    def distance(self, p: str, q: str) -> float:
        return abs(self.position(p) - self.position(q))

    def delay_ticks(self, p: str, q: str) -> int:
        return _ticks(self.distance(p, q) / self.velocity)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"positions": dict(self.positions)}

    @classmethod
    def from_json(cls, data: Mapping) -> "ProtocolConfig":
        """Build from a JSON object; an unknown, mistyped or missing required field is a ValueError."""
        json_fields(data, _JSON_FIELDS)
        json_field(data, "ell", int)  # the one field without a default
        return cls(**data)


_NUMBER = (int, float)
# field -> the exact types it may hold, built directly or from JSON (a bool is not a number here)
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


def oracle_entry(master_seed, out_bits: int, length: int, value: int) -> int:
    """The random oracle's out_bits-bit entry for the length-bit input ``value``.

    It is the leading out_bits bits of the SHA-256 digests of
    ``<seed>|<length>|<value in hex>#<i>`` for blocks i = 0, 1, ... (one
    digest up to 256 bits), so a seed replays its whole table.  ``sha256``
    is the interpreter's built-in ``_sha256`` (hashlib's digests without
    OpenSSL), else hashlib's (Python 3.12 and later)."""
    material = f"{master_seed}|".encode() + b"%d|%x#" % (length, value)
    blocks = -(-out_bits // 256)
    raw = (sha256(material + b"0").digest() if blocks == 1
           else b"".join([sha256(b"%s%d" % (material, i)).digest() for i in range(blocks)]))
    return int.from_bytes(raw, "big") >> 256 * blocks - out_bits


class RandomOracle:
    """Idealized hash: ``oracle_entry`` under one master seed and output
    width, memoized per input (a ``length``-bit int).  Concurrent insert
    is first-writer-wins; every writer would store the same value anyway."""

    def __init__(self, master_seed, out_bits: int):
        if out_bits < 1:
            raise ValueError("out_bits must be at least 1")
        self.master_seed, self.out_bits = master_seed, out_bits
        self._table: dict[tuple[int, int], int] = {}

    def query(self, length: int, value: int) -> int:
        hit = self._table.get(k := (length, value))
        if hit is None:
            hit = self._table[k] = oracle_entry(self.master_seed, self.out_bits, length, value)
        return hit

    def __len__(self) -> int:
        return len(self._table)


def session_token(seed, cfg: ProtocolConfig, secret: int, a: int, b: int) -> int:
    """Session ``seed``'s 2l-bit token h0::h1 = H(s::a::b), s and the counters at their config widths."""
    w = cfg.counter_width
    return oracle_entry(seed, 2 * cfg.ell, cfg.secret_bits + 2 * w, (secret << w | a) << w | b)


class CounterStore:
    """Insertion-only record of counter pairs a principal has used."""

    def __init__(self) -> None:
        self._seen: set[tuple[int, int, int]] = set()

    def check_and_mark(self, a: int, b: int, width: int) -> bool:
        """True iff the pair of width-bit counters was fresh; it is recorded either way."""
        key = (width, a, b)  # pairs of different widths stay distinct
        fresh = key not in self._seen
        self._seen.add(key)
        return fresh

    def __len__(self) -> int:
        return len(self._seen)


class Event(NamedTuple):
    """One entry of a recorded event log: a tuple of its seven fields."""

    tick: int
    principal: str
    kind: str  # "fresh" | "send" | "receive"
    name: str
    value: str | None = None  # the bit text, e.g. "0110"
    channel: tuple[str, str] | None = None
    term: str | Term | None = None  # symbolic label for knowledge-tracking

    def to_json(self) -> dict:  # a Term label as its text, which ``symbolic.parse`` reads back
        return self._asdict() | {"channel": None if self.channel is None else list(self.channel),
                                 "term": None if self.term is None else str(self.term)}


@dataclass(frozen=True)
class Transcript:
    """A recorded session: its event log, and what the verifier expected.

    The log is the one record of the rounds.  The verifier's own
    ``send x<i>`` and ``receive r<i>`` events hold each challenge's
    departure, each answer's arrival and its bit text; ``expected`` holds
    the token bits the verifier derived for the challenges it sent, an
    ell-bit int with round 1 in the most significant bit.  A reused
    counter pair is the verifier's ``fresh counter_reused`` event.  A
    session run with ``record=False`` (bulk Monte Carlo) returns the one
    shared ``Transcript()``: no events, and its verdict comes from the
    session itself.  A transcript is frozen and its default log is an
    empty tuple, so the shared one cannot be modified through any
    session that returned it.
    """

    events: Sequence[Event] = ()
    expected: int = 0

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_json()) + "\n" for e in self.events)


class Verdict(NamedTuple):
    accepted: bool
    bits_correct: int
    per_bit_rtt: tuple[int, ...]
    estimated_distance: float
    reason: str


_REUSED = Verdict(False, 0, (), 0.0, REASON_COUNTER_REUSED)
_UNRECORDED = Transcript()


def _judge(cfg: ProtocolConfig, bits_correct: int, rtts: tuple[int, ...],
           agg: float | None = None) -> Verdict:
    """The verdict on fresh counters, from the bits right and the round trips.

    ``agg`` is the round trips' aggregate under ``cfg.rtt_mode`` when the
    caller knows it, else it is computed from ``rtts``.  wrong_bits takes
    precedence over too_far.
    """
    if agg is None:
        agg = max(rtts) if cfg.rtt_mode == "max" else sum(rtts) / cfg.ell
    estimated = max(0.0, (agg - cfg.processing_ticks) * cfg.velocity / 2.0)
    if bits_correct != cfg.ell:
        reason = REASON_WRONG_BITS
    elif estimated > cfg.reach:
        reason = REASON_TOO_FAR
    else:
        reason = REASON_OK
    return Verdict(reason == REASON_OK, bits_correct, rtts, estimated, reason)


def _judge_uniform(cfg: ProtocolConfig, bits_correct: int, rtt: int) -> Verdict:
    """``_judge`` on ell rounds of one round trip, memoised on the config
    (at most ell + 1 entries per round-trip value)."""
    memo = cfg._uniform_verdicts
    verdict = memo.get((bits_correct, rtt))
    if verdict is None:
        verdict = memo[bits_correct, rtt] = _judge(cfg, bits_correct, (rtt,) * cfg.ell)
    return verdict


def verifier_decide(t: Transcript, cfg: ProtocolConfig) -> Verdict:
    """Recompute the verdict from the verifier's own events in a recorded transcript.

    Round i is the verifier's ``send x<i>`` and ``receive r<i>`` events
    (``_round_labels``); a round with no send is a ValueError, and so is
    an answer received before its challenge was sent.  The verifier's
    ``fresh counter_reused`` event decides a reused session, so reason
    precedence is counter_reused, then wrong_bits, then too_far.  A round
    whose response never arrived counts as a wrong bit and contributes
    the timeout window to the distance estimate; a response that did
    arrive is measured at its true round trip, so an honest but
    out-of-range prover is rejected as too_far rather than wrong_bits.
    """
    ell = cfg.ell
    sent, got = {}, {}
    for e in t.events:
        if e.principal == VERIFIER:
            if e.kind == "send":
                sent[e.name] = e.tick
            elif e.kind == "receive":
                got[e.name] = e
            elif e.name == REASON_COUNTER_REUSED:
                return _REUSED
    rtts: list[int] = []
    bits_correct = 0
    for shift, (x_name, r_name, _) in zip(range(ell - 1, -1, -1), _round_labels(ell)):
        if x_name not in sent:
            raise ValueError(f"transcript does not cover all {ell} rounds")
        answer = got.get(r_name)
        if answer is None:
            rtts.append(cfg.timeout_ticks)
            continue
        if answer.tick < sent[x_name]:
            raise ValueError("response received before its challenge was sent")
        rtts.append(answer.tick - sent[x_name])
        bits_correct += answer.value == _BIT[t.expected >> shift & 1]
    return _judge(cfg, bits_correct, tuple(rtts))


class CounterReuseRefused(Exception):
    """The prover declined to answer under an already-used counter pair."""


class Responder:
    """Hook for whoever answers the verifier's timed challenges.

    Subclasses (the attack strategies) override ``setup`` to run their
    pre-phase and ``play`` to commit responses.  ``play`` receives the
    challenges as an ell-bit int with round 1 in the most significant
    bit, and returns the response bits and an early mask in the same
    layout: rounds in the mask are answered at the instant the challenge
    leaves the verifier (round trip 0), and their bits must not depend
    on the challenge string.  The timing rule: a waited round i may read
    the challenges x_1..x_i only, and an early round, its bit and its
    place in the mask, reads no challenge.
    """

    position_key: str = ADVERSARY

    def setup(self, view: "SessionView") -> None:
        pass

    def play(self, view: "SessionView", challenges: int) -> tuple[int, int]:
        raise NotImplementedError


class SessionView(Slotted):
    """What the responder may consult while playing one session.

    Counters, secret and token are ints at their config widths.  The
    token is h0::h1, so ``select(x, token >> ell, token, ell)`` answers
    challenges x: ``select`` reads only the low ell bits, which are h1.
    ``rng`` is the session's generator; Monte Carlo reseeds it for the
    next trial, so neither it nor the view outlives the session.  ``seed``
    keys the session's oracle entries (``session_token``).

    The view also gives query access to the honest prover for an
    attacker's pre-phase (``view.prover.respond_to``), and records those
    queries in the session's event log (``events``, None when not
    recording) from tick ``clock`` on.
    """

    __match_args__ = ("cfg", "rng", "seed", "a", "b", "secret", "token", "prover_store", "events", "clock")
    __slots__ = __match_args__ + ("_label_state",)
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # a view is mutable

    def __init__(self, cfg: ProtocolConfig, rng: random.Random, seed,
                 a: int, b: int, secret: int, token: int,
                 prover_store: CounterStore | None, events: list[Event] | None, clock: int):
        self.cfg, self.rng, self.seed, self.a, self.b, self.clock = cfg, rng, seed, a, b, clock
        self.secret, self.token = secret, token  # only dishonest-prover strategies may read these
        self.prover_store, self.events, self._label_state = prover_store, events, None

    @property
    def prover(self) -> "SessionView":
        """The honest prover's query access: ``respond_to``."""
        return self

    def respond_to(self, a: int, b: int, challenges: int) -> int:
        """The prover's ell-bit answer to ell-bit challenges under counters a, b.

        Each call is one full challenge-response interaction under the
        given counters.  The prover enforces counter freshness when
        configured to, refusing repeats; timing is irrelevant here
        because the attacker is under no clock until the verifier's
        timed phase starts.
        """
        cfg, ell, w = self.cfg, self.cfg.ell, self.cfg.counter_width
        if challenges >> ell or (a | b) >> w:
            raise ValueError(f"challenges must fit in {ell} bits and counters in {w}, "
                             f"got {challenges}, {a} and {b}")
        if self.prover_store is None:
            self.prover_store = CounterStore()
        if not self.prover_store.check_and_mark(a, b, w) and cfg.enforce_counter_freshness:
            raise CounterReuseRefused(
                f"prover already answered under counters {a:0{w}b},{b:0{w}b}"
            )
        token = (self.token if (a, b) == (self.a, self.b)
                 else session_token(self.seed, cfg, self.secret, a, b))
        reply = select(challenges, token >> ell, token, ell)
        if self.events is not None:
            self._note_interrogation(a, b, challenges, reply)
        return reply

    def _pre_labels(self, a, b, challenges) -> tuple[str, str]:
        """Symbolic labels for a pre-phase query and its response.

        A challenge that is the bitwise negation of an earlier query
        under the same counter pair is labelled as that negation, so the
        knowledge-context analysis can see the two responses pin the
        token down.  Tokens of non-session pairs get their own names.
        """
        if self._label_state is None:
            # challenge labels per counter pair, token labels per other pair, fresh-challenge numbers
            self._label_state = {}, {}, itertools.count(1)
        query_labels, token_labels, numbers = self._label_state
        pair = (a, b)
        if pair == (self.a, self.b):
            token_label = "h"
        else:
            token_label = token_labels.get(pair)
            if token_label is None:
                token_label = token_labels[pair] = f"h{len(token_labels) + 1}"
        known = query_labels.setdefault(pair, {})
        label = known.get(challenges)
        if label is None:
            flipped = known.get(challenges ^ ((1 << self.cfg.ell) - 1))
            label = f"neg({flipped})" if flipped is not None else f"z{next(numbers)}"
            known[challenges] = label
        return label, f"boxplus({label},{token_label})"

    def _note_interrogation(self, a, b, challenges, reply) -> None:
        z_term, r_term = self._pre_labels(a, b, challenges)
        ell = self.cfg.ell
        z, r = f"{challenges:0{ell}b}", f"{reply:0{ell}b}"
        t = self.clock + 1
        pair = (ADVERSARY, PROVER)
        self.events.append(Event(t, ADVERSARY, "fresh", "pre_challenge", z, term=z_term))
        self.events.append(Event(t, ADVERSARY, "send", "pre_challenge", z, pair, term=z_term))
        self.events.append(Event(t + 1, PROVER, "receive", "pre_challenge", z, pair, term=z_term))
        back = (PROVER, ADVERSARY)
        self.events.append(Event(t + 2, PROVER, "send", "pre_response", r, back, term=r_term))
        self.events.append(Event(t + 3, ADVERSARY, "receive", "pre_response", r, back, term=r_term))
        self.clock = t + 3


_BIT = ("0", "1")  # the values of one-bit events


@lru_cache(maxsize=8)
def _byte_rtts(rtt: int) -> tuple[tuple[int, ...], ...]:
    """Per byte of an early mask: its eight rounds' round trips, 0 where a bit is set."""
    return tuple(tuple(0 if byte >> shift & 1 else rtt for shift in range(7, -1, -1))
                 for byte in range(256))


@lru_cache(maxsize=64)
def _round_labels(ell: int) -> tuple[tuple[str, str, str], ...]:
    """Per round: the challenge's name, the response's name and its term."""
    return tuple((f"x{i}", f"r{i}", f"boxplus(x{i},h)") for i in range(1, ell + 1))


def run_session(
    cfg: ProtocolConfig,
    seed,
    adversary: Responder | None = None,
    verifier_store: CounterStore | None = None,
    prover_store: CounterStore | None = None,
    record: bool = True,
    rng: random.Random | None = None,
) -> tuple[Transcript, Verdict]:
    """Run one complete session and decide it.

    With no adversary the honest prover answers from its configured
    position.  With one, the adversary answers the timed phase from its
    own position (stage-1 counters are relayed unchanged), optionally
    interrogating the prover first through ``view.prover``.

    Values travel as ints at their config widths; ``Event`` tuples, and
    the bit text they carry, are built only when recording.  The verdict
    is decided from the session's bit masks: the wrong bits are the set
    bits of response xor expected, and a round trip is 0 in a round
    answered early and the honest round trip otherwise.  A mixed early
    mask is decided from its bit count, and its round trips are read
    byte by byte off a table per honest round trip (``_byte_rtts``).  With
    ``record=True`` the transcript holds the event log and the expected
    bits, from which ``verifier_decide`` reaches the same verdict (it
    reads a reused counter pair off the verifier's ``fresh
    counter_reused`` event); with ``record=False`` the session builds no
    transcript and returns the one shared empty one (see ``Transcript``).

    Identical (cfg, seed, adversary kind) replays identically.  Passing
    the same stores across calls models parties with memory: replaying a
    seed against the same verifier store trips the freshness check.

    ``rng`` is the session's draw source, already seeded; by default it
    is ``random.Random(seed)``, and passing a generator in that state
    replays the same session.  The session and its responder draw from
    it while the session runs, so a caller may reseed and reuse one
    generator across sessions, as ``harness.monte_carlo_range`` does.
    ``seed`` also keys the session's oracle entries (``session_token``).
    """
    if rng is None:
        rng = random.Random(seed)
    w, ell = cfg.counter_width, cfg.ell
    events: list[Event] | None = [] if record else None

    secret = rng.getrandbits(cfg.secret_bits)
    a = rng.getrandbits(w)
    b = rng.getrandbits(w)

    responder_pos = adversary.position_key if adversary is not None else PROVER
    delay, rtt_wait, hop = cfg._session_ticks[adversary is not None, responder_pos]

    # Stage 1: counter exchange, relayed unchanged when an adversary sits
    # in the middle (it gains nothing by tampering: the token would not
    # match the verifier's).
    if record:
        ab, bb = f"{a:0{w}b}", f"{b:0{w}b}"
        to_p, to_v = (VERIFIER, PROVER), (PROVER, VERIFIER)
        events += (Event(0, VERIFIER, "fresh", "a", ab, None, "a"),
                   Event(0, VERIFIER, "send", "a", ab, to_p, "a"),
                   Event(hop, PROVER, "receive", "a", ab, to_p, "a"),
                   Event(hop, PROVER, "fresh", "b", bb, None, "b"),
                   Event(hop, PROVER, "send", "b", bb, to_v, "b"),
                   Event(2 * hop, VERIFIER, "receive", "b", bb, to_v, "b"))
    clock = 2 * hop

    # a store made for this session alone would find the pair fresh
    fresh = verifier_store is None or verifier_store.check_and_mark(a, b, w)
    if cfg.enforce_counter_freshness and not fresh:
        if not record:
            return _UNRECORDED, _REUSED
        events.append(Event(clock, VERIFIER, "fresh", REASON_COUNTER_REUSED))
        return Transcript(events), _REUSED

    token = session_token(seed, cfg, secret, a, b)
    mask = (1 << ell) - 1

    silent = False
    if adversary is not None:
        view = SessionView(cfg, rng, seed, a, b, secret, token, prover_store, events, clock)
        adversary.setup(view)
    else:
        # The honest prover answers under these counters exactly once; on
        # a replayed pair she stays silent and the rounds time out.
        fresh_for_prover = prover_store is None or prover_store.check_and_mark(a, b, w)
        silent = cfg.enforce_counter_freshness and not fresh_for_prover

    challenges = rng.getrandbits(ell)
    expected_value = select(challenges, token >> ell, token, ell)
    if adversary is not None:
        response_value, early_mask = adversary.play(view, challenges)
        response_value &= mask
        early_mask &= mask
    else:
        response_value = expected_value
        early_mask = 0

    if silent:
        verdict = _judge_uniform(cfg, 0, cfg.timeout_ticks)
    else:
        bits_correct = ell - (response_value ^ expected_value).bit_count()
        if early_mask in (0, mask):
            verdict = _judge_uniform(cfg, bits_correct, rtt_wait if not early_mask else 0)
        else:
            # a mixed mask waited at least one round; the top byte's pad rounds are sliced off
            n, table, rtts = -(-ell // 8), _byte_rtts(rtt_wait), []
            for byte in early_mask.to_bytes(n, "big"):
                rtts += table[byte]  # in place, so linear in ell
            agg = rtt_wait if cfg.rtt_mode == "max" else rtt_wait * (ell - early_mask.bit_count()) / ell
            verdict = _judge(cfg, bits_correct, tuple(rtts[8 * n - ell:]), agg)
    if not record:
        return _UNRECORDED, verdict

    # Stage 2: sequential timed rounds.
    who = PROVER if responder_pos == PROVER else ADVERSARY
    cpath, rpath = (VERIFIER, who), (who, VERIFIER)
    t = clock if adversary is None else view.clock
    answer = delay + cfg.processing_ticks
    for shift, (x_name, r_name, r_term) in zip(range(ell - 1, -1, -1), _round_labels(ell)):
        early = (early_mask >> shift) & 1  # never set on a silent prover
        recv = t if early else t + rtt_wait
        xb, rb = _BIT[(challenges >> shift) & 1], _BIT[(response_value >> shift) & 1]
        events.append(Event(t, VERIFIER, "send", x_name, xb, cpath, x_name))
        if not silent:
            if early:
                # Sent blind, timed so it lands as the challenge departs.
                events.append(Event(max(0, t - delay), who, "send", r_name, rb, rpath, r_term))
            else:
                events += (Event(t + delay, who, "receive", x_name, xb, cpath, x_name),
                           Event(t + answer, who, "send", r_name, rb, rpath, r_term))
            events.append(Event(recv, VERIFIER, "receive", r_name, rb, rpath, r_term))
        t = recv + 1

    events.sort(key=itemgetter(0))
    return Transcript(events, expected_value), verdict
