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
from functools import cached_property, lru_cache
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
    mapping it was given): the tick delays, the reach and the timeout are
    computed once per config and then reused by every session.
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
        if not isinstance(self.positions, Mapping):
            raise ValueError(f"positions must be a mapping, got {self.positions!r}")
        object.__setattr__(self, "positions", MappingProxyType(dict(self.positions)))
        doc = self.to_json()
        for key, kinds in _JSON_FIELDS.items():
            json_field(doc, key, kinds)
        json_field(doc, "positions", dict, item=_NUMBER)
        if self.ell < 1:
            raise ValueError("ell must be at least 1")
        if self.secret_bits < 1:
            raise ValueError("secret_bits must be at least 1")
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
        _ = self._session_ticks, self.timeout_ticks  # every tick count, so that an overflow raises here

    def __getstate__(self) -> dict:
        # a read-only mapping does not pickle, so ``positions`` travels as a dict
        return {**self.__dict__, "positions": dict(self.positions)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, positions=MappingProxyType(state["positions"]))

    @cached_property
    def counter_width(self) -> int:
        return self.counter_bits if self.counter_bits is not None else self.ell

    def position(self, principal: str) -> float:
        if principal == ADVERSARY and principal not in self.positions:
            return self.positions[VERIFIER]
        return self.positions[principal]

    def distance(self, p: str, q: str) -> float:
        return abs(self.position(p) - self.position(q))

    def delay_ticks(self, p: str, q: str) -> int:
        return _ticks(self.distance(p, q) / self.velocity)

    @cached_property
    def _session_ticks(self) -> dict[tuple[bool, str], tuple[int, int, int]]:
        """(delay, rtt_wait, hop) keyed by (adversary in the middle?, responder):
        the one-way trip to the responder, its honest round trip, and the
        stage-1 trip of a counter."""
        d = self.delay_ticks
        hops = {False: d(VERIFIER, PROVER),
                True: d(VERIFIER, ADVERSARY) + d(ADVERSARY, PROVER)}
        return {(relayed, who): (d(VERIFIER, who),
                                 2 * d(VERIFIER, who) + self.processing_ticks, hop)
                for relayed, hop in hops.items() for who in {*self.positions, ADVERSARY}}

    @cached_property
    def _uniform_verdicts(self) -> dict[tuple[int, int], "Verdict"]:
        """Verdicts on rounds that all took one round trip, keyed by
        (bits correct, round trip); filled by ``_judge_uniform``."""
        return {}

    @cached_property
    def reach(self) -> float:
        """The greatest distance estimate the verifier accepts."""
        return self.distance_bound + self.acceptance_slack

    @property
    def timeout_rtt(self) -> float:
        """Ticks the verifier waits for a round before giving up."""
        return 2.0 * self.reach / self.velocity + self.processing_ticks

    @cached_property
    def timeout_ticks(self) -> int:
        """The round trip logged for a round whose answer never arrived."""
        return _ticks(self.timeout_rtt)

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


class RandomOracle:
    """Idealized hash: independent uniform outputs, memoized per input.

    An input is a ``length``-bit int and an output an ``out_bits``-bit
    int.  Entries are derived from a dedicated master seed (read once,
    at construction), not a real hash, so replaying a seed replays the
    whole table: the entry of (length, value) is the leading out_bits
    bits of the SHA-256 digests of ``<seed>|<length>|<value in hex>#<i>``
    for blocks i = 0, 1, ...  The block count and the shift that drops
    the surplus bits are fixed at construction, and an entry of at most
    256 bits takes one digest.  ``sha256`` is the interpreter's built-in
    module, which gives hashlib's digests without loading OpenSSL; where
    the interpreter has no ``_sha256`` (Python 3.12 and later) it is
    hashlib's.  Concurrent insert is first-writer-wins; every writer would
    store the same value anyway.
    """

    def __init__(self, master_seed, out_bits: int):
        if out_bits < 1:
            raise ValueError("out_bits must be at least 1")
        self.master_seed = master_seed
        self.out_bits = out_bits
        self._table: dict[tuple[int, int], int] = {}
        self._prefix = f"{master_seed}|".encode()
        self._blocks = -(-out_bits // 256)
        self._shift = 256 * self._blocks - out_bits

    def query(self, length: int, value: int) -> int:
        k = (length, value)
        hit = self._table.get(k)
        if hit is not None:
            return hit
        material = b"%s%d|%x#" % (self._prefix, length, value)
        if self._blocks == 1:
            raw = sha256(material + b"0").digest()
        else:
            raw = b"".join([sha256(b"%s%d" % (material, i)).digest() for i in range(self._blocks)])
        out = self._table[k] = int.from_bytes(raw, "big") >> self._shift
        return out

    def __len__(self) -> int:
        return len(self._table)


def session_token(oracle: RandomOracle, cfg: ProtocolConfig, secret: int, a: int, b: int) -> int:
    """The 2l-bit token h0::h1 = H(s::a::b), with s and the counters at their config widths."""
    w = cfg.counter_width
    return oracle.query(cfg.secret_bits + 2 * w, (secret << w | a) << w | b)


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
    next trial, so neither it nor the view outlives the session.

    The view also gives query access to the honest prover for an
    attacker's pre-phase (``view.prover.respond_to``), and records those
    queries in the session's event log (``events``, None when not
    recording) from tick ``clock`` on.
    """

    __match_args__ = ("cfg", "rng", "oracle", "a", "b", "secret", "token", "prover_store", "events", "clock")
    __slots__ = __match_args__ + ("_label_state",)
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # a view is mutable

    def __init__(self, cfg: ProtocolConfig, rng: random.Random, oracle: RandomOracle,
                 a: int, b: int, secret: int, token: int,
                 prover_store: CounterStore | None, events: list[Event] | None, clock: int):
        self.cfg, self.rng, self.oracle, self.a, self.b, self.clock = cfg, rng, oracle, a, b, clock
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
                 else session_token(self.oracle, cfg, self.secret, a, b))
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
    oracle: RandomOracle | None = None,
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
    replays the same session (``seed`` still names the default oracle).
    The session and its responder draw from it while the session runs,
    so a caller may reseed and reuse one generator across sessions, as
    ``harness.monte_carlo_range`` does.
    """
    if rng is None:
        rng = random.Random(seed)
    if oracle is None:
        oracle = RandomOracle(seed, 2 * cfg.ell)
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

    token = session_token(oracle, cfg, secret, a, b)
    mask = (1 << ell) - 1

    silent = False
    if adversary is not None:
        view = SessionView(cfg, rng, oracle, a, b, secret, token, prover_store, events, clock)
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
