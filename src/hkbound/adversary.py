"""Attack strategies for the timed exchange, pluggable into run_session.

Two families: man-in-the-middle attackers who stand next to the verifier
without knowing the secret (naive guessing, pre-query sticking, counter
reuse, secret guessing), and the dishonest prover who knows the secret
but answers early to appear closer than she is.

Every strategy keeps its scratch state inside the session view lifetime,
so one instance can be reused across any number of independent trials.
The strategies only play; their exact acceptance chances live in
``harness.analytic_acceptance``.
"""

from __future__ import annotations

from .bits import BitString, concat, sample_uniform
from .hkfun import ResponseToken, extract_token, kernel_mask, select
from .protocol import (
    ADVERSARY,
    PROVER,
    CounterReuseRefused,
    CounterStore,
    ProtocolConfig,
    Responder,
    SessionView,
    Transcript,
    Verdict,
    run_session,
)


class StrategyInfeasibleError(Exception):
    """The configuration rules out this strategy's required interactions."""


class NaiveGuess(Responder):
    """Answers every challenge with a fresh uniform bit; no secret, no help."""

    kind = "naive-guess"
    position_key = ADVERSARY

    def play(self, view: SessionView, challenges: BitString) -> tuple[int, int]:
        return view.rng.getrandbits(view.cfg.ell), 0


class PreQueryStick(Responder):
    """Queries the prover once with its own challenge z, then sticks.

    The attacker relays the counters, asks the prover z before the timed
    phase, records w = z boxplus token, and answers every round i with
    w_i whether or not the verifier's bit matches z_i.  Extra queries
    beyond the first go out under fresh counter pairs, whose tokens are
    unrelated; they are allowed so tests can show they add nothing.
    """

    kind = "prequery-stick"
    position_key = ADVERSARY

    def __init__(self, pre_queries: int = 1):
        if pre_queries < 1:
            raise ValueError("pre_queries must be at least 1")
        self.pre_queries = pre_queries

    def setup(self, view: SessionView) -> None:
        cfg = view.cfg
        z = sample_uniform(view.rng, cfg.ell)
        self._w = view.prover.respond_to(view.a, view.b, z)
        used = {(view.a, view.b)}
        if self.pre_queries - 1 >= 4**cfg.counter_width:
            raise StrategyInfeasibleError(
                "not enough counter pairs for the requested pre-queries"
            )
        for _ in range(self.pre_queries - 1):
            while True:
                pair = (
                    sample_uniform(view.rng, cfg.counter_width),
                    sample_uniform(view.rng, cfg.counter_width),
                )
                if pair not in used:
                    used.add(pair)
                    break
            view.prover.respond_to(*pair, sample_uniform(view.rng, cfg.ell))

    def play(self, view: SessionView, challenges: BitString) -> tuple[int, int]:
        return self._w.value, 0


class CounterReuseExtract(Responder):
    """Extracts the whole token by querying z and then not-z under one pair.

    Works only when the prover does not police counter freshness; with
    enforcement on the second query would be refused, so the strategy
    declares itself infeasible up front.
    """

    kind = "counter-reuse"
    position_key = ADVERSARY

    def setup(self, view: SessionView) -> None:
        if view.cfg.enforce_counter_freshness:
            raise StrategyInfeasibleError(
                "counter reuse needs enforce_counter_freshness disabled"
            )
        z = sample_uniform(view.rng, view.cfg.ell)
        try:
            r_z = view.prover.respond_to(view.a, view.b, z)
            r_nz = view.prover.respond_to(view.a, view.b, z.negate())
        except CounterReuseRefused as exc:  # pragma: no cover - guarded above
            raise StrategyInfeasibleError(str(exc)) from exc
        self._token = extract_token(z, r_z, r_nz)

    def play(self, view: SessionView, challenges: BitString) -> tuple[int, int]:
        t = self._token
        return select(challenges.value, t.h0.value, t.h1.value, t.ell), 0


class EarlyResponder(Responder):
    """Dishonest prover: knows the token, answers some rounds before asked.

    kernel mode sends the challenge-independent rounds (token halves
    agree) blind and waits honestly on the rest: every bit is right and
    the averaged round trip shrinks.  full mode sends the first half
    blind for all rounds, right only where the halves agree or the
    challenge happens to be 0.
    """

    kind = "early"
    position_key = PROVER

    def __init__(self, mode: str = "kernel"):
        if mode not in ("kernel", "full"):
            raise ValueError("mode must be 'kernel' or 'full'")
        self.mode = mode

    def play(self, view: SessionView, challenges: BitString) -> tuple[int, int]:
        h0, h1, ell = view.token.h0.value, view.token.h1.value, view.token.ell
        if self.mode == "full":
            return h0, (1 << ell) - 1
        return select(challenges.value, h0, h1, ell), kernel_mask(h0, h1, ell)


class SecretGuesser(Responder):
    """Guesses the long-term secret outright and plays the derived token."""

    kind = "secret-guess"
    position_key = ADVERSARY

    def setup(self, view: SessionView) -> None:
        guess = sample_uniform(view.rng, view.cfg.secret_bits)
        raw = view.oracle.query(concat(guess, view.a, view.b))
        self._token = ResponseToken.from_bits(raw)

    def play(self, view: SessionView, challenges: BitString) -> tuple[int, int]:
        t = self._token
        return select(challenges.value, t.h0.value, t.h1.value, t.ell), 0


STRATEGIES = {
    "naive-guess": NaiveGuess,
    "prequery-stick": PreQueryStick,
    "counter-reuse": CounterReuseExtract,
    "early": EarlyResponder,
    "secret-guess": SecretGuesser,
}


def make_strategy(name: str, pre_queries: int = 1, early_mode: str = "kernel") -> Responder:
    """Build a strategy from its CLI name; early-kernel/early-full work too."""
    if name in ("early-kernel", "early-full"):
        return EarlyResponder(mode=name.split("-", 1)[1])
    if name == "prequery-stick":
        return PreQueryStick(pre_queries=pre_queries)
    if name == "early":
        return EarlyResponder(mode=early_mode)
    cls = STRATEGIES.get(name)
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}; choose from "
                         f"{sorted(STRATEGIES) + ['early-kernel', 'early-full']}")
    return cls()


def _as_strategy(strategy) -> Responder:
    return make_strategy(strategy) if isinstance(strategy, str) else strategy


def attack_session(
    cfg: ProtocolConfig,
    strategy,
    seed,
    verifier_store: CounterStore | None = None,
    prover_store: CounterStore | None = None,
    record: bool = True,
) -> tuple[Transcript, Verdict]:
    """One full session with the given strategy answering the verifier."""
    return run_session(
        cfg,
        seed,
        adversary=_as_strategy(strategy),
        verifier_store=verifier_store,
        prover_store=prover_store,
        record=record,
    )


def _strategy_key(strategy) -> str:
    s = _as_strategy(strategy)
    if isinstance(s, EarlyResponder):
        return f"early-{s.mode}"
    return getattr(s, "kind", type(s).__name__)
