"""Attack strategies for the timed exchange, pluggable into run_session.

Two families: man-in-the-middle attackers who stand next to the verifier
without knowing the secret (naive guessing, pre-query sticking, counter
reuse, secret guessing), and the dishonest prover who knows the secret
but answers early to appear closer than she is.  ``STRATEGIES`` is the
one catalogue, keyed by each class's ``kind``.

Strategies work on plain ints at the config's widths: ``play`` receives
the challenges as an ell-bit int, round 1 in the most significant bit,
and answers through ``hkfun.select``.  ``PreQueryStick``,
``CounterReuseExtract`` and ``SecretGuesser`` keep scratch state on the
instance, which each session's ``setup`` overwrites: an instance plays
any number of independent trials, one at a time, so parallel sessions
need one instance per worker.  The strategies only play; their exact
acceptance chances live in ``harness.analytic_acceptance``.
"""

from __future__ import annotations

from .bits import concat, sample_uniform  # noqa: F401 (bench/layers.py patches both)
from .hkfun import extract_token  # noqa: F401 (bench/layers.py patches adversary.extract_token)
from .hkfun import kernel_mask, select
from .protocol import (
    PROVER,
    CounterStore,
    ProtocolConfig,
    Responder,
    SessionView,
    Transcript,
    Verdict,
    run_session,
    session_token,
)


class StrategyInfeasibleError(Exception):
    """The configuration rules out this strategy's required interactions."""


class NaiveGuess(Responder):
    """Answers every challenge with a fresh uniform bit; no secret, no help."""

    kind = "naive-guess"

    def play(self, view: SessionView, challenges: int) -> tuple[int, int]:
        return view.rng.getrandbits(view.cfg.ell), 0


class PreQueryStick(Responder):
    """Queries the prover once with its own challenge z, then sticks.

    The attacker relays the counters, asks the prover z before the timed
    phase, records w = z boxplus token, and answers every round i with
    w_i whether or not the verifier's bit matches z_i.  Extra queries
    beyond the first go out under fresh counter pairs, whose tokens are
    unrelated; they are allowed so tests can show they add nothing.
    Too many queries for the counter space fail before any query.
    """

    kind = "prequery-stick"

    def __init__(self, pre_queries: int = 1):
        if pre_queries < 1:
            raise ValueError("pre_queries must be at least 1")
        self.pre_queries = pre_queries

    def setup(self, view: SessionView) -> None:
        ell, width, rng = view.cfg.ell, view.cfg.counter_width, view.rng
        if self.pre_queries - 1 >= 4**width:
            raise StrategyInfeasibleError(
                "not enough counter pairs for the requested pre-queries"
            )
        self._w = view.prover.respond_to(view.a, view.b, rng.getrandbits(ell))
        used = {(view.a, view.b)}
        for _ in range(self.pre_queries - 1):
            while True:
                pair = (rng.getrandbits(width), rng.getrandbits(width))
                if pair not in used:
                    used.add(pair)
                    break
            view.prover.respond_to(*pair, rng.getrandbits(ell))

    def play(self, view: SessionView, challenges: int) -> tuple[int, int]:
        return self._w, 0


class CounterReuseExtract(Responder):
    """Extracts the whole token by querying z and then not-z under one pair.

    Works only when the prover does not police counter freshness; with
    enforcement on the second query would be refused, so the strategy
    declares itself infeasible up front.
    """

    kind = "counter-reuse"

    def setup(self, view: SessionView) -> None:
        if view.cfg.enforce_counter_freshness:
            raise StrategyInfeasibleError(
                "counter reuse needs enforce_counter_freshness disabled"
            )
        ell = view.cfg.ell
        z = view.rng.getrandbits(ell)
        r_z = view.prover.respond_to(view.a, view.b, z)
        r_nz = view.prover.respond_to(view.a, view.b, z ^ ((1 << ell) - 1))
        # Where z_i = 0, r_z carries h0_i and r_nz carries h1_i; flipped elsewhere.
        self._h0 = select(z, r_z, r_nz, ell)
        self._h1 = select(z, r_nz, r_z, ell)

    def play(self, view: SessionView, challenges: int) -> tuple[int, int]:
        return select(challenges, self._h0, self._h1, view.cfg.ell), 0


class EarlyKernel(Responder):
    """Dishonest prover: sends the challenge-independent rounds (token
    halves agree) blind and waits honestly on the rest, so every bit is
    right and the averaged round trip shrinks."""

    kind = "early-kernel"
    position_key = PROVER

    def play(self, view: SessionView, challenges: int) -> tuple[int, int]:
        # the token is h0::h1; select and kernel_mask read only its low ell bits, h1
        ell, h1 = view.cfg.ell, view.token
        h0 = h1 >> ell
        return select(challenges, h0, h1, ell), kernel_mask(h0, h1, ell)


class EarlyFull(Responder):
    """Dishonest prover: sends the first token half blind for all rounds,
    right only where the halves agree or the challenge happens to be 0."""

    kind = "early-full"
    position_key = PROVER

    def play(self, view: SessionView, challenges: int) -> tuple[int, int]:
        return view.token >> view.cfg.ell, (1 << view.cfg.ell) - 1


class SecretGuesser(Responder):
    """Guesses the long-term secret outright and plays the derived token."""

    kind = "secret-guess"

    def setup(self, view: SessionView) -> None:
        guess = view.rng.getrandbits(view.cfg.secret_bits)
        self._token = session_token(view.seed, view.cfg, guess, view.a, view.b)

    def play(self, view: SessionView, challenges: int) -> tuple[int, int]:
        ell = view.cfg.ell
        return select(challenges, self._token >> ell, self._token, ell), 0


STRATEGIES = {cls.kind: cls for cls in (
    NaiveGuess, PreQueryStick, CounterReuseExtract, EarlyKernel, EarlyFull, SecretGuesser)}


def make_strategy(name: str, pre_queries: int = 1) -> Responder | None:
    """Build a strategy from its name in STRATEGIES; "honest" gives None."""
    if name == "honest":
        return None
    cls = STRATEGIES.get(name)
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)} or 'honest'")
    return PreQueryStick(pre_queries) if cls is PreQueryStick else cls()


def _as_strategy(strategy) -> Responder | None:
    return make_strategy(strategy) if isinstance(strategy, str) else strategy


def attack_session(
    cfg: ProtocolConfig,
    strategy,
    seed,
    verifier_store: CounterStore | None = None,
    prover_store: CounterStore | None = None,
) -> tuple[Transcript, Verdict]:
    """One full recorded session with the given strategy answering the verifier."""
    return run_session(
        cfg,
        seed,
        adversary=_as_strategy(strategy),
        verifier_store=verifier_store,
        prover_store=prover_store,
    )


def _strategy_key(strategy) -> str:
    """The name a strategy goes by: "honest" for the honest prover, else
    its ``kind``, else its class name."""
    s = _as_strategy(strategy)
    return "honest" if s is None else getattr(s, "kind", type(s).__name__)
