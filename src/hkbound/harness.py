"""Monte Carlo estimation and calibration against the exact values,
which ``analytic_acceptance`` holds in one table.

Per-trial seeds are derived from the master seed in counter mode, so an
estimate is a pure function of (config, strategy, master seed, trials):
any partition of the trial range into chunks sums to the same success
count, regardless of scheduling.  A trial's seed is the leading 64 bits
of the SHA-256 digest of ``<master seed>:<index>``, taken from
``protocol.sha256``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import adversary as adv
from . import oracle
from .protocol import VERIFIER, PROVER, ProtocolConfig, run_session, sha256


def trial_seed(master_seed, index: int) -> int:
    """Deterministic per-trial seed, independent of any worker layout."""
    digest = sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval; behaves sanely for rates at or near 0 and 1."""
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be finite and positive, got {z}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    n = trials
    p = successes / n
    zz = z * z
    denom = 1.0 + zz / n
    center = (p + zz / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + zz / (4 * n * n)) / denom
    # the exact endpoints at the boundaries; avoids rounding drift
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


class Estimate(NamedTuple):
    trials: int
    successes: int
    p_hat: float
    ci95: tuple[float, float]
    analytic: Fraction | None = None
    z_score: float | None = None

    @classmethod
    def from_counts(cls, successes: int, trials: int,
                    analytic: Fraction | None = None) -> "Estimate":
        ci = wilson_interval(successes, trials)  # validates the counts first
        if analytic is not None and not 0 <= analytic <= 1:
            raise ValueError(f"analytic value {analytic} not within [0, 1]")
        p_hat = successes / trials
        z = None
        if analytic is not None:
            p = float(analytic)
            sd = math.sqrt(p * (1 - p) / trials)
            if sd == 0.0:
                z = 0.0 if p_hat == p else math.copysign(math.inf, p_hat - p)
            else:
                z = (p_hat - p) / sd
        return cls(trials, successes, p_hat, ci, analytic, z)

    def calibrated(self, z: float = 5.0) -> bool:
        """True when the analytic value sits inside the z-wide Wilson band."""
        if self.analytic is None:
            raise ValueError("no analytic value to calibrate against")
        lo, hi = wilson_interval(self.successes, self.trials, z)
        return lo <= float(self.analytic) <= hi

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "p_hat": self.p_hat,
            "ci95": list(self.ci95),
            "analytic": None if self.analytic is None else oracle.prob_json(self.analytic),
            # JSON has no infinity: a certain value missed reads "inf" or "-inf", as repr writes it
            "z_score": self.z_score if self.z_score is None or math.isfinite(self.z_score)
            else repr(self.z_score),
        }


# strategy key -> its claim in oracle.analytic
_CLOSED_FORMS = {"naive-guess": "naive", "prequery-stick": "prequery", "early-full": "early",
                 "secret-guess": "secret-guess"}


def analytic_acceptance(strategy, cfg: ProtocolConfig) -> Fraction | None:
    """Exact acceptance probability when one is known, else None.

    The one table of exact acceptance values.  Naive guessing, pre-query
    sticking, blind early answers and secret guessing take their closed
    forms from ``oracle.analytic``, which the ``enumerate`` claims check
    against the oracle.  Kernel-only early answers and counter reuse are
    always right, and counter reuse is infeasible under counter
    freshness.  The honest prover accepts with certainty iff its
    tick-rounded distance fits the bound.
    """
    key = adv._strategy_key(strategy)
    if key == "honest":
        within = cfg.delay_ticks(VERIFIER, PROVER) * cfg.velocity <= cfg.reach
        return Fraction(1) if within else Fraction(0)
    if key in _CLOSED_FORMS:
        return oracle.analytic(_CLOSED_FORMS[key], ell=cfg.ell, secret_bits=cfg.secret_bits)
    if key == "counter-reuse" and cfg.enforce_counter_freshness:
        raise adv.StrategyInfeasibleError("counter reuse needs enforce_counter_freshness disabled")
    if key in ("counter-reuse", "early-kernel"):
        return Fraction(1)
    return None


def monte_carlo_range(cfg: ProtocolConfig, strategy, master_seed,
                      lo: int, hi: int) -> int:
    """Success count over trial indices [lo, hi); chunks sum exactly.

    One generator serves the chunk.  Each trial reseeds it with the
    C-level ``seed`` and clears ``gauss_next``, which for an int seed is
    all that ``Random.seed`` does, so each trial draws what a fresh
    ``random.Random(seed)`` would.  Unrecorded sessions build no
    transcript (see ``protocol.Transcript``); only the verdict is read.
    """
    actor = adv._as_strategy(strategy)
    rng = random.Random(0)  # every trial reseeds it; a constant spares the urandom read
    reseed = super(random.Random, rng).seed
    wins = 0
    for i in range(lo, hi):
        seed = trial_seed(master_seed, i)
        reseed(seed)
        rng.gauss_next = None
        _, verdict = run_session(cfg, seed, adversary=actor, record=False, rng=rng)
        wins += verdict.accepted
    return wins


def monte_carlo(cfg: ProtocolConfig, strategy, trials: int, master_seed) -> Estimate:
    """Estimate the acceptance probability of a strategy (or honest run)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    wins = monte_carlo_range(cfg, strategy, master_seed, 0, trials)
    return Estimate.from_counts(wins, trials, analytic_acceptance(strategy, cfg))


def bayes_bound(pA, pE, C, D):
    """Lower bound 1 - (pA + pE) * C / D on the chance a run was honest.

    pA and pE are the acceptance chances of the two dishonest run
    families; C is the prior weight of dishonest runs and D the overall
    acceptance rate.  Exact when fed Fractions; clamped into [0, 1].
    """
    if not 0 < D <= 1:
        raise ValueError("D must lie in (0, 1]")
    if not 0 <= C < 1:
        raise ValueError("C must lie in [0, 1)")
    for name, p in (("pA", pA), ("pE", pE)):
        if not 0 <= p <= 1:
            raise ValueError(f"{name} must lie in [0, 1]")
    raw = 1 - (pA * C) / D - (pE * C) / D
    zero, one = type(raw)(0), type(raw)(1)
    return min(one, max(zero, raw))


def sweep(strategy, ells: Iterable[int], trials: int, master_seed) -> list[Estimate]:
    """One Monte Carlo estimate per challenge length ell, each under the
    default config at that ell and the master seed ``<master_seed>|ell=<ell>``."""
    ells = list(ells)
    if not ells:
        raise ValueError("ell range must be non-empty")
    return [monte_carlo(ProtocolConfig(ell=ell), strategy, trials, f"{master_seed}|ell={ell}")
            for ell in ells]
