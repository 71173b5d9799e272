"""Exact and simulated analysis of a timed challenge-response exchange.

The package models a distance-bounding run in which a verifier streams
single-bit challenges and times the replies.  ``bits``/``hkfun`` hold
the bit-level carriers and the response-token algebra, ``exprs`` and
``oracle`` give exact guessing-chance enumeration over expression
scenarios, ``symbolic`` derives message closures under an equational
theory, ``protocol`` simulates timed sessions, ``adversary`` bundles
the attack catalog, and ``harness`` wraps Monte Carlo estimation.
"""

from .bits import BitString, hamming_distance
from .hkfun import Block, PartitionedFunction, ResponseToken, boxplus
from .oracle import GuardSpec, advantage, chance, check_prob_guard, guess_chance
from .protocol import ProtocolConfig, Transcript, Verdict, run_session, verifier_decide
from .adversary import STRATEGIES, StrategyInfeasibleError, attack_session, make_strategy
from .harness import Estimate, bayes_bound, monte_carlo, sweep, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "Block",
    "Estimate",
    "GuardSpec",
    "PartitionedFunction",
    "ProtocolConfig",
    "ResponseToken",
    "STRATEGIES",
    "StrategyInfeasibleError",
    "Transcript",
    "Verdict",
    "advantage",
    "attack_session",
    "bayes_bound",
    "boxplus",
    "chance",
    "check_prob_guard",
    "guess_chance",
    "hamming_distance",
    "make_strategy",
    "monte_carlo",
    "run_session",
    "sweep",
    "verifier_decide",
    "wilson_interval",
]
