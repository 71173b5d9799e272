"""The benchmark's three workloads, built from a workload seed.

Each workload is a fixed list of units.  A unit does one piece of work
through the package's public API or ``cli.main`` (stdout captured) and
returns its raw output; its check says whether that output is right.
The benchmark runs the list one unit at a time, in one thread, each unit
starting when the previous one has returned (a closed loop with one
client).  The package sees only the inputs built here.

montecarlo
    Unrecorded sessions through ``harness.monte_carlo_range`` in chunks
    of MC_CHUNK sessions (one unit per chunk), plus one ``simulate``
    call.  Nearly all the time is per-session overhead in protocol,
    adversary, harness, bits and hkfun; l=8 beside l=32 separates the
    fixed cost of a session from its per-round cost.
exact
    Hash-free exact enumeration: ``enumerate`` for monty at l=4 and 5,
    prop34 at l=4 and hamming at l=3, the kernel chance of seed-sampled
    tokens at l=4, the distance-law chance of seed-sampled challenge
    pairs at l=6, and ``check_subbayes`` on a seed-generated corpus.
    One 20-bit query next to hundreds of tiny ones shows a gain in cost
    per environment row apart from a gain in cost per call.  A unit is
    one claim, one query or one corpus case.  Kernel and distance-law
    queries cost the same whatever the seed.  The kernel queries are the
    largest group and hold the median; the distance-law queries are
    slower than nearly every corpus case and hold the tail, so neither
    moves with the seed's corpus.
structural
    ``guard-check`` on the bundled specs (the oracle's hash path for
    attack-run and early-run, budgeted closure for dh and cr),
    ``check_guard_deterministic`` on dh and cr, and recorded sessions
    whose knowledge contexts are checked.  The recorded sessions take
    the same protocol layer as montecarlo down its event-log path.  A
    unit is one guard report or one session with its checks; the
    early-kernel sessions are the largest group and hold the median,
    and the counter-reuse sessions hold the tail.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hkbound import adversary, cli, exprs, harness, oracle, protocol, symbolic  # noqa: E402
from hkbound.bits import BitString, hamming_distance  # noqa: E402

NAMES = ("montecarlo", "exact", "structural")

MC_CHUNK = 100  # sessions per unit
MC_CHUNKS = 20  # units per strategy in one pass
MC_MIX = (  # (strategy, ell, extra config)
    ("prequery-stick", 8, {}),
    ("naive-guess", 3, {}),
    ("naive-guess", 6, {}),
    ("early-full", 4, {}),
    ("early-full", 8, {}),
    ("honest", 32, {}),
    ("early-kernel", 32, {}),
    ("secret-guess", 8, {}),
    ("counter-reuse", 8, {"enforce_counter_freshness": False}),
)

KERNEL_TOKENS = 1024
DISTANCE_ELL = 6
DISTANCE_PAIRS = 16
SUBBAYES_CASES = 500
RECOUNTED_CASES = 20  # corpus cases recounted independently besides the counterexamples
EARLY_SESSIONS = 100
REUSE_SESSIONS = 10
STICK_SESSIONS = 10


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    sessions: int = 0


@dataclass
class Workload:
    name: str
    units: list[Unit]
    # outputs of one pass -> indices of units that fail an aggregate check
    pass_check: Callable[[list], set[int]] = lambda outputs: set()
    # outputs of the first pass -> [(check name, ok)], run once per run
    final_checks: Callable[[list], list[tuple[str, bool]]] = lambda outputs: []
    # outputs of the first pass -> findings that are reported, not failed
    findings: Callable[[list], dict] = lambda outputs: {}
    inputs: dict = field(default_factory=dict)

    @property
    def sessions_per_pass(self) -> int:
        return sum(u.sessions for u in self.units)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout captured: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_unit(name: str, argv: list[str], check_doc: Callable[[dict], bool], sessions: int = 0) -> Unit:
    def check(out) -> bool:
        code, text = out
        return code == 0 and check_doc(json.loads(text))

    return Unit(name, lambda: run_cli(argv), check, sessions)


def _frac(doc: dict) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def _within_5_sigma(successes: int, trials: int, p: Fraction) -> bool:
    lo, hi = harness.wilson_interval(successes, trials, z=5.0)
    return lo <= float(p) <= hi


# ---------------------------------------------------------------------------


def montecarlo(seed: int) -> Workload:
    runs = []  # (label, cfg, actor, master seed, unit indices)
    units: list[Unit] = []
    for strategy, ell, extra in MC_MIX:
        cfg = protocol.ProtocolConfig(ell=ell, **extra)
        actor = None if strategy == "honest" else adversary.make_strategy(strategy)
        master = f"{seed}|{strategy}|{ell}"
        label = f"{strategy}@{ell}"
        first = len(units)
        for c in range(MC_CHUNKS):
            lo, hi = c * MC_CHUNK, (c + 1) * MC_CHUNK

            def run(cfg=cfg, actor=actor, master=master, lo=lo, hi=hi):
                return harness.monte_carlo_range(cfg, actor, master, lo, hi)

            units.append(Unit(f"mc:{label}:{c}", run,
                              lambda wins: 0 <= wins <= MC_CHUNK, MC_CHUNK))
        runs.append((label, cfg, actor, master, range(first, len(units))))

    stick = Fraction(3, 4) ** 8  # the prequery-stick value at l=8
    argv = ["simulate", "--strategy", "prequery-stick", "--ell", "8",
            "--trials", str(MC_CHUNK), "--seed", f"{seed}-cli"]
    units.append(_cli_unit(
        "cli:simulate", argv,
        lambda doc: (_frac(doc["analytic"]) == stick
                     and _within_5_sigma(doc["successes"], doc["trials"], stick)),
        MC_CHUNK))

    def pass_check(outputs: list) -> set[int]:
        bad: set[int] = set()
        for _label, cfg, actor, _master, idx in runs:
            wins = sum(outputs[i] for i in idx if isinstance(outputs[i], int))
            want = harness.analytic_acceptance(actor, cfg)
            est = harness.Estimate.from_counts(wins, len(idx) * MC_CHUNK, want)
            if want is None or not est.calibrated(z=5.0):
                bad.update(idx)
        return bad

    def final_checks(outputs: list) -> list[tuple[str, bool]]:
        label, cfg, actor, master, idx = runs[0]
        one_shot = harness.monte_carlo(cfg, actor, len(idx) * MC_CHUNK, master)
        return [(f"chunk sums equal one-shot monte_carlo for {label}",
                 one_shot.successes == sum(outputs[i] for i in idx))]

    return Workload("montecarlo", units, pass_check, final_checks,
                    inputs={"mix": [r[0] for r in runs], "chunk": MC_CHUNK, "chunks": MC_CHUNKS})


# ---------------------------------------------------------------------------


def _popcount_kernel(raw: int, ell: int) -> int:
    """Positions where the two halves of a 2*ell-bit token agree."""
    mask = (1 << ell) - 1
    return bin(~((raw >> ell) ^ raw) & mask).count("1")


def exact(seed: int) -> Workload:
    claims: list[Unit] = []
    for ell in (4, 5):
        want = oracle.analytic("monty", ell=ell)
        claims.append(_cli_unit(
            f"cli:monty:{ell}", ["enumerate", "--claim", "monty", "--ell", str(ell)],
            lambda doc, want=want: doc["ok"] and _frac(doc["value"]) == want))
    prequery = oracle.analytic("prequery", ell=4)
    claims.append(_cli_unit(
        "cli:prop34:4", ["enumerate", "--claim", "prop34", "--ell", "4"],
        lambda doc: doc["ok"] and len(doc["per_z"]) == 16
        and all(_frac(z["sum"]) == prequery for z in doc["per_z"])))
    claims.append(_cli_unit(
        "cli:hamming:3", ["enumerate", "--claim", "hamming", "--ell", "3"],
        lambda doc: doc["ok"] and doc["pairs"] == 64 and doc["dependent_table_breaks_law"]))

    queries: list[Unit] = []
    ell = 4
    token_rng = random.Random(f"kernel:{seed}")
    x = exprs.Var("x")
    for i in range(KERNEL_TOKENS):
        raw = token_rng.getrandbits(2 * ell)
        lit = exprs.Lit(format(raw, f"0{2 * ell}b"))
        want = oracle.analytic("kernel", kappa=_popcount_kernel(raw, ell), ell=ell)

        def run(lit=lit):
            return oracle.chance({"x": ell}, [lit], [exprs.BoxPlus(x, lit)])

        queries.append(Unit(f"kernel:{i}", run, lambda got, want=want: got == want))

    # The distance law: a middleman who saw z and boxplus(z,h) guesses
    # boxplus(x,h) with a chance set by the Hamming distance of x and z.
    h = exprs.Var("h")
    pair_rng = random.Random(f"distance:{seed}")
    for i in range(DISTANCE_PAIRS):
        xb, zb = (BitString(DISTANCE_ELL, pair_rng.getrandbits(DISTANCE_ELL)) for _ in range(2))
        xl, zl = (exprs.Lit(format(b.value, f"0{DISTANCE_ELL}b")) for b in (xb, zb))
        want = oracle.analytic("hamming", delta=hamming_distance(xb, zb))

        def run(xl=xl, zl=zl):
            return oracle.chance({"h": 2 * DISTANCE_ELL}, [xl, zl, exprs.BoxPlus(zl, h)],
                                 [exprs.BoxPlus(xl, h)])

        queries.append(Unit(f"distance:{i}", run, lambda got, want=want: got == want))

    # The product inequality is checked as the corpus goes, but a case
    # where it fails is a finding, not a failed unit: it is not a theorem
    # (a two-valued xi where gamma is known on one value and theta on the
    # other breaks it), and larger corpora contain exact counterexamples.
    # A unit fails when its report is inconsistent; every counterexample
    # is recounted independently once per run.
    corpus_rng = random.Random(seed)
    corpus = [oracle.random_subbayes_case(corpus_rng) for _ in range(SUBBAYES_CASES)]
    cases = [Unit(f"subbayes:{i}", lambda case=case: oracle.check_subbayes(*case),
                  _consistent_subbayes) for i, case in enumerate(corpus)]
    units = claims + queries + cases

    def reports(outputs: list) -> list:
        return outputs[len(units) - len(cases):]

    def findings(outputs: list) -> dict:
        reps = reports(outputs)
        return {
            "inequality_failures": [i for i, r in enumerate(reps) if not r.holds],
            "disjoint_equality_failures": [i for i, r in enumerate(reps)
                                           if r.disjoint and not r.equality],
        }

    def final_checks(outputs: list) -> list[tuple[str, bool]]:
        checks = []
        for i, rep in enumerate(reports(outputs)):
            if i < RECOUNTED_CASES or not rep.holds:
                decls, xi, gamma, theta = corpus[i]
                got = (_recount(decls, xi, gamma), _recount(decls, xi + gamma, theta),
                       _recount(decls, xi, gamma + theta))
                checks.append((f"subbayes:{i} recounted", got == (rep.lhs_first, rep.lhs_second, rep.rhs)))
        return checks

    return Workload("exact", units, final_checks=final_checks, findings=findings,
                    inputs={"kernel_tokens": KERNEL_TOKENS, "subbayes_cases": SUBBAYES_CASES})


def _consistent_subbayes(rep) -> bool:
    """Chances lie in (0, 1], guessing gamma and theta together is no
    easier than guessing gamma, and the flags match the values."""
    return (0 < rep.rhs <= rep.lhs_first <= 1 and 0 < rep.lhs_second <= 1
            and rep.holds == (rep.lhs <= rep.rhs) and rep.equality == (rep.lhs == rep.rhs))


def _recount(decls, knowns, targets) -> Fraction:
    """Best-guess chance by plain enumeration of every declared variable.

    Counts with the expression semantics of ``exprs.evaluate`` only; the
    grouping and argmax are this function's own.
    """
    slots: dict = {}
    rows = 0
    for values in itertools.product(*(range(1 << b) for _, b in decls)):
        env = {name: (b, v) for (name, b), v in zip(decls, values)}
        seen = tuple(exprs.evaluate(e, env, {}) for e in knowns)
        want = tuple(exprs.evaluate(e, env, {}) for e in targets)
        slot = slots.setdefault(seen, {})
        slot[want] = slot.get(want, 0) + 1
        rows += 1
    return Fraction(sum(max(slot.values()) for slot in slots.values()), rows)


# ---------------------------------------------------------------------------


def structural(seed: int) -> Workload:
    def report_ok(doc: dict) -> bool:
        return doc["ok"] is True

    reports = [
        _cli_unit("cli:guard:attack-run:s2", ["guard-check", "--builtin", "attack-run",
                                              "--ell", "1", "--secret-bits", "2"], report_ok),
        _cli_unit("cli:guard:attack-run:s3", ["guard-check", "--builtin", "attack-run",
                                              "--ell", "1", "--secret-bits", "3"], report_ok),
        _cli_unit("cli:guard:early-run", ["guard-check", "--builtin", "early-run"], report_ok),
        _cli_unit("cli:guard:dh", ["guard-check", "--builtin", "dh"], report_ok),
        _cli_unit("cli:guard:cr", ["guard-check", "--builtin", "cr"], report_ok),
    ]
    for name in ("dh", "cr"):
        spec = symbolic.builtin_alg_guard_spec(name)
        reports.append(Unit(f"collapsed:{name}",
                          lambda spec=spec: symbolic.check_guard_deterministic(spec),
                          lambda rep: rep.ok and rep.agrees_with_algebraic))

    # Early-kernel answering in mean-RTT mode: accepted, estimate below honest.
    mean_cfg = protocol.ProtocolConfig(ell=32, rtt_mode="mean")
    honest_distance = mean_cfg.distance(protocol.VERIFIER, protocol.PROVER)

    def honest_run():
        _transcript, verdict = protocol.run_session(mean_cfg, f"{seed}:honest")
        return verdict

    contexts = [Unit("ctx:honest", honest_run,
                     lambda v: v.accepted and v.estimated_distance == honest_distance, 1)]
    early = adversary.make_strategy("early-kernel")
    for i in range(EARLY_SESSIONS):
        def early_run(i=i):
            transcript, verdict = adversary.attack_session(mean_cfg, early, f"{seed}:early:{i}")
            return verdict, len(transcript.events)

        contexts.append(Unit(f"ctx:early-kernel:{i}", early_run,
                          lambda out: out[0].accepted and out[0].estimated_distance < honest_distance,
                          1))

    token = symbolic.atom("h")
    hk = symbolic.HK

    # Counter reuse, freshness off: the full-run adversary context derives
    # the token; the context cut at the second pre-response does not.
    reuse_cfg = protocol.ProtocolConfig(ell=4, enforce_counter_freshness=False)
    reuse = adversary.make_strategy("counter-reuse")
    for i in range(REUSE_SESSIONS):
        def reuse_run(i=i):
            transcript, verdict = adversary.attack_session(reuse_cfg, reuse, f"{seed}:reuse:{i}")
            events = transcript.events
            full = symbolic.term_context(events, [])
            second = [e for e in events if e.name == "pre_response" and e.kind == "receive"][1]
            cut = symbolic.term_context(events, [second])
            return (verdict.accepted,
                    symbolic.derivable(full.of("adversary"), token, hk),
                    symbolic.derivable(cut.of("adversary"), token, hk),
                    cut.cut_tick == second.tick)

        contexts.append(Unit(f"ctx:counter-reuse:{i}", reuse_run,
                          lambda out: out[0] and out[1] and not out[2] and out[3], 1))

    # One pre-query: the adversary holds boxplus(z1,h) but cannot derive h.
    stick_cfg = protocol.ProtocolConfig(ell=4)
    stick = adversary.make_strategy("prequery-stick")
    z1h = symbolic.parse("boxplus(z1,h)")
    for i in range(STICK_SESSIONS):
        def stick_run(i=i):
            transcript, verdict = adversary.attack_session(stick_cfg, stick, f"{seed}:stick:{i}")
            held = symbolic.term_context(transcript.events, []).of("adversary")
            return verdict.reason, z1h in held, symbolic.derivable(held, token, hk)

        contexts.append(Unit(f"ctx:prequery-stick:{i}", stick_run,
                          lambda out: out[1] and not out[2], 1))

    return Workload("structural", reports + contexts,
                    inputs={"early_sessions": EARLY_SESSIONS, "reuse_sessions": REUSE_SESSIONS,
                            "stick_sessions": STICK_SESSIONS})


BUILDERS = {"montecarlo": montecarlo, "exact": exact, "structural": structural}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
