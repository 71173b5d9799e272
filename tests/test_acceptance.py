"""Acceptance gate: one test per shipped claim, each on its stated budget.

Every test here re-derives its expected value independently (closed
form or hand-checked constant), runs the shipped code path, and asserts
exact equality where the claim is exact, or the stated statistical
tolerance where it is sampled.  Each test also enforces its runtime
budget.  Run with -v to get the one-line pass/fail verdict per claim.

Criterion 6b asserts the equality clause of the product rule in the
form that holds: equality when theta is independent of xi and gamma.
It also asserts the two corpus cases where theta shares no variable
with xi and yet equality fails, so a weaker clause cannot creep back.
The product inequality (6a) is asserted on the fixed corpus only; it
is not a theorem, and larger random corpora contain counterexamples.
"""

import json
import time
from fractions import Fraction

import pytest

from hkbound import cli, exprs, oracle
from hkbound.adversary import (
    CounterReuseExtract,
    EarlyResponder,
    StrategyInfeasibleError,
    attack_session,
)
from hkbound.harness import analytic_acceptance, bayes_bound, monte_carlo, wilson_interval
from hkbound.protocol import ProtocolConfig, run_session
from hkbound.symbolic import (
    DH,
    PAIRING,
    app,
    atom,
    builtin_alg_guard_spec,
    check_guard_deterministic,
    derivable,
)


class budget:
    """Context manager asserting the criterion's runtime limit."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"ran {self.elapsed:.1f}s, over the {self.limit:.0f}s budget"
            )
        return False


def test_criterion_01_stick_value_exact_for_ell_1_to_4():
    """(3/4)^N over all (x, h0, h1); exact; < 1 s."""
    with budget(1.0):
        x, z, h = exprs.Var("x"), exprs.Var("z"), exprs.Var("h")
        expected = [Fraction(3, 4), Fraction(9, 16), Fraction(27, 64), Fraction(81, 256)]
        for n, want in zip((1, 2, 3, 4), expected):
            got = oracle.chance(
                {"x": n, "z": n, "h": 2 * n},
                [x, z, exprs.BoxPlus(z, h)],
                [exprs.BoxPlus(x, h)],
            )
            assert got == want, f"ell={n}: {got} != {want}"
        assert cli.main(["enumerate", "--claim", "monty", "--ell", "4"]) == 0


def test_criterion_02_attacker_expectation_per_fixed_z(capsys):
    """Sum over x of 2^-l * chance = (3/4)^l for every fixed z at l <= 4,
    plus the binomial identity up to l = 20; exact; < 5 s."""
    with budget(5.0):
        for ell in (1, 2, 3, 4):
            payload, ok, _rows = cli._claim_prop34(ell)
            assert ok, f"ell={ell}: {payload}"
            assert payload["expected"]["num"] == 3**ell
            assert payload["expected"]["den"] == 4**ell
        assert cli.main(["enumerate", "--claim", "prop34", "--ell", "4"]) == 0
        capsys.readouterr()


def test_criterion_03_early_prover_expectation(capsys):
    """Average of 2^(|kernel|-l) over all tokens and challenges equals
    (3/4)^l for l <= 3; exact; < 5 s."""
    with budget(5.0):
        for ell in (1, 2, 3):
            payload, ok, _rows = cli._claim_early(ell)
            assert ok, payload
            assert payload["policy_average"] == payload["kernel_average"]
        assert cli.main(["enumerate", "--claim", "early", "--ell", "3"]) == 0
        capsys.readouterr()


def test_criterion_04_kernel_chance_on_sampled_tokens():
    """chance({h} -> x boxplus h) = 2^(|kernel|-4) on 20 sampled tokens
    at l = 4; exact; < 5 s."""
    with budget(5.0):
        payload, ok, rows = cli._claim_kernel(ell=4, samples=20, seed=0)
        assert ok, payload
        assert len(rows) == 20
        kappas = {s["kappa"] for s in payload["samples"]}
        assert len(kappas) > 1  # the sample saw genuinely different kernels
        assert cli.main(["enumerate", "--claim", "kernel", "--ell", "4"]) == 0


def test_criterion_05_hamming_distance_law_and_its_iff(capsys):
    """2^-Hamming(x,z) for all pairs at l = 3 with independent uniform
    halves, and failure for a dependent-halves table at l = 2; < 10 s."""
    with budget(10.0):
        payload, ok, _rows = cli._claim_hamming(3)
        assert ok, payload
        assert payload["pairs"] == 64
        assert payload["dependent_table_breaks_law"]
        assert cli.main(["enumerate", "--claim", "hamming", "--ell", "3"]) == 0
        capsys.readouterr()
        assert cli.main(["enumerate", "--claim", "hamming", "--ell", "3", "--out", "csv"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "hamming,dependent-halves table,True,law fails somewhere,True"


def test_criterion_06a_product_inequality_on_the_corpus():
    """lhs-product <= joint chance in exact rationals on 50 random small
    scenarios (<= 12 variable bits); exact; < 30 s."""
    with budget(30.0):
        failures = []
        for i, (decls, xi, gamma, theta) in enumerate(cli.subbayes_corpus(50)):
            rep = oracle.check_subbayes(decls, xi, gamma, theta)
            if not rep.holds:
                failures.append(i)
        assert failures == [], f"inequality failed on corpus cases {failures}"


def test_criterion_06b_equality_when_contexts_are_disjoint(capsys):
    """Equality on every corpus case where theta shares no variable with
    xi or gamma and the two sides do not share the hash table; exact;
    < 30 s.  Disjointness from xi alone does not force equality: the
    corpus holds exactly two counterexamples, and both stay asserted.

    Case 24: xi = (), gamma = ~v1, theta = boxplus(~v3, v1::'1'), which is
    v1 when v3 = 1 and 1 when v3 = 0.  chance(-> gamma) = 1/2 and
    chance(gamma -> theta) = 1/2 * 1 + 1/2 * 1/2 = 3/4, so lhs = 3/8,
    while the joint guess (v1 = 0, theta = 1) wins with 1/2.  Case 6:
    theta = (boxplus(v2,v0), v1) shares v0 with gamma = ('0'::v0, '1'),
    and lhs = 1/4 * 3/32 = 3/128 < 1/32."""
    with budget(30.0):
        independent = []
        unequal = []
        for i, (decls, xi, gamma, theta) in enumerate(cli.subbayes_corpus(50)):
            rep = oracle.check_subbayes(decls, xi, gamma, theta)
            if rep.independent:
                independent.append(i)
                assert rep.equality, f"case {i}: {rep.lhs} != {rep.rhs}"
            if rep.disjoint and not rep.equality:
                unequal.append((i, rep.lhs, rep.rhs))
                assert not rep.independent
        assert len(independent) == 27, independent
        assert unequal == [
            (6, Fraction(3, 128), Fraction(1, 32)),
            (24, Fraction(3, 8), Fraction(1, 2)),
        ]

        assert cli.main(["enumerate", "--claim", "subbayes"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["independent_cases"] == 27
        assert doc["independent_equality_failures"] == []
        assert doc["disjoint_equality_failures"] == [6, 24]


def test_criterion_07_guard_coverage_over_all_context_subsets(capsys):
    """Every positive-advantage subset of both bundled contexts at
    l = 1, |s| = 2 is covered by a guard; exact; < 60 s."""
    with budget(60.0):
        for name in ("attack-run", "early-run"):
            report = oracle.check_prob_guard(oracle.builtin_guard_spec(name))
            assert report.ok, f"{name}: some subset escaped its guards"
            active = [r for r in report.rows if not r.exempt]
            assert active, f"{name}: nothing to check"
            assert cli.main(["guard-check", "--builtin", name]) == 0
            capsys.readouterr()


def test_criterion_08_monte_carlo_calibration(capsys):
    """p_hat within 5 Wilson-sigma of the exact value: prequery-stick at
    l = 8 over 10^6 CLI trials, naive-guess up to l = 6, early-full up
    to l = 8; < 2 min."""
    with budget(120.0):
        rc = cli.main(
            ["simulate", "--strategy", "prequery-stick", "--ell", "8",
             "--trials", "1000000", "--seed", "acceptance-8"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analytic"]["num"] == 6561 and doc["analytic"]["den"] == 65536
        lo, hi = wilson_interval(doc["successes"], doc["trials"], z=5.0)
        assert lo <= 6561 / 65536 <= hi, f"p_hat={doc['p_hat']} outside 5-sigma band"
        assert abs(float(doc["analytic"]["decimal"]) - 0.1001129) < 5e-8

        for name, ells, trials in (
            ("naive-guess", (3, 6), (100_000, 400_000)),
            ("early-full", (4, 8), (100_000, 400_000)),
        ):
            for ell, n in zip(ells, trials):
                est = monte_carlo(
                    ProtocolConfig(ell=ell), name, n, f"acceptance-8-{name}-{ell}"
                )
                assert est.calibrated(z=5.0), (
                    f"{name} at ell={ell}: p_hat={est.p_hat} vs {est.analytic}"
                )


def test_criterion_09_counter_reuse_is_total_or_infeasible(capsys):
    """Freshness off: 100% acceptance over 10^4 trials.  Freshness on:
    the strategy reports infeasible; exact; < 10 s."""
    with budget(10.0):
        relaxed = ProtocolConfig(ell=8, enforce_counter_freshness=False)
        est = monte_carlo(relaxed, "counter-reuse", 10_000, "acceptance-9")
        assert est.successes == est.trials == 10_000
        assert analytic_acceptance("counter-reuse", relaxed) == 1

        with pytest.raises(StrategyInfeasibleError):
            attack_session(ProtocolConfig(ell=8), CounterReuseExtract(), 0)
        assert cli.main(
            ["simulate", "--strategy", "counter-reuse", "--ell", "8",
             "--trials", "10", "--seed", "0"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["infeasible"] is True


def test_criterion_10_kernel_early_runs_shrink_the_distance():
    """Kernel-only early answering at l = 32 in mean-RTT mode: acceptance
    stays 100%, the mean estimate drops strictly below honest, and the
    mean reduction factor tracks mean (1 - |kernel|/l) within 10% over
    10^3 runs; < 30 s."""
    with budget(30.0):
        cfg = ProtocolConfig(ell=32, rtt_mode="mean")
        _, honest = run_session(cfg, "acceptance-10-honest")
        assert honest.accepted and honest.estimated_distance == 3.0

        factors = []
        predicted = []
        for seed in range(1000):
            _, verdict = attack_session(cfg, EarlyResponder("kernel"), seed)
            assert verdict.accepted, f"seed {seed} rejected"
            kappa = sum(1 for r in verdict.per_bit_rtt if r == 0)
            factors.append(verdict.estimated_distance / honest.estimated_distance)
            predicted.append(1 - kappa / 32)
        mean_factor = sum(factors) / len(factors)
        mean_predicted = sum(predicted) / len(predicted)
        assert mean_factor < 1.0
        assert abs(mean_factor - mean_predicted) <= 0.10 * mean_predicted
        # the kernel is a fair coin per position, so the factor sits by 1/2
        assert abs(mean_predicted - 0.5) <= 0.05


def test_criterion_11_symbolic_engine_guard_example():
    """{x, g^y} derives g^(xy); {g^x, g^y} does not; the
    guard set covers every deriving subset; pairing projections hold;
    the zero-bit collapse agrees; < 5 s."""
    with budget(5.0):
        g, x, y = atom("g"), atom("x"), atom("y")
        gx, gy = app("exp", g, x), app("exp", g, y)
        shared = app("exp", gx, y)
        assert derivable([x, gy], shared, DH)
        assert not derivable([gx, gy], shared, DH)

        a, b = atom("a"), atom("b")
        assert PAIRING.normalize(app("p1", app("pair", a, b))) == a
        assert PAIRING.normalize(app("p2", app("pair", a, b))) == b

        report = check_guard_deterministic(builtin_alg_guard_spec("dh"))
        assert report.ok
        assert report.agrees_with_algebraic


def test_criterion_12_confidence_bound_to_ten_digits(capsys):
    """bound reproduces 1 - (pA+pE)C/D at pA = pE = (3/4)^16,
    C = D = 1/2 to 10 significant digits; instant."""
    with budget(1.0):
        p = Fraction(3, 4) ** 16
        exact = bayes_bound(p, p, Fraction(1, 2), Fraction(1, 2))
        assert exact == 1 - 2 * p
        assert f"{float(exact):.10g}" == "0.9799548085"

        assert cli.main(
            ["bound", "--pA", "43046721/4294967296", "--pE", "43046721/4294967296",
             "--C", "1/2", "--D", "1/2"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bound"]["num"] == exact.numerator
        assert doc["bound"]["den"] == exact.denominator
        assert doc["bound_10sig"] == "0.9799548085"
