"""Command line front end.

Subcommands: ``enumerate`` replays the exact finite checks, ``simulate``
runs Monte Carlo sessions, ``sweep`` tabulates estimates over challenge
lengths, ``guard-check`` evaluates guard specifications, and ``bound``
evaluates the acceptance-confidence lower bound.

Exit codes: 0 when every requested check passes, 1 when some invariant
is violated, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction

from . import adversary as adv
from . import exprs, harness, oracle, symbolic
from .bits import BitString, hamming_distance
from .hkfun import Block, PartitionedFunction, ResponseToken, kernel_mask
from .protocol import ProtocolConfig


_frac = oracle.prob_json


def _lit(value: int, bits: int) -> exprs.Lit:
    return exprs.Lit(format(value, f"0{bits}b"))


# --------------------------------------------------------------------------
# enumerate: each claim returns (payload, ok, rows-for-csv)


def _claim_monty(ell: int):
    x, z, h = exprs.Var("x"), exprs.Var("z"), exprs.Var("h")
    decls = {"x": ell, "z": ell, "h": 2 * ell}
    value = oracle.chance(decls, [x, z, exprs.BoxPlus(z, h)], [exprs.BoxPlus(x, h)])
    expect = oracle.analytic("monty", ell=ell)
    ok = value == expect
    payload = {"ell": ell, "value": _frac(value), "expected": _frac(expect), "ok": ok}
    return payload, ok, [{"instance": f"ell={ell}", "value": str(value),
                          "expected": str(expect), "ok": ok}]


def _claim_prop34(ell: int):
    h = exprs.Var("h")
    expect = oracle.analytic("prequery", ell=ell)
    rows = []
    ok = True
    per_z = []
    for z in range(1 << ell):
        zl = _lit(z, ell)
        known_zh = exprs.BoxPlus(zl, h)
        total = Fraction(0)
        for x in range(1 << ell):
            xl = _lit(x, ell)
            p = oracle.chance({"h": 2 * ell}, [xl, zl, known_zh],
                              [exprs.BoxPlus(xl, h)])
            total += Fraction(1, 1 << ell) * p
        agg = oracle.chance({"x": ell, "h": 2 * ell},
                            [exprs.Var("x"), zl, known_zh],
                            [exprs.BoxPlus(exprs.Var("x"), h)])
        good = total == expect and agg == total
        ok = ok and good
        per_z.append({"z": format(z, f"0{ell}b"), "sum": _frac(total), "ok": good})
        rows.append({"instance": f"z={z:0{ell}b}", "value": str(total),
                     "expected": str(expect), "ok": good})
    binom = []
    for n in range(21):
        lhs, rhs, eq = oracle.binomial_identity_check(n)
        ok = ok and eq
        binom.append({"ell": n, "ok": eq})
        rows.append({"instance": f"binomial ell={n}", "value": str(lhs),
                     "expected": str(rhs), "ok": eq})
    payload = {"ell": ell, "expected": _frac(expect), "per_z": per_z,
               "binomial": binom, "ok": ok}
    return payload, ok, rows


def _claim_early(ell: int):
    # the early prover holds the token h, not the challenge x; sending
    # the first half blind is one of its best guesses
    x, h = exprs.Var("x"), exprs.Var("h")
    by_policy = oracle.chance({"x": ell, "h": 2 * ell}, [h], [exprs.BoxPlus(x, h)])
    # the same average, through the kernel-size distribution
    n = 1 << ell
    by_kernel = Fraction(0)
    for h0 in range(n):
        for h1 in range(n):
            kappa = kernel_mask(h0, h1, ell).bit_count()
            by_kernel += Fraction(1, n * n) * Fraction(2**kappa, n)
    expect = oracle.analytic("early", ell=ell)
    ok = by_policy == expect and by_kernel == expect
    payload = {"ell": ell, "policy_average": _frac(by_policy),
               "kernel_average": _frac(by_kernel), "expected": _frac(expect),
               "ok": ok}
    return payload, ok, [{"instance": f"ell={ell}", "value": str(by_policy),
                          "expected": str(expect), "ok": ok}]


def _claim_kernel(ell: int, samples: int = 20, seed: int = 0):
    rng = random.Random(seed)
    x = exprs.Var("x")
    rows = []
    ok = True
    sampled = []
    for _ in range(samples):
        raw = rng.getrandbits(2 * ell)
        token = ResponseToken.from_bits(BitString(2 * ell, raw))
        kappa = token.kernel().bit_count()
        value = oracle.chance({"x": ell}, [_lit(raw, 2 * ell)],
                              [exprs.BoxPlus(x, _lit(raw, 2 * ell))])
        expect = oracle.analytic("kernel", kappa=kappa, ell=ell)
        good = value == expect
        ok = ok and good
        sampled.append({"token": format(raw, f"0{2 * ell}b"), "kappa": kappa,
                        "value": _frac(value), "ok": good})
        rows.append({"instance": f"token={raw:0{2 * ell}b}", "value": str(value),
                     "expected": str(expect), "ok": good})
    payload = {"ell": ell, "samples": sampled, "ok": ok}
    return payload, ok, rows


def _pinned_function() -> PartitionedFunction:
    """Bitwise table whose halves agree everywhere: leaks the whole response."""
    block = Block(in_bits=1, out_bits=1, seed_bits=1, table=((0, 0), (1, 1)))
    return PartitionedFunction(blocks=(block, block))


def _claim_hamming(ell: int):
    h = exprs.Var("h")
    rows = []
    ok = True
    for x in range(1 << ell):
        for z in range(1 << ell):
            delta = hamming_distance(BitString(ell, x), BitString(ell, z))
            value = oracle.chance(
                {"h": 2 * ell},
                [_lit(x, ell), _lit(z, ell), exprs.BoxPlus(_lit(z, ell), h)],
                [exprs.BoxPlus(_lit(x, ell), h)],
            )
            expect = oracle.analytic("hamming", delta=delta)
            good = value == expect
            ok = ok and good
            rows.append({"instance": f"x={x:0{ell}b},z={z:0{ell}b}",
                         "value": str(value), "expected": str(expect), "ok": good})
    # a dependent-halves table must break the distance law somewhere
    f = _pinned_function()
    dep_ok = not oracle.per_bit_independent(f)
    broke = False
    fl = 2
    for x in range(1 << fl):
        for z in range(1 << fl):
            if x == z:
                continue
            xb, zb = BitString(fl, x), BitString(fl, z)
            p = oracle.guess_fx_from_fz(f, xb, zb)
            if p != oracle.analytic("hamming", delta=hamming_distance(xb, zb)):
                broke = True
    ok = ok and dep_ok and broke
    rows.append({"instance": "dependent-halves table", "value": str(broke),
                 "expected": "law fails somewhere", "ok": dep_ok and broke})
    payload = {"ell": ell, "pairs": (1 << ell) ** 2,
               "dependent_table_breaks_law": broke, "ok": ok}
    return payload, ok, rows


def subbayes_corpus(cases: int = 50, seed: int = 0):
    """The fixed random corpus used for the product-inequality check."""
    rng = random.Random(seed)
    return [oracle.random_subbayes_case(rng) for _ in range(cases)]


def _claim_subbayes(cases: int = 50):
    """Product inequality on the corpus, with equality where theta is
    independent of xi and gamma (see ``oracle.check_subbayes``).

    Cases where theta merely shares no variable with xi yet equality
    fails are listed as ``disjoint_equality_failures``: they show that
    the weaker condition does not force equality, and do not fail the
    claim.
    """
    rows = []
    hold_failures = []
    independent = 0
    equality_failures = []
    disjoint_failures = []
    for i, (decls, xi, gamma, theta) in enumerate(subbayes_corpus(cases)):
        rep = oracle.check_subbayes(decls, xi, gamma, theta)
        if not rep.holds:
            hold_failures.append(i)
        if rep.independent:
            independent += 1
            if not rep.equality:
                equality_failures.append(i)
        if rep.disjoint and not rep.equality:
            disjoint_failures.append(i)
        rows.append({"instance": f"case {i}", "value": str(rep.lhs),
                     "expected": f"<= {rep.rhs}" + (" (=)" if rep.independent else ""),
                     "ok": rep.holds and (not rep.independent or rep.equality)})
    ok = not hold_failures and not equality_failures
    payload = {"cases": cases, "inequality_failures": hold_failures,
               "independent_cases": independent,
               "independent_equality_failures": equality_failures,
               "disjoint_equality_failures": disjoint_failures, "ok": ok}
    return payload, ok, rows


def _claim_binomial(ell: int = 20):
    rows = []
    ok = True
    for n in range(ell + 1):
        lhs, rhs, eq = oracle.binomial_identity_check(n)
        ok = ok and eq
        rows.append({"instance": f"ell={n}", "value": str(lhs),
                     "expected": str(rhs), "ok": eq})
    payload = {"max_ell": ell, "ok": ok}
    return payload, ok, rows


def _claim_lemma3(ell: int = 1, secret_bits: int = 2):
    s, a, b, x, z = (exprs.Var(n) for n in ("s", "a", "b", "x", "z"))
    h = exprs.Hash(exprs.Concat((s, a, b)), 2 * ell)
    target = [exprs.BoxPlus(x, h)]
    decls = {"s": secret_bits, "a": ell, "b": ell, "x": ell, "z": ell}
    rows = []
    ok = True

    def check(name, knowns, expect):
        nonlocal ok
        value = oracle.chance(decls, knowns, target)
        good = value == expect
        ok = ok and good
        rows.append({"instance": name, "value": str(value),
                     "expected": str(expect), "ok": good})
        return {"knowns": name, "value": _frac(value), "ok": good}

    blind = Fraction(1, 1 << ell)
    results = [
        check("blind", [], blind),
        check("x,z", [x, z], blind),
        check("a,b,s,masked-x", [a, b, s, exprs.KernelMask(x, h)], Fraction(1)),
    ]
    zh = exprs.BoxPlus(z, h)
    for upsilon, name in (((), "a,b,s,x"), ((z,), "a,b,s,x,z"),
                          ((zh,), "a,b,s,x,zh"), ((z, zh), "a,b,s,x,z,zh")):
        results.append(check(name, [a, b, s, x, *upsilon], Fraction(1)))
    payload = {"ell": ell, "secret_bits": secret_bits, "checks": results, "ok": ok}
    return payload, ok, rows


def _ell(args, default: int) -> int:
    return default if args.ell is None else args.ell


_CLAIMS = {
    "monty": lambda args: _claim_monty(_ell(args, 4)),
    "prop34": lambda args: _claim_prop34(_ell(args, 4)),
    "early": lambda args: _claim_early(_ell(args, 3)),
    "kernel": lambda args: _claim_kernel(_ell(args, 4)),
    "hamming": lambda args: _claim_hamming(_ell(args, 3)),
    "subbayes": lambda args: _claim_subbayes(),
    "binomial": lambda args: _claim_binomial(_ell(args, 20)),
    "lemma3": lambda args: _claim_lemma3(_ell(args, 1)),
}


def _cmd_enumerate(args) -> int:
    payload, ok, rows = _CLAIMS[args.claim](args)
    payload = {"claim": args.claim, **payload}
    if args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["claim", "instance", "value", "expected", "ok"])
        for r in rows:
            writer.writerow([args.claim, r["instance"], r["value"], r["expected"], r["ok"]])
    else:
        print(json.dumps(payload, indent=2))
    return 0 if ok else 1


# --------------------------------------------------------------------------


def _load_config(args) -> ProtocolConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ProtocolConfig.from_json(json.load(fh))
        if args.ell is not None:
            data = cfg.to_json()
            data["ell"] = args.ell
            cfg = ProtocolConfig.from_json(data)
        return cfg
    return ProtocolConfig(ell=args.ell if args.ell is not None else 8)


def _lint_config(cfg: ProtocolConfig) -> None:
    if cfg.secret_bits <= cfg.ell:
        print(
            f"warning: secret_bits={cfg.secret_bits} is not much larger than "
            f"ell={cfg.ell}; guessing the secret outright becomes as easy as "
            "guessing the response",
            file=sys.stderr,
        )


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    _lint_config(cfg)
    strategy = adv.make_strategy(args.strategy, pre_queries=args.pre_queries,
                                 early_mode=args.early_mode) \
        if args.strategy != "honest" else None
    try:
        est = harness.monte_carlo(cfg, strategy, args.trials, args.seed)
    except adv.StrategyInfeasibleError as exc:
        print(json.dumps({"strategy": args.strategy, "infeasible": True,
                          "reason": str(exc)}, indent=2))
        return 0
    print(json.dumps({"strategy": args.strategy, "ell": cfg.ell,
                      "seed": args.seed, **est.to_json()}, indent=2))
    return 0


def _positive_ell(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("ell must be at least 1")
    return value


def _parse_ell_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:
            raise argparse.ArgumentTypeError("ell range must be A..B with 1 <= A <= B")
        return list(range(lo, hi + 1))
    return [_positive_ell(text)]


def _cmd_sweep(args) -> int:
    strategy = args.strategy if args.strategy != "honest" else None
    rows = harness.sweep(strategy, args.ell, args.trials, args.seed,
                         csv_path=args.out)
    summary = [
        {"ell": r.ell, "p_hat": r.p_hat,
         "analytic": None if r.analytic is None else _frac(r.analytic),
         "ratio_to_prev": r.ratio_to_prev}
        for r in rows
    ]
    print(json.dumps({"strategy": args.strategy, "trials": args.trials,
                      "out": args.out, "rows": summary}, indent=2))
    return 0


def _cmd_guard_check(args) -> int:
    if args.builtin:
        if args.builtin in ("dh", "cr"):
            spec = symbolic.builtin_alg_guard_spec(args.builtin)
            algebraic = True
        else:
            spec = oracle.builtin_guard_spec(args.builtin, ell=_ell(args, 1),
                                             secret_bits=args.secret_bits)
            algebraic = args.algebraic
    else:
        with open(args.spec) as fh:
            doc = json.load(fh)
        algebraic = args.algebraic
        spec = (symbolic.AlgGuardSpec.from_json(doc) if algebraic
                else oracle.GuardSpec.from_json(doc))
    if algebraic:
        report = symbolic.check_alg_guard(spec)
        rows = [
            {"subset": [spec.context[i].render() for i in r.subset],
             "derives_target": r.derives_target,
             "witness": r.witness, "ok": r.ok}
            for r in report.rows
        ]
        print(json.dumps({"mode": "algebraic", "ok": report.ok, "rows": rows},
                         indent=2))
    else:
        report = oracle.check_prob_guard(spec)
        rows = [
            {"subset": [exprs.render(spec.context[i]) for i in r.subset],
             "chance": _frac(r.lhs),
             "advantage": _frac(r.advantage),
             "bound": None if r.rhs is None else _frac(r.rhs),
             "witness": r.witness, "exempt": r.exempt, "ok": r.ok}
            for r in report.rows
        ]
        print(json.dumps({"mode": "probabilistic",
                          "baseline": _frac(report.baseline),
                          "ok": report.ok, "rows": rows}, indent=2))
    return 0 if report.ok else 1


def _cmd_bound(args) -> int:
    value = harness.bayes_bound(args.pA, args.pE, args.C, args.D)
    print(json.dumps({
        "pA": str(args.pA), "pE": str(args.pE), "C": str(args.C), "D": str(args.D),
        "bound": _frac(value),
        "bound_10sig": f"{float(value):.10g}",
    }, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkbound",
        description="Exact and simulated analyses of the timed "
                    "challenge-response exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="run an exact finite check")
    p_enum.add_argument("--claim", required=True, choices=sorted(_CLAIMS))
    p_enum.add_argument("--ell", type=_positive_ell, default=None)
    p_enum.add_argument("--out", choices=("json", "csv"), default="json")
    p_enum.set_defaults(func=_cmd_enumerate)

    strategies = sorted(adv.STRATEGIES) + ["early-kernel", "early-full", "honest"]
    p_sim = sub.add_parser("simulate", help="Monte Carlo acceptance estimate")
    p_sim.add_argument("--strategy", required=True, choices=strategies)
    p_sim.add_argument("--ell", type=_positive_ell, default=None)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", default="0")
    p_sim.add_argument("--config", default=None, help="ProtocolConfig JSON file")
    p_sim.add_argument("--pre-queries", type=int, default=1, dest="pre_queries")
    p_sim.add_argument("--early-mode", choices=("kernel", "full"),
                       default="kernel", dest="early_mode")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="estimates across challenge lengths")
    p_sweep.add_argument("--strategy", required=True, choices=strategies)
    p_sweep.add_argument("--ell", type=_parse_ell_range, required=True,
                         help="single N or range A..B")
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", default="0")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_guard = sub.add_parser("guard-check", help="evaluate a guard specification")
    src = p_guard.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="guard spec JSON file")
    src.add_argument("--builtin", choices=("attack-run", "early-run", "dh", "cr"))
    mode = p_guard.add_mutually_exclusive_group()
    mode.add_argument("--algebraic", action="store_true")
    mode.add_argument("--probabilistic", dest="algebraic", action="store_false")
    p_guard.set_defaults(algebraic=False)
    p_guard.add_argument("--ell", type=_positive_ell, default=None)
    p_guard.add_argument("--secret-bits", type=int, default=2, dest="secret_bits")
    p_guard.set_defaults(func=_cmd_guard_check)

    p_bound = sub.add_parser("bound", help="acceptance-confidence lower bound")
    for flag in ("pA", "pE", "C", "D"):
        p_bound.add_argument(f"--{flag}", type=Fraction, required=True,
                             help="probability as a fraction or decimal")
    p_bound.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
