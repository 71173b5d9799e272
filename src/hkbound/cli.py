"""Command line front end.

Subcommands: ``enumerate`` replays the exact finite checks, each a list
of rows (mostly an oracle value beside its closed form in ``oracle.analytic``)
that holds iff every row does; ``simulate`` runs Monte Carlo sessions,
``sweep`` tabulates estimates over challenge lengths, ``guard-check``
evaluates guard specifications, and ``bound`` evaluates the
acceptance-confidence lower bound.

Exit codes: 0 when every requested check passes, 1 when some invariant
is violated, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import random
import sys
from fractions import Fraction
from math import lcm

from . import adversary as adv
from . import exprs, harness, oracle, symbolic
from .hkfun import kernel_mask
from .protocol import ProtocolConfig


_frac = oracle.prob_json


def _lit(value: int, bits: int) -> exprs.Lit:
    return exprs.Lit(format(value, f"0{bits}b"))


# --------------------------------------------------------------------------
# enumerate: each claim builds rows (instance, value, expected, ok), one per
# CSV line, and returns (payload, ok, rows) from _verdict: ok iff every row is.


def _row(instance: str, value, expected, ok: bool | None = None) -> tuple:
    """One checked instance; ok defaults to value == expected."""
    return instance, value, expected, value == expected if ok is None else ok


def _verdict(payload: dict, rows: list) -> tuple[dict, bool, list]:
    ok = all(r[3] for r in rows)
    return {**payload, "ok": ok}, ok, rows


def _binomial_rows(max_ell: int, label: str) -> list:
    """sum_i C(n,i) 2**-i against (3/2)**n for n = 0..max_ell."""
    return [_row(f"{label}ell={n}", *oracle.binomial_identity_check(n))
            for n in range(max_ell + 1)]


def _claim_monty(ell: int):
    x, z, h = exprs.Var("x"), exprs.Var("z"), exprs.Var("h")
    decls = {"x": ell, "z": ell, "h": 2 * ell}
    value = oracle.chance(decls, [x, z, exprs.BoxPlus(z, h)], [exprs.BoxPlus(x, h)])
    expect = oracle.analytic("monty", ell=ell)
    return _verdict({"ell": ell, "value": _frac(value), "expected": _frac(expect)},
                    [_row(f"ell={ell}", value, expect)])


def _claim_prop34(ell: int):
    x, h = exprs.Var("x"), exprs.Var("h")
    expect = oracle.analytic("prequery", ell=ell)
    lits = [_lit(v, ell) for v in range(1 << ell)]
    xh, boxed = exprs.BoxPlus(x, h), [exprs.BoxPlus(xl, h) for xl in lits]
    # averaging the fixed-x chances over x gives the chance with x unknown;
    # x is declared beside h, and the middleman's view of z is boxed[z], so
    # that every chance of the claim reads off one pass
    chance_of = oracle.chances({"x": ell, "h": 2 * ell}, [x, xh, *lits, *boxed])
    rows = []
    for zl, zh in zip(lits, boxed):
        seen = [zl, zh]
        fixed = [chance_of([xl, *seen], [bl]) for xl, bl in zip(lits, boxed)]
        den = lcm(*(p.denominator for p in fixed))  # each a power of two, so this is the largest
        total = Fraction(sum(p.numerator * (den // p.denominator) for p in fixed), den * len(lits))
        agg = chance_of([x, *seen], [xh])
        rows.append(_row(f"z={zl.text}", total, expect, total == expect == agg))
    binom = _binomial_rows(20, "binomial ")
    return _verdict({"ell": ell, "expected": _frac(expect),
                     "per_z": [{"z": zl.text, "sum": _frac(r[1]), "ok": r[3]}
                               for zl, r in zip(lits, rows)],
                     "binomial": [{"ell": n, "ok": r[3]} for n, r in enumerate(binom)]},
                    rows + binom)


def _claim_early(ell: int):
    # the early prover holds the token h, not the challenge x; sending
    # the first half blind is one of its best guesses
    x, h = exprs.Var("x"), exprs.Var("h")
    by_policy = oracle.chance({"x": ell, "h": 2 * ell}, [h], [exprs.BoxPlus(x, h)])
    # the same average, through the kernel-size distribution: 2**(kappa - l)
    # over the 4**l tokens, a product over the bits of each bit's average
    by_kernel = Fraction(sum(1 << kernel_mask(h0, h1, 1) for h0 in (0, 1) for h1 in (0, 1)) ** ell,
                         8 ** ell)
    expect = oracle.analytic("early", ell=ell)
    return _verdict({"ell": ell, "policy_average": _frac(by_policy),
                     "kernel_average": _frac(by_kernel), "expected": _frac(expect)},
                    [_row(f"ell={ell}", by_policy, expect, by_policy == expect == by_kernel)])


def _claim_kernel(ell: int, samples: int = 20, seed: int = 0):
    rng = random.Random(seed)
    x = exprs.Var("x")
    raws = [rng.getrandbits(2 * ell) for _ in range(samples)]
    tokens = [_lit(raw, 2 * ell) for raw in raws]
    boxed = [exprs.BoxPlus(x, token) for token in tokens]
    chance_of = oracle.chances({"x": ell}, [*tokens, *boxed])
    rows, sampled = [], []
    for raw, token, xh in zip(raws, tokens, boxed):
        kappa = kernel_mask(raw >> ell, raw, ell).bit_count()
        value = chance_of([token], [xh])
        rows.append(_row(f"token={token.text}", value,
                         oracle.analytic("kernel", kappa=kappa, ell=ell)))
        sampled.append({"token": token.text, "kappa": kappa, "value": _frac(value),
                        "ok": rows[-1][3]})
    return _verdict({"ell": ell, "samples": sampled}, rows)


def _claim_hamming(ell: int):
    # a token whose halves agree, h = s::s, must break the distance law
    # somewhere; seeing one half beating a blind guess of the other
    # witnesses the dependence.  Its s is declared beside h, so that every
    # chance of the claim reads off one pass.
    fl = 2
    h, s = exprs.Var("h"), exprs.Var("s")
    hs = exprs.Concat((s, s))
    lits = [_lit(v, ell) for v in range(1 << ell)]
    boxed = [exprs.BoxPlus(xl, h) for xl in lits]
    small = [_lit(v, fl) for v in range(1 << fl)]
    small_boxed = [exprs.BoxPlus(xl, hs) for xl in small]
    halves = [exprs.Proj(hs, 1, fl), exprs.Proj(hs, fl + 1, 2 * fl)]
    chance_of = oracle.chances({"h": 2 * ell, "s": fl},
                               [*lits, *boxed, *small, *small_boxed, *halves])
    rows = [_row(f"x={xl.text},z={zl.text}", chance_of([xl, zl, zh], [xh]),
                 oracle.analytic("hamming", delta=(x ^ z).bit_count()))
            for x, (xl, xh) in enumerate(zip(lits, boxed))
            for z, (zl, zh) in enumerate(zip(lits, boxed))]
    dep_ok = chance_of(halves[:1], halves[1:]) > Fraction(1, 1 << fl)
    broke = any(
        chance_of([small[x], small[z], small_boxed[z]], [small_boxed[x]])
        != oracle.analytic("hamming", delta=(x ^ z).bit_count())
        for x in range(1 << fl) for z in range(1 << fl) if x != z
    )
    rows.append(_row("dependent-halves table", broke, "law fails somewhere",
                     dep_ok and broke))
    return _verdict({"ell": ell, "pairs": (1 << ell) ** 2,
                     "dependent_table_breaks_law": broke}, rows)


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
    reports = [oracle.check_subbayes(*case) for case in subbayes_corpus(cases)]
    rows = [_row(f"case {i}", rep.lhs, f"<= {rep.rhs}" + (" (=)" if rep.independent else ""),
                 rep.holds and (not rep.independent or rep.equality))
            for i, rep in enumerate(reports)]
    return _verdict({
        "cases": cases,
        "inequality_failures": [i for i, rep in enumerate(reports) if not rep.holds],
        "independent_cases": sum(rep.independent for rep in reports),
        "independent_equality_failures": [i for i, rep in enumerate(reports)
                                          if rep.independent and not rep.equality],
        "disjoint_equality_failures": [i for i, rep in enumerate(reports)
                                       if rep.disjoint and not rep.equality],
    }, rows)


def _claim_binomial(ell: int = 20):
    return _verdict({"max_ell": ell}, _binomial_rows(ell, ""))


def _claim_lemma3(ell: int = 1, secret_bits: int = 2):
    spec = oracle.builtin_guard_spec("attack-run", ell, secret_bits)
    s, a, b, x, z, zh = spec.context
    blind = oracle.analytic("naive", ell=ell)
    # one hash query at a guessed secret: right with 2**-s, else blind
    zeros = "0" * secret_bits
    query = exprs.Hash(exprs.Concat((exprs.Lit(zeros), a, b)), 2 * ell)
    cases = [
        ("blind", [], blind),
        ("x,z", [x, z], blind),
        ("a,b,s,masked-x", [a, b, s, exprs.KernelMask(x, spec.target.h)], 1),
        *((name, [a, b, s, x, *upsilon], 1)
          for upsilon, name in (((), "a,b,s,x"), ((z,), "a,b,s,x,z"),
                                ((zh,), "a,b,s,x,zh"), ((z, zh), "a,b,s,x,z,zh"))),
        (f"a,b,x,H({zeros}.a.b)", [a, b, x, query],
         oracle.analytic("secret-guess", ell=ell, secret_bits=secret_bits)),
    ]
    rows = [_row(name, oracle.chance(spec.variables, knowns, [spec.target]), expect)
            for name, knowns, expect in cases]
    return _verdict({"ell": ell, "secret_bits": secret_bits,
                     "checks": [{"knowns": name, "value": _frac(value), "ok": good}
                                for name, value, _, good in rows]}, rows)


def _capped(args, flag: str, default: int, limit: int) -> int:
    """``--flag``, or ``default``; past ``limit``, a usage error before any work."""
    value = getattr(args, flag)
    if value is not None and value > limit:
        where = f"--claim {args.claim}" if args.command == "enumerate" else f"--builtin {args.builtin}"
        raise ValueError(f"{where} takes --{flag.replace('_', '-')} up to {limit}, got {value}")
    return default if value is None else value


def _unused(args, flags, where: str) -> None:
    """A usage error for any of ``flags`` given to a command that would ignore it."""
    if given := [flag for flag in flags if getattr(args, flag) is not None]:
        raise ValueError(f"--{given[0].replace('_', '-')} does not apply to {where}")


_CLAIMS = {  # each --ell claim's default and limit: its run grows fast past the limit (README)
    "monty": lambda args: _claim_monty(_capped(args, "ell", 4, 1024)),
    "prop34": lambda args: _claim_prop34(_capped(args, "ell", 4, 10)),
    "early": lambda args: _claim_early(_capped(args, "ell", 3, 1024)),
    "kernel": lambda args: _claim_kernel(_capped(args, "ell", 4, 4096)),
    "hamming": lambda args: _claim_hamming(_capped(args, "ell", 3, 9)),
    "subbayes": lambda args: _claim_subbayes(),
    "binomial": lambda args: _claim_binomial(_capped(args, "ell", 20, 512)),
    "lemma3": lambda args: _claim_lemma3(_capped(args, "ell", 1, 3)),
}


def _cmd_enumerate(args) -> int:
    if args.claim == "subbayes":  # a fixed corpus
        _unused(args, ("ell",), "--claim subbayes")
    payload, ok, rows = _CLAIMS[args.claim](args)
    if args.out == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["claim", "instance", "value", "expected", "ok"])
        writer.writerows([args.claim, *r] for r in rows)
    else:
        print(json.dumps({"claim": args.claim, **payload}, indent=2))
    return 0 if ok else 1


# --------------------------------------------------------------------------


def _load_config(args) -> ProtocolConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ProtocolConfig.from_json(json.load(fh))
        return cfg if args.ell is None else dataclasses.replace(cfg, ell=args.ell)
    return ProtocolConfig(ell=args.ell if args.ell is not None else 8)


def _lint_config(cfg: ProtocolConfig) -> None:
    if cfg.secret_bits <= cfg.ell:
        print(
            f"warning: secret_bits={cfg.secret_bits} is not much larger than "
            f"ell={cfg.ell}; guessing the secret outright becomes as easy as "
            "guessing the response",
            file=sys.stderr,
        )


def _infeasible(args, exc: adv.StrategyInfeasibleError) -> int:
    """An infeasible strategy is a finding, not a violated claim."""
    print(json.dumps({"strategy": args.strategy, "infeasible": True,
                      "reason": str(exc)}, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    if args.strategy != "prequery-stick":
        _unused(args, ("pre_queries",), f"--strategy {args.strategy}")
    cfg = _load_config(args)
    _lint_config(cfg)
    strategy = adv.make_strategy(args.strategy, pre_queries=args.pre_queries or 1)
    try:
        est = harness.monte_carlo(cfg, strategy, args.trials, args.seed)
    except adv.StrategyInfeasibleError as exc:
        return _infeasible(args, exc)
    print(json.dumps({"strategy": args.strategy, "ell": cfg.ell,
                      "seed": args.seed, **est.to_json()}, indent=2))
    return 0


def _at_least_one(name: str):
    def integer(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"{name} must be at least 1")
        return int(text)
    return integer


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        msg = f"{text!r} is not a fraction or decimal with a nonzero denominator"
        raise argparse.ArgumentTypeError(msg) from None


def _parse_ell_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:
            raise argparse.ArgumentTypeError("ell range must be A..B with 1 <= A <= B")
        return list(range(lo, hi + 1))
    return [_at_least_one("ell")(text)]


def _cmd_sweep(args) -> int:
    try:
        rows = harness.sweep(args.strategy, args.ell, args.trials, args.seed,
                             csv_path=args.out)
    except adv.StrategyInfeasibleError as exc:
        return _infeasible(args, exc)
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
    if args.builtin in ("dh", "cr") or args.spec:
        _unused(args, ("ell", "secret_bits"), f"--builtin {args.builtin}" if args.builtin else "--spec")
    if args.builtin in ("dh", "cr"):
        spec = symbolic.builtin_alg_guard_spec(args.builtin)
        algebraic = True
    elif args.builtin:
        if args.algebraic:
            raise ValueError(f"--algebraic takes builtin dh or cr, not {args.builtin!r}")
        # past either cap the walk grows fast (README)
        spec = oracle.builtin_guard_spec(args.builtin, ell=_capped(args, "ell", 1, 1024),
                                         secret_bits=_capped(args, "secret_bits", 2, 4096))
        algebraic = False
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
             "derives_target": r.lhs == 1,
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


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own drops the error of a closed stdout
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hkbound",
        description="Exact and simulated analyses of the timed "
                    "challenge-response exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="run an exact finite check")
    p_enum.add_argument("--claim", required=True, choices=sorted(_CLAIMS))
    p_enum.add_argument("--ell", type=_at_least_one("ell"), default=None)
    p_enum.add_argument("--out", choices=("json", "csv"), default="json")
    p_enum.set_defaults(func=_cmd_enumerate)

    strategies = sorted(adv.STRATEGIES) + ["honest"]
    p_sim = sub.add_parser("simulate", help="Monte Carlo acceptance estimate")
    p_sim.add_argument("--strategy", required=True, choices=strategies)
    p_sim.add_argument("--ell", type=_at_least_one("ell"), default=None)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", default="0")
    p_sim.add_argument("--config", default=None, help="ProtocolConfig JSON file")
    p_sim.add_argument("--pre-queries", type=_at_least_one("pre-queries"), default=None, dest="pre_queries")
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
    p_guard.add_argument("--algebraic", action="store_true")
    p_guard.add_argument("--ell", type=_at_least_one("ell"), default=None)
    p_guard.add_argument("--secret-bits", type=int, default=None, dest="secret_bits")
    p_guard.set_defaults(func=_cmd_guard_check)

    p_bound = sub.add_parser("bound", help="acceptance-confidence lower bound")
    for flag in ("pA", "pE", "C", "D"):
        p_bound.add_argument(f"--{flag}", type=_fraction, required=True,
                             help="probability as a fraction or decimal")
    p_bound.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    try:
        try:  # argparse's --help exits from here, and flushes as a command does
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # so that a closed stdout raises here, not at exit
    except BrokenPipeError:  # the reader left (``| head``): stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush goes nowhere
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # every recursion here walks an input term
        print("error: the input nests its terms too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
