"""Estimation harness: intervals, seed discipline, sweeps, and the bound."""

import argparse
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hkbound import cli, harness, oracle, symbolic
from hkbound.adversary import STRATEGIES
from hkbound.protocol import ProtocolConfig, Responder
from hkbound.harness import (
    Estimate,
    analytic_acceptance,
    bayes_bound,
    monte_carlo,
    monte_carlo_range,
    sweep,
    trial_seed,
    wilson_interval,
)


def test_trial_seeds_are_stable_and_layout_free():
    assert trial_seed("m", 0) == trial_seed("m", 0)
    assert trial_seed("m", 0) != trial_seed("m", 1)
    assert trial_seed("m", 1) != trial_seed("m2", 1)
    # derived from the pair (master, index) alone
    assert trial_seed("run", 7) == trial_seed("run", 7)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    narrow = wilson_interval(500, 1000)
    wide = wilson_interval(500, 1000, z=5.0)
    assert wide[0] < narrow[0] and narrow[1] < wide[1]
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_wilson_interval_contains_p_hat():
    for successes, trials in ((0, 7), (1, 7), (3, 7), (7, 7), (999, 1000)):
        lo, hi = wilson_interval(successes, trials)
        assert lo <= successes / trials <= hi


@pytest.mark.parametrize("z", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_wilson_interval_takes_a_finite_positive_z(z):
    # a negative z swaps the ends, a zero one closes the band, and a nan
    # one read as the whole of [0, 1], so calibrated() held for anything
    with pytest.raises(ValueError, match="z must be finite and positive"):
        wilson_interval(5, 10, z=z)
    with pytest.raises(ValueError, match="z must be finite and positive"):
        Estimate.from_counts(5, 10, Fraction(1, 2)).calibrated(z=z)


def test_estimate_from_counts():
    est = Estimate.from_counts(25, 100, analytic=Fraction(1, 4))
    assert est.p_hat == 0.25
    assert est.z_score == 0.0
    assert est.calibrated()
    doc = est.to_json()
    assert doc["analytic"] == {"num": 1, "den": 4, "decimal": 0.25}

    sure = Estimate.from_counts(10, 10, analytic=Fraction(1))
    assert sure.z_score == 0.0
    off = Estimate.from_counts(9, 10, analytic=Fraction(1))
    assert off.z_score == -math.inf and not off.calibrated()  # below a certain 1
    never = Estimate.from_counts(1, 10, analytic=Fraction(0))
    assert never.z_score == math.inf and not never.calibrated()  # above a certain 0
    # JSON has no infinity: the z-score reads as repr writes it
    assert (off.to_json()["z_score"], never.to_json()["z_score"]) == ("-inf", "inf")

    bare = Estimate.from_counts(5, 10)
    assert bare.analytic is None and bare.z_score is None
    with pytest.raises(ValueError):
        bare.calibrated()
    for value in (Fraction(3, 2), Fraction(-1, 4)):  # not a probability
        with pytest.raises(ValueError, match=f"analytic value {value} not within"):
            Estimate.from_counts(1, 2, value)


def test_an_estimate_of_no_trials_is_a_value_error():
    # the counts are validated before anything divides by them
    for successes, trials in ((0, 0), (1, 0), (0, -2)):
        with pytest.raises(ValueError, match="trials"):
            Estimate.from_counts(successes, trials)


def test_monte_carlo_partition_invariance():
    cfg = ProtocolConfig(ell=3)
    total = monte_carlo_range(cfg, "naive-guess", "chunks", 0, 400)
    pieces = sum(
        monte_carlo_range(cfg, "naive-guess", "chunks", lo, lo + 80)
        for lo in range(0, 400, 80)
    )
    assert total == pieces
    est = monte_carlo(cfg, "naive-guess", 400, "chunks")
    assert est.successes == total
    with pytest.raises(ValueError):
        monte_carlo(cfg, "naive-guess", 0, "chunks")


def test_monte_carlo_honest_runs():
    est = monte_carlo(ProtocolConfig(ell=2), None, 50, "honest")
    assert est.successes == 50
    assert est.analytic == 1


class Quiet(Responder):
    """A custom strategy with no exact value: it answers all zeros."""

    def play(self, view, challenges):
        return 0, 0


def test_analytic_acceptance_catalog():
    cfg = ProtocolConfig(ell=4)
    assert analytic_acceptance(None, cfg) == 1
    assert analytic_acceptance("honest", cfg) == 1
    far = ProtocolConfig(ell=4, positions={"verifier": 0.0, "prover": 9.0})
    assert analytic_acceptance(None, far) == 0
    assert analytic_acceptance("naive-guess", cfg) == Fraction(1, 16)
    assert analytic_acceptance("early-kernel", cfg) == 1
    assert analytic_acceptance(
        "counter-reuse", ProtocolConfig(ell=4, enforce_counter_freshness=False)
    ) == 1
    assert analytic_acceptance(Quiet(), cfg) is None


SWEEP_HEADER = "ell,strategy,trials,successes,p_hat,ci_lo,ci_hi,analytic_num,analytic_den,z"


def _sweep(tmp_path, capsys, *argv) -> tuple[dict, list[dict]]:
    """Run ``hkbound sweep`` with exit code 0; its JSON summary and its CSV rows."""
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert ",".join(table[0]) == SWEEP_HEADER
    return json.loads(capsys.readouterr().out), [dict(zip(table[0], row)) for row in table[1:]]


def test_sweep_is_one_monte_carlo_estimate_per_ell():
    for strategy in ("naive-guess", None, Quiet()):
        rows = sweep(strategy, range(1, 4), 40, "sweep-seed")
        assert all(type(row) is Estimate for row in rows)
        assert rows == [monte_carlo(ProtocolConfig(ell=ell), strategy, 40, f"sweep-seed|ell={ell}")
                        for ell in (1, 2, 3)]
    with pytest.raises(ValueError, match="non-empty"):
        sweep("naive-guess", [], 10, "s")


def test_cli_sweep_rows_and_csv(tmp_path, capsys):
    doc, table = _sweep(tmp_path, capsys, "--strategy", "naive-guess", "--ell", "1..3",
                        "--trials", "600", "--seed", "sweep-seed")
    rows = doc["rows"]
    assert [r["ell"] for r in rows] == [int(t["ell"]) for t in table] == [1, 2, 3]
    assert rows[0]["ratio_to_prev"] is None
    for prev, row in zip(rows, rows[1:]):
        assert row["ratio_to_prev"] == pytest.approx(row["p_hat"] / prev["p_hat"])
        assert Fraction(row["analytic"]["num"], row["analytic"]["den"]) == Fraction(
            prev["analytic"]["num"], prev["analytic"]["den"]) / 2
    first = table[0]
    assert first["strategy"] == "naive-guess"
    assert first["analytic_num"] == "1" and first["analytic_den"] == "2"
    assert float(first["p_hat"]) == rows[0]["p_hat"]
    # the honest prover's rows are named honest
    _, honest = _sweep(tmp_path, capsys, "--strategy", "honest", "--ell", "1..2", "--trials", "5")
    assert [(t["ell"], t["strategy"]) for t in honest] == [("1", "honest"), ("2", "honest")]


def test_cli_sweep_without_analytic_leaves_blanks(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "analytic_acceptance", lambda strategy, cfg: None)
    doc, table = _sweep(tmp_path, capsys, "--strategy", "naive-guess", "--ell", "1",
                        "--trials", "30", "--seed", "q")
    assert [t[col] for t in table for col in ("analytic_num", "analytic_den", "z")] == ["", "", ""]
    assert doc["rows"][0]["analytic"] is None


def test_cli_sweep_ratio_is_none_after_a_zero_estimate(tmp_path, capsys):
    doc, table = _sweep(tmp_path, capsys, "--strategy", "naive-guess", "--ell", "10..12",
                        "--trials", "20")
    assert [r["p_hat"] for r in doc["rows"]] == [0.0, 0.0, 0.0]
    assert [r["ratio_to_prev"] for r in doc["rows"]] == [None, None, None]
    assert len(table) == 3


def test_cli_sweep_of_no_trials_writes_no_csv(tmp_path, capsys):
    out = tmp_path / "none.csv"
    err = _usage_error(["sweep", "--strategy", "naive-guess", "--ell", "1", "--trials", "0",
                        "--out", str(out)], capsys)
    assert "trials must be at least 1" in err
    assert not out.exists()


# --- the acceptance-confidence bound ------------------------------------------


def test_bayes_bound_exact_fraction():
    p = Fraction(3, 4) ** 16
    value = bayes_bound(p, p, Fraction(1, 2), Fraction(1, 2))
    assert value == Fraction(2104436927, 2147483648)
    assert isinstance(value, Fraction)


def test_bayes_bound_float_and_clamping():
    assert bayes_bound(0.25, 0.25, 0.5, 0.5) == 0.5
    assert bayes_bound(1.0, 1.0, 0.9, 1.0) == 0.0  # clamped from below
    assert bayes_bound(0.0, 0.0, 0.0, 1.0) == 1.0


def test_bayes_bound_validation():
    with pytest.raises(ValueError, match=r"D must lie in \(0, 1\]"):
        bayes_bound(0.1, 0.1, 0.5, 0.0)
    with pytest.raises(ValueError):
        bayes_bound(0.1, 0.1, 1.0, 0.5)
    with pytest.raises(ValueError):
        bayes_bound(1.5, 0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        bayes_bound(0.1, 0.1, 0.5, 1.5)


# --- CLI wiring -----------------------------------------------------------------


def test_cli_enumerate_and_bound(capsys):
    assert cli.main(["enumerate", "--claim", "monty", "--ell", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == {"num": 9, "den": 16, "decimal": 0.5625}

    assert cli.main(["bound", "--pA", "1/4", "--pE", "1/4", "--C", "1/2", "--D", "1/2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == {"num": 1, "den": 2, "decimal": 0.5}


def test_cli_enumerate_early_averages_the_kernel_per_bit(capsys):
    # the kernel average is a product over the bits, so l = 32 walks no 4**l tokens
    start = time.perf_counter()
    assert cli.main(["enumerate", "--claim", "early", "--ell", "32"]) == 0
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().out)
    want = oracle.prob_json(oracle.analytic("early", ell=32))
    assert doc["policy_average"] == doc["kernel_average"] == doc["expected"] == want and doc["ok"]


def test_cli_enumerate_csv(capsys):
    assert cli.main(["enumerate", "--claim", "binomial", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "claim,instance,value,expected,ok"
    assert len(lines) == 22


@pytest.mark.parametrize("claim", sorted(cli._CLAIMS))
def test_cli_enumerate_exits_1_when_a_claim_fails(claim, monkeypatch, capsys):
    # the oracle function the claim checks against answers wrong once per
    # run: binomial_identity_check, chance, or a chance_of that a pass
    # returned (``oracle._pass``, which chances and check_subbayes build)
    real_binomial, real_chance, real_pass = (
        oracle.binomial_identity_check, oracle.chance, oracle._pass)
    for out in ("json", "csv"):
        wrong = iter([True])

        def once(value):
            return value + 1 if next(wrong, False) else value

        def binomial(ell):
            lhs, rhs, holds = real_binomial(ell)
            return (lhs + 1, rhs, False) if next(wrong, False) else (lhs, rhs, holds)

        def passes(*args, **kwargs):
            chance_of = real_pass(*args, **kwargs)
            return lambda *query: once(chance_of(*query))

        if claim == "binomial":
            monkeypatch.setattr(oracle, "binomial_identity_check", binomial)
        else:
            monkeypatch.setattr(oracle, "chance", lambda *a, **k: once(real_chance(*a, **k)))
            monkeypatch.setattr(oracle, "_pass", passes)
        assert cli.main(["enumerate", "--claim", claim, "--out", out]) == 1
        text = capsys.readouterr().out
        if out == "json":
            assert json.loads(text)["ok"] is False
        else:
            assert "False" in [row["ok"] for row in csv.DictReader(text.splitlines())]


def test_cli_simulate_reports_estimates(capsys):
    rc = cli.main(
        ["simulate", "--strategy", "naive-guess", "--ell", "2", "--trials", "300", "--seed", "t"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 300
    assert doc["analytic"] == {"num": 1, "den": 4, "decimal": 0.25}


def test_cli_simulate_infeasible_is_reported_not_crashed(capsys):
    rc = cli.main(
        ["simulate", "--strategy", "counter-reuse", "--ell", "2", "--trials", "10", "--seed", "0"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["infeasible"] is True


def test_cli_sweep_infeasible_is_reported_not_crashed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["sweep", "--strategy", "counter-reuse", "--ell", "2",
                   "--trials", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["infeasible"] is True and "counter reuse" in doc["reason"]
    assert not out.exists()


def test_cli_simulate_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ProtocolConfig(ell=2, rtt_mode="mean").to_json()))
    rc = cli.main(
        ["simulate", "--strategy", "early-kernel", "--trials", "50",
         "--seed", "k", "--config", str(path)]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["successes"] == 50


def test_cli_short_secret_warning(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(ProtocolConfig(ell=4, secret_bits=3).to_json()))
    rc = cli.main(
        ["simulate", "--strategy", "naive-guess", "--trials", "20",
         "--seed", "w", "--config", str(path)]
    )
    assert rc == 0
    assert "secret_bits" in capsys.readouterr().err


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = cli.main(
        ["sweep", "--strategy", "naive-guess", "--ell", "1..2", "--trials", "100",
         "--seed", "s", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().startswith(SWEEP_HEADER)
    doc = json.loads(capsys.readouterr().out)
    assert [r["ell"] for r in doc["rows"]] == [1, 2]


def test_cli_guard_check_exit_codes(tmp_path, capsys):
    assert cli.main(["guard-check", "--builtin", "early-run"]) == 0
    capsys.readouterr()
    from hkbound.oracle import GuardSpec, builtin_guard_spec
    from hkbound.exprs import Var

    good = builtin_guard_spec("attack-run")
    bad = GuardSpec(good.variables, good.context, good.target, ((Var("z"),),))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    assert cli.main(["guard-check", "--spec", str(path)]) == 1
    capsys.readouterr()


def test_cli_guard_check_attack_run_at_the_paper_secret_width(capsys):
    # hash entries as variables keep s = 256 exact: one component per bit
    start = time.perf_counter()
    rc = cli.main(["guard-check", "--builtin", "attack-run", "--ell", "8", "--secret-bits", "256"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["ok"] is True
    assert doc["baseline"] == oracle.prob_json(Fraction(1, 2**8))
    assert elapsed < 10.0, f"ran {elapsed:.1f}s, over the 10s budget"


def test_guard_spec_json_roundtrip_gives_the_builtin_report(tmp_path, capsys):
    # parsing makes three H(s.a.b) nodes of one argument, one table entry
    start = time.perf_counter()
    for ell, s in ((1, 2), (2, 3), (8, 256)):
        spec = oracle.builtin_guard_spec("attack-run", ell, s)
        again = oracle.GuardSpec.from_json(json.dumps(spec.to_json()))
        assert oracle.check_prob_guard(again) == oracle.check_prob_guard(spec)
    path = tmp_path / "attack-run.json"
    path.write_text(json.dumps(oracle.builtin_guard_spec("attack-run").to_json()))
    assert cli.main(["guard-check", "--spec", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert cli.main(["guard-check", "--builtin", "attack-run"]) == 0
    assert capsys.readouterr().out == from_file
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"ran {elapsed:.1f}s, over the 10s budget"


def test_cli_guard_check_malformed_declarations_exit_2(tmp_path, capsys):
    u = {"op": "var", "name": "u"}
    spec = {"vars": [{"name": "u", "bits": 1}], "context": [u],
            "target": {"op": "hash", "arg": u, "bits": 1}, "guards": [[u]]}
    cases = [
        ({"vars": [{"name": "u", "bits": 1}, {"name": "u", "bits": 1}]},
         "duplicate variable declaration 'u'"),
        ({"vars": [{"name": "u", "bits": -1}]}, "variable 'u' width must be >= 0"),
        ({"context": [u, {"op": "var", "name": "q"}]}, "undeclared variable 'q'"),
    ]
    for change, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**spec, **change}))
        assert cli.main(["guard-check", "--spec", str(path)]) == 2
        assert message in capsys.readouterr().err
    # a negative --secret-bits is a usage error of the flag, before any walk
    with pytest.raises(SystemExit) as out:
        cli.main(["guard-check", "--builtin", "attack-run", "--secret-bits", "-1"])
    assert out.value.code == 2
    assert "secret-bits must be at least 1" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as out:
        cli.main(["simulate", "--strategy", "nonsense", "--trials", "5"])
    assert out.value.code == 2
    with pytest.raises(SystemExit) as out:
        cli.main(["sweep", "--strategy", "naive-guess", "--ell", "3..1",
                  "--trials", "5", "--seed", "0", "--out", "x.csv"])
    assert out.value.code == 2
    for bad in ("1/0", "half"):
        with pytest.raises(SystemExit) as out:
            cli.main(["bound", "--pA", bad, "--pE", "0", "--C", "0", "--D", "1"])
        assert out.value.code == 2
        assert "nonzero denominator" in capsys.readouterr().err
    # rejected alike whether or not the strategy reads the value
    for strategy in ("prequery-stick", "secret-guess", "naive-guess", "early-kernel", "honest"):
        with pytest.raises(SystemExit) as out:
            cli.main(["simulate", "--strategy", strategy, "--trials", "5", "--pre-queries", "-3"])
        assert out.value.code == 2
        assert "pre-queries must be at least 1" in capsys.readouterr().err
    capsys.readouterr()


def test_cli_strategy_choices_are_the_catalogue(capsys):
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("simulate", "sweep"):
        strategy = next(a for a in commands[command]._actions if a.dest == "strategy")
        assert strategy.choices == sorted(STRATEGIES) + ["honest"]
    # the early alias, its mode flag and the second spelling of the default guard mode are gone
    for argv in (["simulate", "--strategy", "early", "--trials", "5"],
                 ["simulate", "--strategy", "early-full", "--trials", "5", "--early-mode", "full"],
                 ["guard-check", "--builtin", "attack-run", "--probabilistic"]):
        with pytest.raises(SystemExit) as out:
            cli.main(argv)
        assert out.value.code == 2
    capsys.readouterr()


def test_every_readme_command_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = re.findall(r"^hkbound .*$", readme, re.M)
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line.split(">")[0], comments=True)
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_cli_missing_config_is_a_usage_error(capsys):
    rc = cli.main(
        ["simulate", "--strategy", "naive-guess", "--trials", "5",
         "--seed", "0", "--config", "/no/such/file.json"]
    )
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("unbuffered, argv", [
    pytest.param("", ["enumerate", "--claim", "binomial"], id=""),
    pytest.param("1", ["enumerate", "--claim", "binomial"], id="1"),
    pytest.param("", ["--help"], id="help-buffered"),
    pytest.param("1", ["--help"], id="help-unbuffered"),
])
def test_cli_closed_stdout_exits_1_quietly(unbuffered, argv):
    # `hkbound ... | head -1`: the reader is gone before the CLI writes
    # (unbuffered, the print raises; buffered, the flush does)
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "hkbound.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def _usage_error(argv, capsys) -> str:
    """Run the CLI on argv, assert exit code 2, and return stderr."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def test_cli_malformed_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for doc, field in (({"ell": "8"}, "'ell'"), ({"ell": True}, "'ell'"),
                       ({"ell": 2, "positions": {"verifier": 0, "prover": "3"}}, "'positions'"),
                       ([2], "JSON object"),
                       ({"ell": 3, "velocity": 1e-320}, "ticks"),
                       ({"ell": 3, "velocity": 1e400}, "velocity must be finite"),
                       ({"ell": 3, "distance_bound": -1e400}, "distance_bound must be finite"),
                       ({"ell": 3, "positions": {"verifier": 0, "prover": 1e400}}, "prover must be finite")):
        path.write_text(json.dumps(doc))
        for strategy in ("naive-guess", "honest"):
            err = _usage_error(["simulate", "--strategy", strategy, "--trials", "5",
                                "--config", str(path)], capsys)
            assert field in err


# configs whose tick counts a float cannot hold: a round trip to the adversary,
# the same averaged, a processing time, and a round trip to the prover
OVERFLOWING_CONFIGS = {
    "adversary": {"ell": 4, "positions": {"verifier": 0.0, "prover": 3.0, "adversary": 1e308}},
    "adversary-mean": {"ell": 4, "rtt_mode": "mean",
                       "positions": {"verifier": 0.0, "prover": 3.0, "adversary": 1e308}},
    "processing": {"ell": 4, "processing_ticks": 10**400},
    "prover": {"ell": 4, "positions": {"verifier": 0.0, "prover": 1e308}},
}


@pytest.mark.parametrize("case", OVERFLOWING_CONFIGS)
def test_a_tick_count_past_a_float_is_a_usage_error(case, tmp_path, capsys):
    doc = OVERFLOWING_CONFIGS[case]
    with pytest.raises(ValueError, match="too long: a tick count of .* bits does not fit a float"):
        ProtocolConfig(**doc)
    for strategy in ("naive-guess", "honest"):
        err = _usage_error(["simulate", "--strategy", strategy, "--trials", "20", "--seed", "1",
                            "--config", _spec_file(tmp_path, doc)], capsys)
        assert "does not fit a float" in err and "Traceback" not in err
    # just inside a float's range, the sessions run
    near = {**doc, "processing_ticks": 2**1000} if case == "processing" else json.loads(
        json.dumps(doc).replace("1e+308", "8e+307"))
    assert cli.main(["simulate", "--strategy", "naive-guess", "--trials", "5",
                     "--config", _spec_file(tmp_path, near)]) == 0


def test_cli_simulate_writes_an_infinite_z_score_as_strict_json(tmp_path, capsys):
    # the prover is out of range, so the exact value is 1 and early answers miss it
    path = _spec_file(tmp_path, {"ell": 4, "positions": {"verifier": 0.0, "prover": 10.0}})
    assert cli.main(["simulate", "--strategy", "early-kernel", "--trials", "200", "--seed", "1",
                     "--config", path]) == 0

    def no_constants(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=no_constants)
    assert doc["p_hat"] < 1 and doc["analytic"]["decimal"] == 1.0
    assert doc["z_score"] == "-inf"


def test_cli_malformed_guard_specs_are_usage_errors(tmp_path, capsys):
    from hkbound.oracle import builtin_guard_spec

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"theory": "nonsense", "context": ["a"],
                                "target": "a", "guards": [["a"]]}))
    err = _usage_error(["guard-check", "--spec", str(path), "--algebraic"], capsys)
    assert "'theory'" in err and "nonsense" in err

    doc = builtin_guard_spec("early-run").to_json()
    del doc["vars"]
    path.write_text(json.dumps(doc))
    assert "'vars'" in _usage_error(["guard-check", "--spec", str(path)], capsys)

    # unknown fields and fields of the wrong JSON type, in the spec and inside expressions
    good = builtin_guard_spec("early-run").to_json()
    proj = {"op": "proj", "arg": {"op": "var", "name": "s"}, "lo": "1", "hi": 1}
    for change, field in (
        ({"vars": 5}, "'vars'"),
        ({"vars": [{"name": "s", "bits": "1"}]}, "'bits'"),
        ({"target": 5}, "'target'"),
        ({"context": [proj]}, "'lo'"),
        ({"context": [{"op": "lit", "bits": 5}]}, "'bits'"),
        ({"varz": []}, "'varz'"),
    ):
        path.write_text(json.dumps({**good, **change}))
        assert field in _usage_error(["guard-check", "--spec", str(path)], capsys)
    alg = {"context": ["a"], "target": "a", "guards": [["a"]]}
    for change, field in (({"target": 5}, "'target'"), ({"depth": "3"}, "'depth'"),
                          ({"thoery": "dh"}, "'thoery'"),
                          # a theory operator at the wrong arity
                          ({"context": ["pair(a)"]}, "'pair(a)'"),
                          ({"theory": "dolev-yao", "guards": [["senc(m)"]]}, "'senc(m)'")):
        path.write_text(json.dumps({**alg, **change}))
        assert field in _usage_error(["guard-check", "--spec", str(path), "--algebraic"], capsys)
    # a DH exp in normal form takes two or more arguments
    path.write_text(json.dumps({"theory": "dh", "context": ["exp(g,x,y)"],
                                "target": "exp(g,x,y)", "guards": [["exp(g,x,y)"]]}))
    assert cli.main(["guard-check", "--spec", str(path), "--algebraic"]) == 0
    capsys.readouterr()
    path.write_text(json.dumps([alg]))
    for mode in ([], ["--algebraic"]):
        assert "JSON object" in _usage_error(["guard-check", "--spec", str(path), *mode], capsys)
    # the probabilistic builtins have no algebraic reading
    for name in ("attack-run", "early-run"):
        err = _usage_error(["guard-check", "--builtin", name, "--algebraic"], capsys)
        assert repr(name) in err


@pytest.mark.parametrize("argv, flag, where", [
    (["guard-check", "--builtin", "dh", "--ell", "3"], "--ell", "--builtin dh"),
    (["guard-check", "--builtin", "cr", "--secret-bits", "9"], "--secret-bits", "--builtin cr"),
    (["guard-check", "--builtin", "cr", "--algebraic", "--ell", "2"], "--ell", "--builtin cr"),
    (["guard-check", "--spec", "SPEC", "--ell", "2"], "--ell", "--spec"),
    (["guard-check", "--spec", "SPEC", "--secret-bits", "2"], "--secret-bits", "--spec"),
    (["enumerate", "--claim", "subbayes", "--ell", "5"], "--ell", "--claim subbayes"),
    (["simulate", "--strategy", "naive-guess", "--pre-queries", "3", "--trials", "10"],
     "--pre-queries", "--strategy naive-guess"),
    (["simulate", "--strategy", "honest", "--pre-queries", "1", "--trials", "10"],
     "--pre-queries", "--strategy honest"),
])
def test_cli_a_flag_the_command_would_ignore_is_a_usage_error(argv, flag, where, tmp_path, capsys):
    from hkbound.oracle import builtin_guard_spec

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(builtin_guard_spec("early-run").to_json()))
    argv = [str(path) if a == "SPEC" else a for a in argv]
    assert f"{flag} does not apply to {where}" in _usage_error(argv, capsys)
    assert capsys.readouterr().out == ""


def test_cli_flags_that_apply_keep_their_defaults(capsys):
    # --secret-bits 2 and --pre-queries 1 are what the commands use when absent
    for argv in (["guard-check", "--builtin", "attack-run"],
                 ["simulate", "--strategy", "prequery-stick", "--ell", "2", "--trials", "50"]):
        flag = ["--secret-bits", "2"] if argv[0] == "guard-check" else ["--pre-queries", "1"]
        assert cli.main(argv) == 0
        default = capsys.readouterr().out
        assert cli.main(argv + flag) == 0
        assert capsys.readouterr().out == default


def test_cli_too_deep_specs_are_usage_errors(tmp_path, capsys):
    # a term nested past the recursion limit is bad input, not a crash
    from hkbound.oracle import builtin_guard_spec

    path = tmp_path / "spec.json"
    negated = {"op": "var", "name": "s"}
    for _ in range(500):
        negated = {"op": "negate", "arg": negated}
    path.write_text(json.dumps({**builtin_guard_spec("early-run").to_json(), "context": [negated]}))
    assert "too deeply" in _usage_error(["guard-check", "--spec", str(path)], capsys)
    paired = "a"
    for _ in range(400):
        paired = f"pair({paired},a)"
    path.write_text(json.dumps({"context": [paired], "target": "a", "guards": [["a"]]}))
    assert "too deeply" in _usage_error(["guard-check", "--spec", str(path), "--algebraic"], capsys)


@pytest.mark.parametrize("ell", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--claim", "monty"],
    ["simulate", "--strategy", "naive-guess", "--trials", "5"],
    ["guard-check", "--builtin", "early-run"],
])
def test_cli_rejects_ell_below_one(argv, ell, capsys):
    with pytest.raises(SystemExit) as out:
        cli.main(argv + ["--ell", ell])
    assert out.value.code == 2
    assert "ell must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["0", "-2"])
@pytest.mark.parametrize("builtin", ["attack-run", "early-run"])
def test_cli_rejects_secret_bits_below_one(builtin, bits, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the spec was built")

    monkeypatch.setattr(oracle, "builtin_guard_spec", refuse)
    with pytest.raises(SystemExit) as out:
        cli.main(["guard-check", "--builtin", builtin, "--secret-bits", bits])
    assert out.value.code == 2
    assert "secret-bits must be at least 1" in capsys.readouterr().err


ELL_LIMITS = {"monty": 1024, "prop34": 10, "early": 1024, "kernel": 4096, "hamming": 9,
              "binomial": 512, "lemma3": 3}  # as the README states them


@pytest.mark.parametrize("claim", sorted(ELL_LIMITS))
@pytest.mark.parametrize("over", [1, 100_000])
def test_cli_enumerate_bounds_ell_before_any_work(claim, over, monkeypatch, capsys):
    # past its limit a claim is a usage error naming the limit, raised
    # before the claim builds anything
    assert set(ELL_LIMITS) == set(cli._CLAIMS) - {"subbayes"}
    limit = ELL_LIMITS[claim]
    monkeypatch.setattr(cli, f"_claim_{claim}", lambda *args: pytest.fail("the claim ran"))
    start = time.perf_counter()
    assert cli.main(["enumerate", "--claim", claim, "--ell", str(limit + over)]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"--claim {claim} takes --ell up to {limit}, got {limit + over}" in capsys.readouterr().err


GUARD_LIMITS = {"ell": 1024, "secret-bits": 4096}  # as the README states them


@pytest.mark.parametrize("builtin", ["attack-run", "early-run"])
@pytest.mark.parametrize("flag", sorted(GUARD_LIMITS))
@pytest.mark.parametrize("over", [1, 100_000])
def test_cli_guard_check_bounds_its_sizes_before_any_work(builtin, flag, over, monkeypatch, capsys):
    # past its limit either size is a usage error naming the limit,
    # raised before the spec is built or the oracle walks it
    limit = GUARD_LIMITS[flag]
    for name in ("builtin_guard_spec", "check_prob_guard", "_walk"):
        monkeypatch.setattr(oracle, name, lambda *args, **kwargs: pytest.fail("the oracle ran"))
    start = time.perf_counter()
    assert cli.main(["guard-check", "--builtin", builtin, f"--{flag}", str(limit + over)]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"--builtin {builtin} takes --{flag} up to {limit}, got {limit + over}" in capsys.readouterr().err


def _spec_file(tmp_path, doc) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _var_spec(widths: dict, context=None, target=None) -> dict:
    """A guard spec over 1-bit-or-wider variables, by default shown and guessed as themselves."""
    first = {"op": "var", "name": next(iter(widths))}
    return {"vars": [{"name": n, "bits": b} for n, b in widths.items()],
            "context": [first] if context is None else context,
            "target": first if target is None else target, "guards": [[first]]}


SPEC_CASES = {  # argv past a guard spec's cap, given how far past, with the message
    "context-terms": lambda tmp, over: (
        ["--spec", _spec_file(tmp, _var_spec({"v": 1}, context=[{"op": "var", "name": "v"}] * (12 + over)))],
        f"a guard spec takes up to 12 context terms, got {12 + over}"),
    "algebraic-context-terms": lambda tmp, over: (
        ["--algebraic", "--spec", _spec_file(tmp, {"context": ["a"] * (12 + over), "target": "a",
                                                   "guards": [["a"]]})],
        f"a guard spec takes up to 12 context terms, got {12 + over}"),
    "variable-bits": lambda tmp, over: (
        ["--spec", _spec_file(tmp, _var_spec({"s": 10_000, "t": 240 + over}))],
        f"a guard spec takes up to 10240 variable and hash bits, got {10_240 + over}"),
    # a negative width counts as none here, and the walk names it once under the cap
    "negative-width": lambda tmp, over: (
        ["--spec", _spec_file(tmp, _var_spec({"s": 10_240 + over, "t": -10_240 - over}))],
        f"a guard spec takes up to 10240 variable and hash bits, got {10_240 + over}"),
    "hash-bits": lambda tmp, over: (
        ["--spec", _spec_file(tmp, _var_spec({"s": 240}, target={"op": "hash", "arg": {"op": "var", "name": "s"},
                                                                 "bits": 10_000 + over}))],
        f"a guard spec takes up to 10240 variable and hash bits, got {10_240 + over}"),
}


@pytest.mark.parametrize("case", sorted(SPEC_CASES))
@pytest.mark.parametrize("over", [1, 1000])
def test_cli_guard_check_bounds_a_spec_before_any_work(case, over, tmp_path, monkeypatch, capsys):
    # past a cap a spec is a usage error naming the cap, raised before the
    # oracle walks the spec or the quantifier runs over its context subsets
    argv, message = SPEC_CASES[case](tmp_path, over)
    for module, name in ((oracle, "_walk"), (oracle, "cover"), (symbolic, "cover")):
        monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("the check ran"))
    start = time.perf_counter()
    assert cli.main(["guard-check", *argv]) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_cli_guard_check_runs_a_spec_at_its_caps(tmp_path, capsys):
    # at the caps a spec is checked; equal hash nodes are one entry, counted once
    hashed = {"op": "hash", "arg": {"op": "var", "name": "s"}, "bits": 10_000}
    context = [{"op": "var", "name": f"v{i}"} for i in range(12)]
    for doc, rows in ((_var_spec({"s": 10_240}), 2), (_var_spec({"s": 240}, context=[hashed], target=hashed), 2),
                      (_var_spec({f"v{i}": 1 for i in range(12)}, context=context), 2**12)):
        assert cli.main(["guard-check", "--spec", _spec_file(tmp_path, doc)]) in (0, 1)
        assert len(json.loads(capsys.readouterr().out)["rows"]) == rows


@pytest.mark.parametrize("over", [1, 100_000])
@pytest.mark.parametrize("command", ["simulate", "simulate-config", "sweep"])
def test_cli_sessions_bound_ell_before_any_session(command, over, tmp_path, monkeypatch, capsys):
    # past 4096 a session's cost grows as ell**2: a usage error naming the
    # cap, whether ell comes from --ell, from --config, or ends a range
    for name in ("monte_carlo", "monte_carlo_range", "sweep"):
        monkeypatch.setattr(harness, name, lambda *args, **kwargs: pytest.fail("a session ran"))
    ell = 4096 + over
    argv = {"simulate": ["simulate", "--ell", str(ell)],
            "simulate-config": ["simulate", "--config", _spec_file(tmp_path, {"ell": ell})],
            "sweep": ["sweep", "--ell", f"4090..{ell}", "--out", str(tmp_path / "rows.csv")]}[command]
    start = time.perf_counter()
    assert cli.main([*argv, "--strategy", "honest", "--trials", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"{argv[0]} takes --ell up to 4096, got {ell}" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()
    # --ell overrides the config's ell, and under the cap the sessions run
    monkeypatch.undo()
    if command == "simulate-config":
        assert cli.main([*argv, "--ell", "3", "--strategy", "honest", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["ell"] == 3


@pytest.mark.parametrize("secret_bits", [4097, 20_000])
def test_cli_simulate_bounds_a_config_secret_before_any_session(secret_bits, tmp_path, monkeypatch, capsys):
    # the secret guess's exact value has secret_bits + ell bits: past 4096
    # it may have more digits than Python prints, so no session is run
    monkeypatch.setattr(harness, "monte_carlo", lambda *args, **kwargs: pytest.fail("a session ran"))
    argv = ["simulate", "--config", _spec_file(tmp_path, {"ell": 8, "secret_bits": secret_bits}),
            "--strategy", "secret-guess", "--trials", "200"]
    start = time.perf_counter()
    err = _usage_error(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert f"simulate takes a config's secret_bits up to 4096, got {secret_bits}" in err


def test_cli_simulate_runs_a_config_at_both_caps(tmp_path, capsys):
    argv = ["simulate", "--config", _spec_file(tmp_path, {"ell": 4096, "secret_bits": 4096}),
            "--strategy", "secret-guess", "--trials", "2"]
    assert cli.main(argv) == 0
    analytic = json.loads(capsys.readouterr().out)["analytic"]
    assert Fraction(int(analytic["num"]), int(analytic["den"])) == oracle.analytic(
        "secret-guess", ell=4096, secret_bits=4096)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_sweep_checks_its_out_path_before_any_session(where, tmp_path, monkeypatch, capsys):
    # the CSV is written after every session: a path it cannot be written
    # to is a usage error first, and no file is made
    monkeypatch.setattr(harness, "sweep", lambda *args, **kwargs: pytest.fail("a session ran"))
    out = {"missing-directory": tmp_path / "absent" / "rows.csv", "directory": tmp_path}[where]
    err = _usage_error(["sweep", "--strategy", "prequery-stick", "--ell", "2..12",
                        "--trials", "20000", "--out", str(out)], capsys)
    assert f"sweep cannot write --out {out}: " in err
    assert list(tmp_path.iterdir()) == []


def test_cli_enumerate_kernel_at_its_limit(capsys):
    # 2**-4096 and its neighbours print in full: the limit keeps every
    # value under Python's 4,300-digit bound on int to str
    assert cli.main(["enumerate", "--claim", "kernel", "--ell", "4096"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and len(doc["samples"]) == 20
