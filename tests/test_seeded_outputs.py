"""Seeded and exact outputs pinned to exact values.

The session path may change how it computes, never what it computes:
`simulate` success counts, a `sweep` CSV and the event logs of recorded
sessions are functions of their seeds.  The values below were taken
from the session path that carried `BitString` objects through every
round, before sessions moved to plain ints; the ell = 32 transcripts
come from the session path whose events were frozen dataclasses.  The
exact engine's `enumerate` and `guard-check` stdout is pinned the same
way, by digest.
"""

import hashlib
import json

from hkbound import cli
from hkbound.adversary import PreQueryStick, attack_session, make_strategy
from hkbound.protocol import ADVERSARY, PROVER, VERIFIER, ProtocolConfig, run_session

SIMULATE_SUCCESSES = {
    "honest": 2000,
    "naive-guess": 127,
    "prequery-stick": 636,
    "early-kernel": 2000,
    "early-full": 638,
    "secret-guess": 143,
}


def _simulate(capsys, *argv) -> dict:
    assert cli.main(["simulate", "--trials", "2000", "--seed", "pin", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_simulate_successes_are_pinned(capsys, tmp_path):
    got = {name: _simulate(capsys, "--strategy", name, "--ell", "4")["successes"]
           for name in SIMULATE_SUCCESSES}
    assert got == SIMULATE_SUCCESSES
    extra = _simulate(capsys, "--strategy", "prequery-stick", "--pre-queries", "3", "--ell", "4")
    assert extra["successes"] == 634
    relaxed = tmp_path / "relaxed.json"
    relaxed.write_text(json.dumps(ProtocolConfig(ell=4, enforce_counter_freshness=False).to_json()))
    reuse = _simulate(capsys, "--strategy", "counter-reuse", "--config", str(relaxed))
    assert reuse["successes"] == 2000


def test_sweep_csv_is_pinned(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--strategy", "prequery-stick", "--ell", "1..3", "--trials", "500",
                     "--seed", "pin", "--out", str(out)]) == 0
    assert out.read_text() == (
        "ell,strategy,trials,successes,p_hat,ci_lo,ci_hi,analytic_num,analytic_den,z\n"
        "1,prequery-stick,500,366,0.732,0.6915155074925284,0.7689466695091324,3,4,"
        "-0.9295160030897809\n"
        "2,prequery-stick,500,275,0.55,0.5061764115934799,0.5930611265534298,9,16,"
        "-0.5634361698190091\n"
        "3,prequery-stick,500,217,0.434,0.39122280165473233,0.47778364799134687,27,64,"
        "0.548989425571558\n"
    )


# (strategy, config, seed) -> (verdict reason, event count, SHA-256 of the JSONL)
TRANSCRIPTS = [
    ("honest", ProtocolConfig(ell=4), "tx",
     "ok", 22, "7463a105e1336eb4990b79a6e176897e7bc383ade27ab17c319b54497a53e9e3"),
    ("naive-guess", ProtocolConfig(ell=4), "tx",
     "wrong_bits", 22, "1dc0dbb14ff227150e462889a0a265238517944b0e4aadd4b925d7953da83306"),
    ("prequery-stick", ProtocolConfig(ell=4), "tx",
     "wrong_bits", 27, "fb2d3608f744aa7174701561be22cec225652844f5f79d487d1231637f640846"),
    (PreQueryStick(3), ProtocolConfig(ell=3, counter_bits=1), "tx",
     "ok", 33, "3a0774109b173165437d6c994d4d5819a01ae07579e6353be1eb51a0d1db515c"),
    ("counter-reuse", ProtocolConfig(ell=4, enforce_counter_freshness=False), "tx",
     "ok", 32, "3250aeabc4fe5ce9a7042621f982e5835ef402dda71c0d691999b10c9127b322"),
    ("early-kernel", ProtocolConfig(ell=4, rtt_mode="mean"), "tx",
     "ok", 20, "90f4fd0d17cafc6a431eae3e729521ed05ce8ca25741f359335fd3deb1ed7bd5"),
    ("early-full", ProtocolConfig(ell=4), "tx",
     "wrong_bits", 18, "84db0b4da632ecd8fdcdbdf824fec4868921a8924ca52cdb754b9e658eac4ced"),
    ("secret-guess", ProtocolConfig(ell=2, secret_bits=1), "tx",
     "wrong_bits", 14, "89507142c66fb0c46fb3ffa6282edcc3efd3f058ce613dbf6f1fe1333000a612"),
    ("secret-guess", ProtocolConfig(ell=2, secret_bits=1), "tx0",
     "ok", 14, "e7b63ca2bc0b540ed120f00b800cc447ad8d7980bb6c4880494af41d7abb24e7"),
    # ell = 32: mixed early masks, whose blind answers sort before the verifier's send
    ("early-kernel", ProtocolConfig(ell=32, rtt_mode="mean"), "tx",
     "ok", 119, "292bfe8c1850bbba20e09e4f83f99b5436e1c245db206e2239ccdc2a5ef99e6a"),
    ("honest", ProtocolConfig(ell=32, processing_ticks=2), "tx",
     "ok", 134, "7318e716c9f23ebf23731cc80e57e4c4d600a07e8141016cf834817c172e6927"),
    # relayed, with the adversary between the verifier and the prover
    ("counter-reuse", ProtocolConfig(ell=32, enforce_counter_freshness=False,
                                     positions={VERIFIER: 0.0, PROVER: 3.0, ADVERSARY: 1.0}),
     "tx", "ok", 144, "78fbea96c2070420423e1f345b601ef5dcaa5c3b0adc5757b3769434636fd31d"),
]


def test_recorded_transcripts_are_pinned():
    for strategy, cfg, seed, reason, n_events, digest in TRANSCRIPTS:
        if strategy == "honest":
            transcript, verdict = run_session(cfg, seed)
        else:
            actor = make_strategy(strategy) if isinstance(strategy, str) else strategy
            transcript, verdict = attack_session(cfg, actor, seed)
        jsonl = transcript.to_jsonl()
        assert (verdict.reason, len(transcript.events)) == (reason, n_events), strategy
        assert hashlib.sha256(jsonl.encode()).hexdigest() == digest, strategy


# argv -> SHA-256 of stdout; every run exits 0
EXACT_OUTPUTS = {
    ("enumerate", "--claim", "binomial"):
        "10faff0e429df19fa2abab323ec8b42e2dda6183feb136beb1076a29135ce5ef",
    ("enumerate", "--claim", "early"):
        "d0a79f630a0e156df7790f8feae8e7c6c780cad69b855cd89b44723ca39023a8",
    ("enumerate", "--claim", "hamming"):
        "79177de9d0f32ecba3ba8cd3344709b9c4925f443b0cdb05c1ad2663fa079f1f",
    ("enumerate", "--claim", "kernel"):
        "b0cdc284922b9c13f81268fd14bf8e1f893af835abc7d9cd3182477e95d709e8",
    ("enumerate", "--claim", "lemma3"):
        "ea79e7450a2a94b41ef4e568fe5dd15c6a00448b329d80d04d6cdc05ad814a13",
    ("enumerate", "--claim", "monty"):
        "9f96c2c0706dd0141c5bb8db637ebc3283077d576543a0cc48da8250a7030c66",
    ("enumerate", "--claim", "prop34"):
        "aeb250688b232bfaec12c660ff669c784eb40407ebdf3b2e8ebfd22ebf59e5a2",
    ("enumerate", "--claim", "subbayes"):
        "67958f40342334981a173c6c4463bb5c8a6c5ba2162e8f6a20c56972d2dc1c45",
    ("enumerate", "--claim", "binomial", "--out", "csv"):
        "3e1dd3213ce4e9ed99dd0d924c4f94591be1eae10b436f755280e2b74b382044",
    ("enumerate", "--claim", "early", "--out", "csv"):
        "d66ea364e1c437abd3ec50555646e3df6f1c7aa6184a56da254e2854a6197b0c",
    ("enumerate", "--claim", "hamming", "--out", "csv"):
        "9254ffac2150406d722b870ffd1e452378bb1aefc7f5328fb2447cb9d8ea4f5e",
    ("enumerate", "--claim", "kernel", "--out", "csv"):
        "8d446bd243c623bac3f58b7222e71ede51bcbeb2c2b85d2c7b9e86bfadedd7b1",
    ("enumerate", "--claim", "lemma3", "--out", "csv"):
        "cce5a2d54b0eec877627412d09b7808e916e6285bf2794e7770ba4a8e0529616",
    ("enumerate", "--claim", "monty", "--out", "csv"):
        "c7df9173b782eddc39e762a7d4ede2c4be1cb993a7ba63846a5a9c0a7f336e0d",
    ("enumerate", "--claim", "prop34", "--out", "csv"):
        "7514a5e2839b41617c87977d7f6ad0ab0ca088f08619f2c04fb448235ede0609",
    ("enumerate", "--claim", "subbayes", "--out", "csv"):
        "cabe5e99825236597a6b877ca13593e50ec7ecc2c2c7484e9ed1aea947b328f3",
    ("enumerate", "--claim", "lemma3", "--ell", "2"):
        "2ee6ac54e97bfc8df277a2ee61381504466b26cd980e3437483a518f9697654d",
    ("guard-check", "--builtin", "attack-run"):
        "32839fbe0cec4cdbd3acbce263f34103abd6382ad76d1f4661983c1e84e79701",
    ("guard-check", "--builtin", "early-run"):
        "b7a40e55e647cfc988dd6b01649ce97f04052482f0041d13f4798038c24be4f6",
    ("guard-check", "--builtin", "dh"):
        "f45bf6869a59dbf3db3db5db2eb2caee256e1e3551a03540402ff3d47ace76b7",
    ("guard-check", "--builtin", "cr"):
        "85622bc823cccb6bbae221f1c6426126d8e666cc8b3ad4c44574c3aaac481dad",
}


def test_exact_outputs_are_pinned(capsys):
    assert {argv[2] for argv in EXACT_OUTPUTS if argv[0] == "enumerate"} == set(cli._CLAIMS)
    for argv, digest in EXACT_OUTPUTS.items():
        assert cli.main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
