"""Seeded outputs pinned to exact values.

The session path may change how it computes, never what it computes:
`simulate` success counts, a `sweep` CSV and the event logs of recorded
sessions are functions of their seeds.  The values below were taken
from the session path that carried `BitString` objects through every
round, before sessions moved to plain ints.
"""

import hashlib
import json

from hkbound import cli
from hkbound.adversary import PreQueryStick, attack_session, make_strategy
from hkbound.protocol import ProtocolConfig, run_session

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
