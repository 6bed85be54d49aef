"""Byte-level regression: SHA-256 of one CSV from every CSV-writing subcommand.

The digests were recorded from the ``csv.writer`` emitter and must not move
when the emitter changes.  A single changed byte fails: a quoted field, a
float printed with fewer digits or a different line ending.
"""

import hashlib

import pytest

from bosonsim.cli import run

CSV_ARGV = {
    "walk": ["walk", "--sites", "4", "--hop", "0.912873", "--U=-1.30917", "--V", "0.218734",
             "--t", "0.734521"],
    "lindblad": ["lindblad", "--cutoff", "5", "--omega", "1.21738", "--gamma-dephasing",
                 "0.0718263", "--gamma-heating", "0.0417263", "--t", "0.25",
                 "--initial-level", "2"],
    "pds": ["pds", "--g", "0,0.61827,1.30917", "--hop", "1.10384", "--omega", "0.871263",
            "--max-k", "4"],
    "downfold": ["downfold", "--hop", "0.912873", "--U", "0.52841", "--V", "0.871926",
                 "--mu=-1.02184,0.0401827,0.918273"],
    "trunc": ["trunc", "--t", "1,2.5,7", "--eps", "1e-3", "--modes", "3", "--lambda0", "2"],
    "wegner": ["wegner", "--dim", "5", "--seed", "3"],
    "xy": ["xy", "--n", "9", "--j", "1.1", "--gamma", "0.4", "--lam", "0.8"],
}

CSV_DIGESTS = {
    "walk": "12894c947f3c8fe7fa3013eb6cddb98523d127c2e78bd6d8139b5ebcae902956",
    "lindblad": "ccc1d2f2dd71ed83581bd26bc128a4efb5d2a6517875b3331a3753fc23fc48b2",
    "pds": "2a94a1eb6fa6b320d3440e36f173ad405f733f3749b81c632edc23f0932e95c7",
    "downfold": "763c1af3d49959965d10a745063351c8ac6b5bc64563a9a75f106a49b1b2cc06",
    "trunc": "27346f216a3222d431984a816c50abb07f529b2fd5cc76bfa2d076c0387e19cf",
    "wegner": "86b6938bf9fb7ebdec1149171e8a33355937472104b5b515f86d43a4a86d12e5",
    "xy": "4ea9b8fd736401dffc177bf2d90bbab9f82f72ade5ae8227aed174d199212b75",
}


@pytest.mark.parametrize("command", sorted(CSV_DIGESTS))
def test_csv_digests_are_frozen(command, tmp_path):
    out = tmp_path / "out.csv"
    # downfold writes its CSV through --csv, next to the JSON report
    flag = ["--csv", str(out), "--out", str(tmp_path / "report.json")] \
        if command == "downfold" else ["--out", str(out)]
    assert run(CSV_ARGV[command] + flag) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[command]
