"""Every golden CLI report, byte for byte: each row runs ``cli.main`` in
process on its arguments and compares what it prints with the golden file.
The goldens are only read here, never written."""

from pathlib import Path

import pytest

from boolpow.cli import main

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ROOT / "perfbench" / "golden" / "cli-reports"
DATA = ROOT / "perfbench" / "data"
TESTS = ROOT / "tests" / "golden"
INPUTS = ROOT / "tests" / "data"

GOLDENS = [
    (["free-algebra", "--builtin", "gf2-idempotent-reduct", "--rank", "3"], REPORTS / "free-algebra-r3.json"),
    (["factor-homeo", "--points", "3", "--seed", "1"], REPORTS / "factor-homeo-p3-s1.json"),
    (["factor-homeo", "--points", "2", "--seed", "11"], REPORTS / "factor-homeo-s11.json"),
    (["factor-homeo", "--points", "2", "--seed", "17611"], REPORTS / "factor-homeo-s17611.json"),
    (["demo-example-2-3", "--depth", "40"], REPORTS / "demo-example-2-3-d40.json"),
    (["build-power", "--builtin", "gf2-ring", "--filters", "0", "--depth", "4"], REPORTS / "build-power-d4.json"),
    (["fraisse-chain", "--builtin", "gf2-idempotent-reduct", "--depth", "4"], REPORTS / "fraisse-chain-d4.json"),
    (["bergman-growth", "--builtin", "gf4-idempotent-reduct", "--depth", "3", "--steps", "8"], TESTS / "bergman-growth-gf4-d3.json"),
    (["reduce-idempotents", "--builtin", "gf2-ring", "--filters", "0,0"], REPORTS / "reduce-idempotents.json"),
    (["build-power", "--builtin", "gf4-idempotent-reduct", "--filters", "0,1", "--depth", "3"], REPORTS / "build-power-gf4-d3.json"),
    (["extend-homogeneity", "--builtin", "gf2-idempotent-reduct", "--seed", "5"], REPORTS / "extend-homogeneity-s5.json"),
    (["extend-homogeneity", "--builtin", "gf2-idempotent-reduct", "--seed", "8271"], REPORTS / "extend-homogeneity-s8271.json"),
    (["bergman-growth", "--builtin", "gf2-idempotent-reduct", "--depth", "3", "--steps", "8"], REPORTS / "bergman-growth.json"),
    (["demo-example-2-3", "--depth", "6"], REPORTS / "demo-example-2-3-d6.json"),
    (["inspect-algebra", "--builtin", "gf2-idempotent-reduct"], REPORTS / "inspect-algebra.json"),
    (["build-power", "--builtin", "gf2-ring", "--filters", "0", "--depth", "2"], REPORTS / "build-power-d2.json"),
    (["amalgamate", "--builtin", "gf2-ring", "--emb1", str(DATA / "phi.json"), "--emb2", str(DATA / "psi.json")], REPORTS / "amalgamate.json"),
    (["free-algebra", "--builtin", "gf2-ring", "--rank", "2"], REPORTS / "free-algebra-r2.json"),
    # zero-ring 17 has 289-entry tables: the closure reads two-byte lanes
    (["free-algebra", "--builtin", "zero-ring 17", "--rank", "1"], TESTS / "free-algebra-zero-ring-17-r1.json"),
    # proper subalgebras, and is_abelian through the direct square
    (["inspect-algebra", "--builtin", "cyclic-group 6"], TESTS / "inspect-algebra-cyclic-group-6.json"),
    # no hint: the Mal'cev term comes from the search; non-abelian
    (["inspect-algebra", "--alg", str(INPUTS / "s3-group.json")], TESTS / "inspect-algebra-s3.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDENS, ids=[g.stem for _, g in GOLDENS])
def test_report_matches_its_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()
