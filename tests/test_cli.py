import hashlib
import json

import pytest

from jack4.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nsjp_command(capsys):
    code, out, _ = run(capsys, "nsjp", "--alpha", "1,0,0", "--kappa", "1")
    assert code == 0
    data = json.loads(out)
    assert data["poly"]["frame"] == "x3"
    terms = {tuple(t["exp"]): t["coef"] for t in data["poly"]["terms"]}
    assert terms == {(1, 0, 0): "1", (0, 1, 0): "1/2", (0, 0, 1): "1/2"}
    assert data["norm"] == "2"
    assert data["eval_ones"] == "2"


def test_nsjp_csv(capsys):
    code, out, _ = run(capsys, "nsjp", "--alpha", "0,0,1", "--kappa", "1/2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "e_x1,e_x2,e_x3,coef"
    assert lines[1] == "0,0,1,1"


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--gamma", "0,1,0", "--n", "1",
                       "--kappa", "1/2", "--kappa-prime", "2")
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"]["w"] == [2, 1, 3]
    assert data["decomposition"]["beta"] == [1, 0, 0]
    terms = {tuple(t["exp"]): t["coef"] for t in data["poly"]["terms"]}
    assert terms == {(1, 0, 1, 0): "1"}  # y0 * y2
    assert data["norm"] == "15"  # (4k+1)(2k'+1) = 3 * 5


def test_basis_invariant_family(capsys):
    code, out, _ = run(capsys, "basis", "--lambda", "0,0,0", "--s", "1", "--kappa", "1/2")
    assert code == 0
    data = json.loads(out)
    terms = {tuple(t["exp"]): t["coef"] for t in data["poly"]["terms"]}
    assert terms == {(1, 1, 1): "1"}
    # pairing-computed norm (2k+1)(4k+1) = 6 vs the displayed closed form 3/4
    assert data["pairing_norm"] == "6"
    assert data["formula_norm"] == "3/4"
    assert data["a_lambda"] == "1"


def test_hermite_invariant_eigenfunction(capsys):
    code, out, _ = run(capsys, "hermite", "--lambda", "0,0,0", "--n", "1",
                       "--kappa", "1", "--kappa-prime", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["energy"] == "21/2"
    terms = {tuple(t["exp"]): t["coef"] for t in data["poly"]["terms"]}
    assert terms == {(2, 0, 0, 0): "-1/2", (0, 0, 0, 0): "1"}


def test_gamma_lambda_mutually_exclusive(capsys):
    code, _, _ = run(capsys, "basis", "--gamma", "1,0,0", "--lambda", "1,0,0")
    assert code == 2
    code, _, _ = run(capsys, "basis", "--kappa", "1")
    assert code == 2


def test_hermite_command(capsys):
    code, out, _ = run(capsys, "hermite", "--gamma", "0,0,0", "--n", "2",
                       "--kappa", "1", "--kappa-prime", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["energy"] == "21/2"
    terms = {tuple(t["exp"]): t["coef"] for t in data["poly"]["terms"]}
    assert terms == {(2, 0, 0, 0): "1", (0, 0, 0, 0): "-2"}


def test_spectrum_energy_strings(capsys):
    code, out, _ = run(capsys, "spectrum", "--max-degree", "2",
                       "--kappa", "1", "--kappa-prime", "1/2")
    assert code == 0
    data = json.loads(out)
    by_degree = {}
    for row in data["rows"]:
        by_degree.setdefault(row["degree"], set()).add(row["energy"])
    assert by_degree[0] == {"17/2"}
    assert by_degree[1] == {"19/2"}
    assert by_degree[2] == {"21/2"}


def test_norm_table_csv(capsys):
    code, out, _ = run(capsys, "norm-table", "--max-degree", "1",
                       "--kappa", "1/2", "--kappa-prime", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,n,degree,norm"
    assert '"0,0,0",0,0,1' in lines
    assert '"0,0,0",1,1,5' in lines


def test_verify_command_ok(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hooks", "--max-degree", "3",
                       "--kappa", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failures"] == 0
    assert data["checked"] == 40
    assert data["first_counterexample"] is None


def test_verify_f1_details(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "f1-norm", "--max-degree", "2",
                       "--kappa", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(row["matched"] == "2^(2|lambda|+3)" for row in data["details"])


def test_output_byte_identical(capsys):
    args = ("verify", "--suite", "eval-ones", "--max-degree", "3", "--kappa", "5/7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_errors(capsys):
    code, _, err = run(capsys, "nsjp", "--alpha", "1,x,0")
    assert code == 2
    code, _, err = run(capsys, "nsjp", "--alpha", "1,0,0", "--kappa", "-1")
    assert code == 2 and "kappa" in err
    code, _, err = run(capsys, "nsjp", "--alpha", "1,0,0", "--kappa", "0")
    assert code == 2
    code, _, err = run(capsys, "basis", "--gamma", "1,0,0", "--kappa", "1", "--kappa-prime", "-2")
    assert code == 2 and "nonnegative" in err
    code, _, err = run(capsys, "basis", "--gamma", "1,0", "--kappa", "1")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    code, _, err = run(capsys, "mc-check", "--samples", "-5")
    assert code == 2


def test_negative_max_degree_fails_loudly(capsys):
    for argv in (("verify", "--suite", "prop1", "--max-degree", "-3"),
                 ("norm-table", "--max-degree", "-1"),
                 ("spectrum", "--max-degree", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "max degree must be nonnegative" in err


def test_mc_check_small(capsys):
    code, out, _ = run(capsys, "mc-check", "--kappa", "1", "--kappa-prime", "0.5",
                       "--samples", "50000", "--seed", "20080824")
    assert code == 0
    data = json.loads(out)
    assert data["normalization"]["consistent"] is True
    assert len(data["checks"]) == 6
    names = [c["integrand"] for c in data["checks"]]
    assert "<1,1>" in names
    for c in data["checks"]:
        assert c["samples"] == 50000 and c["seed"] == 20080824


# sha256 of stdout for a few commands at their default parameters.  A change
# that only makes the program faster must leave these bytes as they are.
GOLDEN_STDOUT = {
    ("verify", "--suite", "f1-norm", "--max-degree", "4"):
        "968465e7d8d284a9615b2c5bd661f822c4e61920f706c0628bf0ea2db1160c4c",
    ("verify", "--suite", "prop2", "--max-degree", "3"):
        "96503e1d14573a8756bac992c0cd2f2fb9da0fc803f3aade52a9c6b2bb56ded5",
    ("spectrum", "--max-degree", "4"):
        "a38735338744800bad9c54422590f24aef0ae67b5ff825a0b85a3d09321a40af",
    ("spectrum", "--max-degree", "4", "--format", "csv"):
        "bcbdfece46ed68ec54268dedbd12f8a377d837ffec4e69fdaec785feb0a0a2d4",
    ("norm-table", "--max-degree", "3"):
        "f6fc3141fd4942c22d9636f14ddb7eeeff9a744f41d5d1a7b4b7b31aaa8099fb",
    ("mc-check", "--samples", "20000"):
        "97dd1cd3f8076eabdcbb7f67251e40220f655e11c34decc6ca0d9874308eaefb",
    ("norm-table", "--max-degree", "3", "--format", "csv"):
        "cb085ad1d2840c1e50f27feaab12f5678cc80f990c3ba4adaed4979fe4dcdfdd",
    ("mc-check", "--samples", "20000", "--format", "csv"):
        "16d392234dfafc589022ff8d0774a23c37c4de6166361f4b99c659a82c2b0d4b",
    ("basis", "--lambda", "2,1,0", "--s", "1", "--kappa", "1/2", "--kappa-prime", "2"):
        "e2218cb44e15fd4cfa2d7a41092f543849db81fa7ef429b34d42c767a6727e39",
    ("hermite", "--gamma", "1,0,1", "--n", "1", "--kappa", "1/2", "--kappa-prime", "2"):
        "3b1a5a57568059ad03c8a51d0bddab7143502d9089cd51acb208759b10a42f82",
    ("nsjp", "--alpha", "2,0,1", "--kappa", "1/2"):
        "ef4f0d7b91113cacb0a0826eec677a54622c735b2a1a64336192f9e158d3bee9",
    ("verify", "--suite", "identities", "--max-degree", "3", "--kappa", "1/2",
     "--kappa-prime", "2"):
        "6b05d3592560542859bb78135144ac796fe05b3f0c247310a6e00081eee877b2",
    ("verify", "--suite", "eigen", "--max-degree", "3", "--kappa", "1/2"):
        "623c55369eb09d6d84a7394268c4b9f8abb66d4a63b21594145ab91e6180e1ee",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]
