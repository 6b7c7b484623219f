import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jack4 import cli, ops
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


# Each error path that a subcommand reaches after parsing: (argv, the one
# stderr line).  Every one exits 2 with nothing on stdout.
USAGE_ERRORS = [
    *(((cmd, *extra, "--kappa", "0"), "error: this command requires kappa > 0")
      for cmd, *extra in (("basis", "--gamma", "1,0,0"), ("hermite", "--gamma", "1,0,0"),
                          ("norm-table",), ("spectrum",), ("verify", "--suite", "prop1"))),
    (("nsjp", "--alpha", "1,0,0", "--nvars", "4"), "error: alpha has 3 parts but --nvars is 4"),
    (("nsjp", "--alpha", "1,0,0", "--kappa", "0"), "error: nsjp requires kappa > 0"),
    *(((cmd, "--gamma", gamma, "--n", n, "--kappa", "1"),
       "error: --gamma needs three parts and --n must be nonnegative")
      for cmd in ("basis", "hermite") for gamma, n in (("1,0", "0"), ("1,0,0", "-1"))),
    # a flag that the mode does not read is refused, not ignored; hermite
    # --lambda reads --n as its Laguerre index
    (("basis", "--lambda", "1,0,0", "--n", "3"), "error: --n needs --gamma"),
    (("basis", "--lambda", "1,0,0", "--n", "0"), "error: --n needs --gamma"),
    *(((cmd, "--gamma", "1,0,0", "--s", s), "error: --s needs --lambda")
      for cmd in ("basis", "hermite") for s in ("0", "1")),
    (("mc-check", "--samples", "1"), "error: need at least two samples for a standard error"),
    (("mc-check", "--seed", "-1"), "error: seed -1 is negative; seeds must be nonnegative"),
    # past float range the Selberg product overflows or the constant c underflows
    *((("mc-check", "--kappa", kappa), "error: --kappa is too large: the Selberg product or "
       "normalization constant is not a positive finite float")
      for kappa in ("30", "35", "400", "1e400")),
    *((("mc-check", "--kappa-prime", kappa_prime), "error: --kappa-prime is too large at this "
       "--kappa: the normalization constant is not a positive finite float")
      for kappa_prime in ("200", "400", "1e400")),
]


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
    for argv, line in USAGE_ERRORS:
        assert run(capsys, *argv) == (2, "", line + "\n"), argv


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


def test_mc_check_near_float_limit_runs_and_fails(capsys):
    """kappa = 25 is inside float range: the check runs, and its estimates,
    squeezed by a weight of about 1e-256, fail with exit 1."""
    code, out, _ = run(capsys, "mc-check", "--kappa", "25", "--samples", "1000")
    assert code == 1
    data = json.loads(out)
    assert data["normalization"]["consistent"] is True and data["ok"] is False


@pytest.mark.parametrize("flags", [("--kappa", "28.99"), ("--kappa-prime", "150")])
def test_mc_check_error_bars_survive_tiny_weights(capsys, flags):
    """Estimates near 1e-166 (kappa = 28.99) or 1e-183 (kappa' = 150) have
    squares that underflow in floats; every printed standard error is still
    positive, and the estimates still fail the check."""
    code, out, _ = run(capsys, "mc-check", *flags, "--samples", "1000")
    assert code == 1
    assert all(c["stderr"] > 0 for c in json.loads(out)["checks"])


_COLD_START = """
import contextlib, io, json, sys
import jack4, jack4.cli
from jack4 import cli
for argv in (["nsjp", "--alpha", "2,1,0", "--kappa", "1/2"],
             ["verify", "--suite", "prop2", "--max-degree", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
before = {"numpy": "numpy" in sys.modules, "jack4.measure": "jack4.measure" in sys.modules}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["mc-check", "--samples", "1000"])
print(json.dumps({"before": before, "numpy_after": "numpy" in sys.modules,
                  "code": code, "out": out.getvalue()}))
"""


def test_cold_start_loads_numpy_only_for_monte_carlo(capsys):
    """A fresh interpreter imports jack4 and runs exact commands without
    numpy.  ``jack4.measure`` is still imported with the package, since the
    benchmark's tracer wraps it through ``sys.modules``.  The first Monte
    Carlo estimate loads numpy and prints the in-process bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    child = json.loads(proc.stdout)
    assert child["before"] == {"numpy": False, "jack4.measure": True}
    assert child["numpy_after"] is True
    assert (child["code"], child["out"]) == run(capsys, "mc-check", "--samples", "1000")[:2]


def test_cold_start_imports_no_dataclasses():
    """Importing the CLI and the suites loads neither ``dataclasses`` nor
    ``inspect``, which only ``dataclasses`` pulls in: the records are named
    tuples or slotted classes and the reports plain classes."""
    script = ("import json, sys; before = set(sys.modules); import jack4.cli, jack4.verify; "
              "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == []


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
    ("verify", "--suite", "spectrum", "--max-degree", "4", "--kappa", "1/2",
     "--kappa-prime", "2"):
        "f6991a2f1d3107b6f2948a7634ca56f59d0238135ccf9beb623d0b17342100a5",
    ("hermite", "--lambda", "1,0,0", "--s", "0", "--n", "2", "--kappa", "1",
     "--kappa-prime", "1/2"):
        "bf535ec2fac0de546a34b360251395a8ad9164e4e97b7fed64a1a5f5dbb5977c",
    ("nsjp", "--alpha", "1,2,1", "--kappa", "5/7"):
        "83fcf74b30b1846b53439cf932e19e711fb2f5313c1ee7f4629633d4f0e4b7a2",
    ("verify", "--suite", "prop1", "--max-degree", "4", "--kappa", "5/7"):
        "f1c419a26d809655061c3a5a84418346fe833d4e182e7c473ea0422ea5b18d0b",
    # 200000 samples: two batches, so the second one is pinned too
    ("mc-check", "--kappa", "1/2", "--kappa-prime", "2", "--seed", "7"):
        "b1256570992d31f3907ab8532e9dfcba924437cef3fa007fb43855c83e046252",
    # lcm(q, q') = 21 differs from q = 7 in the extended pairing
    ("verify", "--suite", "prop2", "--max-degree", "3", "--kappa", "5/7",
     "--kappa-prime", "1/3"):
        "268637a797aa9e4bac94a64742ed3ae95f9b958c9747e78510d3adfc5a78a6f5",
    ("verify", "--suite", "jack", "--max-degree", "4", "--kappa", "3/5"):
        "678cc630e5fe7a2d830a77ba541c6c555bc136c4fa465a919a6b12c4be3adf9f",
    # the closed forms at a kappa with q > 1, and a kappa' with q' > 1
    ("verify", "--suite", "hooks", "--max-degree", "5", "--kappa", "5/7"):
        "b3dda8b2d93f91cb5c960ef4a788c57878679e3f500bf00218e978797764ea0c",
    ("verify", "--suite", "eval-ones", "--max-degree", "5", "--kappa", "5/7"):
        "f7daa0ed3d81de0bec67f94347d5e6b08384ed0db676daecaf74bbd3f8defb38",
    ("norm-table", "--max-degree", "4", "--kappa", "5/7", "--kappa-prime", "1/3"):
        "98ea943259bbd92fd8d8929411405a906bda40cebfdb089d1e392d78d87c0036",
    # CSV rows of many-term polynomials in x4, y4 and the Hermite image: the
    # bytes depend on the order in which terms are written
    ("hermite", "--gamma", "2,1,1", "--n", "2", "--kappa", "1/2", "--kappa-prime", "2",
     "--format", "csv"):
        "c31ea2346ca2faf7a531e2e40cb2938221a389618a7c32d703ecc8384808c9ac",
    ("nsjp", "--alpha", "1,0,2,1", "--kappa", "1/3", "--format", "csv"):
        "a0b1ad8c6321e23e248a281426204d6ece6df235d29134f496fb293b4ef1659c",
    ("basis", "--gamma", "3,1,2", "--n", "1", "--kappa", "3/7", "--kappa-prime", "2",
     "--format", "csv"):
        "a3a0c640c4e21efd1b56bf5457a8dfe5f74ce9fc2a5dbb782b4385bf8e91c94c",
    # operator output where the integer images carry Q = lcm(q, q') = 21 in
    # y0 and y4, and Q = q = 7 in the x frames and y3
    ("verify", "--suite", "identities", "--max-degree", "3", "--kappa", "5/7",
     "--kappa-prime", "1/3"):
        "466ef43a54a481bc3b8e8dbcc368e359bbae09665a90871a06b14ae785d2686f",
    ("verify", "--suite", "spectrum", "--max-degree", "4", "--kappa", "5/7",
     "--kappa-prime", "1/3"):
        "9b7987700c8b632a701ca60ff46507123e982f05719bf9c4dfed980a82d9e4ee",
    ("hermite", "--gamma", "2,1,1", "--n", "3", "--kappa", "5/7", "--kappa-prime", "1/3",
     "--format", "csv"):
        "528c641cc750f5850fd681efb313bd46b2b8875752fe3eb925c030ccb89d0282",
    ("verify", "--suite", "eigen", "--max-degree", "4", "--kappa", "5/7"):
        "a8c58dbc4e2286b51a337249cee7156a991453dd16ee38524dc85c658a768014",
    # the Yang-Baxter nsjp under the symmetric Jacks, and the block-diagonal
    # Gram check of the extended pairing with Q = lcm(q, q') = 21
    ("verify", "--suite", "jack", "--max-degree", "4", "--kappa", "5/7"):
        "a309e87accd376f29fc53ac02bcbd801d80855ff1bdd05448ac91c3c6e49a030",
    ("verify", "--suite", "prop2", "--max-degree", "5", "--kappa", "5/7",
     "--kappa-prime", "1/3"):
        "6421c83da0b368911792e2b693ef69ddff82d0f9758e50644c2bc0f2208557f5",
    # the y3 CSV header, e_y1,e_y2,e_y3, comes from the frame's coordinate names
    ("basis", "--lambda", "2,1,0", "--s", "1", "--kappa", "1/2", "--kappa-prime", "2",
     "--format", "csv"):
        "5124db388c9089ae4ab8a5454be7ae2d8075bf75fbcae9e4c87eff64e78ac10d",
    # no centre factor at kappa' = 0, two batches
    ("mc-check", "--kappa", "3", "--kappa-prime", "0"):
        "85a6943324d5c1681df022b6d825a3e82845b485c265d9575e0b89801c1287f8",
    # non-integer powers in the weight, and one partial batch
    ("mc-check", "--kappa", "5/7", "--kappa-prime", "1/3", "--samples", "50000"):
        "37c0d94dd13540cde27e78584a88998ee1f129103c8e111135d675b85ad50359",
    # y0 norms at a kappa' with q' > 1, where none is trivial; prop2 as the
    # D3 Gram times the A1 factor; a three-variable zeta at a kappa with q > 1
    ("norm-table", "--max-degree", "5", "--kappa", "5/7", "--kappa-prime", "1/3"):
        "420a6ecb33148b0af5e1faf627c858a1cf9764b6a979f59dcc564c225034000a",
    ("norm-table", "--max-degree", "5", "--kappa", "5/7", "--kappa-prime", "1/3",
     "--format", "csv"):
        "51d5daf3940d6f40f19e776ff6be9926b0f579a13edc17376ccb1b80739c6911",
    ("verify", "--suite", "prop2", "--max-degree", "6", "--kappa", "1/2",
     "--kappa-prime", "2"):
        "966c7d7f6b25d17c69350f5cfbb1eb8030ae8650852a0934f92d878970e1777b",
    ("nsjp", "--alpha", "3,0,2", "--kappa", "5/7"):
        "249292039c70159b0d735bbb0339f36a3bd631e55f5bfdef2b4570b22cc8a6c5",
    # Monte Carlo batches whose summation trees have awkward leaves: a full
    # batch and then 7 points, and one batch of tiles of 4304 and 4312
    ("mc-check", "--samples", "131079"):
        "7bc6b9ede8f6a05876e9e1f81ef03b12f42010e986e89ce19cb873f7aedcbec3",
    ("mc-check", "--kappa", "1/2", "--kappa-prime", "2", "--samples", "68928"):
        "98e3606b684aa3bfe97abc37f64dee8d4056f39e552a2ece71565b85a52da714",
    # F^s_lambda without its norms, the CSV rows built only for --format csv,
    # and a kappa = p/q with q > 1 at N = 4 for the integer Yang-Baxter divisor
    ("hermite", "--lambda", "2,1,0", "--s", "1", "--n", "1", "--kappa", "1/2",
     "--kappa-prime", "2"):
        "ea31ba6d2562b8d2687b36640f8fcd5311c6b1e9fad8feb3bc344fe6b76aed40",
    ("hermite", "--lambda", "2,1,0", "--s", "1", "--n", "1", "--kappa", "1/2",
     "--kappa-prime", "2", "--format", "csv"):
        "f816f1ba1eb6c6278cbc144d3bb3de398e5ed4cddf5dc4911329018cbca48030",
    ("basis", "--gamma", "3,1,2", "--n", "1", "--kappa", "3/7", "--kappa-prime", "2"):
        "3de1ddc9ceee5469f07bafc6fc19c39cf003927372cff1f87cbd35d7e14c50dc",
    ("nsjp", "--alpha", "0,0,2,5", "--kappa", "5/7"):
        "2626046fa1cca1f786138b436a97463ed42297e95d2e9ee9c1e73b468b98aaaa",
}
# Exit codes other than 0 of the pinned commands.  The weights of the
# Gaussian draw are heavy-tailed, at kappa = 3 and at these sample counts the
# estimates miss the exact norms by more than their error bars, and the run
# exits 1; its bytes are pinned all the same.
GOLDEN_EXIT = {
    ("mc-check", "--kappa", "3", "--kappa-prime", "0"): 1,
    ("mc-check", "--samples", "131079"): 1,
    ("mc-check", "--kappa", "1/2", "--kappa-prime", "2", "--samples", "68928"): 1,
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == GOLDEN_EXIT.get(argv, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_shared_parser_carries_nothing_between_calls(capsys):
    """Every request of one process parses with the same parser: each golden
    command, forward and then in reverse, with a usage error after each,
    gives the pinned bytes."""
    assert cli.build_parser() is cli.build_parser()
    assert callable(cli.build_parser.cache_clear)  # the per-round benchmark reset
    golden = list(GOLDEN_STDOUT)
    for i, argv in enumerate(golden + golden[::-1]):
        code, out, _ = run(capsys, *argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (GOLDEN_EXIT.get(argv, 0), GOLDEN_STDOUT[argv]), argv
        error_argv, line = USAGE_ERRORS[i % len(USAGE_ERRORS)]
        assert run(capsys, *error_argv) == (2, "", line + "\n"), error_argv


def test_help_is_stable_and_names_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(cli._COMMANDS)
    for argv in [("--help",)] + [(cmd, "--help") for cmd in cli._COMMANDS]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: jack4"), argv
        assert run(capsys, *argv) == (0, out, ""), argv
        if argv == ("--help",):
            assert all(cmd in out for cmd in cli._COMMANDS)


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    """The per-layer tracer of ``perfbench/tracing.py`` wraps jack4's public
    functions by name.  With every module of the CLI loaded, it installs
    without error, and uninstalling puts back every binding of every jack4
    module, of SparsePoly and of the Fraction operators, so a refactor that
    drops a traced name fails here."""
    import importlib
    from fractions import Fraction

    from jack4.poly import SparsePoly

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")

    def bindings():
        found = {(name, attr): value for name, module in sys.modules.items()
                 if name == "jack4" or name.startswith("jack4.")
                 for attr, value in vars(module).items()}
        found.update({("SparsePoly", attr): value for attr, value in vars(SparsePoly).items()})
        found.update({("Fraction", op): getattr(Fraction, op) for op in tracing.RATIONAL_OPS})
        return found

    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        changed = {key for key, value in bindings().items() if value is not before[key]}
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert {("jack4.cli", "main"), ("jack4.jack", "nsjp"), ("SparsePoly", "__init__"),
            ("Fraction", "__add__")} <= changed


_SCALARS = (st.text() | st.integers() | st.sampled_from((10**40, -(10**40)))
            | st.floats(allow_nan=True, allow_infinity=True) | st.booleans() | st.none())
_VALUES = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4)), max_leaves=20)


@given(_VALUES)
@example({'a"b\\c\n\x00\u00e9\U0001f600': [[], {}, (), (1, -0.0)],
          "": {"x": [1e300, float("nan"), float("inf"), -float("inf"), True, None]}})
@settings(max_examples=200, deadline=None)
def test_json_writer_matches_json_dumps(value):
    """The direct writer of _emit gives the bytes of json.dumps(v, indent=2)."""
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_requests_build_no_csv_rows(capsys, monkeypatch):
    """A --format json request never builds the CSV rows; --format csv builds them once."""
    calls = []
    rows = cli._poly_csv_rows
    monkeypatch.setattr(cli, "_poly_csv_rows", lambda f: calls.append(f) or rows(f))
    requests = [("nsjp", "--alpha", "0,1,1"), ("basis", "--gamma", "1,0,1", "--n", "1"),
                ("basis", "--lambda", "1,0,0"), ("hermite", "--gamma", "1,0,1", "--n", "1"),
                ("hermite", "--lambda", "1,0,0", "--n", "1")]
    for argv in requests:
        assert run(capsys, *argv)[0] == 0
    assert calls == []
    for i, argv in enumerate(requests, 1):
        assert run(capsys, *argv, "--format", "csv")[0] == 0
        assert len(calls) == i


def test_invariant_eigenfunction_request_pairs_nothing(capsys, monkeypatch):
    """hermite --lambda builds F^s_lambda without its norms: from a cold memo
    it makes no pairing_kappa call, while basis --lambda pairs F with itself."""
    calls = []
    pairing = ops.pairing_kappa
    for name, module in list(sys.modules.items()):
        if name.startswith("jack4.") and getattr(module, "pairing_kappa", None) is pairing:
            monkeypatch.setattr(module, "pairing_kappa",
                                lambda *args: calls.append(args) or pairing(*args))
    ops._MEMO_CACHE.clear()
    assert run(capsys, "hermite", "--lambda", "2,1,0", "--s", "1", "--n", "1")[0] == 0
    assert calls == []
    assert run(capsys, "basis", "--lambda", "2,1,0", "--s", "1")[0] == 0
    assert len(calls) == 1
