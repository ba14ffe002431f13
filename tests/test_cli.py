import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURE_NAMES, fixture_by_name, lindyn_env, mp_evaluate, random_commuting_family
from lindyn.cli import FIXTURES, load_input, main
from lindyn.dynamics import FIRST_BOX, ClosureConfig
from lindyn.linalg import as_vector
from lindyn.numeric import NumericContext
from lindyn.report import _fmt_complex, _scalar_approx, dumps_report, render_value
from lindyn.scalars import Scalar
from lindyn.verify import Fixture, _closed_orbit_claim, _closure_minus_orbit_claim


@pytest.fixture
def fixture_files():
    return {name: str(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES}


# sha256 of `lindyn analyze fixtures/<name>.json` at the CLI defaults, first recorded
# before all-rational matrices moved to integer elimination: how exact linear
# algebra is carried out must not change a report byte.  Re-recorded when the
# invariant tree became a list of distinct nodes and config.seed was dropped,
# after checking that every other byte was unchanged and that expanding the
# node list from node 0 gave the old chain-by-chain tree exactly.  jordan-real4-1,
# sform8 and sform8-p53 were re-recorded when the commutator residual became
# exact, after checking that each changed only in its max_residual line, which
# had been rounding noise (1.13686837722e-13 and 1.7763568394e-15) and is now 0.
# All were re-recorded when the invariant tree became its root's units, after
# checking that every byte outside the invariant_tree section was unchanged,
# that depth was equal and that node_count equalled the old list's length.
GOLDEN_REPORT_SHA256 = {
    "shear3": "d021704917e1c59782d0c036d04e2e396e0e2a651b7d6f1cbfe4cc01ab178cf0",
    "shear4": "f9ee016200413b1043d926e4e36cc9d5e4f7f9f34dd1aeb1a16be98863daace3",
    "cshear5": "13784eba2847aac86a59058e2df4fd0a56e08810f06afec1bf55c0131673d436",
    "radical4": "00cd67b7cf8bf65c1a2221f7a25440bd46701b88898a245c35fedcb2247c042c",
    "diag3": "dceaa8347faa398535c9d84127d4b657e5472feb917a3f816bf6fc2787e831f8",
    "rotation3": "786051996279f73494f50ce496aef44282412d72c34bb6c3fb507f7a36880c7c",
    "numpair3": "0a25ea8202ec2869cbf428feaa2772cfd6310894f45bebcc96518c395019a55e",
    "sqrt2sqrt3": "dd06ea1765b125ae01e19f12195d6ee81e43f753fedbffd8d207a8d8573c8b52",
    "pairsqrt2": "0f069c08a06ad141b93657d9a7c1dc2aa72f0393343fe6e660357560e4c8b4df",
    "sform8": "e63689a605b567326bd07e93a2280d5c7cd3c27498039fee2c037f46087cab05",
    "sform8-p53": "092a82e3f71985bca050620d3a809963c37be322668f7254dc3cc7c5411c45d0",
    "diag6": "6ad2a51a4ce89f0856941a9f7746d1f9832037c8113cea47167390b10fe58b32",
    "diag6-p53": "7e9d98b2a929a5b8ec0c383b3a6028604990b832634f1bccd5dfb90515941307",
    "jordan-real4-0": "b3c7ba995ce0b33ddb5257d116d400553eef2e9c9af9458c464e9b38a2ddedf7",
    "jordan-real4-1": "7219e79ad01a71e1d8a3eac7b4593bac1cad44926db9a9f78cdcb830f4109054",
    "bench1-sform8": "04e6c73ebfdb0c96c43eeed8e5a15cc862a11ddadc57f0c5600b417faea9d648",
    "bench1-sform8-p53": "ef4ea56d4f048014c5630ce37738e07c9e9d5956b189d168ae0f48afe8a010f1",
    "bench1-diag5": "079cb78ecf140246b60f1e8f8783b2314152c5f33bd13c71e04a852ae536aeba",
    "bench1-diag5-p53": "68bac5704713e6297f3d4ed673925645c83bfd8aec35916eb74d5c957e9e0750",
}

# Inline real documents (a list of generators) and their extra CLI arguments;
# the five below have a single generator.  Every fixture
# above is one exact spectral block, so its digest never reaches the spectral
# split, conjugate pairing or numeric paths; these digests, recorded before
# the spectral core was folded into one routine per job, pin those paths:
#   diag3       triangular exact split;
#   rotation3   field recognition, exact conjugate pair, exact Re/Im interleave;
#   numpair3    numeric split, numeric pair and numeric interleave;
#   sqrt2sqrt3  numeric real blocks (eigenvalues +-sqrt(2), +-sqrt(3));
#   pairsqrt2   a defective +-i pair of real width 4 beside a sqrt(2) line, the
#               one conjugate-pair unit wider than 2 (recorded before the
#               invariant tree was read off the root's triangular form).
# The two numeric families run at 53 bits: numeric splitting runs only
# there, and at the 128-bit default they exit 1 with SpectrumNotCertified.
INLINE_DOCUMENTS = {
    "diag3": ([[["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]], []),
    "rotation3": (
        [[["2", "0", "0"], ["0", "1/2", "-1/2*sqrt(3)"], ["0", "1/2*sqrt(3)", "1/2"]]],
        [],
    ),
    "numpair3": (
        [[["0", "-3", "0"], ["1", "1", "0"], ["0", "0", "2"]]],
        ["--precision", "53"],
    ),
    "sqrt2sqrt3": (
        [[["0", "2", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "3"], ["0", "0", "1", "0"]]],
        ["--precision", "53"],
    ),
    "pairsqrt2": (
        [[["0", "-1", "1", "0", "0"], ["1", "0", "0", "1", "0"], ["0", "0", "0", "-1", "0"],
          ["0", "0", "1", "0", "0"], ["0", "0", "0", "0", "sqrt(2)"]]],
        [],
    ),
}


def _polynomial_in(N, coeffs) -> list[list[str]]:
    """The rows of sum(c_k N^k), k = 0, 1, ..., for an integer matrix N."""
    n = len(N)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = [[Fraction(0)] * n for _ in range(n)]
    for c in coeffs:
        total = [[t + c * p for t, p in zip(tr, pr)] for tr, pr in zip(total, power)]
        power = [[sum(power[i][k] * N[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return [[str(x) for x in row] for row in total]


# Two rational documents with two generators each, whose analysis is mostly
# exact matrix products, kernels and solves over Q: an S-form pair (I + aN +
# bN^2 for one strictly lower-triangular N, one generator with denominators
# 2 and 3), which gives one block and a full chain of depth 8, and a diagonal
# pair with six one-dimensional blocks.  Recorded at both precisions before
# rational products and elimination moved to cached integer rows and
# rationals were rendered from floats.
_N8 = [[0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0], [-2, 2, 0, 0, 0, 0, 0, 0],
       [2, 1, 2, 0, 0, 0, 0, 0], [2, -1, 0, 1, 0, 0, 0, 0], [2, -2, 1, -2, -1, 0, 0, 0],
       [2, 0, -1, 0, 2, 1, 0, 0], [2, 1, 0, -1, -1, 0, 2, 0]]
_SFORM8 = [_polynomial_in(_N8, (1, -1, -1)),
           _polynomial_in(_N8, (1, Fraction(-1, 3), Fraction(1, 2)))]
_DIAG6 = [[[str(d[i]) if i == j else "0" for j in range(6)] for i in range(6)]
          for d in ([2, 11, -3, 5, -7, -13], [3, -2, 1, 1, -1, Fraction(1, 2)])]
for _name, _gens in (("sform8", _SFORM8), ("diag6", _DIAG6)):
    INLINE_DOCUMENTS[_name] = (_gens, [])
    INLINE_DOCUMENTS[f"{_name}-p53"] = (_gens, ["--precision", "53"])


# The structure-radical benchmark documents of these names: two commuting
# generators, each a rotation-scaling block of a conjugate pair beside a 2x2
# Jordan block on a real eigenvalue, conjugated by an integer unimodular matrix.
SPLIT_DEFECTIVE = {
    "jordan-real4-0": [
        [["-21", "12", "-6", "-38"], ["-7", "5", "-2", "-12"],
         ["-7", "4", "-2", "-13"], ["11", "-6", "3", "20"]],
        [["-45", "24", "-6", "-78"], ["-16", "11", "-2", "-26"],
         ["-20", "10", "-2", "-35"], ["24", "-12", "3", "42"]],
    ],
    "jordan-real4-1": [
        [["2", "-2", "2", "-4"],
         ["20", "-17 - 3*sqrt(2)", "20 + 4*sqrt(2)", "-36 - 8*sqrt(2)"],
         ["10 + 2*sqrt(2)", "-5 - 3*sqrt(2)", "6 + 4*sqrt(2)", "-10 - 6*sqrt(2)"],
         ["-3 + sqrt(2)", "5", "-6", "11 + sqrt(2)"]],
        [["2", "-2", "2", "-4"],
         ["24", "-23 - 3*sqrt(2)", "28 + 4*sqrt(2)", "-48 - 8*sqrt(2)"],
         ["10 + 2*sqrt(2)", "-5 - 3*sqrt(2)", "6 + 4*sqrt(2)", "-10 - 6*sqrt(2)"],
         ["-5 + sqrt(2)", "8", "-10", "17 + sqrt(2)"]],
    ],
}
# Their golden digests pin exact invariant subspaces H_i whose bases lack a
# private row (a row where one column alone is nonzero) for some column:
# both H_i of jordan-real4-0, the hyperplane of jordan-real4-1.  Recorded
# before the invariance check of an exact H_i became F g B = 0 for its
# functionals F.
for _name, _gens in SPLIT_DEFECTIVE.items():
    INLINE_DOCUMENTS[_name] = (_gens, [])


def _diagonal(*d) -> list[list[str]]:
    return [[d[i] if i == j else "0" for j in range(len(d))] for i in range(len(d))]


# The generators of the structure-rational benchmark documents sform8 and diag5
# of seed 1 (their points left out): a full S-form chain of depth 8 and five
# coordinate hyperplanes at every level.  Recorded at both precisions before
# rational matrix results were built directly as integer rows.
BENCH_RATIONAL = {
    "bench1-sform8": [
        [["1", "0", "0", "0", "0", "0", "0", "0"], ["-1", "1", "0", "0", "0", "0", "0", "0"],
         ["0", "2", "1", "0", "0", "0", "0", "0"], ["-1", "5", "-2", "1", "0", "0", "0", "0"],
         ["3", "0", "-2", "-1", "1", "0", "0", "0"], ["8", "1", "-3", "-3", "-1", "1", "0", "0"],
         ["10", "-6", "0", "0", "-1", "1", "1", "0"], ["-3", "-1", "-4", "-2", "3", "-2", "2", "1"]],
        [["1", "0", "0", "0", "0", "0", "0", "0"], ["-1", "1", "0", "0", "0", "0", "0", "0"],
         ["-4", "2", "1", "0", "0", "0", "0", "0"], ["5", "-3", "-2", "1", "0", "0", "0", "0"],
         ["1", "-2", "2", "-1", "1", "0", "0", "0"], ["-12", "3", "5", "-1", "-1", "1", "0", "0"],
         ["-6", "6", "2", "0", "-3", "1", "1", "0"], ["-1", "-1", "4", "0", "-5", "2", "2", "1"]],
    ],
    "bench1-diag5": [_diagonal("-3", "11", "5", "-7", "2"), _diagonal("-2", "2", "3", "1", "-1")],
}
for _name, _gens in BENCH_RATIONAL.items():
    INLINE_DOCUMENTS[_name] = (_gens, [])
    INLINE_DOCUMENTS[f"{_name}-p53"] = (_gens, ["--precision", "53"])


def _document_args(fixture_files, tmp_path, name) -> list[str]:
    """The analyze arguments of a fixture, or of an inline document written to tmp_path."""
    if name not in INLINE_DOCUMENTS:
        return [fixture_files[name]]
    gens, extra = INLINE_DOCUMENTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"field": "real", "dimension": len(gens[0]), "generators": gens}))
    return [str(path), *extra]


# seconds a command run as a subprocess may take: a stalled command fails its
# test, instead of holding the whole run
TIMEOUT = 120


def run_cli(args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "lindyn.cli", *args], capture_output=True, text=True,
        cwd=cwd, env=lindyn_env(), timeout=TIMEOUT,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestAnalyze:
    def test_report_contents(self, fixture_files, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", fixture_files["shear3"], "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        fam = rep["invariant_family"]
        assert fam["count"] == 1
        sub = fam["subspaces"][0]
        assert sub["dimension"] == 2
        assert [e["exact"] for e in sub["functionals"][0]] == ["1", "0", "0"]
        assert rep["invariant_tree"]["depth"] <= 3
        assert rep["commutativity"]["abelian"] is True
        # membership sections for the declared points
        by_name = {p["name"]: p for p in rep["points"]}
        assert by_name["closed"]["membership"]["in_U"] is True
        assert by_name["hyperplane"]["membership"]["containing"] == [0]

    def test_byte_determinism(self, fixture_files, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", fixture_files["radical4"], "--output", str(a)]) == 0
        assert main(["analyze", fixture_files["radical4"], "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
    def test_golden_report_digest(self, fixture_files, tmp_path, name):
        out = tmp_path / "report.json"
        assert main(["analyze", *_document_args(fixture_files, tmp_path, name),
                     "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256[name]

    # every fixture, and every inline document run at the 128-bit default
    @pytest.mark.parametrize("name", sorted(FIXTURE_NAMES) + sorted(
        name for name, (_, extra) in INLINE_DOCUMENTS.items() if not extra))
    def test_exact_report_independent_of_precision(self, fixture_files, tmp_path, name):
        # a report whose blocks are all exact reads the same at 53 and 128
        # bits apart from config.precision; the commutator residual of
        # jordan-real4-1 used to be rounding noise that differed between them
        reports = []
        for precision in ("53", "128"):
            out = tmp_path / f"report-{precision}.json"
            assert main(["analyze", *_document_args(fixture_files, tmp_path, name),
                         "--precision", precision, "--output", str(out)]) == 0
            report = json.loads(out.read_text())
            assert all(block["exact"] for block in report["spectral_blocks"])
            assert report["config"].pop("precision") == int(precision)
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["commutativity"] == {"abelian": True, "max_residual": "0"}

    def test_report_round_trip(self, fixture_files, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", fixture_files["cshear5"], "--output", str(out)])
        text = out.read_text()
        rep = json.loads(text)
        assert json.dumps(rep, indent=2) + "\n" == text

    def test_dumps_report_matches_json(self):
        # the golden reports' bytes are pinned by their digests, recorded
        # with json.dumps; this report has every leaf and key kind json knows
        report = {
            "quotes \"and\" \\backslashes\\": ["\x00\x07\x1f\x7f\t\r\n", "éü 雪 \U0001f600"],
            "empty": [[], {}, "", [[]], {"": {}}],
            "literals": [True, False, None, 0, -1, 2**80, (1, "tuple")],
            "floats": [1.5, -0.0, 1e300, float("inf"), float("nan")],
            "": {"nested": {"deeper": [{"a": 1}, [2, [3]]]}},
            1: "int key", None: "None key", 2.5: "float key", False: "bool key",
        }
        assert dumps_report(report) == json.dumps(report, indent=2) + "\n"
        with pytest.raises(TypeError, match="not tuple"):
            dumps_report({(1,): 0})

    def test_non_string_generator_names(self, tmp_path):
        # names are taken from the input unchecked and key the eigenvalue and
        # diagonal sections; json writes such keys as "1", "null", "1.5",
        # "false".  Digest recorded with json.dumps(report, indent=2), and
        # re-recorded, with the golden digests, when the tree became units.
        names = [1, None, 1.5, False]
        rows = [[["1", "1"], ["0", "1"]], [["2", "0"], ["0", "2"]]]
        doc = {"field": "real", "dimension": 2,
               "generators": [{"name": nm, "rows": rows[i % 2]} for i, nm in enumerate(names)]}
        path = tmp_path / "names.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["analyze", str(path)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8d931f2971e6dac315726c50dc6a480396d4cdfe65165204fd65771eaf577f93"
        )

    def test_all_fixture_reports_fast(self, fixture_files, tmp_path):
        import time

        for name, path in fixture_files.items():
            t0 = time.time()
            assert main(["analyze", path, "--output", str(tmp_path / "x.json")]) == 0
            assert time.time() - t0 < 1.0

    def test_not_abelian_exit_code(self, tmp_path):
        doc = {
            "field": "real",
            "dimension": 2,
            "generators": [
                {"name": "A", "rows": [["1", "1"], ["0", "1"]]},
                {"name": "B", "rows": [["1", "0"], ["1", "1"]]},
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(["analyze", str(p)])
        assert code == 2
        assert "commute" in err

    def test_numeric_failure_is_an_error_line(self, tmp_path, capsys):
        # first random.Random(2) family: its 128-bit refinement used to end in
        # an uncaught ZeroDivisionError from the numeric least-squares solve
        rng = random.Random(2)
        G = random_commuting_family(rng, rng.randint(3, 6))
        doc = {
            "field": G.field,
            "dimension": G.dimension,
            "generators": [[[str(e) for e in row] for row in g.entries()] for g in G.generators],
        }
        p = tmp_path / "randpoly.json"
        p.write_text(json.dumps(doc))
        assert main(["analyze", str(p), "--precision", "128"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_uncertified_spectrum_above_53_bits_names_the_precision(self, tmp_path, capsys):
        # eigenvalues +-sqrt(2) are outside the field of the rational entries:
        # only a numeric split decomposes this family, and it runs at 53 bits
        p = tmp_path / "sqrt2.json"
        p.write_text(json.dumps({"field": "real", "dimension": 2,
                                 "generators": [[["0", "2"], ["1", "0"]]]}))
        assert main(["analyze", str(p), "--precision", "128"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "--precision 53" in captured.err
        assert main(["analyze", str(p), "--precision", "53"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", sorted(SPLIT_DEFECTIVE))
    def test_split_defective_cluster_recognized_at_53_bits(self, tmp_path, capsys, name):
        # At 53 bits the defective 2-dimensional real block of these Jordan
        # families scatters into two nearby eigenvalues.  They were once split
        # numerically, giving 3 subspaces whose basis has condition above 1e9,
        # and the family was refused with exit 3.  A larger clustering radius
        # merges them into one recognised, certified eigenvalue, so the 53-bit
        # family is the exact one of the 128-bit default.
        rows = SPLIT_DEFECTIVE[name]
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"field": "real", "dimension": 4, "generators": rows}))
        families = []
        for precision in ("53", "128"):
            report = tmp_path / f"report{precision}.json"
            assert main(["analyze", str(p), "--precision", precision, "--output", str(report)]) == 0
            assert capsys.readouterr().err == ""
            families.append(json.loads(report.read_text())["invariant_family"])
        fam = families[1]
        assert families[0] == fam
        assert [s["case"] for s in fam["subspaces"]] == ["real-conjugate-pair", "real-hyperplane"]
        assert all(e["exact"] is not None for s in fam["subspaces"]
                   for row in s["functionals"] for e in row)

    def test_point_length_checked(self, tmp_path, capsys):
        # a short point used to be read as a truncated vector: in_U true on shear3
        doc = json.loads((FIXTURES / "shear3.json").read_text())
        doc["points"] = {"short": ["1", "1"]}
        p = tmp_path / "short.json"
        p.write_text(json.dumps(doc))
        assert main(["analyze", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: point short has 2 coordinates, expected 3\n"

    def test_max_exponent_below_first_box(self, fixture_files, capsys):
        # an exponent bound below the first box is an error line, and so is
        # every other numeric option out of range: --precision below 53 used
        # to be echoed into the report, and a tolerance of 0 was accepted
        for args, err in [
            (["--classify-points", "--max-exponent", "4"], "error: max exponent 4"),
            # without --classify-points the bound used to go unchecked into
            # the report's config
            (["--max-exponent", "-5"], "error: max exponent -5 is below the first box 8\n"),
            (["--precision", "0"], "error: precision 0 is below 53 bits\n"),
            (["--tol", "0"], "error: --tol must be positive, got 0\n"),
            (["--gap-threshold", "-0.5"], "error: --gap-threshold must be positive, got -0.5\n"),
        ]:
            assert main(["analyze", fixture_files["shear3"], *args]) == 1
            out, got = capsys.readouterr()
            assert out == "" and got.startswith(err)

    def test_non_finite_tolerances(self, fixture_files, capsys):
        # an infinite tolerance or gap threshold is an error line: --tol inf
        # used to be written into the report's config as "inf", and
        # --gap-threshold inf called the closed orbit of (1, 1, 0)
        # DENSE_IN_AFFINE; NaN was already refused as not positive
        commands = [["analyze", fixture_files["shear3"]],
                    ["orbit", fixture_files["shear3"], "--point", "1,1,0"],
                    ["verify-examples"]]
        for command in commands:
            for flag in ("--tol", "--gap-threshold"):
                for value, err in [("inf", f"error: {flag} must be finite, got inf\n"),
                                   ("nan", f"error: {flag} must be positive, got nan\n")]:
                    assert main([*command, flag, value]) == 1
                    assert capsys.readouterr() == ("", err)

    def test_unusable_generator_names(self, tmp_path, capsys):
        # a name must key the report's eigenvalue and diagonal sections: an
        # array ended analyze in a TypeError traceback, and two names that
        # json writes as one key wrote that key twice, so a JSON reader kept
        # only one of the two generators' values
        rows = [["1", "1"], ["0", "1"]], [["2", "0"], ["0", "2"]]
        for names, err in [
            ([[1], "B"], "generator name [1] is not a string, a number, a boolean or null"),
            (["A", {"a": 1}],
             'generator name {"a": 1} is not a string, a number, a boolean or null'),
            ([1, "1"], 'generator names 1 and "1" are both written as the key "1"'),
            (["null", None], 'generator names "null" and null are both written as the key "null"'),
            ([1.5, "1.5"], 'generator names 1.5 and "1.5" are both written as the key "1.5"'),
            ([False, "false"],
             'generator names false and "false" are both written as the key "false"'),
        ]:
            doc = {"field": "real", "dimension": 2,
                   "generators": [{"name": nm, "rows": r} for nm, r in zip(names, rows)]}
            p = tmp_path / "names.json"
            p.write_text(json.dumps(doc))
            assert main(["analyze", str(p)]) == 1
            assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_malformed_document_rejected(self, tmp_path, capsys):
        # each used to end in a traceback or a wrong message: dimension 0 in an
        # AttributeError from the report, a top-level array in a TypeError,
        # "points": 5 in an AttributeError, a bare coordinate in a TypeError
        # from len, no generators in "shape mismatch" from triangularize,
        # generators, rows, a row, an entry or a coordinate of the wrong JSON
        # type in a TypeError; and a repeated name dropped the first A's
        # eigenvalues from the report.  A dimension of null or [3] ended in a
        # TypeError, 2.5 was read as 2 and true as 1.  An entry or coordinate
        # of 1e400 or +-Infinity ended in an OverflowError traceback, NaN in
        # "cannot convert NaN to integer ratio", and a generator object
        # without rows in "error: 'rows'"
        shear3 = json.loads((FIXTURES / "shear3.json").read_text())
        diag = [{"name": "A", "rows": [["2", "0"], ["0", "3"]]},
                {"name": "A", "rows": [["5", "0"], ["0", "7"]]}]
        real2 = {"field": "real", "dimension": 2}
        # nested past the recursion limit, each of these ended in a RecursionError
        deep = "(" * 3000 + "1" + ")" * 3000
        minuses = "-" * 3000 + "1"
        for doc, err in [
            ({"field": "real", "dimension": 0, "generators": [[]]},
             "dimension must be at least 1, got 0"),
            ([shear3], "input is not a JSON object"),
            ({**shear3, "points": 5}, "points must be a list or an object"),
            ({**shear3, "points": {"p": 7}}, "point p is not a list of coordinates"),
            ({"field": "real", "dimension": 2, "generators": []},
             "a group needs at least one generator"),
            ({"field": "real", "dimension": 2, "generators": diag},
             "duplicate generator name 'A'"),
            ({**real2, "generators": 5}, "generators must be a list"),
            ({**real2, "generators": [{"name": "A", "rows": 5}]},
             "generator A is not a list of rows"),
            ({**real2, "generators": [[5, ["1", "1"]]]},
             "a row of generator g0 is not a list of entries"),
            ({**real2, "generators": [[["1", None], ["1", "1"]]]},
             "a row of generator g0 has null among its entries"),
            ({**shear3, "points": {"p": ["1", None, "0"]}},
             "point p has null among its coordinates"),
            ({**shear3, "dimension": None}, "dimension null is not an integer"),
            ({**shear3, "dimension": [3]}, "dimension [3] is not an integer"),
            ({**shear3, "dimension": 2.5}, "dimension 2.5 is not an integer"),
            ({**shear3, "dimension": True}, "dimension true is not an integer"),
            ({**shear3, "dimension": "3.0"}, 'dimension "3.0" is not an integer'),
            ({**shear3, "dimension": "0"}, "dimension must be at least 1, got 0"),
            ({**shear3, "dimension": "-2"}, "dimension must be at least 1, got -2"),
            ('{"field": "real", "dimension": 1, "generators": [[[1e400]]]}',
             "a row of generator g0 has Infinity among its entries"),
            ({**real2, "generators": [[["1", "0"], [float("-inf"), "1"]]]},
             "a row of generator g0 has -Infinity among its entries"),
            ({**real2, "generators": [[["1", float("nan")], ["0", "1"]]]},
             "a row of generator g0 has NaN among its entries"),
            ({**shear3, "points": {"p": ["1", float("inf"), "0"]}},
             "point p has Infinity among its coordinates"),
            ({**shear3, "points": [["1", "0", float("nan")]]},
             "point p0 has NaN among its coordinates"),
            ({**real2, "generators": [{"name": "A"}]}, "generator A has no rows"),
            # bool is an int subclass: true was read as the entry 1
            ({"field": "real", "dimension": 1, "generators": [[[True]]], "points": [["1"]]},
             "a row of generator g0 has true among its entries"),
            ({"field": "real", "dimension": 1, "generators": [[["1"]]], "points": [[False]]},
             "point p0 has false among its coordinates"),
            ({"field": "real", "dimension": 1, "generators": [[[deep]]]},
             f"expression {deep!r} is nested too deeply"),
            ({"field": "real", "dimension": 1, "generators": [[[minuses]]]},
             f"expression {minuses!r} is nested too deeply"),
            ({"field": "real", "dimension": 1, "generators": [[["1"]]], "points": [[deep]]},
             f"expression {deep!r} is nested too deeply"),
            ('{"field": "real", "dimension": 1, "generators": ' + "[" * 100000 + "]" * 100000 + "}",
             "input is nested too deeply to read as JSON"),
        ]:
            p = tmp_path / "bad.json"
            p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            assert main(["analyze", str(p)]) == 1
            assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_entry_past_the_double_range(self, tmp_path):
        # 3*2^1100 ended in an OverflowError traceback from Scalar.to_complex:
        # the entry in the double-precision eigenvalue proposal, the
        # coordinate in the orbit's float64 frame.  10^308 sqrt(5) has a
        # rational part below the largest double and was read as inf: the
        # entry ended in numpy's "Array must not contain infs or NaNs", and
        # the point's orbit in an empty cloud
        for big in (str(3 * 2**1100), f"{10**308}*sqrt(5)"):
            for doc, args in [
                ({"field": "real", "dimension": 2, "generators": [[["0", big], ["1", "0"]]]}, []),
                ({"field": "real", "dimension": 2, "generators": [[["1", "0"], ["1", "1"]]],
                  "points": {"p": ["1", big]}}, ["--classify-points"]),
            ]:
                p = tmp_path / "big.json"
                p.write_text(json.dumps(doc))
                code, out, err = run_cli(["analyze", str(p), *args])
                assert (code, out, err) == (1, "", f"error: {big} lies past the double range\n")

    def test_entry_whose_terms_pass_the_double_range(self, tmp_path):
        # about 5.04e307 and 4.1e307: each term has no double, the value has
        # one, and was refused as past the double range or read as nan.  The
        # entry's eigenvalues are not certified at 128 bits; the point's
        # orbit lies above the cloud's overflow limit
        e = 10**308
        for big in (f"{e}*sqrt(5) - {e}*sqrt(3)", f"{e}*sqrt(7) - {e}*sqrt(5)"):
            for doc, args, expected in [
                ({"field": "real", "dimension": 2, "generators": [[["0", big], ["1", "0"]]]}, [],
                 (1, "error: no exact spectrum of a block is certified at precision 128, and "
                     "numeric splitting runs only at 53 bits; try --precision 53\n")),
                ({"field": "real", "dimension": 2, "generators": [[["1", "0"], ["1", "1"]]],
                  "points": {"p": ["1", big]}}, ["--classify-points"], (0, "")),
            ]:
                p = tmp_path / "big.json"
                p.write_text(json.dumps(doc))
                code, out, err = run_cli(["analyze", str(p), *args])
                assert (code, err) == expected, big
                if code == 0:
                    [section] = json.loads(out)["points"]
                    assert section["closure"]["kind"] == "INCONCLUSIVE"

    def test_entry_whose_powers_pass_the_double_range(self, tmp_path, capsys):
        # at 53 bits the nilpotency test squares the block past the double
        # range; numpy's overflow warnings came before the error line
        big = f"{10**308}*sqrt(2)"
        p = tmp_path / "big.json"
        p.write_text(json.dumps(
            {"field": "real", "dimension": 2, "generators": [[["0", big], ["1", "0"]]]}))
        assert main(["analyze", "--precision", "53", str(p)]) == 3
        assert capsys.readouterr() == (
            "", "error: numeric eigenvalue clusters cannot be certified\n")

    def test_dimension_as_a_string(self, tmp_path, capsys):
        # a decimal integer string is read as that integer
        shear3 = json.loads((FIXTURES / "shear3.json").read_text())
        p = tmp_path / "doc.json"
        outputs = []
        for dimension in (3, "3"):
            p.write_text(json.dumps({**shear3, "dimension": dimension}))
            assert main(["analyze", str(p)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out

    def test_diagonal_ten_lattice(self, tmp_path):
        # 2^10 invariant subspaces, counted from the units; rendered chain by
        # chain the tree had 109,601 nodes in 33 MB at n=8
        n = 10
        gens = [[[str(i + 2) if i == j else "0" for j in range(n)] for i in range(n)],
                [[str(i % 2 + 1) if i == j else "0" for j in range(n)] for i in range(n)]]
        p, out = tmp_path / "diag10.json", tmp_path / "report.json"
        p.write_text(json.dumps({"field": "real", "dimension": n, "generators": gens}))
        assert main(["analyze", str(p), "--output", str(out)]) == 0
        assert out.stat().st_size < 2**20
        tree = json.loads(out.read_text())["invariant_tree"]
        assert tree["depth"] == n and tree["node_count"] == 2**n

    @pytest.mark.parametrize("n, bound", [(14, 2**20), (24, 2**21)])
    def test_diagonal_lattice_scales(self, tmp_path, n, bound):
        # the tree is written as its n units, not its 2^n nodes: listed node
        # by node, it made the n=14 report 12.2 MB, and the n=24 command was
        # killed for its memory
        gens = [[[str(i + 2) if i == j else "0" for j in range(n)] for i in range(n)],
                [[str(i % 2 + 1) if i == j else "0" for j in range(n)] for i in range(n)]]
        p, out = tmp_path / "diag.json", tmp_path / "report.json"
        p.write_text(json.dumps({"field": "real", "dimension": n, "generators": gens}))
        assert main(["analyze", str(p), "--output", str(out)]) == 0
        assert out.stat().st_size < bound
        tree = json.loads(out.read_text())["invariant_tree"]
        assert tree["depth"] == n and tree["node_count"] == 2**n
        assert tree["units"] == [{"subspace": k, "case": "real-hyperplane", "width": 1,
                                  "codim": 1} for k in range(n)]

    def test_n1_report(self, tmp_path):
        # the one subspace of an n = 1 group, the origin, names block 0: the
        # report lists that block and its triangular form
        for field, entry, shown, case in (("real", "2", "2", "real-hyperplane"),
                                          ("real", "-sqrt(2)", "-sqrt(2)", "real-hyperplane"),
                                          ("complex", "1+i", "1 + i", "complex-hyperplane")):
            doc = {"field": field, "dimension": 1,
                   "generators": [{"name": "A", "rows": [[entry]]}], "points": [["0"], ["1"]]}
            p = tmp_path / "one.json"
            p.write_text(json.dumps(doc))
            code, out, _ = run_cli(["analyze", str(p)])
            assert code == 0
            rep = json.loads(out)
            assert rep["invariant_tree"]["depth"] == 1
            (block,) = rep["spectral_blocks"]
            assert block["dimension"] == 1 and block["exact"] is True
            assert block["eigenvalues"]["A"]["exact"] == shown
            (form,) = rep["triangular_forms"]
            assert form["diagonal"]["A"]["exact"] == shown
            assert [[e["exact"] for e in row] for row in form["triangular"][0]] == [[shown]]
            (sub,) = rep["invariant_family"]["subspaces"]
            assert (sub["case"], sub["dimension"], sub["block"]) == (case, 0, 0)
            assert [pt["membership"]["containing"] for pt in rep["points"]] == [[0], []]


def _near_midpoint(c: int, e: int) -> Fraction:
    """a/b with a * 2^(54-e) - c * b = 1: within 1/(b 2^(54-e)) of the double
    midpoint c / 2^(54-e), closer than rounding to 80 + bitlen(a) bits can tell."""
    s = 54 - e
    b = -pow(c, -1, 1 << s) % (1 << s)
    return Fraction((c * b + 1) >> s, b)


class TestRenderValue:
    """A rational prints from float only where the double is provably the
    one ``evaluate(64)`` gives, which the mpmath oracle of it gives too."""

    @staticmethod
    def assert_as_evaluate(q: Fraction):
        x = Scalar.from_fraction(q)
        expected = complex(mp_evaluate(x, 64))
        assert repr(_scalar_approx(x)) == repr(expected), q
        assert render_value(x) == {"exact": str(x), "approx": _fmt_complex(expected)}

    def test_seeded_rationals(self):
        rng = random.Random(57721)
        fast = slow = 0
        for _ in range(3000):
            b = rng.randint(1, 2 ** rng.randint(1, 200))
            # bitlen(a) - bitlen(b) on both sides of -24
            width = max(0, b.bit_length() + rng.randint(-40, 30))
            a = rng.getrandbits(width) | (1 << width >> 1)
            q = Fraction(rng.choice([-1, 1]) * a, b)
            if q.denominator.bit_length() <= q.numerator.bit_length() + 24:
                fast += 1
            else:
                slow += 1
            self.assert_as_evaluate(q)
        assert fast > 1000 and slow > 500

    def test_edges(self):
        for q in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-7, 2**60),
                  Fraction(1, 2**24), Fraction(1, 2**25), Fraction(3, 2**25), Fraction(1, 2**26),
                  Fraction(2**1000 + 1, 3), Fraction(-(2**1100), 7)):
            self.assert_as_evaluate(q)
        # dyadic ties between two doubles round to even; the others are a
        # quarter and just over a half of the spacing above 1
        for q, nearest in ((Fraction(2**53 + 1, 2**53), 1.0),
                           (Fraction(2**53 + 3, 2**53), 1 + 2.0**-51),
                           (Fraction(-(2**53 + 1), 2**53), -1.0),
                           (Fraction(2**54 + 1, 2**54), 1.0),
                           (Fraction(2**80 + 2**27 + 1, 2**80), 1 + 2.0**-52)):
            assert float(q) == nearest
            self.assert_as_evaluate(q)

    def test_fallback_where_float_differs(self):
        # beyond the bit-length condition a rational can round to a double
        # other than evaluate(64)'s; it must keep evaluate
        differs = 0
        for c in range(2**53 + 1, 2**53 + 41, 2):
            q = _near_midpoint(c, -40)
            assert q.denominator.bit_length() > q.numerator.bit_length() + 24
            differs += complex(float(q)) != complex(mp_evaluate(Scalar.from_fraction(q), 64))
            self.assert_as_evaluate(q)
        assert differs > 5


class TestOrbit:
    def test_discrete_point(self, fixture_files, capsys):
        code = main(["orbit", fixture_files["shear3"], "--point", "1,1,0",
                     "--max-exponent", "64"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["membership"]["in_U"] is True
        assert out["closure"]["kind"] == "DISCRETE"

    def test_dense_point(self, fixture_files, capsys):
        code = main(["orbit", fixture_files["shear3"], "--point", "1,sqrt(2),0",
                     "--max-exponent", "512"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closure"]["kind"] == "DENSE_IN_AFFINE"
        assert out["closure"]["hull_dim"] == 1

    def test_hyperplane_point(self, fixture_files, capsys):
        code = main(["orbit", fixture_files["shear3"], "--point", "0,1,0",
                     "--max-exponent", "32"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["membership"]["in_U"] is False
        assert out["membership"]["containing"] == [0]

    def test_dimension_mismatch(self, fixture_files):
        code, _, err = run_cli(["orbit", fixture_files["shear3"], "--point", "1,2"])
        assert code == 1
        assert "coordinates" in err

    def test_empty_point_field_rejected(self, fixture_files, capsys):
        # "1,,1,0" once passed the length check as (1, 1, 0)
        for point in ["1,,1,0", "1,1,0,", " ,1,1", "1, ,0"]:
            code = main(["orbit", fixture_files["shear3"], "--point", point])
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            assert err == f"error: point {point!r} has an empty coordinate\n"

    def test_max_exponent_below_first_box(self, fixture_files):
        # an exponent bound below the first box is an error line, and so is
        # every other numeric option out of range: --tol -1 used to turn this
        # point's DENSE_IN_AFFINE verdict into DISCRETE
        for args, err in [
            (["--max-exponent", "7"], "error: max exponent 7"),
            (["--tol", "-1"], "error: --tol must be positive, got -1\n"),
            (["--tol", "nan"], "error: --tol must be positive, got nan\n"),
            (["--gap-threshold", "0"], "error: --gap-threshold must be positive, got 0\n"),
            (["--precision", "52"], "error: precision 52 is below 53 bits\n"),
        ]:
            code, out, got = run_cli(["orbit", fixture_files["shear3"], "--point", "1,sqrt(2),0",
                                      *args])
            assert code == 1 and out == ""
            assert got.startswith(err) and "Traceback" not in got

    @pytest.mark.parametrize("command", [["analyze"], ["orbit", "--point", "1,sqrt(2),0"]])
    def test_max_exponent_checked_before_any_family(self, fixture_files, capsys, monkeypatch,
                                                    command):
        def no_family(*args, **kwargs):
            raise AssertionError("an invariant family was computed")

        monkeypatch.setattr("lindyn.cli.invariant_family", no_family)
        monkeypatch.setattr("lindyn.cli.invariant_tree", no_family)
        code = main([command[0], fixture_files["shear3"], *command[1:], "--max-exponent", "7"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: max exponent 7 is below the first box 8\n")

    def test_dump_points(self, fixture_files, tmp_path, capsys):
        dump = tmp_path / "cloud.csv"
        code = main(["orbit", fixture_files["shear3"], "--point", "1,1,0",
                     "--max-exponent", "16", "--dump-points", str(dump)])
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,x2"
        out = json.loads(capsys.readouterr().out)
        assert len(lines) - 1 == out["dump"]["points"]

    @pytest.mark.parametrize("name, point, digest", [
        # a real orbit (16,641 points) and a complex one (20,673 points)
        ("shear3", "1,sqrt(2),0",
         "35bf7c3d9d1c56f364173da766526b5273574c56b454920f8f33856cfc318621"),
        ("cshear5", "1 + i,2 + i,1 + 2*i,0,0",
         "5de9593e3ceb262982e9ae4b3d82a8248564018b85b6f870fb0923d897e88630"),
    ])
    def test_dump_points_bytes(self, fixture_files, tmp_path, capsys, name, point, digest):
        # sha256 of the CSV as each coordinate was once formatted one by one
        # with f"{x:.17g}"; --dump-points must write the same bytes
        dump = tmp_path / "cloud.csv"
        code = main(["orbit", fixture_files[name], "--point", point,
                     "--max-exponent", "64", "--dump-points", str(dump)])
        assert code == 0
        capsys.readouterr()
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("point, max_exponent", [
        ("1,1,0", "64"),  # DISCRETE, stable at K = 32
        ("1,sqrt(2),0", "16"),  # not stable by the last box
    ])
    def test_dump_points_enumerates_each_box_once(self, fixture_files, tmp_path, capsys,
                                                  monkeypatch, point, max_exponent):
        # the dump is the search's last cloud, not the last box enumerated again
        import lindyn.cli
        import lindyn.dynamics

        boxes = []
        original = lindyn.dynamics.enumerate_orbit

        def counting(G, u, K, *args, **kwargs):
            boxes.append(K)
            return original(G, u, K, *args, **kwargs)

        for module in (lindyn.cli, lindyn.dynamics):
            if getattr(module, "enumerate_orbit", None) is original:
                monkeypatch.setattr(module, "enumerate_orbit", counting)
        dump = tmp_path / "cloud.csv"
        code = main(["orbit", fixture_files["shear3"], "--point", point,
                     "--max-exponent", max_exponent, "--dump-points", str(dump)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        K = out["closure"]["exponent_bound"]
        assert boxes == [FIRST_BOX << j for j in range((K // FIRST_BOX).bit_length())]
        assert len(dump.read_text().splitlines()) - 1 == out["dump"]["points"]


class TestStalledOrbits:
    """Orbits whose search for an exact nearest pair below the DISCRETE floor once
    stalled: each now finishes, with the sampled verdict below and no separation.
    None of these verdicts contradicts the exact closure."""

    def _closures(self, tmp_path, gens, args, points=None, field="real"):
        doc = {"field": field, "dimension": len(gens[0]), "generators": gens}
        if points is not None:
            doc["points"] = points
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([args[0], str(path), *args[1:]])
        assert code == 0, err
        rep = json.loads(out)
        closures = [p["closure"] for p in rep["points"]] if "points" in rep else [rep["closure"]]
        return [(c["kind"], c["hull_dim"], c["min_distance"]) for c in closures]

    def test_unit_times_unipotent(self, tmp_path):
        # A = 2(I + N), B = (I + sqrt(2) N)/2 with N = E_21: the orbit of (1, 0)
        # is closed in U, a lattice in the coordinates (log2 x, y/x)
        gens = [[["2", "0"], ["2", "2"]], [["1/2", "0"], ["sqrt(2)/2", "1/2"]]]
        got = self._closures(tmp_path, gens, ["orbit", "--point", "1,0"])
        assert got == [("INCONCLUSIVE", 2, None)]

    @pytest.mark.parametrize("bound", [["--max-exponent", "64"], []])
    def test_hyperbolic_pair(self, tmp_path, bound):
        # the closure of the orbit of (1, 1) is the branch xy = 1, x > 0; the
        # DISCRETE read at --max-exponent 32 is a known defect, and not pinned
        gens = [[["2", "0"], ["0", "1/2"]], [["3", "0"], ["0", "1/3"]]]
        got = self._closures(tmp_path, gens, ["orbit", "--point", "1,1", *bound])
        assert got == [("INCONCLUSIVE", 2, None)]

    def test_three_diagonal_generators(self, tmp_path):
        # (sqrt(2), 0) lies on an invariant axis, and (sqrt(3), 3) in U
        gens = [[["3 + 2*sqrt(2)", "0"], ["0", "1/2 + sqrt(2)"]], [["5", "0"], ["0", "3"]],
                [["3", "0"], ["0", "1"]]]
        points = {"axis": ["sqrt(2)", "0"], "open": ["sqrt(3)", "3"]}
        args = ["analyze", "--classify-points", "--max-exponent", "32"]
        got = self._closures(tmp_path, gens, args, points)
        assert got == [("INCONCLUSIVE", 1, None), ("INCONCLUSIVE", 2, None)]

    def test_rotation_scaling_and_halving(self, tmp_path):
        # z -> 2(3 + 4i)/5 z and z -> z/2: the closure of the orbit of 1 is every
        # circle of radius 2^k, k in Z, and the origin
        gens = [[["2*(3 + 4*i)/5"]], [["1/2"]]]
        got = self._closures(tmp_path, gens, ["orbit", "--point", "1"], field="complex")
        assert got == [("INCONCLUSIVE", 2, None)]


# the whole stdout of `verify-examples --dense-exponent 256`, one line per
# claim in the order it runs them
VERIFY_EXAMPLES_256 = """\
PASS shear3.structure: 1 invariant subspace(s), dims [2], tree depth 3
PASS shear3.closed-orbit[closed]: exact CLOSED, sampled DISCRETE at K=32
PASS shear3.dense-line[dense_line]: exact DENSE; sampled DENSE_IN_AFFINE(1) at K=256, max gap 0.00505
PASS shear4.structure: 1 invariant subspace(s), dims [3], tree depth 4
PASS shear4.closed-orbit[closed]: exact CLOSED, sampled DISCRETE at K=32
PASS shear4.dense-line[dense_line]: exact DENSE; sampled DENSE_IN_AFFINE(1) at K=256, max gap 0.00505
PASS cshear5.structure: 1 invariant subspace(s), dims [4], tree depth 5
PASS cshear5.closed-orbit[closed]: exact CLOSED, sampled DISCRETE at K=32
PASS cshear5.dense-plane[dense_plane]: exact DENSE, sampled DENSE_IN_AFFINE(2) at K=256
PASS radical4.structure: 1 invariant subspace(s), dims [3], tree depth 4
PASS radical4.closure-minus-orbit: residual 6.25e-06 after 8 improvements; \
limit is rationally independent of the increments, so it is not attained
PASS radical4.unbounded-sequence: max entry along the sequence 5396
PASS radical4.bounded-restriction: hull dim 2, restricted sup max-entry 1.828427 <= 2.733051
PASS radical4.inverse-recurrence: tail max of ||B^-1 v - u|| is 5.53e-05
14/14 claims passed
"""


class TestWithoutScipy:
    # numpy is the only runtime dependency: with scipy and mpmath made
    # unimportable, the cshear5 closed orbit (whose separation comes from
    # two moving coordinates), verify-examples and the analysis of every
    # fixture at 53 and 128 bits print what they print here
    SCRIPT = ("import sys\n"
              "sys.modules['scipy'] = None  # an import of scipy raises ImportError\n"
              "sys.modules['mpmath'] = None\n"
              "from lindyn.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.parametrize("args", [
        ["orbit", str(FIXTURES / "cshear5.json"), "--point", "1+i,2+i,1+2*i,0,0"],
        ["verify-examples"],
        ["analyze", str(FIXTURES / "cshear5.json"), "--classify-points"],
        *(["analyze", str(FIXTURES / f"{name}.json"), "--precision", precision]
          for name in FIXTURE_NAMES for precision in ("53", "128")),
    ])
    def test_same_stdout_without_scipy(self, args, capsys):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *args], capture_output=True,
                              text=True, env=lindyn_env(), timeout=TIMEOUT)
        assert proc.returncode == 0, proc.stderr
        assert main(args) == 0
        assert proc.stdout == capsys.readouterr().out

    # imports the modules the benchmark's workload process imports, then
    # exits 1 if the module named by argv[1] was imported on the way
    BENCHMARK_IMPORTS = ("import sys\n"
                         "import lindyn, lindyn.cli, lindyn.density, lindyn.dynamics, lindyn.groups\n"
                         "import lindyn.invariants, lindyn.linalg, lindyn.numeric, lindyn.report\n"
                         "import lindyn.scalars, lindyn.spectral\n"
                         "sys.exit(sys.argv[1] in sys.modules)\n")

    def _benchmark_imports_leave_out(self, module: str) -> None:
        proc = subprocess.run([sys.executable, "-c", self.BENCHMARK_IMPORTS, module],
                              capture_output=True, text=True, env=lindyn_env(),
                              timeout=TIMEOUT)
        assert proc.returncode == 0, proc.stderr

    def test_benchmark_modules_import_no_mpmath(self):
        self._benchmark_imports_leave_out("mpmath")

    def test_benchmark_modules_import_no_dataclasses(self):
        # lindyn's records are plain classes, so importing it generates no code
        self._benchmark_imports_leave_out("dataclasses")


class TestLazyNumpy:
    # lindyn binds numpy lazily (lindyn._numpy): a run that reads no numpy
    # attribute never executes numpy's import.  This script runs cli.main on
    # argv[1:] and then writes to stderr whether numpy was executed, which
    # imports its submodules (numpy._core on numpy 2, numpy.core on 1.x)
    SCRIPT = ("import sys\n"
              "from lindyn.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "sys.stderr.write(f\"{any(k.startswith('numpy.') for k in sys.modules)}\\n\")\n"
              "sys.exit(code)\n")

    def _run(self, script: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                              text=True, env=lindyn_env(), timeout=TIMEOUT)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_exact_analyze_never_loads_numpy(self, name, capsys):
        proc = self._run(self.SCRIPT, "analyze", str(FIXTURES / f"{name}.json"))
        assert (proc.returncode, proc.stderr) == (0, "False\n")
        assert main(["analyze", str(FIXTURES / f"{name}.json")]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_orbit_loads_numpy(self):
        proc = self._run(self.SCRIPT, "orbit", str(FIXTURES / "shear3.json"),
                         "--point", "1,sqrt(2),0")
        assert (proc.returncode, proc.stderr) == (0, "True\n")
        # the stdout of the same command when every module imported numpy at once
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "f30b9c84c97162a3863b53e5378abaf01eb50b699ec9d9ea0bf2899cc6a988ef")

    def test_unimportable_numpy_fails_the_import(self):
        proc = self._run("import sys\n"
                         "sys.modules['numpy'] = None  # an import of numpy raises ImportError\n"
                         "import lindyn\n")
        assert proc.returncode == 1
        error = proc.stderr.splitlines()[-1]
        assert error.startswith("ModuleNotFoundError: ") and "numpy" in error, proc.stderr

    def test_numpy_imported_first_is_the_one_used(self):
        proc = self._run("import sys\n"
                         "import numpy\n"
                         "import lindyn.numeric\n"
                         "sys.exit(lindyn.numeric.np is not numpy)\n")
        assert proc.returncode == 0, proc.stderr


class TestVerifyExamples:
    def test_all_claims_pass_fast_config(self, tmp_path):
        # lighter exponent bound; the full-strength run lives in acceptance.
        # Run outside the checkout: the fixtures are found from the package.
        code, out, err = run_cli(["verify-examples", "--dense-exponent", "256"], cwd=tmp_path)
        assert code == 0 and err == "", out + err
        assert out == VERIFY_EXAMPLES_256

    def test_bad_option_is_an_error_line(self, capsys):
        # --dense-exponent 0 used to mean the default, and -1 ended in numpy's
        # "negative dimensions are not allowed"
        for args, err in [
            (["--dense-exponent", "0"], "error: dense exponent 0 is below 1\n"),
            (["--dense-exponent", "-1"], "error: dense exponent -1 is below 1\n"),
            (["--tol", "0"], "error: --tol must be positive, got 0\n"),
            (["--precision", "8"], "error: precision 8 is below 53 bits\n"),
        ]:
            assert main(["verify-examples", *args]) == 1
            assert capsys.readouterr() == ("", err)

    def test_radical_fixture_forms_shared_values_once(self, monkeypatch):
        # the structure and recurrence claims read one invariant family, and
        # the four approach claims one approach; each family is formed from
        # one simultaneous refinement
        from lindyn import invariants, verify

        calls = {"family": 0, "approach": 0}
        refine, approach = invariants.simultaneous_refinement, verify._approach_words

        def counting_refine(G, ctx):
            calls["family"] += 1
            return refine(G, ctx)

        def counting_approach(G, points):
            calls["approach"] += 1
            return approach(G, points)

        monkeypatch.setattr(invariants, "simultaneous_refinement", counting_refine)
        monkeypatch.setattr(verify, "_approach_words", counting_approach)
        G, points = load_input(str(FIXTURES / "radical4.json"))
        results = verify.verify_fixture("radical4", G, points, NumericContext(precision=128),
                                        ClosureConfig(), None)
        assert [r.ok for r in results] == [True] * 5
        assert calls == {"family": 1, "approach": 1}

    def test_altered_radical_fixture_detected(self):
        # replacing the radical limit by a rational breaks the independence
        # certificate; the harness must flag it rather than pass silently
        G, points = fixture_by_name("radical4")
        altered = {**points, "limit": as_vector(["1", "1", "0", "3/2"])}
        res = _closure_minus_orbit_claim(
            Fixture("radical4", G, altered, NumericContext(), ClosureConfig(), None))
        assert not res.ok
        assert "altered expected verdict" in res.detail

    def test_altered_complex_fixture_detected(self):
        # an irrational coordinate makes a hull translation irrational, which
        # voids the closed-orbit certificate
        G, points = fixture_by_name("cshear5")
        altered = {**points, "closed": as_vector(["1+i", "sqrt(2)+i", "1+2*i", "0", "0"])}
        res = _closed_orbit_claim(Fixture("cshear5", G, altered, NumericContext(), ClosureConfig(), None))
        assert not res.ok
        assert "precondition violated: the hull translations are not rational" in res.detail
        # a real first coordinate keeps the translations (1, 0), (2, 1) and
        # (1, 2) rational, and the orbit closed; it used to be refused
        closed = {**points, "closed": as_vector(["1", "2+i", "1+2*i", "0", "0"])}
        res = _closed_orbit_claim(Fixture("cshear5", G, closed, NumericContext(), ClosureConfig(), None))
        assert res.ok, res.detail
