import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import echopart
from echopart import Family, direct_counts_upto, genfun_series
from echopart import cli, seqcompare
from echopart import families as families_module
from echopart import partitions as partitions_module
from echopart.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "cli_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text(capsys):
    code, out, err = run(capsys, "expand", "plain", "10")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "0 0"
    assert "4 1" in lines
    assert "8 4" in lines
    assert len(lines) == 11


def test_expand_tiny_order(capsys):
    code, out, _ = run(capsys, "expand", "plain", "2")
    assert code == 0
    assert out == "0 0\n1 0\n2 0\n"


def test_expand_mod3_22(capsys):
    code, out, _ = run(capsys, "expand", "mod3", "22")
    assert code == 0
    assert out.splitlines()[-1] == "22 4"


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "distinct", "6", "--format", "csv")
    assert code == 0
    assert out == "n,value\n0,0\n1,0\n2,0\n3,0\n4,0\n5,0\n6,1\n"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "odd", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "name": "odd",
        "order": 8,
        "coefficients": [[0, 0], [1, 0], [2, 0], [3, 0], [4, 1], [5, 0], [6, 1], [7, 0], [8, 2]],
    }


@pytest.mark.parametrize(
    "expression, order",
    [
        ("Odd_Distinct", 12),       # family token, mixed case with _
        (" MOD 3 ", 12),            # family token with spaces, padded
        ("odd - distinct", 12),
        ("1/(q^2;q^2) - 1/(1-q^2)", 12),  # an expression with inner spaces
        ("plain", 0),
        ("(q;q)", 0),
        ("(q;q)", 30),              # negative coefficients
        ("-(q;q) + 1/(-q,-q^3;q)", 30),
        ("mod6", 2000),
        ("1/(-q,-q^3;q^2)", 2000),
    ],
)
def test_expand_json_is_the_encoders_text(capsys, expression, order):
    """expand writes its JSON itself; it must be json.dumps(..., indent=2)'s
    text byte for byte, with the coefficients read from the csv output."""
    code, out, _ = run(capsys, "expand", expression, str(order), "--format", "csv")
    assert code == 0
    rows = [list(map(int, line.split(","))) for line in out.splitlines()[1:]]
    payload = {"name": expression.strip(), "order": order, "coefficients": rows}
    expected = json.dumps(payload, indent=2) + "\n"
    assert run(capsys, "expand", expression, str(order), "--format", "json") == (0, expected, "")


def test_expand_qexpressions(capsys):
    code, out, _ = run(capsys, "expand", "1/(q;q)", "6")
    assert code == 0
    assert out == "0 1\n1 1\n2 2\n3 3\n4 5\n5 7\n6 11\n"

    code, out, _ = run(capsys, "expand", "(-q^2,-q^4;q^6)", "8")
    assert code == 0
    assert out.splitlines()[-1] == "8 1"

    code, out, _ = run(capsys, "expand", "q^2/(1-q^4)", "8")
    assert code == 0
    assert out == "0 0\n1 0\n2 1\n3 0\n4 0\n5 0\n6 1\n7 0\n8 0\n"


def test_expand_rejects_garbage(capsys):
    code, out, err = run(capsys, "expand", "totally(bogus", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse")


@pytest.mark.parametrize("text", ["(-1;q)", "(q,,q^2;q)", "(2q;q)", "(q^;q)"])
def test_expand_rejects_a_bad_factor(capsys, text):
    code, out, err = run(capsys, "expand", text, "5")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot parse {text!r} at {text!r}")


def test_expand_rejects_negative_order(capsys):
    code, _, err = run(capsys, "expand", "plain", "-3")
    assert code == 2
    assert "non-negative" in err


def test_expand_output_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "expand", "plain", "4", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "0 0\n1 0\n2 0\n3 0\n4 1\n"
    for fmt in ("text", "csv", "json"):
        argv = ["expand", "mod3", "12", "--format", fmt]
        _, out, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode("utf-8")


def test_expand_expression_starting_with_minus(capsys):
    assert run(capsys, "expand", "--", "-(q;q)", "3") == (0, "0 -1\n1 1\n2 1\n3 0\n", "")
    with pytest.raises(SystemExit):
        main(["expand", "--help"])
    assert "put -- before one that starts with -" in " ".join(capsys.readouterr().out.split())


ORDER_ARGVS = [
    ["expand", "plain", "{}"],
    ["verify", "plain", "{}"],
    ["remark-check", "{}"],
    ["bfile-export", "plain", "--order", "{}"],
    ["bfile-compare", str(FIXTURES / "b000065.txt"), "plain", "--order", "{}"],
]


@pytest.mark.parametrize("argv", ORDER_ARGVS, ids=lambda argv: argv[0])
def test_order_above_the_ceiling_is_rejected_at_once(capsys, argv):
    order = 10**12
    assert order > cli.MAX_ORDER
    expected = f"error: order must be at most {cli.MAX_ORDER}, got {order}\n"
    assert run(capsys, *(a.format(order) for a in argv)) == (2, "", expected)


@pytest.mark.parametrize("argv", ORDER_ARGVS, ids=lambda argv: argv[0])
def test_order_ceiling_boundary(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "MAX_ORDER", 120)
    assert run(capsys, *(a.format(121) for a in argv))[0] == 2
    assert run(capsys, *(a.format(120) for a in argv))[0] == 0


def test_verify_single_family(capsys):
    code, out, _ = run(capsys, "verify", "plain", "40")
    assert code == 0
    assert out == (
        "plain: order 40: all 41 coefficients agree\n"
        "RESULT: family agrees\n"
    )


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "40")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[-1] == "RESULT: all families agree"
    for family in Family:
        assert any(line.startswith(f"{family.value}:") for line in lines)


def test_verify_order_zero(capsys):
    code, out, _ = run(capsys, "verify", "plain", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["records"] == [{"n": 0, "genfun": 0, "direct": 0, "equal": True}]


def test_verify_json_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert [r["variant"] for r in payload["reports"]] == [f.value for f in Family]
    for report in payload["reports"]:
        assert list(report) == ["variant", "order", "records", "all_equal"]


def test_verify_exit_status_on_mismatch(capsys, monkeypatch):
    """Corrupting a recipe must flip the exit status and name the first bad n."""
    bad = families_module.RECIPES[Family.ODD] + " + q^9/(1-q^50)"
    monkeypatch.setitem(families_module.RECIPES, Family.ODD, bad)

    code, out, _ = run(capsys, "verify", "odd", "30")
    assert code == 1
    assert "first at n=9" in out
    assert "RESULT: 1 of 1 families disagree" in out

    code, out, _ = run(capsys, "verify", "all", "30")
    assert code == 1
    assert "RESULT: 1 of 6 families disagree" in out

    code, out, _ = run(capsys, "verify", "odd", "30", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_equal"] is False
    assert payload["records"][9] == {"n": 9, "genfun": 1, "direct": 0, "equal": False}


def test_verify_mismatch_line_is_pinned(capsys, monkeypatch):
    bad = families_module.RECIPES[Family.PLAIN] + " + q^7/(1-q^9)"
    monkeypatch.setitem(families_module.RECIPES, Family.PLAIN, bad)
    assert run(capsys, "verify", "plain", "30") == (
        1,
        "plain: order 30: 3 of 31 coefficients disagree, "
        "first at n=7 (genfun 1, direct 0)\n"
        "RESULT: 1 of 1 families disagree\n",
        "",
    )


def test_verify_unknown_family(capsys):
    code, _, err = run(capsys, "verify", "even", "10")
    assert code == 2
    assert err.startswith("error: unknown family")


def test_table_8(capsys):
    code, out, _ = run(capsys, "table", "8")
    assert code == 0
    lines = out.splitlines()
    def row(name):
        return next(line for line in lines if line.startswith(name))
    assert "4+3+1, 4+2+2, 4+2+1+1, 4+1+1+1+1" in row("plain")
    assert " 4  " in row("plain")
    assert row("distinct").rstrip().endswith("4+3+1")
    assert "4+3+1, 4+1+1+1+1" in row("odd ") or "4+3+1, 4+1+1+1+1" in row("odd  ")
    assert "4+3+1" in row("odd-distinct")
    assert "(none)" in row("mod3")
    assert "4+1+1+1+1" in row("mod6")
    assert lines[-1].startswith("note: for the odd-distinct family")
    # OEIS cross-references present
    assert "A000065" in row("plain")
    assert "A111133" in row("distinct")
    assert "A357456" in row("odd ") or "A357456" in row("odd  ")
    assert "A357457" in row("odd-distinct")


def test_table_counts_by_enumeration_alone(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("table ran the partition DP")

    monkeypatch.setattr(partitions_module, "count_upto", forbidden)
    golden = next(case for case in GOLDEN if case["argv"] == ["table", "8"])
    assert run(capsys, "table", "8") == (0, golden["stdout"], "")


def test_table_2_has_no_witnesses(capsys):
    code, out, _ = run(capsys, "table", "2")
    assert code == 0
    for family in Family:
        line = next(l for l in out.splitlines() if l.startswith(family.value))
        assert "(none)" in line
        assert "+" not in line.replace("+-", "")


def test_table_10_plain_row(capsys):
    code, out, _ = run(capsys, "table", "10")
    assert code == 0
    plain = next(l for l in out.splitlines() if l.startswith("plain"))
    assert "5+4+1" in plain
    assert plain.count("5+") == 6


def test_table_rejects_odd_n(capsys):
    code, _, err = run(capsys, "table", "9")
    assert code == 2
    assert "even" in err


def test_remark_check_text(capsys):
    code, out, _ = run(capsys, "remark-check", "120")
    assert code == 0
    assert "Sequence 1 (mod3)" in out
    assert "Sequence 2 (mod6)" in out
    assert out.count("verdict:") == 6
    # every term row shows reference and computed side by side
    assert "reference  computed" in out


def test_remark_check_output_is_pinned(capsys):
    code, out, err = run(capsys, "remark-check", "120")
    assert code == 0 and err == ""
    assert out == (FIXTURES / "remark_check_120.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_remark_check_rejects_partial_coverage(capsys, fmt):
    """Too low an order covers only some published terms: an error, not a verdict."""
    code, out, err = run(capsys, "remark-check", "10", "--format", fmt)
    assert code == 2 and out == ""
    assert "covers only 3 of the 25 terms of Sequence 1 (mod3) under H1" in err
    # the stated order is the least one that covers every term
    needed = int(err.split("from order ")[1].split()[0])
    assert run(capsys, "remark-check", str(needed))[0] == 0
    assert run(capsys, "remark-check", str(needed - 1))[0] == 2


def test_remark_check_json(capsys):
    code, out, _ = run(capsys, "remark-check", "120", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 120
    names = [c["name"] for c in payload["comparisons"]]
    assert names == ["Sequence 1 (mod3)", "Sequence 2 (mod6)"]
    for comparison in payload["comparisons"]:
        for hyp in comparison["hypotheses"]:
            assert hyp["verdict"].startswith(("full match", "partial match", "no match"))
            assert len(hyp["records"]) == 25
            for record in hyp["records"]:
                assert set(record) == {"position", "n", "reference", "computed", "match"}


def test_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "remark-check", "120", "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "table", "8")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_bfile_export_modes(capsys):
    code, out, _ = run(capsys, "bfile-export", "plain", "--order", "12", "--mode", "even")
    assert code == 0
    assert out == "0 0\n1 0\n2 1\n3 2\n4 4\n5 6\n6 10\n"

    code, out, _ = run(capsys, "bfile-export", "plain", "--order", "8", "--mode", "all")
    assert code == 0
    assert out == "0 0\n1 0\n2 0\n3 0\n4 1\n5 0\n6 2\n7 0\n8 4\n"

    code, out, _ = run(capsys, "bfile-export", "plain", "--order", "12", "--mode", "nonzero")
    assert code == 0
    assert out == "1 1\n2 2\n3 4\n4 6\n5 10\n"


def test_bfile_export_nonzero_empty_errors(capsys):
    code, _, err = run(capsys, "bfile-export", "plain", "--order", "2", "--mode", "nonzero")
    assert code == 2
    assert "no nonzero coefficients" in err


def test_bfile_round_trip_through_cli(capsys, tmp_path):
    path = tmp_path / "b.txt"
    code, _, _ = run(capsys, "bfile-export", "odd", "--order", "60", "--mode", "even",
                     "--output", str(path))
    assert code == 0
    expected = direct_counts_upto(Family.ODD, 60)

    code, out, _ = run(capsys, "bfile-compare", str(path), "odd", "--order", "60")
    assert code == 0
    assert "H1" in out and "full match" in out

    code, out, _ = run(capsys, "bfile-compare", str(path), "odd", "--order", "60",
                       "--format", "json")
    payload = json.loads(out)
    h1 = payload["hypotheses"][0]
    assert h1["verdict"] == "full match"
    assert all(
        r["computed"] == expected[r["n"]] for r in h1["records"]
    )


@pytest.mark.parametrize("family", [f.value for f in Family])
@pytest.mark.parametrize("mode, label", [("even", "H1"), ("nonzero", "H2"), ("all", "H3")])
def test_every_export_mode_round_trips(capsys, tmp_path, family, mode, label):
    """bfile-compare reads each bfile-export mode back under its own hypothesis."""
    path = tmp_path / "b.txt"
    argv = ("bfile-export", family, "--order", "60", "--mode", mode, "--output", str(path))
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, "bfile-compare", str(path), family, "--order", "60",
                       "--format", "json")
    assert code == 0
    hyp = next(h for h in json.loads(out)["hypotheses"] if h["label"] == label)
    assert hyp["verdict"] == "full match"
    assert hyp["covered"] == hyp["total_terms"] == len(path.read_text().splitlines())


def test_bfile_with_byte_order_mark(capsys, tmp_path):
    """Windows editors often start a file with a UTF-8 byte-order mark."""
    original = FIXTURES / "b000065.txt"
    path = tmp_path / original.name
    path.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    assert seqcompare.read_bfile(path) == seqcompare.read_bfile(original)
    expected = run(capsys, "bfile-compare", str(original), "plain", "--order", "60")
    assert expected[0] == 0
    assert run(capsys, "bfile-compare", str(path), "plain", "--order", "60") == expected
    term_first = tmp_path / "terms.txt"
    term_first.write_bytes(b"\xef\xbb\xbf0 0\n1 0\n2 1\n")
    assert seqcompare.read_bfile(term_first) == seqcompare.BFile(0, (0, 0, 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["remark-check", "-1"],
        ["bfile-export", "plain", "--order", "-1"],
        ["bfile-compare", str(FIXTURES / "b000065.txt"), "plain", "--order", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_order_is_reported_as_order(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: order must be non-negative, got -1\n")


def test_bfile_compare_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "bfile-compare", str(tmp_path / "nope.txt"), "plain")
    assert code == 2
    assert err.startswith("error:")


def test_bfile_compare_malformed_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nbogus line\n")
    code, _, err = run(capsys, "bfile-compare", str(path), "plain")
    assert code == 2
    assert "line 2" in err


def test_genfun_cli_consistency(capsys):
    """The expand subcommand must show exactly genfun_series' coefficients."""
    _, out, _ = run(capsys, "expand", "mod6", "30")
    series = genfun_series(Family.MOD6, 30)
    for line in out.splitlines():
        n, value = line.split()
        assert series.coefficient(int(n)) == int(value)


def test_module_entry_point_matches_main(capsys):
    """``python -m echopart.cli`` exits and prints as cli.main does."""
    src = str(Path(echopart.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["verify", "plain", "10"]
    proc = subprocess.run(
        [sys.executable, "-m", "echopart.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)
