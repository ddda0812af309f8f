import json
import os
import runpy
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


def test_expand_rejects_a_space_inside_a_number(capsys):
    """Spaces are dropped between tokens only: "1 2" is not the constant 12."""
    code, out, err = run(capsys, "expand", "1 2", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse '1 2' at '1 2'")


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


def test_order_ceiling_is_20000(capsys):
    # the boundary test above moves the ceiling; this one pins its value
    expected = "error: order must be at most 20000, got 20001\n"
    assert run(capsys, "expand", "plain", "20001") == (2, "", expected)


# each subcommand's output without an order equals its output at the default
DEFAULT_ORDERS = {
    "verify": (["verify", "plain"], ["200"]),
    "remark-check": (["remark-check", "--format", "json"], ["120"]),
    # mode all, since an even-mode b-file at order 201 equals the one at 200
    "bfile-export": (["bfile-export", "plain", "--mode", "all"], ["--order", "200"]),
    "bfile-compare": (["bfile-compare", str(FIXTURES / "b000065.txt"), "plain"],
                      ["--order", "200"]),
}


@pytest.mark.parametrize("command", DEFAULT_ORDERS)
def test_default_order(capsys, command):
    argv, order = DEFAULT_ORDERS[command]
    assert run(capsys, *argv) == run(capsys, *argv, *order)


@pytest.mark.parametrize("command", ["verify", "bfile-export", "bfile-compare"])
def test_default_order_is_one_constant(capsys, monkeypatch, command):
    """The three commands that default to 200 all read cli.DEFAULT_ORDER."""
    monkeypatch.setattr(cli, "DEFAULT_ORDER", 37)
    argv, order = DEFAULT_ORDERS[command]
    assert run(capsys, *argv) == run(capsys, *argv, *order[:-1], "37")


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


@pytest.mark.parametrize("token", ["ALL", " all", "All ", " a ll ", "\tAll\n"])
def test_verify_all_token_read_like_a_family_token(capsys, token):
    assert run(capsys, "verify", token, "40") == run(capsys, "verify", "all", "40")


@pytest.mark.parametrize("token", ["a_ll", "al-l"])
def test_verify_all_token_takes_no_underscore_or_hyphen(capsys, token):
    """_ reads as -, as in a family token, and no family is spelled a-ll."""
    assert run(capsys, "verify", token, "40") == (
        2,
        "",
        f"error: unknown family {token!r} (expected one of: "
        "plain, distinct, odd, odd-distinct, mod3, mod6)\n",
    )


@pytest.mark.parametrize(
    "spaced, plain",
    [(["verify", " mod 3 ", "10"], ["verify", "mod3", "10"]),
     (["bfile-export", "odd - distinct", "--order", "12"],
      ["bfile-export", "odd-distinct", "--order", "12"])],
    ids=["verify", "bfile-export"],
)
def test_every_command_reads_a_family_token_by_one_rule(capsys, spaced, plain):
    """Case, spaces and _ are ignored alike by every command, not only by expand."""
    expected = run(capsys, *plain)
    assert expected[0] == 0 and run(capsys, *spaced) == expected


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


def test_table_counts_by_enumeration_alone(capsys, refuse):
    refuse(partitions_module, "count_upto")
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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_remark_check_rejects_partial_coverage(capsys, fmt):
    """Too low an order covers only some published terms: an error, not a verdict."""
    code, out, err = run(capsys, "remark-check", "10", "--format", fmt)
    assert code == 2 and out == ""
    assert err == (
        "error: order 10 leaves published terms uncovered; "
        "every term is covered from order 56 on\n"
    )
    # the stated order is the least one the command serves
    assert [run(capsys, "remark-check", order)[0] for order in ("55", "56")] == [2, 0]


def test_remark_check_refuses_before_any_work(capsys, refuse):
    refuse(seqcompare, "remark_comparisons")
    assert run(capsys, "remark-check", "55") == (
        2, "", "error: order 55 leaves published terms uncovered; "
        "every term is covered from order 56 on\n",
    )
    with pytest.raises(AssertionError, match=r"remark_comparisons\(56\) called"):
        main(["remark-check", "56"])


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


def test_bfile_with_a_latin1_comment(capsys, tmp_path):
    """A comment saved as Latin-1 changes nothing; a term line holding such
    a byte exits 2 naming its line, not a byte offset."""
    original = FIXTURES / "b000065.txt"
    path = tmp_path / original.name
    path.write_bytes(b"# by J\xf6rg\n" + original.read_bytes())
    expected = run(capsys, "bfile-compare", str(original), "plain", "--order", "60")
    assert expected[0] == 0
    assert run(capsys, "bfile-compare", str(path), "plain", "--order", "60") == expected
    path.write_bytes(b"0 1\n1 1\xf6\n")
    code, out, err = run(capsys, "bfile-compare", str(path), "plain", "--order", "60")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: malformed b-file line")


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


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-conversion limit"
)
def test_bfile_compare_names_the_line_of_a_term_past_the_int_limit(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("# comment\n0 1\n1 " + "9" * (sys.get_int_max_str_digits() + 1) + "\n")
    code, out, err = run(capsys, "bfile-compare", str(path), "plain")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3: ")


def test_genfun_cli_consistency(capsys):
    """The expand subcommand must show exactly genfun_series' coefficients."""
    _, out, _ = run(capsys, "expand", "mod6", "30")
    series = genfun_series(Family.MOD6, 30)
    for line in out.splitlines():
        n, value = line.split()
        assert series.coefficient(int(n)) == int(value)


def test_module_entry_point_matches_main(capsys):
    """``python -m echopart`` and ``python -m echopart.cli`` exit and print as
    cli.main does."""
    src = str(Path(echopart.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["verify", "plain", "10"]
    code, out, _ = run(capsys, *argv)
    for module in ("echopart", "echopart.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert (proc.returncode, proc.stdout) == (code, out), module


def test_package_main_runs_in_process(capsys, monkeypatch):
    """The same ``python -m echopart`` run in this process, where coverage sees it."""
    argv = ["verify", "plain", "10"]
    monkeypatch.setattr(sys, "argv", ["echopart", *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("echopart", run_name="__main__")
    out = capsys.readouterr().out
    assert (exit_info.value.code, out) == run(capsys, *argv)[:2]
