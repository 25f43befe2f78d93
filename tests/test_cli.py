import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from lemma35_reference import neutral_split, neutral_split_bruteforce

from gradednil import cli, nil, theorems, words
from gradednil.cli import main
from gradednil.grading import GradedRing, elementary_grading
from gradednil.monoid import Monoid
from gradednil.specfile import (
    SpecFileError,
    emit_graded,
    emit_spec,
    parse_spec_text,
)
from gradednil.ringcore import Ring, fp, rat
from gradednil.words import DegreeWord, ProductVerdict, small_gap_blocks
from gradednil.zoo import (
    grassmann_star,
    sut,
    truncated_nagata,
    truncated_poly_positive,
    two_z_2k,
)

SUT3 = sut(3, fp(2))


def test_roundtrip_sut3():
    text = emit_graded(SUT3)
    parsed = parse_spec_text(text)
    assert parsed.ring == SUT3.ring
    assert parsed.monoid == SUT3.monoid
    assert parsed.graded == SUT3


def test_roundtrip_grassmann_with_rule():
    gr = grassmann_star(2, fp(3))
    text = emit_graded(gr, fmap_mode="auto")
    parsed = parse_spec_text(text)
    assert parsed.graded == gr
    # the factor is derived when a check runs, under its pair cap
    assert text.endswith("\n[fmap]\nrule = auto\n")
    assert parsed.fmap is None


def test_roundtrip_two_z8_constant_fmap():
    r = two_z_2k(3)
    text = emit_spec(r, fmap_mode="constant 1")
    parsed = parse_spec_text(text)
    assert parsed.ring == r
    assert parsed.fmap.is_constant() and parsed.fmap.value == 1


def test_roundtrip_truncated_poly():
    gr = truncated_poly_positive(4, fp(2))
    parsed = parse_spec_text(emit_graded(gr))
    assert parsed.graded == gr
    assert parsed.monoid.kind == "int-add"


def test_parse_reports_line_numbers():
    with pytest.raises(SpecFileError) as err:
        parse_spec_text("[ring]\ncoeff = fp 2\nrank = one\n")
    assert err.value.line == 3


def test_parse_rejects_corrupted_structure_constant():
    # E12*E13 = E12 breaks associativity with E23 on the right
    lines = emit_graded(SUT3).splitlines()
    idx = lines.index("sc = 0 2 1 1")
    lines.insert(idx, "sc = 0 1 0 1")
    with pytest.raises(Exception, match="triple|associative|grading"):
        parse_spec_text("\n".join(lines))


def test_parse_rejects_grading_violation():
    text = emit_graded(SUT3).replace("deg = 1 2 1", "deg = 1 2 2")
    with pytest.raises(Exception, match="grading axiom"):
        parse_spec_text(text)


def test_parse_unknown_section():
    with pytest.raises(SpecFileError, match="unknown sections"):
        parse_spec_text("[ringg]\ncoeff = fp 2\n")


def test_parse_rejects_unknown_key():
    # a misspelled key was ignored: names fell back to b0, b1
    with pytest.raises(SpecFileError, match="unknown key 'nmaes' in \\[ring\\]") as err:
        parse_spec_text("[ring]\ncoeff = fp 2\nrank = 2\nnmaes = a b\n")
    assert err.value.line == 4
    for section, key in [("monoid", "sise"), ("grading", "degs"), ("fmap", "constnat")]:
        with pytest.raises(SpecFileError, match=f"unknown key '{key}' in \\[{section}\\]"):
            parse_spec_text(f"[ring]\ncoeff = fp 2\nrank = 0\n[{section}]\n{key} = 1\n")


def test_cli_analyze_rejects_unknown_key(tmp_path, capsys):
    # analyze exited 0 on this spec and named the basis b0, b1
    path = tmp_path / "nmaes.spec"
    path.write_text("[ring]\ncoeff = fp 2\nrank = 2\nnmaes = a b\n")
    assert main(["analyze", str(path)]) == 3
    assert capsys.readouterr().err == "error: line 4: unknown key 'nmaes' in [ring]\n"


def test_parse_rejects_repeated_key():
    # the last of two rank lines was read, silently
    with pytest.raises(SpecFileError, match="key 'rank' repeats line 3 of \\[ring\\]") as err:
        parse_spec_text("[ring]\ncoeff = fp 2\nrank = 2\nrank = 1\n")
    assert err.value.line == 4
    # a key given twice in a section given twice stops at the second header
    text = ("[monoid]\nkind = int-add\n[ring]\ncoeff = rat\nrank = 1\n"
            "[grading]\ndeg = 1\n[grading]\ndeg = 1\n")
    with pytest.raises(SpecFileError, match="section \\[grading\\] repeats line 6") as err:
        parse_spec_text(text)
    assert err.value.line == 8


def test_parse_rejects_repeated_structure_constant():
    # two sc lines for one (i, j, k) collapsed into one constant
    text = "[ring]\ncoeff = fp 2\nrank = 1\nsc = 0 0 0 1\nsc = 0 0 0 1\n"
    with pytest.raises(SpecFileError, match=r"sc \(0, 0, 0\) repeats line 4") as err:
        parse_spec_text(text)
    assert err.value.line == 5
    # distinct targets of one product are separate constants
    ring = parse_spec_text("[ring]\ncoeff = fp 2\nrank = 2\nsc = 0 0 1 1\nsc = 1 1 1 0\n").ring
    assert ring.sc[(0, 0)] == {1: 1}


def test_parse_rejects_repeated_pair():
    # a pair given twice, as written or after reduction mod 2, is an error;
    # the second line's scalar used to win
    pairs = ["0 ; 0 ; 1", "0 ; 1 ; 1", "1 ; 0 ; 1", "1 ; 1 ; 1"]
    head = "[ring]\ncoeff = fp 2\nrank = 1\n[fmap]\n"
    assert parse_spec_text(head + "".join(f"pair = {p}\n" for p in pairs)).fmap is not None
    for repeat in ["1 ; 1 ; 0", "3 ; 1 ; 1"]:
        text = head + "".join(f"pair = {p}\n" for p in pairs + [repeat])
        with pytest.raises(SpecFileError, match=r"pair \(\(1,\), \(1,\)\) repeats line 8") as err:
            parse_spec_text(text)
        assert err.value.line == 9


def test_parse_rejects_repeated_section():
    # a second [ring] merged into the first: this parsed as one ring named b
    text = "[ring]\ncoeff = fp 2\nrank = 1\n[ring]\nnames = b\n"
    with pytest.raises(SpecFileError, match="section \\[ring\\] repeats line 1") as err:
        parse_spec_text(text)
    assert err.value.line == 4


def test_parse_rejects_two_fmap_forms():
    # [fmap] read its constant and never looked at the rest: this parsed as
    # FMap(constant 1), the unknown rule and the malformed pair unread
    head = "[ring]\ncoeff = fp 2\nrank = 1\n[fmap]\n"
    text = head + "constant = 1\nrule = bogus\npair = 9 ; 9 ; 9 ; 9\n"
    with pytest.raises(SpecFileError, match="'rule' conflicts with 'constant' on line 5") as err:
        parse_spec_text(text)
    assert err.value.line == 6
    pairs = "".join(f"pair = {a} ; {b} ; 1\n" for a in (0, 1) for b in (0, 1))
    with pytest.raises(SpecFileError, match="'rule' conflicts with 'pair' on line 5") as err:
        parse_spec_text(head + pairs + "rule = auto\n")
    assert err.value.line == 9


def test_parse_rejects_int_add_with_a_table():
    # kind = int-add ignored the size and table lines after it
    ring = "[ring]\ncoeff = fp 2\nrank = 0\n"
    for extra, key, line in [("size = 2\ntable = 0 1 1 0\n", "size", 3),
                             ("table = 0 1 1 0\n", "table", 3)]:
        text = "[monoid]\nkind = int-add\n" + extra + ring
        with pytest.raises(SpecFileError, match=f"kind int-add on line 2 takes no '{key}'") as err:
            parse_spec_text(text)
        assert err.value.line == line


def test_cli_conflicting_sections_exit_3(tmp_path, capsys):
    ring = "[ring]\ncoeff = fp 2\nrank = 1\n"
    for name, text, message in [
        ("fmap2.spec", ring + "[fmap]\nconstant = 1\nrule = auto\n",
         "line 6: [fmap] takes one of constant, rule and pair lines: "
         "'rule' conflicts with 'constant' on line 5"),
        ("ring2.spec", ring + "[ring]\nnames = b\n", "line 4: section [ring] repeats line 1"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert main(["report", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_emitted_specs_still_parse():
    # every key emit_spec writes is one its section defines, given once, so
    # what it writes parses back and is written again to the byte
    cases = [(SUT3, None), (sut(4, rat()), "auto"), (truncated_poly_positive(4, fp(2)), None),
             (grassmann_star(2, fp(3)), "auto"), (elementary_grading(two_z_2k(2), 2), None),
             (two_z_2k(3), "constant 1"), (truncated_nagata(2, 3), None),
             (Ring(fp(2), [], {}), None)]
    for obj, mode in cases:
        if isinstance(obj, GradedRing):
            text = emit_graded(obj, fmap_mode=mode)
        else:
            text = emit_spec(obj, fmap_mode=mode)
        parsed = parse_spec_text(text)
        degrees = None if parsed.graded is None else parsed.graded.degrees
        assert emit_spec(parsed.ring, parsed.monoid, degrees, mode) == text


def test_parse_needs_ring():
    with pytest.raises(SpecFileError, match="missing"):
        parse_spec_text("[monoid]\nkind = int-add\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_verify_p303_sut5(tmp_path, capsys):
    path = _write(tmp_path, "sut5.spec", emit_graded(sut(5, fp(2))))
    code = main(["verify", "P3.03", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "bound: 5" in out and "observed: 5" in out


def test_cli_report_m2_two_z8(tmp_path, capsys):
    base = _write(tmp_path, "2z8.spec", emit_spec(two_z_2k(3)))
    code = main(["construct", "elementary", base, "--n", "2",
                 "--out", str(tmp_path / "m2.spec")])
    assert code == 0
    code = main(["report", str(tmp_path / "m2.spec"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    status = {c["id"]: c["status"] for c in data["checks"]}
    assert status["T3.18"] == "PASS"
    assert status["T3.20"] == "PASS"
    assert status["T3.26"] == "PASS"
    assert data["caps"] == {"pair_cap": 10**6} and "seed" not in data


def test_cli_report_nagata_23_exits_0(tmp_path, capsys):
    # T3.26 takes the diagonal nil index from the base ring (3^8 elements),
    # so no verdict is made on the diagonal component (3^16 elements); the
    # 2x2 matrices (3^32 elements) are certified past the element cap.
    spec = str(tmp_path / "n.spec")
    assert main(["zoo", "truncated-nagata", "--k", "2", "--p", "3", "--out", spec]) == 0
    code = main(["report", spec, "--json"])
    data = json.loads(capsys.readouterr().out)
    status = {c["id"]: c["status"] for c in data["checks"]}
    assert status["T3.29-REDUCTION"] == "PASS"
    assert code == 0
    # 6561^2 neutral pairs are past the pair cap: the note must say so rather
    # than suggest that no factor exists.
    assert ("no commutation factor derived: pair search capped: 6561^2 pairs "
            "of the neutral component exceed pair_cap 1000000") in data["notes"]


def test_cli_report_grassmann3_f5_lift_is_proved(tmp_path, capsys):
    # The constant factor 1 on the neutral component is proved on basis
    # pairs, and the diagonal is R x R, so the lift is proved with it, where
    # the 5^6 elements of the diagonal component once left a capped sample.
    # The generator count dim R/R^2 = 3 decides T3.19 and T3.20, where the
    # element-subset search once gave up.
    spec = str(tmp_path / "g3.spec")
    assert main(["zoo", "grassmann-star", "--k", "3", "--domain", "fp 5",
                 "--out", spec]) == 0
    code = main(["report", spec, "--json"])
    data = json.loads(capsys.readouterr().out)
    checks = {c["id"]: c for c in data["checks"]}
    assert {i: c["status"] for i, c in checks.items()} == {
        "C3.04": "NOT_APPLICABLE", "C3.28": "PASS", "P3.03": "NOT_APPLICABLE",
        "P3.17": "PASS", "P3.31": "PASS", "T3.15": "PASS", "T3.18": "PASS",
        "T3.19": "PASS", "T3.20": "PASS", "T3.24": "PASS", "T3.26": "PASS",
        "T3.29-REDUCTION": "PASS",
    }
    assert checks["T3.26"]["details"]["diagonal_lift"] == "PROVED"
    assert checks["T3.15"]["details"]["f_commutative"] == "PROVED"
    assert code == 0


def test_cli_report_refutes_a_supplied_constant_at_the_first_basis_pair(tmp_path, capsys):
    # strictly upper triangular 3x3 matrices over F_5, trivially graded:
    # E12*E23 = E13 but E23*E12 = 0, so the supplied constant 1 fails there
    text = ("[ring]\ncoeff = fp 5\nrank = 3\nnames = E12 E13 E23\nsc = 0 2 1 1\n"
            "[fmap]\nconstant = 1\n")
    assert main(["report", _write(tmp_path, "sut3c1.spec", text), "--json"]) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for cid, where in (("T3.15", "neutral component "), ("T3.19", ""),
                       ("T3.20", "neutral component "), ("T3.26", "")):
        assert checks[cid]["status"] == "NOT_APPLICABLE", cid
        assert checks[cid]["reason"] == f"{where}not f-commutative at (E12, E23)", cid


def test_cli_analyze_idempotent_exits_1(tmp_path, capsys):
    text = "[ring]\ncoeff = fp 2\nrank = 1\nnames = b\nsc = 0 0 0 1\n"
    path = _write(tmp_path, "idem.spec", text)
    code = main(["analyze", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "REFUTED" in out


D4_Z12_SPEC = (
    "[ring]\ncoeff = zmod 12\nrank = 6\nnames = A B A2 AB B2 V\n"
    + "".join(f"sc = {i} {j} {k} {c}\n" for i, j, k, c in [
        (0, 0, 2, 1), (0, 1, 3, 1), (1, 0, 3, 1), (1, 1, 4, 1),
        (0, 3, 5, 6), (3, 0, 5, 6), (1, 3, 5, 6), (3, 1, 5, 6),
        (0, 4, 5, 6), (4, 0, 5, 6), (1, 2, 5, 6), (2, 1, 5, 6)])
)


def test_cli_analyze_d4_ring_over_z12_prints_the_exact_index(tmp_path, capsys):
    # R^4 = 0, but x^3 = 0 for every x; the monomial expansion printed 4
    path = _write(tmp_path, "d4z12.spec", D4_Z12_SPEC)
    code = main(["analyze", path, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["nilpotency"].startswith("NilVerdict(PROVED, index=4")
    assert data["bounded_nil_index"] == (
        "NilVerdict(PROVED, index=3, symbolic expansion: x^2 != 0 at x = B)")


def _clear_parsers():
    cli.build_parser.cache_clear()


def test_cli_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # each parser is built once per process: calls through the cached ones
    # print and exit as calls through freshly built ones do, whatever the
    # subcommand
    path = _write(tmp_path, "d4z12.spec", D4_Z12_SPEC)
    argvs = [["analyze", path, "--json"], ["zoo", "sut", "--n", "3"],
             ["verify", "P3.17", path], ["analyze", path, "--samples", "0"],
             ["oracle", "lemma-3-5", "--cyclic", "2", "--supp", "1", "--r", "2",
              "--exhaustive"], ["analyze", path, "--bogus"]]

    def run(argv, fresh):
        if fresh:
            _clear_parsers()
        code = main(argv)
        return code, capsys.readouterr()

    fresh = [run(argv, True) for argv in argvs]
    assert [code for code, _ in fresh] == [0, 0, 0, 3, 0, 3]
    assert [run(argv, False) for argv in argvs] == fresh
    assert cli.build_parser() is cli.build_parser()
    assert cli._command_table("zoo") is cli._command_table("zoo")
    for _ in range(2):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: gradednil")
    # a wrapper put on a command after the parser is built is still called
    seen = []
    analyze = cli.cmd_analyze
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.file) or analyze(args))
    assert main(["analyze", path]) == 0
    assert seen == [path]


def test_cli_builds_only_the_invoked_commands_parser(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    _clear_parsers()
    # a well-formed call is parsed from the command table: no parser at all
    assert main(["analyze", path]) == 0
    assert built == []
    capsys.readouterr()
    # a usage error falls back to the full parser: itself and six subparsers
    assert main(["analyze", path, "--bogus"]) == 3
    assert len(built) == 1 + len(cli.COMMANDS)
    assert capsys.readouterr().err.startswith("usage: gradednil [-h] {analyze,")


def _parity_cases(spec):
    """Per command: valid arguments, -h, a missing positional, a non-integer
    cap, an unknown option, an extra positional and an option value that
    argparse reads as an option; then top-level cases."""
    valid = {
        "analyze": [spec, "--json"],
        "verify": ["P3.03", spec, "--classes", "0"],
        "report": [spec, "--seed", "5"],
        "oracle": ["lemma-3-5", "--cyclic", "2", "--supp", "1", "--r", "2", "--exhaustive"],
        "construct": ["elementary", spec, "--n", "3"],
        "zoo": ["sut", "--domain", "fp 3"],
    }
    missing = {"analyze": [], "verify": ["P3.03"], "report": ["--json"],
               "oracle": ["lemma-3-5", "--supp", "1"], "construct": ["elementary"],
               "zoo": []}
    bad_int = {"analyze": [spec, "--pair-cap", "5"],
               "verify": ["P3.03", spec, "--pair-cap", "1.5"],
               "report": [spec, "--pair-cap", "x"],
               "oracle": ["lemma-3-5", "--supp", "1", "--r", "two"],
               "construct": ["elementary", spec, "--n", "x"],
               "zoo": ["sut", "--k", "x"]}
    dash_value = {"analyze": [spec, "--seed", "-x"],
                  "verify": ["P3.03", spec, "--classes", "-x"],
                  "report": [spec, "--classes", "-x"],
                  "oracle": ["lemma-3-5", "--supp", "-x", "--r", "2"],
                  "construct": ["elementary", spec, "--out", "-x"],
                  "zoo": ["sut", "--domain", "-x"]}
    cases = []
    for name in cli.COMMANDS:
        cases += [[name, *valid[name]], [name, "-h"], [name, *missing[name]],
                  [name, *bad_int[name]], [name, *valid[name], "--bogus"],
                  [name, *valid[name], "extra"], [name, *dash_value[name]]]
    return cases + [["--help"], [], ["anal"], ["-x", "analyze", spec]]


def test_cli_command_parser_matches_the_full_parser(tmp_path, capsys, monkeypatch):
    # main parses a plain call from the command table alone; exit code,
    # stdout, stderr and Namespace are those of the full parser's parse
    spec = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    seen = []
    for name in cli.COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(args) or 0)
    codes = []
    for argv in _parity_cases(spec):
        _clear_parsers()
        seen.clear()
        code = main(list(argv))
        got = (code, capsys.readouterr(), [list(vars(a).items()) for a in seen])
        try:
            args = cli.build_parser().parse_args(list(argv))
            want = (0, capsys.readouterr(), [list(vars(args).items())])
        except SystemExit as exc:
            want = (exc.code, capsys.readouterr(), [])
        assert got == want, argv
        codes.append((code, len(seen)))
    # each command's valid case runs it; -h and --help exit 0 without
    # running one; every other case is a usage error
    assert codes == [(0, 1), (0, 0), (3, 0), (3, 0), (3, 0), (3, 0), (3, 0)] * len(cli.COMMANDS) + [
        (0, 0), (3, 0), (3, 0), (3, 0)]


# values a drawn argv gives an argument: "1" and each choice are well
# formed; argparse reads "-1" as a value but "-x" as an option, rejects "x"
# and "1.5" as ints and takes "" as a value
DRAWN_VALUES = ["1", "-1", "-x", "", "x", "1.5", "spec"]


# the ways a drawn argv departs from a well formed call; see command_lines
FAULTS = ["value", "abbreviate", "equals", "drop", "insert", "name"]


@st.composite
def command_lines(draw):
    """An argv built from one command's own tokens, with up to two faults.

    The well formed call has the command's positionals in order, with a
    drawn subset of its options spliced in (both members of a group
    included), each with a well formed value.  A fault replaces a value,
    abbreviates an option, writes it as --opt=value, drops a positional or
    option, inserts a token anywhere (-h, --help, --, an unknown option,
    one of its options again, an extra positional) or replaces the command
    name."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    table = cli._command_table(name)

    def good(arg):
        return "1" if arg.type is int else arg.choices[0] if arg.choices else "spec"

    units = [[good(arg)] for arg in table if arg.option is None]
    args = [arg for arg in table if arg.option is None]
    for arg in table:
        if arg.option is not None and (arg.required or draw(st.booleans())):
            at = draw(st.integers(0, len(units)))
            units.insert(at, [arg.option] if arg.flag else [arg.option, good(arg)])
            args.insert(at, arg)
    noise = ["-h", "--help", "--", "--bogus", "spec"] + [a.option for a in table if a.option]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        i = draw(st.integers(0, len(units) - 1)) if units else None
        if fault == "name":
            name = draw(st.sampled_from(["anal", "-h", "", "--json"]))
        elif fault == "insert":
            at = draw(st.integers(0, len(units)))
            units.insert(at, [draw(st.sampled_from(noise))])
            args.insert(at, None)
        elif i is None or args[i] is None:
            continue
        elif fault == "drop":
            del units[i], args[i]
        elif fault == "value":
            value = draw(st.sampled_from(DRAWN_VALUES + list(args[i].choices or ())))
            units[i] = [f"{units[i][0]}={value}"] if args[i].flag else [*units[i][:-1], value]
        elif args[i].option is None:
            continue
        elif fault == "abbreviate":
            units[i][0] = units[i][0][:draw(st.integers(2, len(args[i].option)))]
        elif len(units[i]) == 2:
            units[i] = ["=".join(units[i])]
    return [name, *(token for unit in units for token in unit)]


@given(argv=command_lines())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_plain_parse_matches_the_full_parser_on_drawn_argv(capsys, monkeypatch, argv):
    # on any argv main exits, prints and parses as the full parser does;
    # when the plain parse accepts an argv, the full parser accepts it too
    seen = []
    for name in cli.COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(args) or 0)
    capsys.readouterr()
    plain = cli._parse_plain(argv[0], argv[1:]) if argv[0] in cli.COMMANDS else None
    code = main(list(argv))
    got = (code, capsys.readouterr(), [list(vars(a).items()) for a in seen])
    try:
        args = cli.build_parser().parse_args(list(argv))
        want = (0, capsys.readouterr(), [list(vars(args).items())])
    except SystemExit as exc:
        want = (exc.code, capsys.readouterr(), [])
    assert got == want
    if plain is not None:
        assert want[2] == [list(vars(plain).items())]


def test_cli_command_table_rejects_what_it_does_not_model(monkeypatch):
    # an argument the plain parse would read otherwise than argparse fails
    # when its command's table is built, not at parse time; the last entry
    # is a positional inside a mutually exclusive group
    text, arguments = cli.COMMANDS["zoo"]
    for entry in [("--x", {"nargs": 2}), ("--x", {"action": "append"}),
                  ("--x", {"type": int, "default": "1"}), ("-x", {}),
                  ("x", {"required": True}), ("x", {"default": "a"}),
                  ("x", {"action": "store_true"}), [("x", {})]]:
        monkeypatch.setitem(cli.COMMANDS, "zoo", (text, [*arguments, entry]))
        cli._command_table.cache_clear()
        with pytest.raises(TypeError):
            cli._command_table("zoo")
    monkeypatch.undo()
    cli._command_table.cache_clear()
    assert len(cli._command_table("zoo")) == len(arguments)


def test_cli_command_table_matches_every_subparser():
    # the plain parse's table and the full parser are read from COMMANDS:
    # per command, the same arguments in the same order, with the same
    # option string, type, default, required, choices and exclusive group
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    assert list(subparsers) == list(cli.COMMANDS)
    for name, sub in subparsers.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        group_of = {id(a): i for i, g in enumerate(sub._mutually_exclusive_groups)
                    for a in g._group_actions}
        table = cli._command_table(name)
        assert [a.dest for a in actions] == [arg.dest for arg in table], name
        groups = {}
        for action, arg in zip(actions, table):
            assert action.option_strings == ([arg.option] if arg.option else []), arg
            assert action.type is arg.type, arg
            assert action.default == arg.default, arg
            assert action.required == (arg.required or arg.option is None), arg
            assert action.nargs == (0 if arg.flag else None), arg
            assert (None if action.choices is None else tuple(action.choices)) == arg.choices, arg
            # one exclusive group per table group, and no other
            assert (arg.group is None) == (id(action) not in group_of), arg
            if arg.group is not None:
                assert groups.setdefault(arg.group, group_of[id(action)]) == group_of[id(action)]
        assert len(set(groups.values())) == len(groups) == len(sub._mutually_exclusive_groups)


BENCH_LINES_SCRIPT = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
from gradednil import cli
at_import = (len(built), "locale" in sys.modules)
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS, generate_specs
exits = []
for wl in WORKLOADS.values():
    spec_dir = sys.argv[2] + "/" + wl.name
    generate_specs(cli.main, wl, spec_dir)
    for kind, label in wl.commands:
        with contextlib.redirect_stdout(io.StringIO()):
            exits.append(cli.main(wl.argv(kind, label, spec_dir, 1)))
print(json.dumps([at_import, len(built), "locale" in sys.modules, exits]))
"""


def test_cli_benchmark_command_lines_build_no_parser(tmp_path):
    # in a fresh process, importing the CLI and running every command line
    # of the benchmark workloads, spec generation included, constructs no
    # ArgumentParser and imports no locale (argparse's first gettext lookup
    # imports it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", BENCH_LINES_SCRIPT, perfbench, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    at_import, built, locale_imported, exits = json.loads(out.stdout.splitlines()[-1])
    assert at_import == [0, False]
    assert (built, locale_imported) == (0, False)
    assert exits and set(exits) == {0}


def test_cli_runs_each_non_nilpotent_search_once(tmp_path, capsys, monkeypatch):
    # M_3(F_2) graded by Z_3 is not nilpotent; its REFUTED witness is
    # expanded once per ring, not once per nilpotency_index call, and each
    # component of analyze's nil map once
    base = _write(tmp_path, "e.spec", "[ring]\ncoeff = fp 2\nrank = 1\nnames = e\nsc = 0 0 0 1\n")
    spec = str(tmp_path / "m3.spec")
    assert main(["construct", "elementary", base, "--n", "3", "--out", spec]) == 0
    searches = []
    search = nil._component_nil

    def counted(ring, positions):
        searches.append((ring, tuple(positions)))
        return search(ring, positions)

    monkeypatch.setattr(nil, "_component_nil", counted)
    assert main(["report", spec, "--json"]) == 0
    assert len(searches) == 1
    searches.clear()
    assert main(["analyze", spec, "--json"]) == 1
    capsys.readouterr()
    keys = [(id(ring), positions) for ring, positions in searches]
    assert len(keys) == len(set(keys))


def test_cli_analyze_sut3_json(tmp_path, capsys):
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    code = main(["analyze", path, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["support"] == ["1", "2"]
    assert data["components"] == {"1": 2, "2": 1}


def test_cli_input_error_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "bad.spec", "[ring]\ncoeff = fp 4\nrank = 1\n")
    code = main(["verify", "P3.03", path])
    assert code == 3
    path2 = str(tmp_path / "missing.spec")
    assert main(["analyze", path2]) == 3


def _non_associative_spec():
    lines = emit_graded(SUT3).splitlines()
    lines.insert(lines.index("sc = 0 2 1 1"), "sc = 0 1 0 1")
    return "\n".join(lines) + "\n"


def _non_cancellative_spec():
    ring = Ring(fp(2), ["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    return emit_spec(ring, Monoid.from_table([[0, 1], [1, 1]]), [0, 1])


@pytest.mark.parametrize("text,message", [
    (_non_associative_spec(), "error: not associative at basis triple (0, 0, 2): "
     "(b0*b0)*b2 = {} but b0*(b0*b2) = {0: 1}"),
    (emit_graded(SUT3).replace("deg = 1 2 1", "deg = 1 2 2"),
     "error: grading axiom fails at (0, 2, 1): product degree should be 3 but "
     "basis vector 1 has degree 2"),
    (_non_cancellative_spec(), "error: grading monoid is not left cancellative"),
], ids=["associativity", "grading-axiom", "cancellativity"])
def test_cli_spec_structure_checked_on_entry(tmp_path, capsys, text, message):
    path = _write(tmp_path, "bad.spec", text)
    assert main(["report", path]) == 3
    assert capsys.readouterr().err.strip() == message


def test_cli_report_checks_only_the_parsed_ring(tmp_path, capsys, monkeypatch):
    # Each structure is checked where it enters: the spec's ring once, and
    # nothing derived from it (neutral ring, M_2(R)).
    text = emit_graded(elementary_grading(two_z_2k(3), 2), fmap_mode="constant 1")
    path = _write(tmp_path, "m2z8.spec", text)
    parsed = parse_spec_text(text)
    checked = {"assoc": [], "axiom": []}

    def counted(cls, attr, key):
        original = getattr(cls, attr)

        def wrapper(self):
            checked[key].append(self)
            return original(self)

        monkeypatch.setattr(cls, attr, wrapper)

    counted(Ring, "_check_associativity", "assoc")
    counted(GradedRing, "_check_axiom", "axiom")
    assert main(["report", "--json", path]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]
    assert [r.sc for r in checked["assoc"]] == [parsed.ring.sc]
    assert [g.degrees for g in checked["axiom"]] == [parsed.graded.degrees]


def test_cli_fp_modulus_past_the_primality_bound_exits_3(tmp_path, capsys):
    # 2^89 - 1 is prime, but past the bound where Miller-Rabin is exact
    text = f"[ring]\ncoeff = fp {2**89 - 1}\nrank = 1\nnames = b\nsc = 0 0 0 0\n"
    path = _write(tmp_path, "big.spec", text)
    assert main(["analyze", path]) == 3
    assert "3317044064679887385961981" in capsys.readouterr().err


def test_cli_unknown_check_id(tmp_path):
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    assert main(["verify", "T9.99", path]) == 3


def test_cli_oracle_single_word(capsys):
    code = main([
        "oracle", "lemma-3-5", "--cyclic", "2", "--supp", "0,1",
        "--r", "2", "--word", "1,1,1,1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cuts=(0, 2, 4)" in out
    assert "disagreements: 0" in out


def test_cli_oracle_rejects_len(capsys):
    # the word length is always r*d, derived from --r and --supp
    code = main([
        "oracle", "lemma-3-5", "--cyclic", "3", "--supp", "0,1",
        "--r", "2", "--exhaustive", "--len", "4",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "--len" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("source, mode, message", [
    (["--cyclic", "2"], ["--word", ""], "word length must be r*d = 2"),
    (["--file", ""], ["--exhaustive"], "no such file: "),
], ids=["empty-word", "empty-file"])
def test_cli_oracle_empty_value_is_given_not_absent(capsys, source, mode, message):
    # an empty --word is a word of length 0 and an empty --file a path that
    # names no file; neither is taken for a missing option
    assert main(["oracle", "lemma-3-5", *source, "--supp", "1", "--r", "2", *mode]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("supp, word, message", [
    ("0,x", "0,1,2,1", "bad --supp"),
    ("0,1", "0,1,2,a", "bad --word"),
], ids=["supp", "word"])
def test_cli_oracle_rejects_a_letter_that_is_not_an_integer(capsys, supp, word, message):
    # the error names the option, not Python's int() message
    assert main(["oracle", "lemma-3-5", "--cyclic", "3", "--supp", supp, "--r", "2",
                 "--word", word]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_oracle_rejects_a_letter_that_is_not_an_element(capsys):
    # the word is checked as a DegreeWord before either kernel runs
    assert main(["oracle", "lemma-3-5", "--cyclic", "4", "--supp", "0,1,2,3", "--r", "2",
                 "--word", "0,1,2,7,0,0,0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: degree 7 is not a monoid element\n"
    assert captured.out == ""


@pytest.mark.parametrize("r", ["-1", "0", "1"])
@pytest.mark.parametrize("mode", [["--word", "0"], ["--exhaustive"]],
                         ids=["word", "exhaustive"])
def test_cli_oracle_rejects_r_below_2_first(capsys, r, mode):
    # the word length r*d is checked after r > 1, so the error names --r,
    # not a word length of -2
    code = main(["oracle", "lemma-3-5", "--cyclic", "3", "--supp", "0,1",
                 "--r", r, *mode])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == f"error: --r must be greater than 1, got {r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["report", "--bogus", "x"],
    ["report", "--pair-cap", "abc", "x.spec"],
    ["report", "--tuple-cap", "5", "x.spec"],
    ["analyze", "--elem-cap", "5", "x.spec"],
    ["analyze", "--power-cap", "5", "x.spec"],
    ["report", "--samples", "5", "x.spec"],
    ["analyze", "--pair-cap", "5", "x.spec"],
    ["verify", "P3.03", "--seed", "1", "x.spec"],
], ids=["unknown-option", "non-integer-cap", "removed-tuple-cap", "removed-elem-cap",
        "removed-power-cap", "removed-samples", "analyze-pair-cap", "verify-seed"])
def test_cli_usage_errors_exit_3(capsys, args):
    # exit 2 means a capped verdict, so argparse's own usage exit is not used
    assert main(args) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, env, named, commands", [
    (["--samples", "-3"], {}, "--samples", ("analyze", "verify", "report")),
    (["--samples", "0"], {}, "--samples", ("analyze", "verify", "report")),
    (["--pair-cap", "-1"], {}, "--pair-cap", ("verify", "report")),
    ([], {"GRADEDNIL_PAIR_CAP": "-1"}, "GRADEDNIL_PAIR_CAP", ("verify", "report")),
    ([], {"GRADEDNIL_PAIR_CAP": "x"}, "GRADEDNIL_PAIR_CAP", ("verify", "report")),
], ids=["samples-negative", "samples-zero", "pair-cap-negative", "env-pair-cap-negative",
        "env-pair-cap-not-integer"])
def test_cli_cap_out_of_range_exit_3(tmp_path, capsys, monkeypatch, flags, env, named,
                                     commands):
    # --samples is gone, so any value of it is a usage error on every
    # command; the pair cap is read by verify and report only
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argvs = {"analyze": ["analyze", path], "verify": ["verify", "P3.03", path],
             "report": ["report", path]}
    for cmd in (argvs[c] for c in commands):
        assert main(cmd + flags) == 3
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""


def test_cli_power_cap_environment_is_ignored(tmp_path, capsys, monkeypatch):
    # the power cap is gone, so its old variable is no longer read
    monkeypatch.setenv("GRADEDNIL_POWER_CAP", "abc")
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().err == ""


def test_cli_verify_t318_reads_a_chain_past_512(tmp_path, capsys):
    # two_z_2k(600) has nilpotency index 600; the whole chain is read
    path = str(tmp_path / "z600.spec")
    assert main(["zoo", "two-z-2k", "--k", "600", "--out", path]) == 0
    assert main(["verify", "T3.18", path, "--json"]) == 0
    check = json.loads(capsys.readouterr().out)
    assert (check["status"], check["bound"], check["observed"]) == ("PASS", [600, 600], 600)


def test_cli_pair_rule_checked_past_the_pair_cap(tmp_path, capsys):
    # a pointwise rule lists every pair, so it is checked on all of them
    # whatever --pair-cap says: nothing is sampled and nothing is CAPPED
    path = _write(tmp_path, "pairs.spec", PAIR_RULE_SPEC)
    for cap in (["--pair-cap", "0"], []):
        assert main(["verify", "T3.19", path, *cap]) == 0
        assert capsys.readouterr().out.startswith("T3.19: PASS\n")


def test_cli_zero_caps_mean_never_enumerate(tmp_path, capsys, monkeypatch):
    # a flag overrides the environment, and 0 is a legal pair cap; analyze
    # reads no cap, so the bad variable does not stop it
    monkeypatch.setenv("GRADEDNIL_PAIR_CAP", "-1")
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    code = main(["analyze", path, "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["nil"].startswith("NilVerdict(PROVED")
    assert main(["report", path, "--json", "--pair-cap", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["caps"] == {"pair_cap": 0}


def test_cli_oracle_exhaustive(capsys):
    code = main([
        "oracle", "lemma-3-5", "--cyclic", "3", "--supp", "0,1",
        "--r", "2", "--exhaustive",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "disagreements: 0" in out


def test_cli_oracle_into_a_closed_pipe_exits_141_quietly():
    # as in ``gradednil oracle ... --exhaustive | head -n 1``: the reader
    # takes a line and closes the pipe while the oracle still has about
    # 4 MB of its 65,537 lines to write; it stops with 141, what a shell
    # reports for a tool a closed pipe stops, and writes nothing to stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradednil.cli", "oracle", "lemma-3-5", "--cyclic", "4",
         "--supp", "0,1,2,3", "--r", "2", "--exhaustive"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first == b"word=[0, 0, 0, 0, 0, 0, 0, 0] cuts=(0, 1, 2) small-gap blocks=[1, 2]\n"
    assert err == b""


def _oracle_reference_stdout(monoid, supp, r):
    """``oracle --exhaustive`` output from a per-word loop over
    ``itertools.product``, calling both split functions on every word."""
    lines = []
    disagreements = 0
    for letters in itertools.product(range(monoid.size), repeat=r * len(supp)):
        letters = list(letters)
        w = DegreeWord(monoid, tuple(letters))
        got = neutral_split(w, r, supp)
        ref = neutral_split_bruteforce(w, r, supp)
        got_zero = got == ProductVerdict.FORCED_ZERO
        ref_zero = ref == ProductVerdict.FORCED_ZERO
        if got_zero != ref_zero or ref is None:
            disagreements += 1
            lines.append(f"DISAGREE word={letters} split={got} oracle={ref}")
        elif not got_zero:
            blocks = small_gap_blocks(got, len(supp))
            lines.append(f"word={letters} cuts={got.cuts} small-gap blocks={blocks}")
        else:
            lines.append(f"word={letters} FORCED_ZERO (both)")
    lines.append(f"disagreements: {disagreements}")
    return "\n".join(lines) + "\n"


def _assert_same_text(out, want):
    """``out == want`` byte for byte, trailing newline included; a mismatch
    names the first differing line and its index, where a diff of tens of
    thousands of lines would not finish."""
    if out == want:
        return
    pairs = itertools.zip_longest(out.splitlines(keepends=True), want.splitlines(keepends=True))
    i, (got, expected) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    pytest.fail(f"output differs first at line {i}: got {got!r}, want {expected!r}")


# r*d odd: the leading and trailing letter groups of the word texts differ
# in length.  Over Z_1 the one word of the longest length the walk takes,
# 62, prints its one line.
@pytest.mark.parametrize("n,supp,r", [(3, "0,1", 2), (4, "0,2", 3), (3, "0", 5),
                                      (3, "0,1,2", 3), (1, "0", 62)])
def test_cli_oracle_exhaustive_matches_per_word_loop(capsys, n, supp, r):
    code = main([
        "oracle", "lemma-3-5", "--cyclic", str(n), "--supp", supp,
        "--r", str(r), "--exhaustive",
    ])
    out = capsys.readouterr().out
    assert code == 0
    ids = {int(t) for t in supp.split(",")}
    _assert_same_text(out, _oracle_reference_stdout(Monoid.cyclic(n), ids, r))


def _s3_spec():
    """A spec holding the symmetric group S_3 as a table monoid;
    (p*q)(i) = p(q(i)), the identity first."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = "  ".join(
        " ".join(str(index[tuple(p[q[i]] for i in range(3))]) for q in perms)
        for p in perms
    )
    return (f"[monoid]\nkind = table\nsize = 6\ntable = {table}\n\n"
            "[ring]\ncoeff = fp 2\nrank = 1\nnames = b\n")


@functools.lru_cache(maxsize=None)
def _cached_reference_stdout(monoid, supp, r):
    return _oracle_reference_stdout(monoid, supp, r)


# (case, _BLOCK) -> words per block and the block count, one block per
# head.  Z_4 words of 6 letters and S_3 words of 6: 7 gives tails of two
# letters; Z_4 at 1000 and S_3 at 1100 take the least tail reaching _BLOCK,
# 4**5 and 6**4 words; Z_4 at 1100 and both at 10**9 cap the tail at five
# letters, so the heads are one letter.
BLOCK_SHAPES = {
    ("cyclic", 7): (16, 256), ("cyclic", 1000): (1024, 4),
    ("cyclic", 1100): (1024, 4), ("cyclic", 10**9): (1024, 4),
    ("s3", 7): (36, 1296), ("s3", 1000): (1296, 36),
    ("s3", 1100): (1296, 36), ("s3", 10**9): (7776, 6),
}


@pytest.mark.parametrize("chunk", [7, 1000, 1100, 10**9])
@pytest.mark.parametrize("case", ["cyclic", "s3"])
def test_cli_oracle_exhaustive_across_chunk_boundaries(tmp_path, capsys, monkeypatch,
                                                       chunk, case):
    # 4096 and 46656 words: the output must not show where one block ends
    # and the next begins, whatever the block shape.
    monkeypatch.setattr(words, "_BLOCK", chunk)
    words_per_block = []
    exhaustive_splits = words.exhaustive_splits

    def recording(*args):
        tails, blocks = exhaustive_splits(*args)
        return tails, ((words_per_block.append(len(b[1].zero)), b)[1] for b in blocks)

    monkeypatch.setattr(words, "exhaustive_splits", recording)
    if case == "cyclic":
        source, supp, r = ["--cyclic", "4"], "0,2", 3
        monoid = Monoid.cyclic(4)
    else:
        path = _write(tmp_path, "s3.spec", _s3_spec())
        source, supp, r = ["--file", path], "0,1,3", 2
        monoid = parse_spec_text(_s3_spec()).monoid
    code = main(["oracle", "lemma-3-5", *source, "--supp", supp, "--r", str(r),
                 "--exhaustive"])
    out = capsys.readouterr().out
    assert code == 0
    assert set(words_per_block) == {BLOCK_SHAPES[case, chunk][0]}
    assert len(words_per_block) == BLOCK_SHAPES[case, chunk][1]
    ids = frozenset(int(t) for t in supp.split(","))
    _assert_same_text(out, _cached_reference_stdout(monoid, ids, r))


@pytest.mark.parametrize("n,supp,r", [(4, "0,1,2,3", 9), (2, "0", 63),
                                      (3, "0,1", 10**9), (1, "0", 63)])
def test_cli_oracle_exhaustive_rejects_a_word_count_past_int64(capsys, n, supp, r):
    # 4**36, 2**63 and 3**(2*10**9) words cannot be numbered in int64; the
    # command says so before it writes a line.  Z_1 has one word, but its
    # walk's tables grow as (r*d)^2, so the length bound of 63 holds there too
    code = main(["oracle", "lemma-3-5", "--cyclic", str(n), "--supp", supp,
                 "--r", str(r), "--exhaustive"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and "int64" in captured.err
    assert captured.out == ""


# The oracle-words benchmark command: 65,536 words of Z_4.
CYCLIC4 = ["oracle", "lemma-3-5", "--cyclic", "4", "--supp", "0,1,2,3", "--r", "2",
           "--exhaustive"]
CYCLIC4_SHA256 = "196be5c2c6af46aad6d53059b6c9633d0590b489333dbec7d486831b4e643e53"


class _HashingSink:
    """A stdout that keeps only the sha256 and the last line of what is
    written to it, so no output piles up in memory."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.tail = ""

    def write(self, text):
        self.sha.update(text.encode())
        self.tail = (self.tail + text)[-200:]
        return len(text)

    def flush(self):
        pass


def test_cli_oracle_exhaustive_output_is_pinned(monkeypatch):
    # the benchmarked output, byte for byte, whatever the block layout
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(CYCLIC4) == 0
    assert sink.tail.endswith("\ndisagreements: 0\n")
    assert sink.sha.hexdigest() == CYCLIC4_SHA256


def test_cli_oracle_exhaustive_walk_memory_is_bounded(monkeypatch):
    # A block of words bounds what the kernels and the writer hold at once:
    # the traced peak of the whole command, its output sent nowhere, stays
    # within 8 MiB, however many words the walk covers.
    monkeypatch.setattr(sys, "stdout", _HashingSink())
    tracemalloc.start()
    try:
        code = main(CYCLIC4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 8 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("pair", ["cyclic-and-file", "word-and-exhaustive"])
def test_cli_oracle_rejects_two_monoids_or_two_modes(tmp_path, capsys, pair):
    # Neither option of a pair is silently dropped: with both, the command
    # is a usage error before it opens a file or writes a line.
    missing = str(tmp_path / "missing.spec")
    args = {"cyclic-and-file": ["--file", missing, "--cyclic", "2", "--word", "0,1,0,1"],
            "word-and-exhaustive": ["--cyclic", "2", "--exhaustive", "--word", "0,1,0,1"]}[pair]
    code = main(["oracle", "lemma-3-5", "--supp", "0,1", "--r", "2", *args])
    captured = capsys.readouterr()
    assert code == 3
    assert "not allowed with argument" in captured.err
    assert "no such file" not in captured.err
    assert captured.out == ""


def test_cli_oracle_exhaustive_reports_a_disagreement(capsys, monkeypatch):
    # A brute side that finds no cut sequence for the word 1 1 1 1 (word 15)
    # gives one DISAGREE line in its place, and exit 1.
    brute_batch = words._brute_batch

    def lose_word_15(table, e, inside, tails, r):
        brute = brute_batch(table, e, inside, tails, r)

        def lossy(head):
            out = brute(head)
            if set(head) == {1}:
                out.cuts[(tails == 1).all(axis=1)] = -1
            return out

        return lossy

    monkeypatch.setattr(words, "_brute_batch", lose_word_15)
    code = main(["oracle", "lemma-3-5", "--cyclic", "2", "--supp", "0,1", "--r", "2",
                 "--exhaustive"])
    want = _oracle_reference_stdout(Monoid.cyclic(2), {0, 1}, 2).splitlines()
    want[15] = "DISAGREE word=[1, 1, 1, 1] split=Decomposition(cuts=(0, 2, 4)) oracle=None"
    want[16] = "disagreements: 1"
    assert code == 1
    assert capsys.readouterr().out.splitlines() == want


# Z_3 words of 4 letters at _BLOCK = 5: heads of 2 letters, each followed by
# the 9 tails of 2 letters, one head a block.  Words 8 and 9, and 17 and 18,
# end and start blocks, 0 and 80 start and end the run.
@pytest.mark.parametrize("lost", [0, 8, 9, 17, 18, 80])
def test_cli_oracle_exhaustive_disagreement_at_head_and_block_edges(capsys, monkeypatch,
                                                                    lost):
    # A brute side that finds no cut sequence for word ``lost`` gives one
    # DISAGREE line in its place, whichever line of its block it is.
    monkeypatch.setattr(words, "_BLOCK", 5)
    brute_batch = words._brute_batch
    words_per_block = []

    def lose_one_word(table, e, inside, tails, r):
        brute = brute_batch(table, e, inside, tails, r)

        def lossy(head):
            out = brute(head)
            words_per_block.append(len(out.zero))
            first = functools.reduce(lambda a, x: a * len(table) + x, head, 0)
            i = lost - first * len(tails)
            if 0 <= i < len(out.zero):
                out.zero[i] = False
                out.cuts[i] = -1
            return out

        return lossy

    monkeypatch.setattr(words, "_brute_batch", lose_one_word)
    code = main(["oracle", "lemma-3-5", "--cyclic", "3", "--supp", "0,1", "--r", "2",
                 "--exhaustive"])
    assert words_per_block == [9] * 9
    monoid = Monoid.cyclic(3)
    want = _oracle_reference_stdout(monoid, {0, 1}, 2).splitlines()
    letters = list(itertools.product(range(3), repeat=4))[lost]
    got = neutral_split(DegreeWord(monoid, letters), 2, {0, 1})
    want[lost] = f"DISAGREE word={list(letters)} split={got} oracle=None"
    want[-1] = "disagreements: 1"
    assert code == 1
    assert capsys.readouterr().out.splitlines() == want


# Every word of Z_3 over {0, 1}, and every 61st word of Z_4 over {0, 2} and
# its last word.
@pytest.mark.parametrize("n,supp,r,stride", [(3, "0,1", 2, 1), (4, "0,2", 3, 61)])
def test_cli_oracle_word_prints_its_exhaustive_line(capsys, n, supp, r, stride):
    oracle = ["oracle", "lemma-3-5", "--cyclic", str(n), "--supp", supp, "--r", str(r)]
    assert main([*oracle, "--exhaustive"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    words_of = list(itertools.product(range(n), repeat=r * len(supp.split(","))))
    assert len(lines) == len(words_of) + 1
    for i in [*range(0, len(words_of), stride), len(words_of) - 1]:
        assert main([*oracle, "--word", ",".join(map(str, words_of[i]))]) == 0
        assert capsys.readouterr().out == lines[i] + "disagreements: 0\n"


IDEMPOTENT = "[ring]\ncoeff = fp {p}\nrank = 1\nsc = 0 0 0 1\n"


@pytest.mark.parametrize("check_id,p", [("C3.28", 5), ("P3.17", 3)])
def test_cli_verify_refuted_neutral_nil_index_is_not_applicable(tmp_path, capsys,
                                                                 check_id, p):
    # an idempotent is not nil, so the check's hypothesis fails: its verdict
    # is NOT_APPLICABLE (exit 0), as T3.24's is, not CAPPED (exit 2)
    path = _write(tmp_path, "idem.spec", IDEMPOTENT.format(p=p))
    assert main(["verify", check_id, path]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{check_id}: NOT_APPLICABLE\n")
    assert "reason: neutral component is not nil\n" in out


def test_cli_oracle_rejects_non_cancellative_monoid(tmp_path, capsys):
    # 1*0 = 1*1: not left cancellative, so the pigeonhole split can fail.
    spec = tmp_path / "nc.spec"
    spec.write_text(
        "[monoid]\nkind = table\nsize = 2\ntable = 0 1  1 1\n\n"
        "[ring]\ncoeff = fp 2\nrank = 1\nnames = b\n"
    )
    for mode in (["--exhaustive"], ["--word", "1,1,1,1"]):
        code = main([
            "oracle", "lemma-3-5", "--file", str(spec), "--supp", "0,1",
            "--r", "2", *mode,
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "left-cancellative" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("supp", ["0,5", "-1,0", ""])
def test_cli_oracle_rejects_support_outside_monoid(capsys, supp):
    code = main([
        "oracle", "lemma-3-5", "--cyclic", "2", f"--supp={supp}",
        "--r", "2", "--exhaustive",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "--supp" in captured.err
    assert captured.out == ""


def test_cli_zoo_roundtrip(tmp_path, capsys):
    code = main(["zoo", "sut", "--n", "4", "--domain", "f2",
                 "--out", str(tmp_path / "sut4.spec")])
    assert code == 0
    parsed = parse_spec_text((tmp_path / "sut4.spec").read_text())
    assert parsed.graded == sut(4, fp(2))


def test_cli_zoo_two_z_2k(capsys):
    code = main(["zoo", "two-z-2k", "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = parse_spec_text(out)
    assert parsed.ring == two_z_2k(3)
    assert parsed.fmap.is_constant()


def test_cli_zoo_list(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    assert "golod" in out and "not constructible" in out


# parity-graded ring over Z_4 supported away from the neutral class
Z4_PARITY = (
    "[monoid]\nkind = table\nsize = 4\n"
    "table = 0 1 2 3 1 2 3 0 2 3 0 1 3 0 1 2\n\n"
    "[ring]\ncoeff = fp 2\nrank = 2\nnames = a c\n\n"
    "[grading]\ndeg = 1 3\n"
)


def test_cli_verify_c304_with_classes(tmp_path, capsys):
    path = _write(tmp_path, "z4.spec", Z4_PARITY)
    code = main(["verify", "C3.04", path, "--classes", "0 2 | 1 3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["status"] == "PASS"
    code = main(["verify", "C3.04", path])
    capsys.readouterr()
    assert code == 3  # missing --classes


# The bench specs, made by the CLI's own generators ("@x" names spec x).
BENCH_SPECS = {
    "sut5": ["zoo", "sut", "--n", "5", "--domain", "fp 2"],
    "z8": ["zoo", "two-z-2k", "--k", "3"],
    "m2z8": ["construct", "elementary", "@z8", "--n", "2"],
    "grass3": ["zoo", "grassmann-star", "--k", "3", "--domain", "fp 5"],
    "nagata23": ["zoo", "truncated-nagata", "--k", "2", "--p", "3"],
}


def _bench_spec(tmp_path, label):
    args = BENCH_SPECS[label]
    if "@z8" in args:
        _bench_spec(tmp_path, "z8")
    path = str(tmp_path / f"{label}.spec")
    args = [str(tmp_path / "z8.spec") if a == "@z8" else a for a in args]
    assert main(args + ["--out", path]) == 0
    return path


@pytest.mark.parametrize("label", list(BENCH_SPECS))
def test_cli_verify_agrees_with_report(tmp_path, capsys, label):
    # one check registry serves both commands: each check id verified alone
    # gives the entry the report holds for it
    path = _bench_spec(tmp_path, label)
    capsys.readouterr()
    main(["report", path, "--json"])
    entries = json.loads(capsys.readouterr().out)["checks"]
    assert len(entries) == 12
    for entry in entries:
        if entry["id"] == "C3.04":
            continue  # verify needs --classes; see the test below
        main(["verify", entry["id"], path, "--json"])
        assert json.loads(capsys.readouterr().out) == entry, entry["id"]


@pytest.mark.parametrize("label", ["m2z8", "grass3", "z8"])
def test_cli_report_computes_each_f_commutativity_verdict_once(tmp_path, capsys, monkeypatch,
                                                               label):
    # T3.15, T3.19, T3.20 and T3.26 share one verdict on the neutral ring
    # under one factor; each check verified alone, on a ring of its own,
    # gives the entry the report holds for it
    path = _bench_spec(tmp_path, label)
    calls = []
    check = theorems.check_f_commutative
    monkeypatch.setattr(theorems, "check_f_commutative",
                        lambda *args: calls.append(args) or check(*args))
    capsys.readouterr()
    assert main(["report", path, "--json"]) == 0
    entries = {e["id"]: e for e in json.loads(capsys.readouterr().out)["checks"]}
    assert len(calls) == 1
    for check_id in ("T3.15", "T3.19", "T3.20", "T3.26"):
        calls.clear()
        main(["verify", check_id, path, "--json"])
        assert json.loads(capsys.readouterr().out) == entries[check_id], check_id
        assert len(calls) == 1


def test_cli_verify_c304_agrees_with_report(tmp_path, capsys):
    path = _write(tmp_path, "z4.spec", Z4_PARITY)
    classes = ["--classes", "0 2 | 1 3"]
    assert main(["verify", "C3.04", path, "--json"] + classes) == 0
    alone = json.loads(capsys.readouterr().out)
    main(["report", path, "--json"] + classes)
    entries = json.loads(capsys.readouterr().out)["checks"]
    assert alone == next(e for e in entries if e["id"] == "C3.04")
    assert alone["status"] == "PASS"


def test_cli_seed_determinism(tmp_path, capsys, monkeypatch):
    # nothing is sampled: --seed is accepted and ignored, and so is
    # GRADEDNIL_SEED, so every seed gives the same report, byte for byte
    gr = grassmann_star(2, fp(3))
    path = _write(tmp_path, "gr.spec", emit_graded(gr, fmap_mode="auto"))
    outs = []
    for argv in (["--seed", "1"], ["--seed", "2"], []):
        if not argv:
            monkeypatch.setenv("GRADEDNIL_SEED", "3")
        assert main(["report", path, *argv]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] == outs[2]
    assert "note: commutation factor derived automatically" in outs[0].out


# square-zero rank-1 ring: f(b, b) = -1 on the only interesting pair
PAIR_RULE_SPEC = (
    "[ring]\ncoeff = fp 3\nrank = 1\nnames = b\n\n"
    "[fmap]\n"
    "pair = 0 ; 0 ; 1\npair = 0 ; 1 ; 1\npair = 1 ; 0 ; 1\npair = 1 ; 1 ; 2\n"
    "pair = 0 ; 2 ; 1\npair = 2 ; 0 ; 1\npair = 2 ; 2 ; 2\npair = 1 ; 2 ; 2\n"
    "pair = 2 ; 1 ; 2\n"
)


def test_parse_explicit_pair_rule():
    parsed = parse_spec_text(PAIR_RULE_SPEC)
    assert not parsed.fmap.is_constant()
    assert parsed.fmap.label == "explicit pairwise rule" and len(parsed.fmap.rule) == 9
    from gradednil.fcomm import check_f_commutative
    from gradednil.nil import Status

    v = check_f_commutative(parsed.ring, parsed.fmap)
    assert v.status == Status.PROVED


@pytest.mark.parametrize("text, message", [
    ("[ring]\ncoeff = fp 2\nrank = 1\nsc = 0 0 0 1\n\n[fmap]\npair = 1 ; 1 ; 1\n",
     "line 7: pair lines give no scalar for the pair ((0,), (0,)); "
     "over fp 2 every pair of elements needs one"),
    (PAIR_RULE_SPEC.replace("pair = 1 ; 1 ; 2\n", ""),
     "line 7: pair lines give no scalar for the pair ((1,), (1,)); "
     "over fp 3 every pair of elements needs one"),
    ("[ring]\ncoeff = fp 2\nrank = 1\nnames = b\n[fmap]\n"
     "pair = 0 ; 0 ; 1\npair = 0 ; 1 ; 1\npair = 1 ; 0 ; 1\n",
     "line 6: pair lines give no scalar for the pair ((1,), (1,)); "
     "over fp 2 every pair of elements needs one"),
    ("[ring]\ncoeff = rat\nrank = 1\nnames = b\n[fmap]\npair = 1 ; 1 ; 1\n",
     "line 6: pair lines cannot give a scalar for every pair over rat; "
     "use constant = <scalar> or rule = auto"),
], ids=["first-pair", "inner-pair", "last-pair", "rationals"])
def test_parse_pair_rule_missing_a_pair(tmp_path, capsys, text, message):
    # over Z/m and F_p every pair needs a line; the first missing one in
    # product order is named at the first pair line.  Over Q no lines cover
    # every pair, so any pair line is an error
    path = _write(tmp_path, "p.spec", text)
    with pytest.raises(SpecFileError) as err:
        parse_spec_text(text)
    assert str(err.value) == message
    for cmd in (["analyze", path], ["report", path]):
        assert main(cmd) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_one_pair_line_on_a_rank_40_ring_is_refused_at_once(tmp_path):
    # the table is walked pair by pair, so a one-line table over the 2^40
    # elements of F_2^40 is refused at the second pair in product order,
    # without listing the ring; run with a 2 GiB address space and a time
    # limit, so a walk that lists the elements fails fast
    import resource

    zeros = " ".join(["0"] * 40)
    path = _write(tmp_path, "r40.spec", "[ring]\ncoeff = fp 2\nrank = 40\n\n"
                  f"[fmap]\npair = {zeros} ; {zeros} ; 1\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cap = 2 * 2**30
    out = subprocess.run(
        [sys.executable, "-m", "gradednil.cli", "analyze", path],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    first, second = (0,) * 40, (0,) * 39 + (1,)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == (f"error: line 6: pair lines give no scalar for the pair ({first}, "
                          f"{second}); over fp 2 every pair of elements needs one\n")


def test_cli_rule_auto_on_a_commutative_ring_past_the_pair_cap(tmp_path, capsys):
    # rule = auto is derived when the checks run, under the pair cap: on
    # nagata(2,3) the search is capped, which the report notes; parsing
    # searches nothing
    spec = str(tmp_path / "n.spec")
    assert main(["zoo", "truncated-nagata", "--k", "2", "--p", "3", "--out", spec]) == 0
    with open(spec, "a") as fh:
        fh.write("\n[fmap]\nrule = auto\n")
    text = open(spec).read()
    assert text.endswith("\n[fmap]\nrule = auto\n") and parse_spec_text(text).fmap is None
    assert main(["analyze", spec]) == 0
    capsys.readouterr()
    assert main(["report", spec, "--json"]) == 0
    assert ("no commutation factor derived: pair search capped: 6561^2 pairs "
            "of the neutral component exceed pair_cap 1000000") in json.loads(
                capsys.readouterr().out)["notes"]


# x*y = z = 2*(y*x) and u*v = w = 3*(v*u) over Q: each basis pair has a
# scalar, but no constant fits both
TWO_FACTORS_Q = ("[ring]\ncoeff = rat\nrank = 6\nnames = x y z u v w\n"
                 "sc = 0 1 2 1\nsc = 1 0 2 1/2\nsc = 3 4 5 1\nsc = 4 3 5 1/3\n")


def test_cli_no_rational_constant_note_is_exact(tmp_path, capsys, monkeypatch):
    # the note says no constant holds, names no pair (each basis pair has a
    # scalar of its own) and is the same whatever seed is given
    path = _write(tmp_path, "q.spec", TWO_FACTORS_Q)
    outs = []
    for seed in ("1", "2", "77"):
        monkeypatch.setenv("GRADEDNIL_SEED", seed)
        assert main(["report", path, "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    notes = [line for line in outs[0].splitlines() if line.startswith("note: ")]
    assert notes == [
        "note: no commutation factor derived: no constant l has a*b = l*(b*a) "
        "for all a, b: 1 and -1 fail on the basis pairs, and no other constant "
        "can hold"]


def test_parse_pair_rule_bad_shape():
    text = "[ring]\ncoeff = fp 3\nrank = 2\n\n[fmap]\npair = 0 ; 0 ; 1\n"
    with pytest.raises(SpecFileError, match="pair lines"):
        parse_spec_text(text)
