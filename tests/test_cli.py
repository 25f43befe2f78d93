import functools
import hashlib
import itertools
import json
import sys
import tracemalloc

import pytest

from gradednil import cli, nil, words
from gradednil.cli import main
from gradednil.fcomm import Action
from gradednil.grading import GradedRing, elementary_grading
from gradednil.monoid import Monoid
from gradednil.specfile import (
    SpecFileError,
    emit_graded,
    emit_spec,
    parse_spec_text,
)
from gradednil.ringcore import Ring, fp
from gradednil.words import (
    DegreeWord,
    ProductVerdict,
    neutral_split,
    neutral_split_bruteforce,
    small_gap_blocks,
)
from gradednil.zoo import grassmann_star, sut, truncated_poly_positive, two_z_2k

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
    assert parsed.fmap is not None
    assert parsed.fmap_mode == "auto"


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
    assert data["caps"]["seed"] == 0


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
    cli._command_parser.cache_clear()


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
    assert cli._command_parser("zoo") is cli._command_parser("zoo")
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
    assert main(["analyze", path]) == 0
    assert built == ["gradednil analyze"]
    capsys.readouterr()
    # a usage error falls back to the full parser: itself and six subparsers
    assert main(["analyze", path, "--bogus"]) == 3
    assert len(built) == 1 + 1 + len(cli.COMMANDS)
    assert capsys.readouterr().err.startswith("usage: gradednil [-h] {analyze,")


def _parity_cases(spec):
    """Per command: valid arguments, -h, a missing positional, a non-integer
    cap, an unknown option and an extra positional; then top-level cases."""
    valid = {
        "analyze": [spec, "--json"],
        "verify": ["P3.03", spec, "--classes", "0"],
        "report": [spec, "--samples", "5"],
        "oracle": ["lemma-3-5", "--cyclic", "2", "--supp", "1", "--r", "2", "--exhaustive"],
        "construct": ["elementary", spec, "--n", "3"],
        "zoo": ["sut", "--domain", "fp 3"],
    }
    missing = {"analyze": [], "verify": ["P3.03"], "report": ["--json"],
               "oracle": ["lemma-3-5", "--supp", "1"], "construct": ["elementary"],
               "zoo": []}
    bad_int = {"analyze": [spec, "--samples", "abc"],
               "verify": ["P3.03", spec, "--seed", "1.5"],
               "report": [spec, "--pair-cap", "x"],
               "oracle": ["lemma-3-5", "--supp", "1", "--r", "two"],
               "construct": ["elementary", spec, "--n", "x"],
               "zoo": ["sut", "--k", "x"]}
    cases = []
    for name in cli.COMMANDS:
        cases += [[name, *valid[name]], [name, "-h"], [name, *missing[name]],
                  [name, *bad_int[name]], [name, *valid[name], "--bogus"],
                  [name, *valid[name], "extra"]]
    return cases + [["--help"], [], ["anal"], ["-x", "analyze", spec]]


def test_cli_command_parser_matches_the_full_parser(tmp_path, capsys, monkeypatch):
    # main parses with the invoked command's parser alone; exit code,
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
    assert codes == [(0, 1), (0, 0), (3, 0), (3, 0), (3, 0), (3, 0)] * len(cli.COMMANDS) + [
        (0, 0), (3, 0), (3, 0), (3, 0)]


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
    # nothing derived from it (neutral ring, M_2(R), the scalar action).
    text = emit_graded(elementary_grading(two_z_2k(3), 2), fmap_mode="constant 1")
    path = _write(tmp_path, "m2z8.spec", text)
    parsed = parse_spec_text(text)
    checked = {"assoc": [], "axiom": [], "action": []}

    def counted(cls, attr, key):
        original = getattr(cls, attr)

        def wrapper(self):
            checked[key].append(self)
            return original(self)

        monkeypatch.setattr(cls, attr, wrapper)

    counted(Ring, "_check_associativity", "assoc")
    counted(GradedRing, "_check_axiom", "axiom")
    counted(Action, "_validate", "action")
    assert main(["report", "--json", path]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]
    assert [r.sc for r in checked["assoc"]] == [parsed.ring.sc]
    assert [g.degrees for g in checked["axiom"]] == [parsed.graded.degrees]
    assert checked["action"] == []


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
], ids=["unknown-option", "non-integer-cap", "removed-tuple-cap", "removed-elem-cap",
        "removed-power-cap"])
def test_cli_usage_errors_exit_3(capsys, args):
    # exit 2 means a capped verdict, so argparse's own usage exit is not used
    assert main(args) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, env, named", [
    (["--samples", "-3"], {}, "--samples"),
    (["--samples", "0"], {}, "--samples"),
    (["--pair-cap", "-1"], {}, "--pair-cap"),
    ([], {"GRADEDNIL_SAMPLES": "0"}, "GRADEDNIL_SAMPLES"),
], ids=["samples-negative", "samples-zero", "pair-cap-negative", "env-samples-zero"])
def test_cli_cap_out_of_range_exit_3(tmp_path, capsys, monkeypatch, flags, env, named):
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    for cmd in (["analyze", path], ["verify", "P3.03", path], ["report", path]):
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


def test_cli_capped_pair_check_exits_2(tmp_path, capsys):
    # CAPPED now comes only from the f-commutativity pair check: a
    # pointwise rule past --pair-cap is sampled, and over F_3 that is CAPPED
    path = _write(tmp_path, "pairs.spec", PAIR_RULE_SPEC)
    assert main(["verify", "T3.19", path, "--pair-cap", "0"]) == 2
    assert capsys.readouterr().out == "T3.19: CAPPED\nreason: f-commutativity check capped\n"
    assert main(["verify", "T3.19", path]) == 0


def test_cli_zero_caps_mean_never_enumerate(tmp_path, capsys, monkeypatch):
    # a flag overrides the environment, and 0 is a legal pair cap
    monkeypatch.setenv("GRADEDNIL_PAIR_CAP", "-1")
    path = _write(tmp_path, "sut3.spec", emit_graded(SUT3))
    code = main(["analyze", path, "--json", "--pair-cap", "0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["nil"].startswith("NilVerdict(PROVED")


def test_cli_oracle_exhaustive(capsys):
    code = main([
        "oracle", "lemma-3-5", "--cyclic", "3", "--supp", "0,1",
        "--r", "2", "--exhaustive",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "disagreements: 0" in out


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
# in length.  Over Z_1 the one word's cuts reach position 65, past the bits
# of an int64 cut code.
@pytest.mark.parametrize("n,supp,r", [(3, "0,1", 2), (4, "0,2", 3), (3, "0", 5),
                                      (3, "0,1,2", 3), (1, "0", 65)])
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


# (case, _BLOCK) -> heads per block, first and last block, and the block
# count.  Z_4 words of 6 letters and S_3 words of 6: 7 leaves one head a
# block; Z_4 at 1000 and S_3 at 1100 end on a block that is not full; S_3 at
# 1000 fills every block; 10**9 is larger than the whole word set, which
# then makes one block.
BLOCK_SHAPES = {
    ("cyclic", 7): (1, 1, 1024), ("cyclic", 1000): (3, 1, 6),
    ("cyclic", 1100): (1, 1, 4), ("cyclic", 10**9): (4, 4, 1),
    ("s3", 7): (1, 1, 7776), ("s3", 1000): (4, 4, 54),
    ("s3", 1100): (5, 1, 44), ("s3", 10**9): (6, 6, 1),
}


@pytest.mark.parametrize("chunk", [7, 1000, 1100, 10**9])
@pytest.mark.parametrize("case", ["cyclic", "s3"])
def test_cli_oracle_exhaustive_across_chunk_boundaries(tmp_path, capsys, monkeypatch,
                                                       chunk, case):
    # 4096 and 46656 words: the output must not show where one block of
    # heads ends and the next begins, whatever the block shape.
    monkeypatch.setattr(words, "_BLOCK", chunk)
    heads_per_block = []

    def recording(*args):
        tails, blocks = words.exhaustive_splits(*args)
        return tails, ((heads_per_block.append(len(b[0])), b)[1] for b in blocks)

    monkeypatch.setattr(cli, "exhaustive_splits", recording)
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
    assert (heads_per_block[0], heads_per_block[-1], len(heads_per_block)) == \
        BLOCK_SHAPES[case, chunk]
    ids = frozenset(int(t) for t in supp.split(","))
    _assert_same_text(out, _cached_reference_stdout(monoid, ids, r))


@pytest.mark.parametrize("n,supp,r", [(4, "0,1,2,3", 9), (2, "0", 63),
                                      (3, "0,1", 10**9)])
def test_cli_oracle_exhaustive_rejects_a_word_count_past_int64(capsys, n, supp, r):
    # 4**36, 2**63 and 3**(2*10**9) words cannot be numbered in int64; the
    # command says so before it writes a line
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

        def lossy(heads):
            out = brute(heads)
            out.cuts[((heads == 1).all(axis=1)[:, None] & (tails == 1).all(axis=1)).ravel()] = -1
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


def test_cli_verify_c304_agrees_with_report(tmp_path, capsys):
    path = _write(tmp_path, "z4.spec", Z4_PARITY)
    classes = ["--classes", "0 2 | 1 3"]
    assert main(["verify", "C3.04", path, "--json"] + classes) == 0
    alone = json.loads(capsys.readouterr().out)
    main(["report", path, "--json"] + classes)
    entries = json.loads(capsys.readouterr().out)["checks"]
    assert alone == next(e for e in entries if e["id"] == "C3.04")
    assert alone["status"] == "PASS"


def test_cli_seed_determinism(tmp_path, capsys):
    gr = grassmann_star(2, fp(3))
    path = _write(tmp_path, "gr.spec", emit_graded(gr, fmap_mode="auto"))
    main(["report", path, "--json", "--seed", "11"])
    first = capsys.readouterr().out
    main(["report", path, "--json", "--seed", "11"])
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    a.pop("timings"), b.pop("timings")
    assert a == b


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
    assert parsed.fmap.kind == "scalar-rule"
    assert parsed.fmap_mode == "pairs"
    from gradednil.fcomm import check_f_commutative
    from gradednil.nil import Status

    v = check_f_commutative(parsed.ring, parsed.fmap, parsed.action)
    assert v.status == Status.PROVED


@pytest.mark.parametrize("text, message", [
    ("[ring]\ncoeff = fp 2\nrank = 1\nsc = 0 0 0 1\n\n[fmap]\npair = 1 ; 1 ; 1\n",
     "line 7: pair lines give no scalar for the pair ((0,), (0,)); "
     "over fp 2 every pair of elements needs one"),
    (PAIR_RULE_SPEC.replace("pair = 1 ; 1 ; 2\n", ""),
     "line 7: pair lines give no scalar for the pair ((1,), (1,)); "
     "over fp 3 every pair of elements needs one"),
], ids=["first-pair", "inner-pair"])
def test_parse_pair_rule_missing_a_pair(tmp_path, capsys, text, message):
    # over Z/m and F_p every pair needs a line; the first missing one in
    # product order is named at the first pair line
    with pytest.raises(SpecFileError) as err:
        parse_spec_text(text)
    assert str(err.value) == message
    assert main(["report", _write(tmp_path, "p.spec", text)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_pair_rule_bad_shape():
    text = "[ring]\ncoeff = fp 3\nrank = 2\n\n[fmap]\npair = 0 ; 0 ; 1\n"
    with pytest.raises(SpecFileError, match="pair lines"):
        parse_spec_text(text)
