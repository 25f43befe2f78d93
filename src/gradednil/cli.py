"""Command-line front end.

Exit codes: 0 every check passed or was proved, 1 a refutation or failure,
2 a capped or unknown verdict, 3 an input or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import specfile, zoo
from .grading import GradedRing, component_indices, elementary_grading, support, trivial_grading
from .monoid import Congruence, Monoid, check_cancellative
from .nil import Status, bounded_nil_index_auto, nilpotency_index, ring_is_nil, s_nil_check
from .ringcore import parse_domain
from .theorems import Caps, CheckStatus, full_report
from .words import (
    Decomposition,
    DegreeWord,
    ProductVerdict,
    exhaustive_splits,
    neutral_split,
    neutral_split_bruteforce,
    small_gap_blocks,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_CAPPED = 2
EXIT_INPUT = 3
INT64_MAX = np.iinfo(np.int64).max

ENV_CAPS = {
    "GRADEDNIL_PAIR_CAP": "pair_cap",
    "GRADEDNIL_SAMPLES": "samples",
    "GRADEDNIL_SEED": "seed",
}
# Smallest legal value of each cap: a sample count below 1 decides nothing,
# while a pair cap of 0 means "never enumerate".
CAP_FLOORS = {"pair_cap": 0, "samples": 1}


def _caps_from(args) -> Caps:
    """Caps from the environment, overridden by flags; a value that is not an
    integer or lies below its floor is an input error naming its source."""
    given = {}
    for env, attr in ENV_CAPS.items():
        if env in os.environ:
            try:
                given[attr] = (env, int(os.environ[env]))
            except ValueError:
                raise SystemExit(_input_error(
                    f"{env} must be an integer, got {os.environ[env]!r}"))
    for attr in ENV_CAPS.values():
        v = getattr(args, attr, None)
        if v is not None:
            given[attr] = (_flag(attr), v)
    caps = Caps()
    for attr, (source, v) in given.items():
        floor = CAP_FLOORS.get(attr)
        if floor is not None and v < floor:
            raise SystemExit(_input_error(f"{source} must be >= {floor}, got {v}"))
        setattr(caps, attr, v)
    return caps


def _flag(attr):
    return "--" + attr.replace("_", "-")


def _add_caps(parser):
    for attr in ENV_CAPS.values():
        parser.add_argument(_flag(attr), dest=attr, type=int)


def _load(path):
    try:
        return specfile.parse_spec(path)
    except FileNotFoundError:
        raise SystemExit(_input_error(f"no such file: {path}"))
    except Exception as exc:
        raise SystemExit(_input_error(str(exc)))


def _input_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _graded_or_trivial(parsed) -> GradedRing:
    return parsed.graded if parsed.graded is not None else trivial_grading(parsed.ring)


def _parse_classes(text, monoid):
    try:
        classes = [
            [int(x) for x in part.split()] for part in text.split("|")
        ]
        return Congruence(monoid, classes)
    except Exception as exc:
        raise SystemExit(_input_error(f"bad congruence classes: {exc}"))


def _verdict_exit(statuses):
    """1 on any refutation or FAIL, else 2 on any CAPPED verdict, else 0."""
    if any(s in (Status.REFUTED, CheckStatus.FAIL) for s in statuses):
        return EXIT_REFUTED
    if any(s in (Status.CAPPED, CheckStatus.CAPPED) for s in statuses):
        return EXIT_CAPPED
    return EXIT_OK


def cmd_analyze(args):
    # analyze reads no cap, but rejects a bad one as verify and report do
    _caps_from(args)
    parsed = _load(args.file)
    gr = _graded_or_trivial(parsed)
    r = gr.ring
    supp = sorted(support(gr), key=repr)
    out = {
        "rank": r.rank,
        "coeff": r.coeff.label(),
        "support": [str(g) for g in supp],
        "support_size": len(supp),
        "components": {
            str(g): len(component_indices(gr, g)) for g in supp
        },
    }
    nilv = ring_is_nil(r)
    ndv = nilpotency_index(r)
    sv = bounded_nil_index_auto(r)
    out["nil"] = repr(nilv)
    out["nilpotency"] = repr(ndv)
    out["bounded_nil_index"] = repr(sv)
    comp = s_nil_check(gr)
    out["component_nil"] = {str(g): repr(v) for g, v in comp.items()}
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    statuses = [nilv.status, ndv.status, sv.status] + [v.status for v in comp.values()]
    return _verdict_exit(statuses)


def _report(args, classes, only=None):
    """Load the spec and run the checks of ``full_report`` on it: all of
    them, or the one with id ``only``."""
    caps = _caps_from(args)
    parsed = _load(args.file)
    gr = _graded_or_trivial(parsed)
    cong = None
    if classes:
        if gr.monoid.kind != "table":
            raise SystemExit(_input_error("--classes needs a table monoid grading"))
        cong = _parse_classes(classes, gr.monoid)
    return full_report(gr, parsed.fmap, parsed.action, caps, congruence=cong, only=only)


def cmd_verify(args):
    # only C3.04 reads the congruence, and it cannot run without one
    classes = args.classes if args.check_id == "C3.04" else None
    if args.check_id == "C3.04" and not classes:
        raise SystemExit(_input_error("C3.04 needs --classes"))
    check = _report(args, classes, args.check_id).checks[0]
    if args.json:
        print(json.dumps(check.to_dict(), indent=2))
    else:
        print(f"{check.id}: {check.status.value}")
        if check.bound is not None:
            print(f"bound: {check.bound}")
        if check.observed is not None:
            print(f"observed: {check.observed}")
        if check.reason:
            print(f"reason: {check.reason}")
    return _verdict_exit([check.status])


def cmd_report(args):
    report = _report(args, args.classes)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return _verdict_exit([c.status for c in report.checks])


def cmd_oracle(args):
    if args.which != "lemma-3-5":
        raise SystemExit(_input_error(f"unknown oracle {args.which!r}"))
    if args.r <= 1:
        # checked first: the word length r*d means nothing for such an r
        raise SystemExit(_input_error(f"--r must be greater than 1, got {args.r}"))
    if args.cyclic is not None:
        monoid = Monoid.cyclic(args.cyclic)
    elif args.file:
        parsed = _load(args.file)
        if parsed.monoid is None or parsed.monoid.kind != "table":
            raise SystemExit(_input_error("oracle needs a table monoid"))
        monoid = parsed.monoid
    else:
        raise SystemExit(_input_error("oracle needs --cyclic N or --file SPEC"))
    try:
        supp = {int(t) for t in args.supp.replace(",", " ").split()}
    except ValueError:
        raise SystemExit(_input_error("bad --supp"))
    if not supp or not all(map(monoid.contains, supp)):
        raise SystemExit(_input_error(
            f"--supp needs element ids in 0..{monoid.size - 1}, got {sorted(supp)}"
        ))
    if not check_cancellative(monoid).left:
        # the split cuts at repeated prefix degrees, which needs left cancellation
        raise SystemExit(_input_error("oracle needs a left-cancellative monoid"))
    r = args.r
    if args.word:
        letters = [int(t) for t in args.word.replace(",", " ").split()]
        if len(letters) != r * len(supp):
            raise SystemExit(
                _input_error(f"word length must be r*d = {r * len(supp)}")
            )
        w = DegreeWord(monoid, tuple(letters))
        got = neutral_split(w, r, supp)
        ref = neutral_split_bruteforce(w, r, supp)
        got_zero = got == ProductVerdict.FORCED_ZERO
        disagreements = int(got_zero != (ref == ProductVerdict.FORCED_ZERO) or ref is None)
        if disagreements:
            print(f"DISAGREE word={letters} split={got} oracle={ref}")
        elif not got_zero:
            blocks = small_gap_blocks(got, len(supp))
            print(f"word={letters} cuts={got.cuts} small-gap blocks={blocks}")
        else:
            print(f"word={letters} FORCED_ZERO (both)")
    elif args.exhaustive:
        n = r * len(supp)
        if monoid.size > 1 and (n >= 63 or monoid.size**n > INT64_MAX):
            # no walk over so many words ends, and the writer's cut codes are
            # int64 bitmasks of positions; for size >= 2 a word length of 63
            # or more is past the limit, checked first so no huge power is taken
            return _input_error(
                f"{monoid.size}**{n} words are past the int64 limit; lower --r")
        disagreements = _write_exhaustive(monoid, r, supp)
    else:
        raise SystemExit(_input_error("oracle needs --word or --exhaustive"))
    print(f"disagreements: {disagreements}")
    return EXIT_OK if disagreements == 0 else EXIT_REFUTED


def _write_exhaustive(monoid, r, supp):
    """Write ``oracle --exhaustive``'s line for every word, one chunk of
    ``exhaustive_splits`` at a time, and return the number of disagreements.

    A chunk is one head followed by every tail, so a line is three pieces:
    ``word=[`` and the head letters (or ``DISAGREE word=[`` and them), made
    once per chunk; the tail letters, made once for all chunks; and the
    verdict suffix.  Each chunk's pieces fill a (words, 3) object array that
    is joined once.  Suffixes are made once per cut sequence, coded as the
    bitmask of its cut positions: the word count fits int64, so n <= 62
    unless the monoid has one element, and then one word.  Only disagreeing
    rows, none on a correct run, are formatted one by one.
    """
    d = len(supp)
    names = [str(g) for g in monoid.elements()]
    tails, chunks = exhaustive_splits(monoid, r, supp)
    # j < n keeps one head letter, so every tail text starts with ", "
    tail_texts = np.array(["".join(", " + names[g] for g in t) for t in tails.tolist()],
                          dtype=object)
    suffixes = {}
    disagreements = 0
    for head, got, ref in chunks:
        agree = (got.zero == ref.zero) & (ref.zero | (ref.cuts[:, 0] >= 0))
        split = agree & ~got.zero
        code = np.where(split, (1 << np.maximum(got.cuts, 0)).sum(axis=1), 0)
        codes, code_at, code_of = np.unique(code, return_index=True, return_inverse=True)
        for c, i in zip(codes.tolist(), code_at.tolist()):
            if c in suffixes:
                continue
            if not split[i]:
                suffixes[c] = "] FORCED_ZERO (both)\n"
                continue
            dec = Decomposition(tuple(got.cuts[i].tolist()))
            suffixes[c] = f"] cuts={dec.cuts} small-gap blocks={small_gap_blocks(dec, d)}\n"

        lead = ", ".join(map(names.__getitem__, head))
        pieces = np.empty((len(tail_texts), 3), dtype=object)
        pieces[:, 0] = "word=[" + lead
        pieces[:, 1] = tail_texts
        pieces[:, 2] = np.array([suffixes[c] for c in codes.tolist()], dtype=object)[code_of]
        for i in np.flatnonzero(~agree).tolist():
            disagreements += 1
            pieces[i, 0] = "DISAGREE word=[" + lead
            pieces[i, 2] = f"] split={got.verdict(i)} oracle={ref.verdict(i)}\n"
        sys.stdout.write("".join(pieces.ravel().tolist()))
    return disagreements


def cmd_construct(args):
    if args.which != "elementary":
        raise SystemExit(_input_error(f"unknown construction {args.which!r}"))
    parsed = _load(args.file)
    gr = elementary_grading(parsed.ring, args.n)
    text = specfile.emit_graded(
        gr, header=f"elementary Z_{args.n} grading of the {args.n}x{args.n} matrices"
    )
    _write_out(text, args.out)
    return EXIT_OK


def _write_out(text, out):
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_zoo(args):
    name = args.name.replace("_", "-")
    try:
        if name == "sut":
            gr = zoo.sut(args.n, parse_domain(args.domain))
            text = specfile.emit_graded(gr, header=f"strictly upper triangular {args.n}x{args.n}")
        elif name == "truncated-nagata":
            r = zoo.truncated_nagata(args.k, args.p)
            text = specfile.emit_spec(r, header=f"truncated commutative nil ring, {args.k} generators mod {args.p}")
            text += f"# note: {r.note}\n"
        elif name == "grassmann-star":
            gr = zoo.grassmann_star(args.k, parse_domain(args.domain))
            text = specfile.emit_graded(gr, fmap_mode="auto", header=f"unitless exterior algebra on {args.k} generators")
            text += f"# note: {gr.ring.note}\n"
        elif name == "two-z-2k":
            r = zoo.two_z_2k(args.k)
            text = specfile.emit_spec(r, fmap_mode="constant 1", header=f"even residues modulo 2^{args.k}")
        elif name == "truncated-poly":
            gr = zoo.truncated_poly_positive(args.n, parse_domain(args.domain))
            text = specfile.emit_graded(gr, header=f"positive-degree polynomials truncated at x^{args.n}")
            text += f"# note: {gr.ring.note}\n"
        elif name == "list":
            for key, note in zoo.NON_CONSTRUCTIBLE.items():
                print(f"{key}: not constructible; {note}")
            print("constructible: sut, truncated-nagata, grassmann-star, two-z-2k, truncated-poly")
            return EXIT_OK
        else:
            raise SystemExit(_input_error(f"unknown zoo ring {args.name!r}"))
    except SystemExit:
        raise
    except Exception as exc:
        raise SystemExit(_input_error(str(exc)))
    _write_out(text, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT, not argparse's 2, which means capped."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _analyze_args(p):
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    _add_caps(p)


def _verify_args(p):
    p.add_argument("check_id")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--classes", help="congruence classes for C3.04, e.g. '0 2 | 1 3'")
    _add_caps(p)


def _report_args(p):
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--classes", help="optional congruence classes for C3.04")
    _add_caps(p)


def _oracle_args(p):
    p.add_argument("which", choices=["lemma-3-5"])
    p.add_argument("--cyclic", type=int, help="use the cyclic monoid Z_N")
    p.add_argument("--file", help="take the monoid from a spec file")
    p.add_argument("--supp", required=True, help="support element ids, e.g. '0,1'")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--word", help="degree word, e.g. '1,1,1,1'")
    p.add_argument("--exhaustive", action="store_true")


def _construct_args(p):
    p.add_argument("which", choices=["elementary"])
    p.add_argument("file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", default="-")


def _zoo_args(p):
    p.add_argument("name")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--domain", default="fp 2")
    p.add_argument("--out", default="-")


# name -> (help, function adding the command's arguments); the full parser
# and each command's own parser are both built from this one table
COMMANDS = {
    "analyze": ("support, components, nil and nilpotency verdicts", _analyze_args),
    "verify": ("run one bound check by id (e.g. P3.03, T3.18)", _verify_args),
    "report": ("run every applicable check", _report_args),
    "oracle": ("cross-validate the neutral-split construction", _oracle_args),
    "construct": ("emit a derived spec file", _construct_args),
    "zoo": ("emit a spec file for a built-in example ring", _zoo_args),
}


@functools.cache
def build_parser():
    """The full argument parser, built once per process.  It serves help,
    usage errors and every argv that does not start with a command name."""
    parser = _Parser(
        prog="gradednil",
        description="Exact analysis of monoid-graded rings and their nilpotency bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=text))
    return parser


@functools.cache
def _command_parser(name):
    """One command's parser alone, built once per process: the parser that
    ``build_parser`` adds for the command, without the other five."""
    parser = _Parser(prog=f"gradednil {name}")
    COMMANDS[name][1](parser)
    return parser


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, building only the command's own
    parser when argv starts with a command name.  Arguments that parser
    leaves over are parsed again by the full parser, so the error shows the
    top-level usage line, as a parse by the full parser alone does."""
    if argv and argv[0] in COMMANDS:
        # command set first, as the full parser's subparser action sets it
        args, extra = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
        # looked up when it runs, so a wrapper installed on a ``cmd_*``
        # function after the parser is built is still called
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except (ValueError, KeyError) as exc:
        return _input_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
