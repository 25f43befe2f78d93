"""Command-line front end.

Exit codes: 0 every check passed or was proved, 1 a refutation or failure,
2 a capped verdict (kept for a work budget: every verdict is exact now, so
none is capped), 3 an input or validation error.
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

PAIR_CAP_ENV = "GRADEDNIL_PAIR_CAP"


def _caps_from(args) -> Caps:
    """The pair cap of ``--pair-cap``, else of ``GRADEDNIL_PAIR_CAP``, else
    the default; one that is not an integer, or is below 0, is an input
    error naming its source.  0 means "never enumerate"."""
    source, value = "--pair-cap", args.pair_cap
    if value is None:
        if PAIR_CAP_ENV not in os.environ:
            return Caps()
        source, text = PAIR_CAP_ENV, os.environ[PAIR_CAP_ENV]
        try:
            value = int(text)
        except ValueError:
            raise SystemExit(_input_error(f"{source} must be an integer, got {text!r}"))
    if value < 0:
        raise SystemExit(_input_error(f"{source} must be >= 0, got {value}"))
    return Caps(pair_cap=value)


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
        if n >= 63 or monoid.size**n > INT64_MAX:
            # the walk numbers its words in int64, and the length is checked
            # first so that no huge power is taken; on one element, whose
            # only word is e^n, the length bound alone stops a walk whose
            # tables grow as n^2
            return _input_error(
                f"--exhaustive needs r*d below 63 and at most int64-max words; "
                f"r*d = {n} gives {monoid.size}**{n} words; lower --r")
        disagreements = _write_exhaustive(monoid, r, supp)
    else:
        raise SystemExit(_input_error("oracle needs --word or --exhaustive"))
    print(f"disagreements: {disagreements}")
    return EXIT_OK if disagreements == 0 else EXIT_REFUTED


def _write_exhaustive(monoid, r, supp):
    """Write ``oracle --exhaustive``'s line for every word, one block of
    ``exhaustive_splits`` at a time, and return the number of disagreements.

    A block is h heads, each followed by every tail, and a line is a lead,
    ``word=[`` and the head letters (``DISAGREE word=[`` and them on a
    disagreeing row), the tail letters, made once for all blocks, and the
    verdict suffix.  A block is written as one joined list: its first lead,
    then per line its tail text and its suffix followed by the next line's
    lead (nothing after the block's last line).  Within a head the next
    lead is the same, so each suffix + lead is made once per head and cut
    sequence; only a head's last line, and a disagreeing row and the row
    before it, are made one by one, and a correct run has no disagreeing
    row.  Suffixes are made once per cut sequence and looked up by its id.
    Ids are dealt one cut at a time: ``link[i][p * width + c]`` is the id
    of the first i + 1 cuts of the sequences whose first i have id p and
    whose cut i is c, -1 until one is seen.  Id 0 and the last column stand
    for a row that is not split, so the last level's id indexes the
    suffixes with FORCED_ZERO at 0, and a block finds every line's suffix
    with r + 1 takes.
    """
    d = len(supp)
    names = [str(g) for g in monoid.elements()]
    tails, blocks = exhaustive_splits(monoid, r, supp)
    # j < n keeps one head letter, so every tail text starts with ", "
    tail_texts, letters = [""], [", " + g for g in names]
    for _ in range(tails.shape[1]):
        tail_texts = [t + x for t in tail_texts for x in letters]
    m = len(tail_texts)
    width = r * d + 2
    link = [np.full(width, -1, dtype=np.intp) for _ in range(r + 1)]
    for level in link:
        level[-1] = 0
    suffixes = np.array(["] FORCED_ZERO (both)\n"], dtype=object)
    # a block's pieces: the tail texts at the odd places stay from block to
    # block, made again only for a block of another size; every even place
    # is written for each block
    pieces = []
    disagreements = 0
    for heads, got, ref in blocks:
        agree = (got.zero == ref.zero) & (ref.zero | (ref.cuts[:, 0] >= 0))
        column = np.where(agree & ~got.zero, got.cuts.T, width - 1)
        at = np.zeros(len(agree), dtype=np.intp)
        for i, level in enumerate(link):
            to = at * width + column[i]
            at = level.take(to)
            if at.min() < 0:
                fresh = at < 0
                # new ids in ascending place, marked in the table, no sort
                level[to[fresh]] = -2
                new = np.flatnonzero(level == -2)
                count = len(link[i + 1]) // width if i < r else len(suffixes)
                level[new] = np.arange(count, count + len(new))
                at = level.take(to)
                if i < r:
                    link[i + 1] = np.concatenate((link[i + 1], np.full(len(new) * width, -1)))
                else:
                    # one row per new sequence, any row: they share their cuts
                    rows = np.empty(len(new), dtype=np.intp)
                    rows[at[fresh] - count] = np.flatnonzero(fresh)
                    texts = []
                    for cuts in got.cuts[rows].tolist():
                        dec = Decomposition(tuple(cuts))
                        texts.append(f"] cuts={dec.cuts} "
                                     f"small-gap blocks={small_gap_blocks(dec, d)}\n")
                    suffixes = np.concatenate((suffixes, np.array(texts, dtype=object)))

        leads = ["word=[" + ", ".join(map(names.__getitem__, head)) for head in heads.tolist()]
        bad = set(np.flatnonzero(~agree).tolist())

        def lead(i):
            if i == len(agree):
                return ""
            return ("DISAGREE " if i in bad else "") + leads[i // m]

        def suffix(i):
            if i in bad:
                return f"] split={got.verdict(i)} oracle={ref.verdict(i)}\n"
            return suffixes[at[i]]

        if len(pieces) != 2 * len(agree) + 1:
            pieces = [None] * (2 * len(agree) + 1)
            pieces[1::2] = tail_texts * len(leads)
        pieces[0] = lead(0)
        for h, text in enumerate(leads):
            lines = at[h * m:(h + 1) * m]
            pieces[2 * h * m + 2:2 * (h + 1) * m + 2:2] = (suffixes + text)[lines].tolist()
        for i in sorted(bad | set(range(m - 1, len(agree), m))):
            pieces[2 * i + 2] = suffix(i) + lead(i + 1)
            if i in bad:
                pieces[2 * i] = (suffix(i - 1) if i else "") + lead(i)
        disagreements += len(bad)
        sys.stdout.write("".join(pieces))
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


def _add_ignored_seed(p):
    # nothing is sampled; the flag stays accepted for old command lines
    p.add_argument("--seed", help="ignored: every verdict is exact")


def _add_pair_cap(p):
    p.add_argument("--pair-cap", type=int,
                   help=f"most pairs the factor search enumerates (env {PAIR_CAP_ENV})")


def _analyze_args(p):
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    _add_ignored_seed(p)


def _verify_args(p):
    p.add_argument("check_id")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--classes", help="congruence classes for C3.04, e.g. '0 2 | 1 3'")
    _add_pair_cap(p)


def _report_args(p):
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--classes", help="optional congruence classes for C3.04")
    _add_pair_cap(p)
    _add_ignored_seed(p)


def _oracle_args(p):
    # one monoid and one mode: a second is a usage error, never ignored
    p.add_argument("which", choices=["lemma-3-5"])
    source = p.add_mutually_exclusive_group()
    source.add_argument("--cyclic", type=int, help="use the cyclic monoid Z_N")
    source.add_argument("--file", help="take the monoid from a spec file")
    p.add_argument("--supp", required=True, help="support element ids, e.g. '0,1'")
    p.add_argument("--r", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--word", help="degree word, e.g. '1,1,1,1'")
    mode.add_argument("--exhaustive", action="store_true")


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
