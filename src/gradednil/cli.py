"""Command-line front end.

Exit codes: 0 every check passed or was proved, 1 a refutation or failure,
2 a capped verdict (kept for a work budget: every verdict is exact now, so
none is capped), 3 an input or validation error, 141 output cut short by a
closed pipe.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from types import SimpleNamespace

from . import specfile, zoo
from .fcomm import PAIR_CAP
from .grading import GradedRing, component_indices, elementary_grading, support, trivial_grading
from .monoid import Congruence, Monoid
from .nil import Status, bounded_nil_index_auto, nilpotency_index, ring_is_nil, s_nil_check
from .ringcore import parse_domain
from .theorems import CheckStatus, full_report
# not lazy: that moves compiling ``words`` into an oracle call, the benchmark's timed pass
from .words import write_oracle

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_CAPPED = 2
EXIT_INPUT = 3
# what a shell reports for a tool that a closed pipe stops (128 + SIGPIPE)
EXIT_PIPE = 141

PAIR_CAP_ENV = "GRADEDNIL_PAIR_CAP"


def _caps_from(args) -> int:
    """The pair cap of ``--pair-cap``, else of ``GRADEDNIL_PAIR_CAP``, else
    the default; one that is not an integer, or is below 0, is an input
    error naming its source.  0 means "never enumerate"."""
    source, value = "--pair-cap", args.pair_cap
    if value is None:
        if PAIR_CAP_ENV not in os.environ:
            return PAIR_CAP
        source, text = PAIR_CAP_ENV, os.environ[PAIR_CAP_ENV]
        try:
            value = int(text)
        except ValueError:
            raise SystemExit(_input_error(f"{source} must be an integer, got {text!r}"))
    if value < 0:
        raise SystemExit(_input_error(f"{source} must be >= 0, got {value}"))
    return value


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
    pair_cap = _caps_from(args)
    parsed = _load(args.file)
    gr = _graded_or_trivial(parsed)
    cong = _parse_classes(classes, gr.monoid) if classes else None
    return full_report(gr, parsed.fmap, pair_cap, congruence=cong, only=only)


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


def _ids(text, option):
    """The integers of ``text``, split at commas and spaces."""
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise SystemExit(_input_error(f"bad {option}"))


def cmd_oracle(args):
    # only turns flags into values: ``words`` refuses what a split cannot take
    if args.cyclic is not None:
        monoid = Monoid.cyclic(args.cyclic)
    elif args.file is not None:
        monoid = _load(args.file).monoid
    else:
        raise SystemExit(_input_error("oracle needs --cyclic N or --file SPEC"))
    supp = set(_ids(args.supp, "--supp"))
    if args.word is None and not args.exhaustive:
        raise SystemExit(_input_error("oracle needs --word or --exhaustive"))
    word = None if args.word is None else _ids(args.word, "--word")
    try:
        disagreements = write_oracle(monoid, args.r, supp, sys.stdout, word)
    except ValueError as exc:
        # ``words`` starts a refusal of its parameter r or supp with the
        # parameter's name; here the flag gives it
        if str(exc).startswith(("r ", "supp ")):
            raise ValueError(f"--{exc}") from None
        raise
    return EXIT_OK if disagreements == 0 else EXIT_REFUTED


def cmd_construct(args):
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


# name -> (constructor called on the parsed arguments, header formatted with them,
# [fmap] mode, the zoo.NON_CONSTRUCTIBLE key whose entry ends the spec or None)
ZOO = {
    "sut": (lambda a: zoo.sut(a.n, parse_domain(a.domain)),
            "strictly upper triangular {n}x{n}", None, None),
    "truncated-nagata": (lambda a: zoo.truncated_nagata(a.k, a.p),
                         "truncated commutative nil ring, {k} generators mod {p}", None,
                         "nagata-union"),
    "grassmann-star": (lambda a: zoo.grassmann_star(a.k, parse_domain(a.domain)),
                       "unitless exterior algebra on {k} generators", "auto", "full-grassmann"),
    "two-z-2k": (lambda a: zoo.two_z_2k(a.k), "even residues modulo 2^{k}", "constant 1", None),
    "truncated-poly": (lambda a: zoo.truncated_poly_positive(a.n, parse_domain(a.domain)),
                       "positive-degree polynomials truncated at x^{n}", None,
                       "positive-polynomials"),
}


def cmd_zoo(args):
    name = args.name.replace("_", "-")
    if name == "list":
        for key, note in zoo.NON_CONSTRUCTIBLE.items():
            print(f"{key}: not constructible; {note}")
        print(f"constructible: {', '.join(ZOO)}")
        return EXIT_OK
    if name not in ZOO:
        raise SystemExit(_input_error(f"unknown zoo ring {args.name!r}"))
    build, header, fmap_mode, note = ZOO[name]
    try:
        built = build(args)
    except Exception as exc:
        raise SystemExit(_input_error(str(exc)))
    header = header.format(**vars(args))
    if isinstance(built, GradedRing):
        text = specfile.emit_graded(built, fmap_mode, header)
    else:
        text = specfile.emit_spec(built, fmap_mode=fmap_mode, header=header)
    if note:
        text += f"# note: {zoo.NON_CONSTRUCTIBLE[note]}\n"
    _write_out(text, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT, not argparse's 2, which means capped."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# nothing is sampled; --seed stays accepted for old command lines
_SEED = ("--seed", {"help": "ignored: every verdict is exact"})
_PAIR_CAP = ("--pair-cap", {
    "type": int, "help": f"most pairs the factor search enumerates (env {PAIR_CAP_ENV})"})
_JSON = ("--json", {"action": "store_true"})

# name -> (help, arguments).  An argument is (name, add_argument keywords),
# and a list of them is a mutually exclusive group.  The full parser and the
# plain parse (``_command_table``) both read this one table.
COMMANDS = {
    "analyze": ("support, components, nil and nilpotency verdicts", [("file", {}), _JSON, _SEED]),
    "verify": ("run one bound check by id (e.g. P3.03, T3.18)", [
        ("check_id", {}), ("file", {}), _JSON,
        ("--classes", {"help": "congruence classes for C3.04, e.g. '0 2 | 1 3'"}), _PAIR_CAP]),
    "report": ("run every applicable check", [
        ("file", {}), _JSON, ("--classes", {"help": "optional congruence classes for C3.04"}),
        _PAIR_CAP, _SEED]),
    # one monoid and one mode: a second is a usage error, never ignored
    "oracle": ("cross-validate the neutral-split construction", [
        ("which", {"choices": ["lemma-3-5"]}),
        [("--cyclic", {"type": int, "help": "use the cyclic monoid Z_N"}),
         ("--file", {"help": "take the monoid from a spec file"})],
        ("--supp", {"required": True, "help": "support element ids, e.g. '0,1'"}),
        ("--r", {"type": int, "required": True}),
        [("--word", {"help": "degree word, e.g. '1,1,1,1'"}),
         ("--exhaustive", {"action": "store_true"})]]),
    "construct": ("emit a derived spec file", [("which", {"choices": ["elementary"]}), ("file", {}),
                  ("--n", {"type": int, "default": 2}), ("--out", {"default": "-"})]),
    "zoo": ("emit a spec file for a built-in example ring", [
        ("name", {}), ("--n", {"type": int, "default": 3}), ("--k", {"type": int, "default": 2}),
        ("--p", {"type": int, "default": 2}), ("--domain", {"default": "fp 2"}),
        ("--out", {"default": "-"})]),
}


@functools.cache
def build_parser():
    """The full argument parser, built once per process.  It serves every
    argv that ``_parse_plain`` leaves to it: help, usage errors,
    abbreviations, ``--opt=value`` and any argv that does not start with a
    command name."""
    parser = _Parser(prog="gradednil", description="Exact analysis of monoid-graded "
                     "rings and their nilpotency bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for entry in arguments:
            grouped = isinstance(entry, list)
            target = p.add_mutually_exclusive_group() if grouped else p
            for arg, keywords in entry if grouped else [entry]:
                target.add_argument(arg, **keywords)
    return parser


def _modelled(name, group, *, type=None, action=None, default=None,
              required=False, choices=None, help=None):
    """One argument of ``_command_table``.  A keyword not named here, or a
    use of one that the plain parse would read otherwise than argparse,
    raises, so that no such argument is declared unnoticed."""
    flag = action == "store_true"
    if action not in (None, "store_true") or (
            isinstance(default, str) and type is not None):
        # argparse would convert a str default through type at parse time
        raise TypeError(f"argument {name!r}: action {action!r} or a typed "
                        "str default is not modelled")
    if not name.startswith("-"):
        if flag or required or default is not None or group is not None:
            raise TypeError(f"positional {name!r}: only type and choices are modelled")
        dest, option = name, None
    elif name.startswith("--") and len(name) > 2:
        dest, option = name[2:].replace("-", "_"), name
    else:
        raise TypeError(f"option {name!r}: only --name options are modelled")
    return SimpleNamespace(
        dest=dest, option=option, type=type, flag=flag,
        default=False if flag else default, required=required,
        choices=None if choices is None else tuple(choices), group=group)


@functools.cache
def _command_table(name):
    """The arguments of command ``name`` in ``COMMANDS`` order, built once
    per process, each a namespace of its ``dest``, its ``option`` (None for
    a positional), ``type``, ``flag`` (store_true), ``default``,
    ``required``, ``choices`` and ``group``: the index of its mutually
    exclusive group in the command's arguments, or None."""
    return tuple(
        _modelled(arg, i if isinstance(entry, list) else None, **keywords)
        for i, entry in enumerate(COMMANDS[name][1])
        for arg, keywords in (entry if isinstance(entry, list) else [entry]))


def _parse_plain(name, tokens):
    """The Namespace ``build_parser().parse_args([name, *tokens])`` gives,
    or None for a call this parse does not reproduce exactly.  It takes
    each option by its whole name, at most once, with its value, if it
    takes one, as the next token; at most one member of each group; no
    other token starting with "-"; and each positional once.  A value must
    pass its type and choices, and every required option must be given."""
    table = _command_table(name)
    options = {arg.option: arg for arg in table if arg.option}
    positionals = iter([arg for arg in table if not arg.option])
    values, groups = {}, set()
    tokens = iter(tokens)
    for token in tokens:
        if token.startswith("-"):
            arg = options.get(token)
            if arg is None or arg.dest in values or arg.group in groups:
                return None
            if arg.group is not None:
                groups.add(arg.group)
            if arg.flag:
                values[arg.dest] = True
                continue
            token = next(tokens, None)
            if token is None or token.startswith("-"):
                return None
        else:
            arg = next(positionals, None)
            if arg is None:
                return None
        try:
            value = token if arg.type is None else arg.type(token)
        except (TypeError, ValueError):
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = value
    if next(positionals, None) is not None or any(
            arg.required and arg.dest not in values for arg in table):
        return None
    # command first, then every dest in declaration order, as the full
    # parser's subparser action sets them
    args = argparse.Namespace(command=name)
    for arg in table:
        setattr(args, arg.dest, values.get(arg.dest, arg.default))
    return args


def _parse_args(argv):
    """``build_parser().parse_args(argv)``.  A plain call of a command is
    parsed from its ``_command_table``, with no parser built; help, usage
    errors, abbreviations, ``--opt=value`` and every other argv go to the
    full parser, so their output and exit codes are argparse's."""
    args = _parse_plain(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    return args if args is not None else build_parser().parse_args(argv)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
        # looked up when it runs, so a wrapper installed on a ``cmd_*``
        # function after the parser is built is still called
        code = globals()[f"cmd_{args.command}"](args)
        # flushed here, so a reader that has gone is met inside the try
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except (ValueError, KeyError) as exc:
        return _input_error(str(exc))
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): what is left unwritten
        # goes to os.devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
