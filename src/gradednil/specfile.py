"""Sectioned key-value files describing a monoid, ring, grading, and factor map.

Format (``#`` starts a comment, blank lines ignored)::

    [monoid]
    kind = table            # or: int-add
    size = 4
    table = 0 1 2 3  1 2 3 0  2 3 0 1  3 0 1 2   # row-major, identity id 0

    [ring]
    coeff = zmod 4          # zmod M | fp P | rat  (rat coeffs may be p/q)
    rank = 1
    names = b
    sc = 0 0 0 2            # i j k coeff; repeat the key per nonzero constant

    [grading]
    deg = 0                 # one monoid element per basis vector

    [fmap]
    constant = 1            # or: rule = auto  (derived when the check runs,
                            #     with --pair-cap in effect)
                            # or, over zmod and fp, one line per pair:
                            #   pair = <a coords> ; <b coords> ; <scalar>

The factor map applies to the neutral component when a grading is present,
otherwise to the whole ring.  Sections other than [ring] are optional.
A section takes the keys shown above and no other; sc and pair repeat, one
line per constant or pair, and any other key is given at most once.  Each
section header appears once, [fmap] takes exactly one of constant, rule and
pair lines, and kind = int-add takes no size or table.
Validation failures surface the violated axiom and its witness; syntax
errors carry the line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fcomm import FMap
from .grading import GradedRing, neutral_ring
from .monoid import INT_ADD, Monoid
from .ringcore import Ring, parse_domain


class SpecFileError(ValueError):
    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class ParsedSpec:
    monoid: Monoid | None
    ring: Ring
    graded: GradedRing | None
    fmap: FMap | None  # None without [fmap] or with rule = auto


def _tokenize(text):
    """Yield (line_number, section, key, value) for every key line."""
    section = None
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            yield num, section, None, None
            continue
        if "=" not in line:
            raise SpecFileError(f"expected 'key = value', got {line!r}", num)
        key, value = line.split("=", 1)
        if section is None:
            raise SpecFileError("key line before any [section]", num)
        yield num, section, key.strip().lower(), value.strip()


SECTION_KEYS = {"monoid": {"kind", "size", "table"}, "ring": {"coeff", "rank", "names", "sc"},
                "grading": {"deg"}, "fmap": {"constant", "rule", "pair"}}


def _collect(text):
    sections, first = {}, {}
    for num, section, key, value in _tokenize(text):
        if key is None:
            if section in sections:
                raise SpecFileError(
                    f"section [{section}] repeats line {first[section, None]}", num)
            sections[section], first[section, None] = [], num
            continue
        if section not in SECTION_KEYS:
            continue  # an unknown section is rejected by name once all are read
        if key not in SECTION_KEYS[section]:
            raise SpecFileError(f"unknown key {key!r} in [{section}]", num)
        if key not in ("sc", "pair") and (section, key) in first:
            raise SpecFileError(
                f"key {key!r} repeats line {first[section, key]} of [{section}]", num)
        first.setdefault((section, key), num)
        sections[section].append((num, key, value))
    return sections


def _coeff_value(tok, dom, num):
    try:
        if dom.finite:
            return int(tok)
        return Fraction(tok)
    except ValueError:
        raise SpecFileError(f"bad coefficient {tok!r}", num)


def _parse_monoid(entries):
    kv = {k: (n, v) for n, k, v in entries}
    if "kind" not in kv:
        raise SpecFileError("[monoid] needs kind = table | int-add")
    num, kind = kv["kind"]
    if kind == "int-add":
        for key in ("size", "table"):
            if key in kv:
                raise SpecFileError(
                    f"kind int-add on line {num} takes no {key!r}", kv[key][0])
        return Monoid.int_add()
    if kind != "table":
        raise SpecFileError(f"unknown monoid kind {kind!r}", num)
    if "size" not in kv or "table" not in kv:
        raise SpecFileError("[monoid] table kind needs size and table", num)
    snum, size_text = kv["size"]
    try:
        size = int(size_text)
    except ValueError:
        raise SpecFileError(f"bad size {size_text!r}", snum)
    tnum, table_text = kv["table"]
    try:
        flat = [int(t) for t in table_text.split()]
    except ValueError:
        raise SpecFileError("table entries must be integers", tnum)
    if len(flat) != size * size:
        raise SpecFileError(
            f"table needs {size * size} entries, got {len(flat)}", tnum
        )
    rows = [flat[i * size : (i + 1) * size] for i in range(size)]
    return Monoid.from_table(rows, identity=0)


def _parse_ring(entries):
    kv = {k: (n, v) for n, k, v in entries if k != "sc"}
    sc_lines = [(n, v) for n, k, v in entries if k == "sc"]
    for needed in ("coeff", "rank"):
        if needed not in kv:
            raise SpecFileError(f"[ring] needs {needed}")
    cnum, coeff_text = kv["coeff"]
    try:
        dom = parse_domain(coeff_text)
    except ValueError as exc:
        raise SpecFileError(str(exc), cnum)
    rnum, rank_text = kv["rank"]
    try:
        rank = int(rank_text)
    except ValueError:
        raise SpecFileError(f"bad rank {rank_text!r}", rnum)
    if rank < 0:
        raise SpecFileError("rank must be >= 0", rnum)
    if "names" in kv:
        names = kv["names"][1].split()
        if len(names) != rank:
            raise SpecFileError(
                f"expected {rank} basis names, got {len(names)}", kv["names"][0]
            )
    else:
        names = [f"b{t}" for t in range(rank)]
    sc, first = {}, {}
    for num, value in sc_lines:
        toks = value.split()
        if len(toks) != 4:
            raise SpecFileError("sc lines are 'i j k coeff'", num)
        try:
            i, j, k = (int(t) for t in toks[:3])
        except ValueError:
            raise SpecFileError("sc indices must be integers", num)
        c = _coeff_value(toks[3], dom, num)
        if not (0 <= i < rank and 0 <= j < rank and 0 <= k < rank):
            raise SpecFileError(f"sc indices ({i}, {j}, {k}) out of range", num)
        if (i, j, k) in first:
            raise SpecFileError(f"sc ({i}, {j}, {k}) repeats line {first[i, j, k]}", num)
        first[i, j, k] = num
        sc.setdefault((i, j), {})[k] = c
    return Ring(dom, names, sc)


def _parse_grading(entries, monoid, ring):
    kv = {k: (n, v) for n, k, v in entries}
    if "deg" not in kv:
        raise SpecFileError("[grading] needs deg = one value per basis vector")
    num, text = kv["deg"]
    try:
        degrees = [int(t) for t in text.split()]
    except ValueError:
        raise SpecFileError("degrees must be integers", num)
    if monoid is None:
        raise SpecFileError("[grading] requires a [monoid] section", num)
    return GradedRing(ring, monoid, degrees)


def _parse_fmap(entries, ring, graded):
    forms = {}  # the first line of each form, in file order
    for num, key, _ in entries:
        forms.setdefault(key, num)
    if len(forms) > 1:
        (k0, n0), (k1, n1) = list(forms.items())[:2]
        raise SpecFileError(
            f"[fmap] takes one of constant, rule and pair lines: {k1!r} "
            f"conflicts with {k0!r} on line {n0}", n1)
    kv = {k: (n, v) for n, k, v in entries if k != "pair"}
    pair_lines = [(n, v) for n, k, v in entries if k == "pair"]
    target = ring
    if graded is not None:
        target = neutral_ring(graded)
    if "constant" in kv:
        num, text = kv["constant"]
        value = _coeff_value(text, target.coeff, num)
        return FMap.constant(target.coeff.normalize(value))
    if pair_lines:
        dom = target.coeff
        if not dom.finite:
            raise SpecFileError(
                f"pair lines cannot give a scalar for every pair over {dom.label()}; "
                "use constant = <scalar> or rule = auto", pair_lines[0][0],
            )
        rule, first = {}, {}
        for num, value in pair_lines:
            parts = [p.split() for p in value.split(";")]
            if len(parts) != 3 or len(parts[0]) != target.rank or len(parts[1]) != target.rank or len(parts[2]) != 1:
                raise SpecFileError(
                    "pair lines are '<a coords> ; <b coords> ; <scalar>' over "
                    f"the {'neutral component' if graded is not None else 'ring'}"
                    f" (rank {target.rank})",
                    num,
                )
            ca = tuple(dom.normalize(_coeff_value(t, dom, num)) for t in parts[0])
            cb = tuple(dom.normalize(_coeff_value(t, dom, num)) for t in parts[1])
            if (ca, cb) in first:
                raise SpecFileError(f"pair ({ca}, {cb}) repeats line {first[ca, cb]}", num)
            first[ca, cb] = num
            rule[(ca, cb)] = dom.normalize(_coeff_value(parts[2][0], dom, num))
        try:
            return FMap.from_rule(rule, target, label="explicit pairwise rule")
        except ValueError as exc:
            raise SpecFileError(f"pair lines give {exc}", pair_lines[0][0]) from None
    if "rule" in kv:
        num, text = kv["rule"]
        if text != "auto":
            raise SpecFileError(f"unknown fmap rule {text!r}", num)
        # derived by ``theorems.full_report``, under the pair cap of the run
        return None
    raise SpecFileError(
        "[fmap] needs constant = <scalar>, rule = auto, or pair lines"
    )


def parse_spec_text(text) -> ParsedSpec:
    sections = _collect(text)
    unknown = set(sections) - SECTION_KEYS.keys()
    if unknown:
        raise SpecFileError(f"unknown sections: {sorted(unknown)}")
    if "ring" not in sections:
        raise SpecFileError("missing [ring] section")
    monoid = _parse_monoid(sections["monoid"]) if "monoid" in sections else None
    ring = _parse_ring(sections["ring"])
    graded = (
        _parse_grading(sections["grading"], monoid, ring)
        if "grading" in sections
        else None
    )
    fmap = _parse_fmap(sections["fmap"], ring, graded) if "fmap" in sections else None
    return ParsedSpec(monoid, ring, graded, fmap)


def parse_spec(path) -> ParsedSpec:
    with open(path) as fh:
        return parse_spec_text(fh.read())


def emit_spec(
    ring: Ring,
    monoid: Monoid | None = None,
    degrees=None,
    fmap_mode: str | None = None,
    header: str | None = None,
) -> str:
    """Render a spec file; parse_spec of the result rebuilds equal objects."""
    lines = []
    if header:
        lines.append(f"# {header}")
    if monoid is not None:
        lines.append("[monoid]")
        if monoid.kind == INT_ADD:
            lines.append("kind = int-add")
        else:
            lines.append("kind = table")
            lines.append(f"size = {monoid.size}")
            flat = " ".join(str(v) for row in monoid.table for v in row)
            lines.append(f"table = {flat}")
        lines.append("")
    lines.append("[ring]")
    lines.append(f"coeff = {ring.coeff.label()}")
    lines.append(f"rank = {ring.rank}")
    if ring.rank:
        lines.append("names = " + " ".join(ring.names))
    for (i, j) in sorted(ring.sc):
        for k in sorted(ring.sc[(i, j)]):
            lines.append(f"sc = {i} {j} {k} {ring.sc[(i, j)][k]}")
    if degrees is not None:
        lines.append("")
        lines.append("[grading]")
        lines.append("deg = " + " ".join(str(g) for g in degrees))
    if fmap_mode is not None:
        lines.append("")
        lines.append("[fmap]")
        if fmap_mode == "auto":
            lines.append("rule = auto")
        else:
            lines.append(f"constant = {fmap_mode.split()[-1]}")
    return "\n".join(lines) + "\n"


def emit_graded(gr: GradedRing, fmap_mode=None, header=None) -> str:
    return emit_spec(gr.ring, gr.monoid, gr.degrees, fmap_mode, header)
