"""Per-layer tracing of one benchmark pass, installed from outside the program.

Each traced function is replaced by a wrapper in every ``gradednil`` module
that holds it: modules that import a name directly (``from .nil import
ring_is_nil``) keep their own reference, so patching only the defining
module would miss them.  In-function imports resolve at call time and see
the patched defining module.  Methods are patched on their class.

Spans are aggregated in memory per name as [calls, inclusive s, self s];
self time is a span's duration minus the durations of the traced spans it
directly contains.  Extra counters (products returning zero, elements
enumerated, pairs, tuples) are computed from each call's arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from gradednil import (
    cli,
    fcomm,
    grading,
    linalg,
    monoid,
    nil,
    ringcore,
    specfile,
    theorems,
    words,
)

CHECK_FUNCTIONS = {
    "C3.04": "verify_quotient_grading_transfer",
    "C3.28": "verify_product_length_vanishing",
    "P3.03": "verify_empty_neutral_bound",
    "P3.17": "verify_index2_char_bound",
    "P3.31": "verify_homogeneous_power_vanishing",
    "T3.15": "verify_neutral_nil_fcomm_bound",
    "T3.18": "verify_nilpotent_neutral_bounds",
    "T3.19": "verify_generated_nil_ring_bound",
    "T3.20": "verify_generated_neutral_bound",
    "T3.24": "verify_field_bounded_index_bound",
    "T3.26": "verify_matrix_nil_transfer",
    "T3.29-REDUCTION": "verify_diagonal_power_reduction",
}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._child_time = []  # one accumulator per open span

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the
        call's (args, kwargs); ``after(args, kwargs, result, self_s)`` adds
        counters once the call returns."""
        stack = self._child_time
        spans = self.spans
        clock = time.perf_counter
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                span = spans[name if fixed else name(args, kwargs)]
                span[0] += 1
                span[1] += dt
                span[2] += self_s
            if after is not None:
                after(args, kwargs, result, self_s)
            return result

        return wrapper

    def dump(self):
        return {"spans": dict(self.spans), "counts": dict(self.counts)}


def _replace_everywhere(original, wrapper):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gradednil" or mod_name.startswith("gradednil."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bind


def _enumerated(ring, elem_cap):
    count = ring.element_count()
    return count if ring.rank and count is not None and count <= elem_cap else 0


def install():
    """Patch the traced functions; returns the Tracer collecting their spans."""
    tr = Tracer()
    counts = tr.counts

    def patch(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tr.wrap(original, name, after))

    def patch_method(cls, attr, name, after=None):
        setattr(cls, attr, tr.wrap(getattr(cls, attr), name, after))

    def spec_label(args, kwargs):
        return args[0].file.rsplit("/", 1)[-1].removesuffix(".spec")

    patch(cli, "cmd_report", lambda a, k: f"cli.report.{spec_label(a, k)}")
    patch(cli, "cmd_analyze", lambda a, k: f"cli.analyze.{spec_label(a, k)}")
    patch(cli, "cmd_oracle", lambda a, k: f"cli.oracle.cyclic{a[0].cyclic}")
    patch(specfile, "parse_spec", "specfile.parse_spec")
    for check_id, fn_name in CHECK_FUNCTIONS.items():
        patch(theorems, fn_name, f"theorems.{check_id}")

    patch(grading, "neutral_ring", "grading.neutral_ring")
    patch(grading, "elementary_grading", "grading.elementary_grading")

    def count_zero(args, kwargs, result, self_s):
        if not any(result):
            counts["ringcore.mul_coords.zero"] += 1

    patch_method(ringcore.Ring, "mul_coords", "ringcore.mul_coords", count_zero)
    patch_method(ringcore.Ring, "__init__", "ringcore.ring_init")
    for fn_name in ("power_chain", "min_generators", "generated_subalgebra", "matrix_ring"):
        patch(ringcore, fn_name, f"ringcore.{fn_name}")

    for fn_name in ("rref", "howell"):
        def count_rows(args, kwargs, result, self_s, fn_name=fn_name):
            counts[f"linalg.{fn_name}.rows_in"] += len(args[0])
            counts[f"linalg.{fn_name}.rank_out"] += len(result)

        patch(linalg, fn_name, f"linalg.{fn_name}", count_rows)

    def add_enum(n, self_s):
        if n:
            counts["nil.enum_elements"] += n
            counts["nil.enum_self_s"] += self_s

    bind_is_nil = _bound(nil.ring_is_nil)

    def is_nil_enum(args, kwargs, result, self_s):
        ba = bind_is_nil(args, kwargs)
        add_enum(_enumerated(ba["r"], ba["elem_cap"]), self_s)

    patch(nil, "ring_is_nil", "nil.ring_is_nil", is_nil_enum)

    bind_bounded = _bound(nil.nil_bounded_index)

    def bounded_mode(args, kwargs):
        return f"nil.nil_bounded_index.{bind_bounded(args, kwargs)['mode']}"

    def bounded_enum(args, kwargs, result, self_s):
        ba = bind_bounded(args, kwargs)
        if ba["mode"] == "enum":
            add_enum(_enumerated(ba["r"], ba["elem_cap"]), self_s)

    patch(nil, "nil_bounded_index", bounded_mode, bounded_enum)

    bind_s_nil = _bound(nil.s_nil_check)

    def s_nil_enum(args, kwargs, result, self_s):
        ba = bind_s_nil(args, kwargs)
        gr, size = ba["gr"], ba["gr"].ring.coeff.size
        if size is None:
            return
        n = 0
        for g in grading.support(gr):
            count = size ** len(grading.component_indices(gr, g))
            if count <= ba["elem_cap"]:
                n += count
        add_enum(n, self_s)

    patch(nil, "s_nil_check", "nil.s_nil_check", s_nil_enum)
    for fn_name in ("bounded_nil_index_auto", "nilpotency_index", "element_nil_index"):
        patch(nil, fn_name, f"nil.{fn_name}")

    def count_tuples(args, kwargs, result, self_s):
        counts["nil.homogeneous_power_report.tuples"] += sum(
            e["tuples_checked"] for e in result.per_degree.values()
        )

    patch(nil, "homogeneous_power_report", "nil.homogeneous_power_report", count_tuples)

    # Pairs are those of the path a call takes (exhaustive or sampled); a
    # refutation stops early, so for it the count is an upper bound.
    bind_check = _bound(fcomm.check_f_commutative)

    def check_pairs(args, kwargs, result, self_s):
        ba = bind_check(args, kwargs)
        count = ba["r"].element_count()
        exhaustive = count is not None and count * count <= ba["pair_cap"]
        counts["fcomm.check_f_commutative.pairs"] += count * count if exhaustive else ba["samples"]

    patch(fcomm, "check_f_commutative", "fcomm.check_f_commutative", check_pairs)

    bind_search = _bound(fcomm.scalar_f_search)

    def search_pairs(args, kwargs, result, self_s):
        ba = bind_search(args, kwargs)
        count = ba["r"].element_count()
        if count is None:
            counts["fcomm.scalar_f_search.pairs"] += ba["samples"]
        elif count * count <= ba["pair_cap"]:
            counts["fcomm.scalar_f_search.pairs"] += count * count

    patch(fcomm, "scalar_f_search", "fcomm.scalar_f_search", search_pairs)
    patch(fcomm, "lift_f_to_diagonal", "fcomm.lift_f_to_diagonal")

    for fn_name in ("neutral_split", "neutral_split_bruteforce", "block_degrees",
                    "small_gap_blocks"):
        patch(words, fn_name, f"words.{fn_name}")

    patch_method(monoid.Monoid, "contains", "monoid.contains")
    patch(monoid, "check_cancellative", "monoid.check_cancellative")
    return tr
