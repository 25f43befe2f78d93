"""A standing mutation gate: every listed mutant of ``src/`` must be killed.

Each entry is (file, old text, new text, test selection).  For each one the
tree is copied to a temporary directory, the old text (which must occur
exactly once) is replaced by the new, and the selection runs there with
``pytest -x``; the mutant is killed when a selected test fails.  A mutant
whose old text is missing or repeated, or whose selection still passes,
fails the gate.  Before any mutant, the selections run once on the tree as
it is and must pass, so a kill is a test noticing the edit.

Run it from anywhere:

    python tests/mutants.py

pytest does not collect this file.  A refactor that rewrites a mutated line
updates its entry; a new fast path adds a mutant for itself.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THEOREMS = "src/gradednil/theorems.py"
NIL = "src/gradednil/nil.py"
RINGCORE = "src/gradednil/ringcore.py"
LINALG = "src/gradednil/linalg.py"
FCOMM = "src/gradednil/fcomm.py"
WORDS = "src/gradednil/words.py"
REFUSES = "tests/test_words.py::test_every_entry_point_refuses_what_a_split_cannot_take"
BOUNDARY = "tests/test_theorems.py::test_every_bound_check_judges_the_bound_it_prints"
WALK = "tests/test_words.py::test_exhaustive_walk_matches_per_word_functions"
WRITE = "tests/test_words.py::test_exhaustive_write_prints_every_reference_line_in_order"

MUTANTS = [
    # -- the one judge: it reads the printed bound, both ends
    (THEOREMS, "lo <= ndv.index <= hi else", "lo <= ndv.index < hi else", [BOUNDARY]),
    (THEOREMS, "lo <= ndv.index <= hi else", "lo <= ndv.index <= hi + 1 else", [BOUNDARY]),
    (THEOREMS, "lo <= ndv.index <= hi else", "ndv.index <= hi else", [BOUNDARY]),
    # -- printed bounds
    (THEOREMS, "bound=d + 1)", "bound=d + 2)",
     ["tests/test_theorems.py::test_empty_neutral_sut5_tight"]),
    (THEOREMS, "return 2 * s * d * geometric_support_sum(d)",
     "return s * d * geometric_support_sum(d)",
     ["tests/test_theorems.py::test_bound_formulas"]),
    (THEOREMS, "return 2 * s * d * geometric_support_sum(d)",
     "return 4 * s * d * geometric_support_sum(d)",
     ["tests/test_theorems.py::test_bound_formulas"]),
    (THEOREMS, "check.bound = [r, d + 1 if r == 1 else d * r]",
     "check.bound = [r, d + 1 if r == 1 else d * r + 1]",
     ["tests/test_theorems.py::test_nilpotent_neutral_m2_two_z8"]),
    (THEOREMS, "check.bound = [r, d + 1 if r == 1 else d * r]",
     "check.bound = [r, d + 1 if r == 1 else d * r - 1]",
     ["tests/test_theorems.py::test_nilpotent_neutral_m2_two_z8"]),
    (THEOREMS, "check.bound = [s, (s - 1) * n + 1]", "check.bound = [s, (s - 1) * n + 2]",
     ["tests/test_theorems.py::test_generated_nil_two_z8_tight"]),
    (THEOREMS, "check.bound = [s, (s - 1) * n + 1]", "check.bound = [1, (s - 1) * n + 1]",
     ["tests/test_theorems.py::test_generated_nil_two_z8_tight"]),
    (THEOREMS, "check.bound = [s, d * ((s - 1) * n + 1)]",
     "check.bound = [s, d * (s - 1) * n + 1]",
     ["tests/test_theorems.py::test_generated_neutral_m2_two_z8"]),
    (THEOREMS, "check.bound = d * (2**s - 1)\n    else:", "check.bound = d * 2**s\n    else:",
     ["tests/test_theorems.py::test_field_bounded_index_char_p_case"]),
    (THEOREMS, "q = 2**s - 1 if s <= 4 else s * s", "q = 2**s if s <= 4 else s * s",
     ["tests/test_theorems.py::test_field_bounded_index_grassmann_q"]),
    (THEOREMS, "if s not in (2, 3, 4):", "if s not in (2, 3, 4, 5):",
     ["tests/test_theorems.py::test_product_length_needs_a_neutral_nil_index_in_2_to_4"]),
    (THEOREMS, "bound=3 * d,", "bound=4 * d,",
     ["tests/test_theorems.py::test_index2_char_grassmann_f3_tight"]),
    (THEOREMS, "check.bound = nil_index_bound(sv.index, 2)",
     "check.bound = nil_index_bound(sv.index, 3)",
     ["tests/test_theorems.py::test_matrix_transfer_two_z8"]),
    # -- past the bound, the judge names a nonzero element of R^hi
    (THEOREMS, "power_chain(ring)[hi - 1][0]", "power_chain(ring)[hi][0]",
     ["tests/test_theorems.py::test_judge_names_a_nonzero_element_of_r_hi_past_a_nilpotency_bound"]),
    # -- P3.17's cube test, and the witness its FAIL names
    (THEOREMS, "if cube.index > 3:", "if cube.index > 4:",
     ["tests/test_theorems.py::test_index2_char_cube_fail_names_a_nonzero_cube"]),
    # -- T3.19 and T3.20 read 1 as the generator index of no generators
    (THEOREMS, "for g in min_generators(r)), default=1)", "for g in min_generators(r)), default=2)",
     ["tests/test_theorems.py::test_full_report_zero_ring"]),
    # -- kernels
    # the falling-factorial expansion: Kempner's weight, and the a (t)_a term
    (NIL, "live = coef * weight % m != 0", "live = coef % m != 0",
     ["tests/test_nil.py::test_d4_ring_witness_sits_below_the_nilpotency_index"]),
    (NIL, "stay = np.flatnonzero(a)", "stay = np.flatnonzero(a)[:0]",
     ["tests/test_nil.py::test_bounded_index_enum_two_z8"]),
    # P3.31's k_g = min(o(g), d), on Z_5 with support size 3
    (NIL, "kg = int(min(element_order(gr.monoid, g), len(supp)))",
     "kg = int(element_order(gr.monoid, g))",
     ["tests/test_nil.py::test_power_report_matches_tuple_loop[z5-supp-012]"]),
    (RINGCORE, "return r.rank * (1 if dom.is_field else dom.modulus.bit_length()) + 1",
     "return r.rank * (1 if dom.is_field else dom.modulus.bit_length())",
     ["tests/test_nil.py::test_element_nil_index_never_cycling_power_is_refuted"]),
    (RINGCORE, "while w and w not in words and len(words) < n:", "while w and len(words) < n:",
     ["tests/test_ringcore.py::test_power_chain_memo_matches_reference_at_every_cap"
      "[idempotent-beside-poly10]"]),
    # the chain takes the words' suffix sums only once they reach R^2
    (RINGCORE, "        if suffix[-1] == square:", "        if True:",
     ["tests/test_ringcore.py::test_power_chain_memo_matches_reference_at_every_cap"
      "[sut3+idempotent]"]),
    # min_generators' CRT glue adds the per-prime lists
    (RINGCORE, "gen[t] += e", "gen[t] = e",
     ["tests/test_ringcore.py::test_min_generators_glues_primes_with_crt_idempotents"]),
    # rref clears a new pivot's column from the other pivots
    (LINALG, "if prow[col]:", "if prow[col] and False:",
     ["tests/test_linalg.py::test_rref_over_f2"]),
    # howell re-emits the annihilator multiple of an improved pivot
    (LINALG, "                push_annihilator(newp, work)\n", "",
     ["tests/test_linalg.py::test_howell_reemits_the_annihilator_of_an_improved_pivot"]),
    # every entry point of the split refuses a support with a non-element
    # and a monoid that is not left cancellative
    (WORDS, "if not supp or not all(map(monoid.contains, supp)):", "if not supp:",
     [f"{REFUSES}[exhaustive_splits-support-0-7]"]),
    (WORDS, "if not check_cancellative(monoid):", "if False:",
     [f"{REFUSES}[neutral_split-not-left-cancellative]"]),
    # Lemma 3.5's kernels: the split counts the head's own prefix degrees,
    # and the brute force ends a block that crosses into the tail k - a
    # letters past where the tail's own table ends it
    (WORDS, "np.add(count_from[P[0]], own[:, None], dtype=score_t)",
     "np.add(count_from[P[0]], 0, dtype=score_t)", [WALK]),
    (WORDS, "np.multiply(shortest + later, shortest > 0, out=row)",
     "np.multiply(shortest, shortest > 0, out=row)", [WALK]),
    # the walk's writer: no lead after a block's last line, and the next
    # block's lead before its first
    (WORDS, "        pieces[-1] = suffixes[at[-1]]\n", "", [WRITE]),
    (WORDS, "        pieces[0] = lead\n", "        pieces[0] = \"\"\n", [WRITE]),
    # the factor search prefers 1, then -1
    (FCOMM, "for s in (1, m - 1, c)", "for s in (m - 1, 1, c)",
     ["tests/test_fcomm.py::test_scalar_search_commutative_gives_constant_one"]),
    # a pair table is refused one pair short, and the cap stops only past count^2
    (FCOMM, "                if (ca, cb) not in rule:",
     "                if (ca, cb) not in rule and cb != ca:",
     ["tests/test_fcomm.py::test_pair_table_one_pair_short_names_the_pair_it_leaves_out"]),
    (FCOMM, "(count := r.element_count()) ** 2 > pair_cap",
     "(count := r.element_count()) ** 2 >= pair_cap",
     ["tests/test_fcomm.py::test_pair_cap_is_hit_only_past_count_squared"]),
]


def _pytest(cwd, selection):
    """Runs ``selection`` in ``cwd`` with ``pytest -x``; its exit code."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    env = dict(os.environ, PYTHONPATH=str(Path(cwd) / "src"))
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True).returncode


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, Path(dest) / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _mutant(dest, file, old, new):
    """Copies the tree to ``dest`` with the edit made; False when ``old``
    does not occur exactly once."""
    _copy(dest)
    path = Path(dest) / file
    text = path.read_text()
    if text.count(old) != 1:
        return False
    path.write_text(text.replace(old, new))
    return True


def main():
    selections = sorted({test for *_, selection in MUTANTS for test in selection})
    code = _pytest(ROOT, selections)
    if code:
        print(f"the unmutated tree fails its selections (pytest exit {code})")
        return 1
    survivors = 0
    for n, (file, old, new, selection) in enumerate(MUTANTS, 1):
        edit = f"{file}: {old.strip()!r} -> {new.strip()!r}"
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory() as dest:
            if not _mutant(dest, file, old, new):
                verdict = "MISSING (old text not found exactly once)"
            else:
                # 1 is a failed test; any other code is an error, not a kill
                code = _pytest(dest, selection)
                verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        survivors += verdict != "killed"
        print(f"{n:2} {verdict:<10} {time.monotonic() - t0:6.1f}s  {edit}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
