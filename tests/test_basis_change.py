"""Basis-change invariance: the ring, its grading and every verdict are
independent of the basis chosen within each homogeneous component, so a
report on a rebased ring must match the report on the ring itself."""

import random

import pytest

from gradednil.grading import GradedRing, elementary_grading, trivial_grading
from gradednil.ringcore import Ring, fp, rat, zmod
from gradednil.theorems import full_report
from gradednil.zoo import grassmann_star, sut, truncated_nagata, truncated_poly_positive, two_z_2k


def unimodular(n, rng):
    """A random integer n x n matrix of determinant +-1 and its integer
    inverse, built by row operations: a multiple of one row added to
    another, or two rows swapped."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]  # p^-1, kept by the matching column operations
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.25:
            p[i], p[j] = p[j], p[i]
            for row in q:
                row[i], row[j] = row[j], row[i]
        else:
            k = rng.choice((-2, -1, 1, 2))
            p[i] = [a + k * b for a, b in zip(p[i], p[j])]
            for row in q:
                row[j] -= k * row[i]
    return p, q


def rebase(gr, seed):
    """``gr`` in the basis b'_i = sum_t P[i][t] b_t, where P is block
    diagonal over the degree blocks and each block is unimodular, so P is
    invertible over every Z/m and over Q and each b'_i is homogeneous.
    Returns the rebased graded ring, checked, and P."""
    r, dom, n = gr.ring, gr.ring.coeff, gr.ring.rank
    rng = random.Random(seed)
    p = [[0] * n for _ in range(n)]
    q = [[0] * n for _ in range(n)]
    for g in sorted(set(gr.degrees)):
        block = [t for t, d in enumerate(gr.degrees) if d == g]
        pb, qb = unimodular(len(block), rng)
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                p[i][j], q[i][j] = pb[a][b], qb[a][b]
    rows = [tuple(dom.normalize(c) for c in row) for row in p]
    sc = {}
    for i in range(n):
        for j in range(n):
            z = r.mul_coords(rows[i], rows[j])
            # z = z' P in the old basis, so z' = z P^-1
            entry = {t: c for t in range(n)
                     if (c := dom.normalize(sum(z[s] * q[s][t] for s in range(n))))}
            if entry:
                sc[(i, j)] = entry
    ring = Ring(dom, [f"{name}'" for name in r.names], sc)
    return GradedRing(ring, gr.monoid, gr.degrees), p


RINGS = {
    "sut4-q": lambda: sut(4, rat()),
    "sut4-z6": lambda: sut(4, zmod(6)),
    "sut5-f2": lambda: sut(5, fp(2)),
    "grassmann2-f3": lambda: grassmann_star(2, fp(3)),
    "grassmann3-f5": lambda: grassmann_star(3, fp(5)),
    "nagata23": lambda: trivial_grading(truncated_nagata(2, 3)),
    "2Z_8": lambda: trivial_grading(two_z_2k(3)),
    "M2-2Z_8": lambda: elementary_grading(two_z_2k(3), 2),
    "M2-grassmann2-f3": lambda: elementary_grading(grassmann_star(2, fp(3)).ring, 2),
    "tpoly5-q": lambda: truncated_poly_positive(5, rat()),
    "tpoly4-z6": lambda: truncated_poly_positive(4, zmod(6)),
}

# T3.19's and T3.20's bounds are read off the generators min_generators
# picks, which depend on the basis; their verdicts must still hold
GENERATOR_BOUNDS = {"T3.19", "T3.20"}
DERIVED = "commutation factor derived automatically: "


def summary(gr):
    """Every check's (status, observed, bound), keyed by id, with no bound
    for T3.19 and T3.20, and the label of the derived factor or None."""
    report = full_report(gr)
    checks = {c.id: (c.status, c.observed, None if c.id in GENERATOR_BOUNDS else c.bound)
              for c in report.checks}
    label = next((n[len(DERIVED):] for n in report.notes if n.startswith(DERIVED)), None)
    return checks, label


@pytest.mark.parametrize("make", RINGS.values(), ids=RINGS)
def test_report_survives_a_homogeneous_change_of_basis(make):
    gr = make()
    want = summary(gr)
    for seed in range(3):
        rebased, p = rebase(gr, seed)
        assert rebased.ring != gr.ring or gr.ring.rank < 2, p
        assert summary(rebased) == want, p


def test_rebase_keeps_the_ring_up_to_isomorphism():
    # b'_i b'_j, mapped back through P, is the product of the rows of P
    gr = grassmann_star(3, fp(5))
    rebased, p = rebase(gr, 1)
    dom, n = gr.ring.coeff, gr.ring.rank
    back = lambda coords: tuple(
        dom.normalize(sum(coords[i] * p[i][t] for i in range(n))) for t in range(n))
    for i in range(n):
        for j in range(n):
            ab = rebased.ring.mul_coords(rebased.ring.basis_element(i).coords,
                                         rebased.ring.basis_element(j).coords)
            assert back(ab) == gr.ring.mul_coords(back(rebased.ring.basis_element(i).coords),
                                                  back(rebased.ring.basis_element(j).coords))
