import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from rings import idempotent_ring, zero_product_ring
from test_ringcore import nilpotent_rings

from gradednil import nil
from gradednil.cli import main
from gradednil.grading import (
    GradedRing,
    component_indices,
    elementary_grading,
    neutral_ring,
    support,
    trivial_grading,
)
from gradednil.monoid import Monoid, element_order
from gradednil.nil import (
    HomogeneousPowerReport,
    Status,
    _index_bound,
    bounded_nil_index_auto,
    element_nil_index,
    homogeneous_power_report,
    nil_bounded_index,
    nilpotency_index,
    ring_is_nil,
    s_nil_check,
)
from gradednil.ringcore import DEFAULT_ELEM_CAP, Ring, fp, matrix_ring, rat, span, zmod
from gradednil.zoo import grassmann_star, sut, truncated_nagata, two_z_2k


def coord_rows(q, positions, rank):
    """All coordinate rows supported on ``positions``, lex order, int64: the
    elements of a component over Z/q, as the enumeration references take
    them."""
    L = len(positions)
    rows = np.zeros((q**L, rank), dtype=np.int64)
    # One grid axis per position, most significant first: row numbers are
    # the base-q numbers the digits spell.
    grid = rows.reshape((q,) * L + (rank,))
    for axis, t in enumerate(positions):
        shape = [1] * L
        shape[axis] = q
        grid[..., t] = np.arange(q).reshape(shape)
    return rows


_CHUNK = 1 << 14


def mul_rows(ring, A, B):
    """Row-wise ring product over Z/mZ: out[n] = A[n] * B[n], exact, straight
    from the sparse structure constants.

    ``A`` and ``B`` hold coordinate rows reduced mod m (entries in [0, m)),
    one row per element.  Each term is reduced as ((a_i * b_j) mod m) * c,
    and the result has the dtype of the ring's table constants, which keeps
    every target's sum of terms below 2^63 in int64.  Rows are taken
    ``_CHUNK`` at a time and transposed per chunk, so columns are contiguous.
    """
    m = ring.coeff.size
    dtype = ring.table().const.dtype
    A = np.asarray(A).astype(dtype, copy=False)
    B = np.asarray(B).astype(dtype, copy=False)
    out = np.empty(A.shape, dtype=dtype)
    for lo in range(0, A.shape[0], _CHUNK):
        a = A[lo:lo + _CHUNK].T.copy()
        b = a if B is A else B[lo:lo + _CHUNK].T.copy()
        acc = np.zeros_like(a)
        for (i, j), terms in ring.sc.items():
            prod = a[i] * b[j] % m
            for k, c in terms.items():
                acc[k] += prod if c == 1 else prod * c
        acc %= m
        out[lo:lo + _CHUNK] = acc.T
    return out


def row_mul(r, A, B):
    """Row-wise product: ``mul_rows`` over Z/mZ, ``Ring.mul_coords`` one row
    at a time over the rationals."""
    if r.coeff.finite:
        return mul_rows(r, A, B)
    return np.array([r.mul_coords(a, b) for a, b in zip(A, B)], dtype=object)


def classify_all_nilpotent(ring, base):
    """Exact nilpotence test by repeated squaring.

    Returns the original-order row number of the first non-nilpotent element,
    or None when every row is nilpotent.  Squaring stops once the exponent
    reaches ``_index_bound``, where every nilpotent row is zero.
    """
    index_bound = _index_bound(ring)
    idx = np.arange(base.shape[0])
    sq = base
    alive = sq.any(axis=1)
    idx, sq = idx[alive], sq[alive]
    e = 1
    while idx.size and e < index_bound:
        sq = row_mul(ring, sq, sq)
        e *= 2
        alive = sq.any(axis=1)
        idx, sq = idx[alive], sq[alive]
    return int(idx.min()) if idx.size else None


def enumerated_is_nil(r):
    """Every element classified by repeated squaring, as in the enumeration
    path of ``reference_ring_is_nil``."""
    X = coord_rows(r.coeff.size, list(range(r.rank)), r.rank)
    return classify_all_nilpotent(r, X) is None


def permuted(r, order):
    """``r`` in the basis b_order[0], b_order[1], ..."""
    new = {old: t for t, old in enumerate(order)}
    sc = {(new[i], new[j]): {new[k]: c for k, c in terms.items()}
          for (i, j), terms in r.sc.items()}
    return Ring(r.coeff, [r.names[t] for t in order], sc)


def group_ring_f2_z2():
    return Ring(fp(2), ["t0", "t1"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                      (1, 0): {1: 1}, (1, 1): {0: 1}})


def test_element_nil_index_two_in_z8():
    r = two_z_2k(3)
    v = element_nil_index(r.basis_element(0))
    assert v.proved and v.index == 3


def test_element_nil_index_idempotent_refuted():
    r = idempotent_ring(fp(5))
    v = element_nil_index(r.basis_element(0))
    assert v.status == Status.REFUTED
    assert v.witness == r.basis_element(0)


def test_element_nil_index_never_cycling_power_is_refuted():
    # b^n = 2^(n-1) b over Q never cycles and never vanishes; x^N != 0 at
    # N = _index_bound = 2 refutes it, where power iteration used to run to
    # a cap of 512 products
    r = Ring(rat(), ["b"], {(0, 0): {0: 2}})
    v = element_nil_index(r.basis_element(0))
    assert v.status == Status.REFUTED and v.witness == r.basis_element(0)
    assert v.note == "x^2 != 0"


def test_two_z_2k_600_nil_verdicts_are_exact():
    # a chain of 600 entries, past the old cap of 512, is read to its end
    r = two_z_2k(600)
    v = nilpotency_index(r)
    assert v.proved and v.index == 600
    assert ring_is_nil(r).proved


def test_element_nil_index_grassmann_mixed():
    r = grassmann_star(2, fp(3)).ring
    x_plus_xy = r.element([1, 0, 1])  # e1 + e12
    v = element_nil_index(x_plus_xy)
    assert v.proved and v.index == 2


def test_ring_is_nil_sut3():
    v = ring_is_nil(sut(3, fp(2)).ring)
    assert v.proved


def test_ring_is_nil_idempotent_witness():
    v = ring_is_nil(idempotent_ring(fp(2)))
    assert v.status == Status.REFUTED
    assert v.witness.coords == (1,)  # the point of x = t0 b
    assert not v.witness.is_zero()
    assert element_nil_index(v.witness).status == Status.REFUTED


def test_ring_is_nil_m2_two_z8_exhaustive():
    m2 = matrix_ring(two_z_2k(3), 2)
    assert m2.element_count() == 256
    v = ring_is_nil(m2)
    assert v.proved
    assert enumerated_is_nil(m2)


def test_ring_is_nil_rationals_sampled():
    # the power chain proves R^3 = 0, so no sampling is needed
    v = ring_is_nil(grassmann_star(2, rat()).ring)
    assert v.status == Status.PROVED
    assert v.note == "power chain: R^3 = 0"


def test_bounded_index_enum_two_z8():
    for v in (enum_bounded_index(two_z_2k(3)),
              nil_bounded_index(two_z_2k(3), "symbolic", candidate=3)):
        assert v.proved and v.index == 3


def test_bounded_index_enum_two_z16():
    for v in (enum_bounded_index(two_z_2k(4)),
              nil_bounded_index(two_z_2k(4), "symbolic", candidate=4)):
        assert v.proved and v.index == 4


def test_bounded_index_modes_other_than_symbolic_are_gone():
    with pytest.raises(ValueError, match="only 'symbolic' remains"):
        nil_bounded_index(two_z_2k(3), "enum")


def test_bounded_index_symbolic_grassmann_q():
    v = nil_bounded_index(grassmann_star(2, rat()).ring, "symbolic", candidate=4)
    assert v.proved and v.index == 2


def test_bounded_index_zero_conventions():
    for index in (enum_bounded_index, lambda r: nil_bounded_index(r, candidate=4)):
        assert index(Ring(fp(2), [], {})).index == 1
        assert index(zero_product_ring(fp(3), 2)).index == 2


def test_bounded_index_symbolic_refuted_over_q():
    v = nil_bounded_index(idempotent_ring(rat()), "symbolic", candidate=3)
    assert v.status == Status.REFUTED
    assert "monomial" in v.note


def test_bounded_index_symbolic_refuted_with_witness_over_fp():
    # x^3 = t^3 b = ((t)_3 + 3 (t)_2 + (t)_1) b: over F_2, 3! and 3 * 2! are
    # 0 and (t)_1 = t survives, nonzero at t = 1: b^3 = b
    v = nil_bounded_index(idempotent_ring(fp(2)), "symbolic", candidate=3)
    assert v.status == Status.REFUTED
    assert v.witness.coords == (1,)
    assert element_nil_index(v.witness).status == Status.REFUTED
    # over Z/4, 3! = 3 * 2! = 2 and all three terms survive; the least,
    # (t)_1, is nonzero at t = 1, so b is the witness
    v = nil_bounded_index(idempotent_ring(zmod(4)), "symbolic", candidate=3)
    assert v.status == Status.REFUTED
    assert v.witness.coords == (1,)
    assert v.note == "candidate 3 refuted: monomial (1,) survives"
    assert element_nil_index(v.witness).status == Status.REFUTED


def test_enum_and_symbolic_agree_on_finite_domains():
    for ring in (two_z_2k(3), grassmann_star(2, fp(3)).ring,
                 truncated_nagata(2, 2)):
        enum = enum_bounded_index(ring)
        sym = nil_bounded_index(ring, "symbolic", candidate=8)
        assert enum.proved and sym.proved
        assert enum.index == sym.index


def test_symbolic_power_vanishes_grassmann():
    r = grassmann_star(2, rat()).ring
    p1, p2 = nil._general_powers(r, 4)
    assert entry_dict(r, *p1) == {(1, 0, 0): (1, 0, 0), (0, 1, 0): (0, 1, 0),
                                  (0, 0, 1): (0, 0, 1)}
    assert entry_dict(r, *p2) == {}


@pytest.mark.parametrize("n, expected", [(3, 3), (4, 4), (5, 5)])
def test_nilpotency_index_sut(n, expected):
    v = nilpotency_index(sut(n, fp(2)).ring)
    assert v.proved and v.index == expected


def test_nilpotency_index_zero_ring():
    assert nilpotency_index(Ring(fp(3), [], {})).index == 1


def test_nilpotency_index_refuted():
    v = nilpotency_index(idempotent_ring(fp(3)))
    assert v.status == Status.REFUTED


def test_nilpotency_index_witness_is_not_nilpotent():
    # M_2(F_2) in the basis E12, E11, E21, E22: the stable power R^1 = R^2
    # has E12 (a nilpotent) as its first generator, but the witness is the
    # point of x's least term, the exponent vector (0, 0, 0, 1): E22, an
    # idempotent
    r = permuted(matrix_ring(idempotent_ring(fp(2)), 2), [1, 0, 2, 3])
    assert nil.power_chain(r)[-1][0] == r.basis_element(0).coords
    v = nilpotency_index(r)
    assert v.status == Status.REFUTED
    assert v.witness == r.basis_element(3)
    assert element_nil_index(v.witness).status == Status.REFUTED
    assert ring_is_nil(r).witness == v.witness


def test_s_nil_check_sut3():
    out = s_nil_check(sut(3, fp(2)))
    assert set(out) == {1, 2}
    assert all(v.proved for v in out.values())


def test_s_nil_check_trivial_grading():
    out = s_nil_check(trivial_grading(two_z_2k(3)))
    assert list(out) == [0]
    assert out[0].proved


def test_s_nil_check_elementary_m2_f2_refutes_diagonal():
    f2 = idempotent_ring(fp(2))
    gr = elementary_grading(f2, 2)
    out = s_nil_check(gr)
    assert out[0].status == Status.REFUTED  # E11 is idempotent
    # E12 + E21 squares to the identity matrix, so degree 1 is not nil either
    assert out[1].status == Status.REFUTED
    for v in out.values():
        assert element_nil_index(v.witness).status == Status.REFUTED


def test_s_nil_check_leaves_the_neutral_verdict_in_its_own_coordinates():
    # F_2[C_2] graded by C_2: R_0 = F_2 t0 is idempotent, so degree 0 takes
    # the expansion on its own basis, as every component does, with its
    # witness in R's coordinates; the verdicts on the neutral ring stay in
    # that ring's coordinates
    gr = GradedRing(group_ring_f2_z2(), Monoid.cyclic(2), [0, 1])
    m0, _ = neutral_ring(gr)
    first = s_nil_check(gr)
    assert first[0].status == Status.REFUTED and first[0].witness.ring is gr.ring
    assert s_nil_check(gr) == first
    for v in (ring_is_nil(m0), nilpotency_index(m0), bounded_nil_index_auto(m0)):
        assert v.witness.ring is m0 and v.witness.coords == (1,)


def test_analyze_expands_a_trivially_graded_ring_once(tmp_path, monkeypatch):
    # b^2 = b over F_3 beside x with bx = xb = x: not nilpotent, so the
    # witness of nilpotency_index and the e component are one expansion
    spec = tmp_path / "ex.spec"
    spec.write_text("[ring]\ncoeff = fp 3\nrank = 2\nnames = b x\n"
                    "sc = 0 0 0 1\nsc = 0 1 1 1\nsc = 1 0 1 1\n")
    calls = []
    expand = nil._general_powers

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(nil, "_general_powers", counted)
    assert main(["analyze", str(spec)]) == 1
    assert len(calls) == 1


def test_nilpotent_implies_bounded_implies_nil():
    for ring in (two_z_2k(3), sut(4, fp(2)).ring, truncated_nagata(1, 3),
                 grassmann_star(2, fp(3)).ring):
        nd = nilpotency_index(ring)
        s = enum_bounded_index(ring)
        nil = ring_is_nil(ring)
        assert nd.proved and s.proved and nil.proved
        assert s.index <= nd.index


def test_homogeneous_power_report_m2_two_z8():
    gr = elementary_grading(two_z_2k(3), 2)
    rep = homogeneous_power_report(gr)
    assert rep.applicable
    assert rep.s == 3
    assert rep.kg == {0: 1, 1: 2}
    assert rep.k == 2
    # the walk: two factors of degree 1 multiply into degree 0
    assert rep.per_degree[1]["product_degree"] == 0
    assert rep.per_degree[1]["length"] == 2


def test_homogeneous_power_report_requires_nonzero_neutral():
    rep = homogeneous_power_report(sut(3, fp(2)))
    assert not rep.applicable


def test_homogeneous_power_report_kg_rule():
    # int-add grading: orders are infinite, so k_g = d for every degree.
    gr = sut(5, fp(2))
    # not applicable (neutral zero), but the kg rule is exercised via a
    # shifted example: use the parity-graded exterior algebra instead.
    g2 = grassmann_star(2, fp(3))
    rep = homogeneous_power_report(g2)
    assert rep.applicable
    assert rep.kg == {0: 1, 1: 2}  # o(0)=1, o(1)=2, d=2
    assert rep.k == 2


def test_bounded_auto_switches_to_symbolic():
    # R^3 = 0 but x^2 = 0 for every x: the symbolic expansion gives the
    # index 2, below the nilpotency index, and names an x with x != 0
    v = bounded_nil_index_auto(grassmann_star(2, rat()).ring)
    assert v.proved and v.index == 2
    assert v.note == "symbolic expansion: x^1 != 0 at x = e12"


def test_bounded_auto_keeps_its_verdict_per_caps(monkeypatch):
    # the symbolic expansion runs once per ring, with no cap to key it by
    modes = []
    expand = nil.nil_bounded_index

    def counted(r, mode="symbolic", **kw):
        modes.append(mode)
        return expand(r, mode, **kw)

    monkeypatch.setattr(nil, "nil_bounded_index", counted)
    r = grassmann_star(2, rat()).ring
    first = bounded_nil_index_auto(r)
    assert bounded_nil_index_auto(r) is first
    assert modes == ["symbolic"]
    assert first.proved and first.index == 2


# ---------------------------------------------------------------------------
# The expansion's PROVED index and its witness against enumeration.


def certificate_witness(r, verdict):
    """The element a PROVED note names, found among all elements."""
    text = verdict.note.split(" at x = ", 1)[1]
    return next(a for a in r.elements() if repr(a) == text)


@given(nilpotent_rings(domains=(fp(2), fp(3), zmod(4), zmod(6))))
@settings(max_examples=60, deadline=None)
def test_certified_index_matches_enumeration(r):
    assume(r.element_count() <= 6**6)
    assert ring_is_nil(r).proved
    assert all(v.proved for v in s_nil_check(trivial_grading(r)).values())
    enum = enum_bounded_index(r)
    v = bounded_nil_index_auto(r)
    assert v.proved and v.index == enum.index
    assert v.index <= nilpotency_index(r).index
    assert v.note.startswith(f"symbolic expansion: x^{v.index - 1} != 0 at x = ")
    if r.element_count() <= 4096:
        # the named witness has x^(s-1) != 0, so its own index is s
        w = certificate_witness(r, v)
        assert element_nil_index(w).index == v.index


def d4_ring():
    # F_2[A,B]/(A^3, B^3, A^2B - AB^2, degree >= 4); basis A B A2 AB B2 V
    A, B, A2, AB, B2, V = range(6)
    sc = {(A, A): {A2: 1}, (A, B): {AB: 1}, (B, A): {AB: 1}, (B, B): {B2: 1},
          (A, AB): {V: 1}, (AB, A): {V: 1}, (B, AB): {V: 1}, (AB, B): {V: 1},
          (A, B2): {V: 1}, (B2, A): {V: 1}, (B, A2): {V: 1}, (A2, B): {V: 1}}
    return Ring(fp(2), ["A", "B", "A2", "AB", "B2", "V"], sc)


def test_d4_ring_witness_sits_below_the_nilpotency_index():
    # R^4 = 0, and x^3 = (t1^2 t2 + t1 t2^2) V vanishes at every point of
    # F_2^2, so the index is 3 and its witness B has B^2 = B2 != 0
    r = d4_ring()
    assert nilpotency_index(r).index == 4
    v = bounded_nil_index_auto(r)
    assert v.proved and v.index == 3
    assert v.note == "symbolic expansion: x^2 != 0 at x = B"


def test_d4_ring_symbolic_index_is_exact():
    # in monomials x^3 survives and the index read 4; in falling factorials
    # every term of x^3 is a zero function over F_2, so it is 3, as
    # enumeration says
    r = d4_ring()
    assert enum_bounded_index(r).index == 3
    v = nil_bounded_index(r, "symbolic", candidate=8)
    assert v.proved and v.index == 3
    assert bounded_nil_index_auto(r).index == 3
    low = nil_bounded_index(r, "symbolic", candidate=2)
    assert low.status == Status.REFUTED
    assert element_nil_index(low.witness).index == 3


def d4_ring_z12():
    # the D4 ring over Z/12 with every product into V scaled by 6
    r = d4_ring()
    sc = {ij: {k: 6 if k == 5 else c for k, c in t.items()} for ij, t in r.sc.items()}
    return Ring(zmod(12), r.names, sc)


def test_d4_ring_over_z12_index_is_exact():
    # R^4 = 0 and, in monomials, x^3 = 6 (t1^2 t2 + t1 t2^2) V survived and
    # printed index 4; in falling factorials each term of x^3 has
    # c * prod i_j! = 0 mod 12, so the index is 3
    r = d4_ring_z12()
    assert nilpotency_index(r).index == 4
    v = bounded_nil_index_auto(r)
    assert v.proved and v.index == 3
    assert v.note == "symbolic expansion: x^2 != 0 at x = B"
    low = nil_bounded_index(r, "symbolic", candidate=2)
    assert low.status == Status.REFUTED
    assert element_nil_index(low.witness).index == 3
    # x^3 = 0 on a seeded sample of the 12^6 elements
    X = np.array([[random.Random(n).randrange(12) for _ in range(6)] for n in range(4096)])
    assert not mul_rows(r, mul_rows(r, X, X), X).any()


# ---------------------------------------------------------------------------
# References: enumeration, and the monomial expansions the falling-factorial
# scatter replaced.


def batch_nil_indices(ring, X, power_cap):
    """Exact per-row nil indices, or the first non-nilpotent witness row.

    Returns (status, indices, witness_row).  Linear power iteration records
    exact indices; on a stalled step the survivors are classified once by
    repeated squaring so non-nil rings terminate.
    """
    N = X.shape[0]
    indices = np.zeros(N, dtype=np.int64)
    idx_map = np.arange(N)
    cur = X
    base = X
    n = 1
    classified = False
    while idx_map.size:
        zero = ~cur.any(axis=1)
        died = zero.any()
        if died:
            indices[idx_map[zero]] = n
            keep = ~zero
            # Filter one array at a time, so the old cur is freed before
            # base is copied; before the first product cur is base itself.
            aliased = cur is base
            idx_map = idx_map[keep]
            cur = cur[keep]
            base = cur if aliased else base[keep]
            if not idx_map.size:
                break
        if n >= power_cap:
            return Status.CAPPED, None, None
        if not died and n > 1 and not classified:
            bad = classify_all_nilpotent(ring, base)
            if bad is not None:
                return Status.REFUTED, None, base[bad]
            classified = True
        cur = mul_rows(ring, cur, base)
        n += 1
    return Status.PROVED, indices, None


# the enumeration references' own limit on power iteration
REFERENCE_POWER_CAP = 512


def enum_bounded_index(r, elem_cap=DEFAULT_ELEM_CAP, power_cap=REFERENCE_POWER_CAP):
    """The bounded nil index as the largest element nil index over every
    element of a finite ring, by batched power iteration."""
    if r.rank == 0:
        return nil.NilVerdict(Status.PROVED, index=1, note="zero ring")
    count = r.element_count()
    if count is None or count > elem_cap:
        return nil.NilVerdict(Status.CAPPED, note="enumeration infeasible")
    X = coord_rows(r.coeff.size, list(range(r.rank)), r.rank)
    status, indices, witness = batch_nil_indices(r, X, power_cap)
    if status == Status.REFUTED:
        return nil.NilVerdict(Status.REFUTED, witness=r.element([int(v) for v in witness]))
    if status == Status.CAPPED:
        return nil.NilVerdict(Status.CAPPED, note=f"power cap {power_cap} hit")
    return nil.NilVerdict(Status.PROVED, index=int(indices.max()),
                          note=f"exhaustive over {count} elements")


def monomial_powers(r, last):
    """x, x^2, ..., x^last of the general element as (exps, coefs) in the
    monomial basis, by the numpy scatter the falling-factorial one replaced:
    unreduced over Z/m and Q, exponents reduced by t^p = t over F_p."""
    dom, rank = r.coeff, r.rank
    m = dom.modulus
    wrap = m if dom.kind == "fp" and m <= last else None
    dtype = r.table().const.dtype

    def merge(parts):
        exps = np.concatenate([e for e, _ in parts])
        coefs = np.concatenate([c for _, c in parts], axis=1)
        if not len(exps):
            return exps, coefs
        keys = exps.view(np.dtype((np.void, exps.shape[1] * exps.itemsize))).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        coefs = np.add.reduceat(coefs[:, order], starts, axis=1)
        if m is not None:
            coefs %= m
        live = (coefs != 0).any(axis=0)
        return exps[order[starts[live]]], coefs[:, live]

    by_right = {}
    for (i, j), terms in r.sc.items():
        for k, c in terms.items():
            by_right.setdefault(j, []).append((i, k, c))
    exps = np.eye(rank, dtype=np.min_scalar_type(last))
    coefs = np.eye(rank, dtype=dtype)
    out = [(exps, coefs)]
    for _ in range(last - 1):
        parts = [(exps[:0], coefs[:, :0])]
        for j, terms in sorted(by_right.items()):
            block = np.zeros_like(coefs)
            for i, k, c in terms:
                block[k] += coefs[i] if c == 1 else coefs[i] * c
            if m is not None:
                block %= m
            live = (block != 0).any(axis=0)
            shifted = exps[live]
            shifted[:, j] += 1
            if wrap is not None:
                shifted[shifted[:, j] == wrap, j] = 1
            parts.append((shifted, block[:, live]))
        exps, coefs = merge(parts)
        out.append((exps, coefs))
        if not len(exps):
            break
    return out


def sym_dict(exps, coefs):
    """A scatter power as {exponents: coefficient vector}."""
    return {tuple(int(v) for v in e): tuple(int(v) if isinstance(v, np.integer) else v
                                            for v in c)
            for e, c in zip(exps, coefs.T)}


def entry_dict(ring, mono, coord, coef):
    """A power's flat entries as {exponents: coefficient vector}."""
    out = {}
    for row, k, c in zip(mono.tolist(), coord.tolist(), coef):
        exps = tuple(row.count(t) for t in range(ring.rank))
        vec = out.setdefault(exps, [0] * ring.rank)
        vec[k] = int(c) if isinstance(c, np.integer) else c
    return {e: tuple(v) for e, v in out.items()}


def sym_powers_reference(ring, last):
    """x, x^2, ..., x^last as monomial dicts: one ``mul_coords`` per pair of
    monomials, Python integers or Fractions throughout, exponents reduced by
    t^p = t over F_p."""
    dom = ring.coeff

    def reduce(e):
        return e if dom.kind != "fp" or e < dom.modulus else (e - 1) % (dom.modulus - 1) + 1

    gen = {tuple(int(t == j) for t in range(ring.rank)): ring.basis_element(j).coords
           for j in range(ring.rank)}
    cur, out = gen, [gen]
    for _ in range(last - 1):
        nxt = {}
        for ma, va in cur.items():
            for mb, vb in gen.items():
                key = tuple(reduce(x + y) for x, y in zip(ma, mb))
                prev = nxt.get(key, (dom.zero(),) * ring.rank)
                nxt[key] = tuple(dom.add(a, b) for a, b in zip(prev, ring.mul_coords(va, vb)))
        cur = {k: v for k, v in nxt.items() if any(v)}
        out.append(cur)
        if not cur:
            break
    return out


def surjections(k, i):
    """Maps of a k-set onto an i-set: the i-th difference of t^k at 0."""
    return sum((-1) ** (i - j) * math.comb(i, j) * j**k for j in range(i + 1))


def differences(ring, poly, falling):
    """{I: the I-th finite difference at 0} of a polynomial map, over its
    nonzero differences.  Two maps are equal exactly when these agree, over
    Z/m, F_p and Q.  ``poly`` is {exponents: vector}, in falling factorials
    (c_I (t)_I has I-th difference c_I I!) or in monomials (t^K has
    I-th difference prod_j surjections(K_j, I_j))."""
    m = ring.coeff.modulus
    out = {}
    for mono, vec in poly.items():
        if falling:
            targets = [(mono, math.prod(math.factorial(e) for e in mono))]
        else:
            targets = [(I, math.prod(surjections(k, i) for k, i in zip(mono, I)))
                       for I in itertools.product(*(range(1, k + 1) if k else (0,)
                                                    for k in mono))]
        for I, w in targets:
            prev = out.get(I, (0,) * ring.rank)
            out[I] = tuple(a + w * c for a, c in zip(prev, vec))
    if m is not None:
        out = {I: tuple(v % m for v in vec) for I, vec in out.items()}
    return {I: vec for I, vec in out.items() if any(vec)}


def difference_tables(ring, powers, falling, last):
    """``differences`` of each power, padded with zero maps to ``last``."""
    tables = [differences(ring, p, falling) for p in powers]
    return tables + [{}] * (last - len(tables))


def scatter_dicts(ring, last):
    return [entry_dict(ring, *power) for power in nil._general_powers(ring, last)]


def assert_scatter_matches_dict_expansion(r, last):
    want = difference_tables(r, sym_powers_reference(r, last), False, last)
    assert difference_tables(r, scatter_dicts(r, last), True, last) == want
    monomial = [sym_dict(e, c) for e, c in monomial_powers(r, last)]
    assert monomial == sym_powers_reference(r, last)


@given(nilpotent_rings(domains=(zmod(4), zmod(6), rat())))
@settings(max_examples=40, deadline=None)
def test_unreduced_scatter_matches_dict_expansion(r):
    # the dict expansion is unreduced here; the scatter is the same map
    assert_scatter_matches_dict_expansion(r, 6)


@given(nilpotent_rings(domains=(fp(2**61 - 1), zmod(2**63 - 25))))
@settings(max_examples=30, deadline=None)
def test_scatter_matches_python_integers_near_int64_limit(r):
    # the constant -1 becomes m - 1, so products run far past int64
    assert_scatter_matches_dict_expansion(r, 6)


def test_kernel_dtype_follows_the_int64_bound():
    m = 2**31 - 1  # 2 (m-1)^2 < 2^63 <= 3 (m-1)^2

    def ring(terms_on_b0):
        sc = {(0, j): {0: m - 1} for j in range(terms_on_b0)}
        return Ring(zmod(m), ["b0", "b1", "b2"], sc, check=False)

    assert ring(2).table().const.dtype == np.int64
    assert ring(3).table().const.dtype == object
    top = np.full((3, 3), m - 1, dtype=np.int64)
    for t in (2, 3):
        expect = t * (m - 1) ** 3 % m
        assert mul_rows(ring(t), top, top).tolist() == [[expect, 0, 0]] * 3


def test_scatter_in_int64_at_the_kernel_bound():
    # the D4 ring with every constant -1 over the largest prime below 2^30:
    # V receives 8 terms of up to (p-1)^2, so the scatter runs in int64 with
    # sums just below 2^63
    p = 1073741789
    r = d4_ring()
    r = Ring(fp(p), r.names, {ij: {k: -1 for k in t} for ij, t in r.sc.items()})
    assert r.table().const.dtype == np.int64
    assert_scatter_matches_dict_expansion(r, 4)


def test_scatter_reduces_before_scaling_by_the_exponent():
    # b_i b_j = -b1 for i, j in {0, 1}: b1 receives four constants m - 1, so
    # the int64 kernel has room for four (m-1)^2 and no more; a coefficient
    # times a constant must be reduced before the exponent I_j scales it
    p = 1518500213
    r = Ring(fp(p), ["b0", "b1"], {(i, j): {1: -1} for i in (0, 1) for j in (0, 1)})
    assert r.table().const.dtype == np.int64
    want = difference_tables(r, sym_powers_reference(r, 16), False, 16)
    assert difference_tables(r, scatter_dicts(r, 16), True, 16) == want
    v = nil_bounded_index(r, candidate=16)
    assert v.status == Status.REFUTED and v.witness.coords == (0, 1)


def test_scatter_monomial_counts_on_m2_nagata33():
    # rank 104: many constants per coordinate land in one merge group
    r = matrix_ring(truncated_nagata(3, 3), 2)
    counts = [len({tuple(row) for row in mono.tolist()})
              for mono, _, _ in nil._general_powers(r, 8)]
    assert counts == [104, 999, 3282, 4458, 1800, 0]
    assert nil_bounded_index(r, candidate=8).index == 6


def falling_value(ring, poly, a):
    """The falling-factorial polynomial ``poly`` evaluated at the
    coordinates of ``a`` (integer representatives over Z/m)."""
    m = ring.coeff.modulus
    value = [0] * ring.rank
    for mono, vec in poly.items():
        w = math.prod(math.prod(x - i for i in range(e)) for x, e in zip(a.coords, mono))
        value = [v + w * c for v, c in zip(value, vec)]
    return tuple(v % m for v in value) if m is not None else tuple(value)


def small_points(r, count):
    """Up to ``count`` elements: every one in order over Z/m, or seeded
    points with coordinates in -2..2 over Q."""
    if r.coeff.finite:
        return list(itertools.islice(r.elements(), count))
    rng = random.Random(1)
    return [r.element([rng.randint(-2, 2) for _ in range(r.rank)]) for _ in range(count)]


FALLING_DOMAINS = (zmod(4), zmod(6), zmod(8), zmod(9), zmod(12), zmod(16),
                   fp(2), fp(3), fp(5), rat())


@given(nilpotent_rings(domains=FALLING_DOMAINS))
@settings(max_examples=300, deadline=None)
def test_reduced_scatter_matches_enumeration(r):
    assume(not r.coeff.finite or r.element_count() <= 2**16)
    d = nilpotency_index(r).index
    sym = nil_bounded_index(r, "symbolic", candidate=d)
    if r.coeff.finite:
        want = enum_bounded_index(r).index
    else:
        # over Q the monomial expansion is exact: x^d = 0 ends it
        monomial = sym_powers_reference(r, d)
        assert not monomial[-1]
        want = len(monomial)
    assert sym.proved and sym.index == want
    assert bounded_nil_index_auto(r).index == want
    if want > 1:
        low = nil_bounded_index(r, "symbolic", candidate=want - 1)
        assert low.status == Status.REFUTED
        assert element_nil_index(low.witness).index == want
    # each power is the dict expansion's map, compared by its finite
    # differences at 0, and the map a -> a^s at sample points
    assert_scatter_matches_dict_expansion(r, want)
    powers = scatter_dicts(r, want)
    assert len(powers) == want
    for a in small_points(r, 125):
        acc = a
        for poly in powers:
            assert falling_value(r, poly, a) == acc.coords
            acc = acc * a


def test_certificate_decides_m2_grassmann2_f3():
    # no basis element has a nonzero square; the expansion's smallest
    # surviving term of x^2 names a sum of two that does
    r = matrix_ring(grassmann_star(2, fp(3)).ring, 2)
    v = bounded_nil_index_auto(r)
    assert v.proved and v.index == 3
    assert v.note == "symbolic expansion: x^2 != 0 at x = E21(e2) + E22(e1)"
    w = r.basis_element(r.names.index("E21(e2)")) + r.basis_element(r.names.index("E22(e1)"))
    assert not (w * w).is_zero()
    assert ring_is_nil(r).note == "power chain: R^3 = 0"


def test_certificate_takes_a_basis_witness_first():
    v = bounded_nil_index_auto(two_z_2k(3))
    assert v.proved and v.index == 3
    assert v.note == "symbolic expansion: x^2 != 0 at x = b"


def test_sut12_over_q_index_is_exact_with_a_witness():
    # the index equals the nilpotency index 12; the witness is the
    # superdiagonal, whose 11th power is E1,12
    r = sut(12, rat()).ring
    v = bounded_nil_index_auto(r)
    assert v.proved and v.index == 12
    names = [f"E{i}{i + 1}" for i in range(1, 12)]
    assert v.note == f"symbolic expansion: x^11 != 0 at x = {' + '.join(names)}"
    w = r.zero()
    for name in names:
        w = w + r.basis_element(r.names.index(name))
    assert element_nil_index(w).index == 12


def test_group_ring_refutations_pick_first_witness():
    # basis t0, t1 with t_i t_j = t_{(i+j) mod 2}: t1^2 = t0, t1^3 = t1, so
    # both t0 and t1 power-cycle without dying while t0 + t1 squares to zero
    r = group_ring_f2_z2()
    nil = ring_is_nil(r)
    assert nil.status == Status.REFUTED
    assert nil.witness.coords == (0, 1)  # the point of x's least term, t1
    bounded = enum_bounded_index(r)
    assert bounded.status == Status.REFUTED
    assert element_nil_index(bounded.witness).status == Status.REFUTED
    nd = nilpotency_index(r)
    assert nd.status == Status.REFUTED


def test_enumeration_exact_near_int64_limit():
    # b^2 = -3b over Z/3^15, so b^n = (-3)^(n-1) b and b has nil index 16.
    # Unreduced products of size (m-1)^3 overflow int64 here.
    m = 3**15
    r = Ring(zmod(m), ["b"], {(0, 0): {0: m - 3}})
    assert element_nil_index(r.basis_element(0)).index == 16
    assert ring_is_nil(r, elem_cap=m).proved
    assert enumerated_is_nil(r)
    v = enum_bounded_index(r, elem_cap=m, power_cap=100)
    assert v.proved and v.index == 16
    assert bounded_nil_index_auto(r).index == 16


@pytest.mark.parametrize("ring", [
    two_z_2k(3), matrix_ring(two_z_2k(3), 2),
    sut(3, fp(2)).ring, matrix_ring(sut(3, fp(2)).ring, 2),
    grassmann_star(2, fp(3)).ring, truncated_nagata(1, 3),
    matrix_ring(truncated_nagata(1, 3), 2), idempotent_ring(fp(3)),
], ids=lambda r: f"{r.coeff.label()}-rank{r.rank}")
def test_enum_bounded_index_matches_elementwise_maximum(ring):
    per_element = [element_nil_index(a) for a in ring.elements()]
    v = enum_bounded_index(ring)
    if any(e.status == Status.REFUTED for e in per_element):
        assert v.status == Status.REFUTED
        assert element_nil_index(v.witness).status == Status.REFUTED
    else:
        assert v.proved and v.index == max(e.index for e in per_element)


# ---------------------------------------------------------------------------
# P3.31: the degree walk against the tuple-by-tuple loop it replaced.


def reference_component_tuples(r, idx, length, tuple_cap, samples, rng, entry):
    dom = r.coeff
    if dom.finite:
        count = dom.size ** len(idx)
        if count**length <= tuple_cap:
            singles = []
            for digits in itertools.product(dom.elements(), repeat=len(idx)):
                coords = [dom.zero()] * r.rank
                for t, c in zip(idx, digits):
                    coords[t] = c
                singles.append(tuple(coords))
            return itertools.product(singles, repeat=length)
    entry["sampled"] = True
    out = []
    for _ in range(samples):
        tup = []
        for _ in range(length):
            coords = [dom.zero()] * r.rank
            for t in idx:
                coords[t] = dom.normalize(rng.randint(-3, 3))
            tup.append(tuple(coords))
        out.append(tuple(tup))
    return out


def reference_component_sample(r, idx, rng, limit):
    dom = r.coeff
    if dom.finite and dom.size ** len(idx) <= limit:
        for digits in itertools.product(dom.elements(), repeat=len(idx)):
            coords = [dom.zero()] * r.rank
            for t, c in zip(idx, digits):
                coords[t] = c
            yield tuple(coords)
        return
    for _ in range(limit):
        coords = [dom.zero()] * r.rank
        for t in idx:
            coords[t] = dom.normalize(rng.randint(-3, 3))
        yield tuple(coords)


def reference_power_report(gr, tuple_cap=10**6, samples=10**4, seed=0):
    """Every tuple multiplied one at a time with Ring.mul_coords.

    Returns the report and the first tuple whose power does not vanish, or
    None."""
    r = gr.ring
    m0, _ = neutral_ring(gr)
    if m0.rank == 0:
        return HomogeneousPowerReport(False, reason="neutral component is zero"), None
    sv = bounded_nil_index_auto(m0)
    if not sv.proved:
        return HomogeneousPowerReport(False, reason="neutral not proved nil"), None
    s = sv.index
    supp = sorted(support(gr))
    kg = {g: int(min(element_order(gr.monoid, g), len(supp))) for g in supp}
    k = math.lcm(*kg.values())
    report = HomogeneousPowerReport(True, s=s, kg=kg, k=k)
    rng = random.Random(seed)
    for g in supp:
        idx = component_indices(gr, g)
        entry = {"tuples_checked": 0, "sampled": False, "status": "PASS"}
        tuples = reference_component_tuples(r, idx, kg[g], tuple_cap, samples, rng, entry)
        for tup in tuples:
            prod = tup[0]
            for x in tup[1:]:
                prod = r.mul_coords(prod, x)
            acc = prod
            for _ in range(s - 1):
                acc = r.mul_coords(acc, prod)
            entry["tuples_checked"] += 1
            if any(acc):
                return report, (g, tup)
        for coords in reference_component_sample(r, idx, rng, limit=64):
            a = r.element(coords)
            acc = a
            for _ in range(k * s - 1):
                acc = acc * a
                if acc.is_zero():
                    break
            if not acc.is_zero():
                return report, (g, (coords,))
        report.per_degree[g] = entry
    return report, None


def int_add_chain_grading():
    # chain ring u1, u2 (u1^2 = u2) in degree 0 plus a square-zero x in
    # degree 1 of the integers: o(1) is infinite, so k_1 = d = 2
    sc = {(0, 0): {1: 1}}
    ring = Ring(fp(5), ["u1", "u2", "x"], sc)
    return GradedRing(ring, Monoid.int_add(), [0, 0, 1])


def z5_graded_on_012():
    # F_3-ring graded by Z_5: u in degree 0 (u^2 = 0), x in degree 1 and
    # y = x^2 in degree 2; o(1) = 5 > d = 3, and x^3 lies in empty degree 3
    ring = Ring(fp(3), ["u", "x", "y"], {(1, 1): {2: 1}})
    return GradedRing(ring, Monoid.cyclic(5), [0, 1, 2])


# The walk's record per degree: (product_degree, length).  Degree e ends at
# once; elsewhere the walk reaches e at k_g = o(g), or leaves the support at
# finite order o(g) > d or at infinite order.
@pytest.mark.parametrize("gr, walks", [
    (elementary_grading(two_z_2k(3), 3), {0: (0, 1), 1: (0, 3), 2: (0, 3)}),
    (z5_graded_on_012(), {0: (0, 1), 1: (None, 3), 2: (None, 2)}),
    (int_add_chain_grading(), {0: (0, 1), 1: (None, 2)}),
], ids=["m3-2z8-z3", "z5-supp-012", "chain-int-add"])
def test_degree_walk_records(gr, walks):
    rep = homogeneous_power_report(gr)
    got = {g: (e["product_degree"], e["length"]) for g, e in rep.per_degree.items()}
    assert got == walks
    assert all(e["tuples_checked"] == 0 and e["status"] == "PASS"
               for e in rep.per_degree.values())


@pytest.mark.parametrize("gr, caps", [
    (elementary_grading(two_z_2k(3), 2), {}),
    (grassmann_star(2, fp(3)), {}),
    (int_add_chain_grading(), {}),
    (grassmann_star(3, zmod(2**61 - 1)), {"tuple_cap": 1, "samples": 300}),
    (grassmann_star(3, zmod(2**64 + 13)), {"tuple_cap": 1, "samples": 300}),
    (grassmann_star(2, rat()), {"samples": 300}),
    (elementary_grading(two_z_2k(3), 3), {"tuple_cap": 1, "samples": 300}),
    (z5_graded_on_012(), {}),
], ids=["m2-2z8", "grass2-f3", "chain-int-add", "grass3-z2^61-1",
        "grass3-z2^64+13", "grass2-q", "m3-2z8-z3", "z5-supp-012"])
def test_power_report_matches_tuple_loop(gr, caps):
    got = homogeneous_power_report(gr)
    want, counterexample = reference_power_report(gr, seed=5, **caps)
    assert got.applicable and want.applicable
    assert counterexample is None
    assert (got.s, got.k, got.kg) == (want.s, want.k, want.kg)
    assert got.per_degree.keys() == want.kg.keys()
    assert all(e["status"] == "PASS" for e in got.per_degree.values())


def test_degree_walk_raises_inside_the_support():
    # An unchecked grading by {e, a} with a*a = a, which is not left
    # cancellative: the walk of a stays at a, inside the support.
    monoid = Monoid.from_table([[0, 1], [1, 1]])
    ring = Ring(fp(2), ["u", "x"], {})
    gr = GradedRing(ring, monoid, [0, 1], check=False)
    with pytest.raises(nil.DegreeWalkInternalError, match="walk of 1 ends at 1"):
        homogeneous_power_report(gr)


# ---------------------------------------------------------------------------
# The row-wise products of the enumeration paths (``coord_rows`` rows
# multiplied by ``row_mul``) against the tuple-by-tuple loop.


def first_failing_tuple(r, tuples, exponent):
    for tup in tuples:
        prod = tup[0]
        for x in tup[1:]:
            prod = r.mul_coords(prod, x)
        acc = prod
        for _ in range(exponent - 1):
            acc = r.mul_coords(acc, prod)
        if any(acc):
            return tup
    return None


def random_ring(dom, rank, rnd):
    sc = {}
    for i, j in itertools.product(range(rank), repeat=2):
        if rnd.random() < 0.7:
            sc[(i, j)] = {rnd.randrange(rank): rnd.randint(-2, 2)}
    # the tuple check is multilinear, so associativity does not matter here
    return Ring(dom, [f"b{t}" for t in range(rank)], sc, check=False)


def first_failing_batched(r, singles, length, exponent, per=64):
    """First tuple of ``singles`` rows, in ``itertools.product`` order, whose
    product raised to ``exponent`` is nonzero, multiplied ``per`` tuples at a
    time: tuple n takes as its p-th factor the row numbered by the p-th
    base-count digit of n, most significant first."""
    count = singles.shape[0]
    total = count**length
    for lo in range(0, total, per):
        n = np.arange(lo, min(lo + per, total))
        factors = [singles[n // count ** (length - 1 - p) % count] for p in range(length)]
        prod = factors[0]
        for x in factors[1:]:
            prod = row_mul(r, prod, x)
        acc = prod
        for _ in range(exponent - 1):
            acc = row_mul(r, acc, prod)
        bad = np.flatnonzero(acc.any(axis=1))
        if bad.size:
            return tuple(tuple(int(v) for v in f[bad[0]]) for f in factors)
    return None


@pytest.mark.parametrize("case", range(12))
def test_batched_tuples_fail_at_the_first_product_order_tuple(case, monkeypatch):
    # Chunks of a few rows, so the first failure often lies past the first.
    monkeypatch.setitem(globals(), "_CHUNK", 8)
    rnd = random.Random(case)
    dom = [fp(2), fp(3), zmod(4)][case % 3]
    rank = rnd.randint(2, 4)
    r = random_ring(dom, rank, rnd)
    idx = sorted(rnd.sample(range(rank), rnd.randint(1, rank)))
    length, exponent = rnd.randint(2, 3), rnd.randint(1, 2)
    singles = coord_rows(dom.size, idx, rank)
    got = first_failing_batched(r, singles, length, exponent)
    # the reference builds its rows itself, so this also pins the lex order
    # of ``coord_rows``
    tuples = reference_component_tuples(
        r, idx, length, len(singles) ** length, 0, None, {})
    assert got == first_failing_tuple(r, tuples, exponent)


# ---------------------------------------------------------------------------
# Nil verdicts from the power chain and the degree walk, against the
# enumeration and sampling they replaced.

# the references' status when no sampled element refutes: the program makes
# no such verdict
SAMPLED = "SAMPLED"


def reference_ring_is_nil(r, elem_cap=DEFAULT_ELEM_CAP, samples=100, seed=0):
    """Past a silent power chain: every element within ``elem_cap``, else
    the basis plus seeded random small-integer elements."""
    if r.rank == 0:
        return nil.NilVerdict(Status.PROVED, note="zero ring")
    nd = nilpotency_index(r)
    if nd.proved:
        return nil.NilVerdict(Status.PROVED, note=f"power chain: R^{nd.index} = 0")
    count = r.element_count()
    if count is not None and count <= elem_cap:
        X = coord_rows(r.coeff.size, list(range(r.rank)), r.rank)
        bad = classify_all_nilpotent(r, X)
        if bad is None:
            return nil.NilVerdict(Status.PROVED, note=f"exhaustive over {count} elements")
        return nil.NilVerdict(Status.REFUTED, witness=r.element([int(v) for v in X[bad]]))
    rng = random.Random(seed)
    sampled = list(r.basis()) + [r.element([rng.randint(-3, 3) for _ in range(r.rank)])
                                 for _ in range(samples)]
    for a in sampled:
        if element_nil_index(a).status == Status.REFUTED:
            return nil.NilVerdict(Status.REFUTED, witness=a)
    return nil.NilVerdict(SAMPLED, note=f"basis plus {samples} seeded samples")


def reference_s_nil_check(gr, elem_cap=DEFAULT_ELEM_CAP, samples=100, seed=0):
    """Past a silent power chain, per component: every element within
    ``elem_cap``, else seeded random small-integer elements, with powers
    taken in the ambient ring."""
    r = gr.ring
    nd = nilpotency_index(r)
    if nd.proved:
        note = f"power chain: R^{nd.index} = 0"
        return {g: nil.NilVerdict(Status.PROVED, note=note) for g in sorted(support(gr))}
    out = {}
    for g in sorted(support(gr)):
        idx = component_indices(gr, g)
        count = None if not r.coeff.finite else r.coeff.size ** len(idx)
        if count is not None and count <= elem_cap:
            X = coord_rows(r.coeff.size, idx, r.rank)
            bad = classify_all_nilpotent(r, X)
            out[g] = (nil.NilVerdict(Status.PROVED, note=f"exhaustive over {count}")
                      if bad is None else
                      nil.NilVerdict(Status.REFUTED, witness=r.element([int(v) for v in X[bad]])))
            continue
        rng = random.Random(seed)
        out[g] = nil.NilVerdict(SAMPLED, note=f"{samples} seeded samples")
        for _ in range(samples):
            coords = [r.coeff.zero()] * r.rank
            for t in idx:
                coords[t] = rng.randint(-3, 3)
            a = r.element(coords)
            if element_nil_index(a).status == Status.REFUTED:
                out[g] = nil.NilVerdict(Status.REFUTED, witness=a)
                break
    return out


def non_nilpotent(w):
    """Direct powers: over Z/m the powers of w cycle without reaching zero;
    over Q, w^(rank + 1) != 0, a power that kills every nilpotent element."""
    if w.ring.coeff.finite:
        return element_nil_index(w).status == Status.REFUTED
    acc = w
    for _ in range(w.ring.rank):
        acc = acc * w
    return not acc.is_zero()


def with_idempotent(r):
    """R x F with a new basis vector e, e^2 = e: not nil."""
    n = r.rank
    sc = {ij: dict(terms) for ij, terms in r.sc.items()}
    sc[(n, n)] = {n: 1}
    return Ring(r.coeff, list(r.names) + ["e"], sc)


def unit_over_c2(r):
    """e + r (x) F[C_2] graded by Z_2, with e the identity and u^2 = 1 in
    C_2.  R_0 = F e + r (x) 1 is not nilpotent, so the walk of 1 reaches a
    non-nilpotent R_e; R_1 = r (x) u has (y (x) u)^s = y^s (x) u^s, so its
    index is the bounded nil index of r."""
    n = r.rank
    names = ["e"] + [f"{a}_1" for a in r.names] + [f"{a}_u" for a in r.names]
    sc = {(0, 0): {0: 1}}
    for t in range(1, 2 * n + 1):
        sc[(0, t)] = sc[(t, 0)] = {t: 1}
    for (i, j), terms in r.sc.items():
        for a, b in itertools.product((0, 1), repeat=2):
            sc[(1 + a * n + i, 1 + b * n + j)] = {
                1 + (a + b) % 2 * n + k: c for k, c in terms.items()}
    return GradedRing(Ring(r.coeff, names, sc), Monoid.cyclic(2), [0] * (n + 1) + [1] * n)


def identity_on_powers(dom, n):
    """e acting as the identity on y1 ... yn, with yi yj = y(i+j), zero past
    n, graded by Z_2 by parity: R_1 spans the odd powers, and x^n has the
    term t_1^n yn, so its index is n + 1, while R_0 holds e."""
    names = ["e"] + [f"y{i}" for i in range(1, n + 1)]
    sc = {(0, 0): {0: 1}}
    for i in range(1, n + 1):
        sc[(0, i)] = sc[(i, 0)] = {i: 1}
        for j in range(1, n + 1 - i):
            sc[(i, j)] = {i + j: 1}
    return GradedRing(Ring(dom, names, sc), Monoid.cyclic(2), [0] + [i % 2 for i in range(1, n + 1)])


def enumerated_component_index(gr, g, elem_cap=4096):
    """The largest element nil index over the elements of R_g, by batched
    power iteration, or None over Q or past ``elem_cap`` elements."""
    r = gr.ring
    idx = component_indices(gr, g)
    if not r.coeff.finite or r.coeff.size ** len(idx) > elem_cap:
        return None
    status, indices, _ = batch_nil_indices(r, coord_rows(r.coeff.size, idx, r.rank),
                                           REFERENCE_POWER_CAP)
    assert status == Status.PROVED
    return int(indices.max())


def idempotent_acting_on_square_zero(dom, monoid):
    # e (degree 0), x (degree 1): e^2 = e, ex = xe = x, x^2 = 0; R_0 is not
    # nil.  Graded by the integers, the walk of 1 leaves the support at 2;
    # graded by Z_2, it reaches e
    ring = Ring(dom, ["e", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    return GradedRing(ring, monoid, [0, 1])


NON_NIL_GRADINGS = [
    trivial_grading(group_ring_f2_z2()),
    GradedRing(group_ring_f2_z2(), Monoid.cyclic(2), [0, 1]),
    *(elementary_grading(idempotent_ring(dom), 2) for dom in (fp(2), fp(3), zmod(4), rat())),
    idempotent_acting_on_square_zero(fp(3), Monoid.int_add()),
    *(idempotent_acting_on_square_zero(dom, Monoid.cyclic(2)) for dom in (fp(2), zmod(4), rat())),
    *(identity_on_powers(dom, n) for dom, n in ((fp(2), 7), (fp(3), 6), (zmod(4), 5))),
    # b^n = 2^(n-1) b never cycles; a sampled b is refuted at b^2 != 0
    trivial_grading(Ring(rat(), ["b"], {(0, 0): {0: 2}})),
]


@st.composite
def nil_cross_check_gradings(draw):
    kind = draw(st.sampled_from(["nilpotent", "plus-idempotent", "unit-over-c2", "fixed"]))
    if kind == "fixed":
        return draw(st.sampled_from(NON_NIL_GRADINGS))
    r = draw(nilpotent_rings(domains=(fp(2), fp(3), zmod(4), rat())))
    if kind == "unit-over-c2":
        return unit_over_c2(r)
    return trivial_grading(with_idempotent(r) if kind == "plus-idempotent" else r)


def assert_agrees_with_reference(new, ref):
    assert new.status in (Status.PROVED, Status.REFUTED), new
    if ref.status == SAMPLED:
        assert new.proved or new.witness is not None, (new, ref)
    else:
        assert new.status == ref.status, (new, ref)
    if new.witness is not None:
        assert new.status == Status.REFUTED and non_nilpotent(new.witness)


@given(nil_cross_check_gradings(), st.sampled_from([1, 4096]))
@settings(max_examples=80, deadline=None)
def test_nil_verdicts_match_enumeration_and_sampling(gr, elem_cap):
    # ten samples keep the references' power sequences short
    r = gr.ring
    assert_agrees_with_reference(ring_is_nil(r, elem_cap=elem_cap),
                                 reference_ring_is_nil(r, elem_cap=elem_cap, samples=10))
    new = s_nil_check(gr, elem_cap=elem_cap)
    ref = reference_s_nil_check(gr, elem_cap=elem_cap, samples=10)
    assert new.keys() == ref.keys()
    for g in new:
        assert_agrees_with_reference(new[g], ref[g])
        if new[g].index is not None and (want := enumerated_component_index(gr, g)):
            assert new[g].index == want


@given(nilpotent_rings(domains=(fp(2), fp(3), zmod(4), zmod(6), rat())))
@settings(max_examples=40, deadline=None)
def test_component_over_c2_has_the_rings_bounded_index(r):
    v = s_nil_check(unit_over_c2(r))[1]
    assert v.proved and v.index == bounded_nil_index_auto(r).index


def test_component_over_q_reaching_a_non_nilpotent_neutral_part_is_proved():
    # nothing over Q is enumerable, so this component used to be CAPPED
    out = s_nil_check(idempotent_acting_on_square_zero(rat(), Monoid.cyclic(2)))
    assert out[0].status == Status.REFUTED and repr(out[0].witness) == "e"
    assert out[0].note.startswith("symbolic expansion:")
    assert out[1].proved and out[1].index == 2
    assert out[1].note == "symbolic expansion: x^1 != 0 at x = x"


def test_component_past_the_old_element_cap_is_proved():
    # R_1 spans y1, y3, ..., y19: 5^10 elements, past the 2^20 that
    # enumeration could reach, so this component used to be CAPPED
    out = s_nil_check(identity_on_powers(fp(5), 20))
    assert out[1].proved and out[1].index == 21
    assert out[1].note == "symbolic expansion: x^20 != 0 at x = y1"


@pytest.mark.parametrize("dom, n", [(fp(2), 8), (fp(3), 7), (fp(5), 12), (zmod(4), 6),
                                    (zmod(6), 5)],
                         ids=["fp2-n8", "fp3-n7", "fp5-n12", "zmod4-n6", "zmod6-n5"])
def test_component_index_is_the_largest_element_index(dom, n):
    gr = identity_on_powers(dom, n)
    v = s_nil_check(gr)[1]
    assert v.proved and v.index == n + 1 == enumerated_component_index(gr, 1, 5**6)


def clifford(n, dom):
    """The Clifford algebra of n anticommuting square roots of 1, basis the
    subsets of {0, ..., n - 1}, graded by Z_2 by the parity of their size."""
    subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    pos = {b: t for t, b in enumerate(subsets)}
    sc = {(a, b): {pos[A ^ B]: (-1) ** sum(i > j for i in A for j in B)}
          for (a, A), (b, B) in itertools.product(enumerate(subsets), repeat=2)}
    names = ["e" + "".join(map(str, sorted(b))) for b in subsets]
    return GradedRing(Ring(dom, names, sc), Monoid.cyclic(2), [len(b) % 2 for b in subsets])


@pytest.mark.parametrize("gr, point, witness", [
    # t1^2 = t0, the identity: x = t1 is the point of x itself
    (GradedRing(group_ring_f2_z2(), Monoid.cyclic(2), [0, 1]), 1, "t1"),
    # E12 is nilpotent, so the point of x^2 refutes
    (elementary_grading(idempotent_ring(rat()), 2), 2, "E12(b) + E21(b)"),
    # every odd basis vector squares to +-1, so the point of x refutes; run
    # on to x^N instead, the expansion over Q grows past 1.5 GB at n = 4
    (clifford(3, rat()), 1, "e012"),
], ids=["group-ring-f2", "m2-q", "clifford3-q"])
def test_refuted_component_witness_is_not_nilpotent(gr, point, witness):
    v = s_nil_check(gr)[1]
    assert v.status == Status.REFUTED and non_nilpotent(v.witness)
    assert repr(v.witness) == witness
    n = gr.ring.rank + 1
    assert v.note == (f"symbolic expansion: x^{n} != 0 at the witness, the point of "
                      f"x^{point}; every nilpotent x has x^{n} = 0")


def test_ring_is_nil_refutes_b_squared_2b_over_q():
    # b^n = 2^(n-1) b never cycles, so no power sequence decides b; the
    # stable power R = R^2 does
    r = Ring(rat(), ["b"], {(0, 0): {0: 2}})
    v = ring_is_nil(r)
    assert v.status == Status.REFUTED and v.witness == r.basis_element(0)
    assert v.note == "R^1 = R^2 != 0 and x^2 != 0 at the witness"
    comp = s_nil_check(trivial_grading(r))
    assert comp[0].status == Status.REFUTED and comp[0].witness == r.basis_element(0)
    assert bounded_nil_index_auto(r).witness == r.basis_element(0)


def test_ring_is_nil_witness_may_lie_outside_the_stable_power():
    # (F_3 a + F_3 a^2, a^3 = 0) + F_3 e in a changed basis: R^3 = R^4 is
    # spanned by the idempotent b0 + 2 b1 + b2, and the witness b2, the
    # point of x, lies outside it
    sc = {(1, 1): {1: 2, 2: 1}, (1, 2): {0: 1, 1: 1, 2: 2},
          (2, 1): {0: 1, 1: 1, 2: 2}, (2, 2): {1: 2, 2: 1}}
    r = Ring(fp(3), ["b0", "b1", "b2"], sc, check=True)
    v = ring_is_nil(r)
    assert v.status == Status.REFUTED and v.witness == r.basis_element(2)
    stable = nil.power_chain(r)[-1]
    assert span(r, [v.witness.coords], stable) != stable
    assert not element_nil_index(v.witness).proved
    assert v.note == "R^3 = R^4 != 0 and x^4 != 0 at the witness"


def test_e_first_witness_expands_through_the_nilpotent_part():
    # nagata(3,3) + F_3 e with e first: the least terms of x and x^2 have
    # points in nagata(3,3), which are nilpotent; that of x^3 is e
    n = truncated_nagata(3, 3)
    sc = {(i + 1, j + 1): {k + 1: c for k, c in terms.items()} for (i, j), terms in n.sc.items()}
    sc[(0, 0)] = {0: 1}
    r = Ring(fp(3), ["e", *n.names], sc)
    v = nilpotency_index(r)
    assert v.status == Status.REFUTED and v.witness == r.basis_element(0)
    assert nil._component_nil(r, range(r.rank)).note == (
        "symbolic expansion: x^28 != 0 at the witness, the point of x^3; "
        "every nilpotent x has x^28 = 0")


# F_p, composite Z/m and Q, and moduli whose products pass int64
WITNESS_DOMAINS = (fp(2), fp(3), zmod(4), zmod(6), rat(), fp(2**61 - 1), zmod(2**63 - 25),
                   zmod(2**64 + 13))


@st.composite
def non_nilpotent_rings(draw):
    """A nilpotent ring plus F e with e^2 = e, in a random basis: an upper
    unitriangular change of basis, then a permutation, so e may lie
    anywhere in the basis and in any number of basis vectors."""
    r = draw(nilpotent_rings(domains=WITNESS_DOMAINS, idempotent=st.just(True)))
    return permuted(r, draw(st.permutations(range(r.rank))))


@given(non_nilpotent_rings())
@settings(max_examples=60, deadline=None)
def test_every_refuted_nil_verdict_has_a_non_nilpotent_witness(r):
    nd, v = nilpotency_index(r), ring_is_nil(r)
    assert nd.status == v.status == Status.REFUTED
    assert v.witness is not None and v.witness == nd.witness
    assert not element_nil_index(v.witness).proved
    # the repeated-squaring reference agrees: the witness row, and some
    # element of a ring small enough to enumerate, is not nilpotent
    row = np.array([v.witness.coords], dtype=r.table().const.dtype)
    assert classify_all_nilpotent(r, row) == 0
    if r.coeff.finite and r.element_count() <= 4096:
        assert not enumerated_is_nil(r)


def test_bounded_auto_refutes_a_non_nil_ring_past_the_element_cap():
    # nothing is enumerated: the chain R = R^2 refutes
    r = idempotent_ring(zmod(4))
    v = bounded_nil_index_auto(r)
    assert v.status == Status.REFUTED
    assert v.witness == r.basis_element(0)


# F_2 is test_s_nil_check_elementary_m2_f2_refutes_diagonal
@pytest.mark.parametrize("dom", [fp(3), zmod(4), rat()], ids=lambda d: d.label())
def test_elementary_m2_degrees_are_refuted(dom):
    gr = elementary_grading(idempotent_ring(dom), 2)
    out = s_nil_check(gr)
    assert set(out) == {0, 1}
    for v in out.values():
        assert v.status == Status.REFUTED and non_nilpotent(v.witness)
    assert non_nilpotent(ring_is_nil(gr.ring).witness)


def test_s_nil_check_walk_leaving_the_support_proves_the_degree():
    out = s_nil_check(idempotent_acting_on_square_zero(fp(3), Monoid.int_add()))
    assert out[0].status == Status.REFUTED
    assert out[0].witness.coords == (1, 0)
    assert out[1].proved
    assert out[1].note == "degree walk leaves the support: x^2 = 0"
