"""Structure algebras: products, laws, center, radical, blocks, doubling."""

import importlib.util
import json
import math
import pathlib
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
from grpd.errors import DimensionError, PreconditionError, UnsupportedError
from grpd.exactlin import Field, Subspace
from grpd import algebra, cli, polynomial
from grpd.algebra import StructureAlgebra, cayley_dickson_chain, grading_respected, polynomial_roots
from grpd.polynomial import _q_factors, _z_divide
from grpd.skewring import (analyze_algebra, build_groupoid_ring, build_partial_group_algebra,
                           invert_in, quotient_by_ideal)
from grpd import groupoid as gpd

Q = Field(0)


# -- independent Cayley-Dickson oracle on nested pairs ------------------------------

# a scalar of Q is an int or a Fraction; anything else is a pair
SCALAR = (int, Fraction)

def cd_conj(x):
    if isinstance(x, SCALAR):
        return x
    a, b = x
    return (cd_conj(a), cd_neg(b))


def cd_neg(x):
    if isinstance(x, SCALAR):
        return -x
    return (cd_neg(x[0]), cd_neg(x[1]))


def cd_add(x, y):
    if isinstance(x, SCALAR):
        return x + y
    return (cd_add(x[0], y[0]), cd_add(x[1], y[1]))


def cd_mul(x, y):
    if isinstance(x, SCALAR):
        return x * y
    a, b = x
    c, d = y
    return (
        cd_add(cd_mul(a, c), cd_neg(cd_mul(cd_conj(d), b))),
        cd_add(cd_mul(d, a), cd_mul(b, cd_conj(c))),
    )


def cd_from_vec(vec):
    if len(vec) == 1:
        return vec[0]
    half = len(vec) // 2
    return (cd_from_vec(vec[:half]), cd_from_vec(vec[half:]))


def cd_to_vec(x):
    if isinstance(x, SCALAR):
        return [x]
    return cd_to_vec(x[0]) + cd_to_vec(x[1])


@pytest.mark.parametrize("doublings", [1, 2, 3])
def test_doubling_matches_pair_oracle(doublings):
    alg = cayley_dickson_chain(Q, doublings)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            x = cd_from_vec(alg.basis_vector(i))
            y = cd_from_vec(alg.basis_vector(j))
            assert alg.multiply(alg.basis_vector(i), alg.basis_vector(j)) == cd_to_vec(cd_mul(x, y))


def test_doubling_matches_pair_oracle_sedenions_sample():
    alg = cayley_dickson_chain(Q, 4)
    rng = random.Random(3)
    for _ in range(40):
        i, j = rng.randrange(16), rng.randrange(16)
        x = cd_from_vec(alg.basis_vector(i))
        y = cd_from_vec(alg.basis_vector(j))
        assert alg.multiply(alg.basis_vector(i), alg.basis_vector(j)) == cd_to_vec(cd_mul(x, y))


def test_doubling_involution_matches_oracle():
    # the chain's signed copies assume conj(e_0) = e_0 and conj(e_j) = -e_j, j > 0
    alg = cayley_dickson_chain(Q, 3)
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        assert cd_to_vec(cd_conj(cd_from_vec(e))) == (e if i == 0 else [-c for c in e])


def reference_double(alg, conj):
    """Cayley-Dickson doubling by products, (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)),
    with the conjugation given as the dense images `conj` of the basis; returns the
    doubled algebra and its conjugation conj(a, b) = (conj(a), -b)."""
    n, p, cells = alg.dim, alg.field.char, alg._cells
    zero, table = alg.field.zero_vec(n), []
    for i in range(n):
        table.append([algebra._terms(cells[i].get(j, {})) for j in range(n)]
                     + [algebra._terms(cells[j].get(i, {}), n) for j in range(n)])
    cj = [alg._row(c) for c in conj]
    for i in range(n):
        right = [algebra._terms(alg._mul({i: 1}, c), n) for c in cj]
        left = [algebra._terms({k: -x % p if p else -x for k, x in alg._mul(c, {i: 1}).items()})
                for c in cj]
        table.append(right + left)
    new_conj = [list(c) + zero for c in conj]
    new_conj += [zero + [alg.field(-a) for a in alg.basis_vector(i)] for i in range(n)]
    doubled = StructureAlgebra(alg.field, 2 * n, table, unit=list(alg.unit) + zero,
                               labels=[f"e{i}" for i in range(2 * n)])
    return doubled, new_conj


@pytest.mark.parametrize("char", [0, 2, 3, 10007])
def test_chain_tables_equal_the_doubling_by_products(char):
    f = Field(char)
    ref, conj = StructureAlgebra(f, 1, [[[(0, f.one)]]], unit=[f.one], labels=["e0"]), [[f.one]]
    for k in range(6):
        if k:
            ref, conj = reference_double(ref, conj)
        alg = cayley_dickson_chain(f, k)
        assert repr(alg._cells) == repr(ref._cells)
        assert (alg.unit, alg.labels) == (ref.unit, ref.labels)


def test_doubling_chain_laws():
    complexlike = cayley_dickson_chain(Q, 1)
    assert complexlike.dim == 2 and complexlike.is_associative()
    quat = cayley_dickson_chain(Q, 2)
    assert quat.dim == 4 and quat.is_associative()
    # not commutative
    assert quat.multiply(quat.basis_vector(1), quat.basis_vector(2)) != \
        quat.multiply(quat.basis_vector(2), quat.basis_vector(1))
    octo = cayley_dickson_chain(Q, 3)
    assert octo.dim == 8
    assert not octo.is_associative() and octo.is_alternative()
    sede = cayley_dickson_chain(Q, 4)
    assert sede.dim == 16 and not sede.is_alternative()


def test_octonion_anticommuting_imaginary_units():
    octo = cayley_dickson_chain(Q, 3)
    e1e2 = octo.multiply(octo.basis_vector(1), octo.basis_vector(2))
    e2e1 = octo.multiply(octo.basis_vector(2), octo.basis_vector(1))
    assert e1e2 == [-c for c in e2e1]
    assert any(e1e2)


def test_the_constructor_refuses_a_unit_that_is_no_identity():
    # on Q x Q, [1, 0] is an idempotent but no unit; accepted, it sent the block split
    # into an endless search for a splitting element
    with pytest.raises(PreconditionError, match="not a two-sided identity"):
        StructureAlgebra(Q, 2, [[[(0, 1)], ()], [(), [(1, 1)]]], unit=[1, 0])
    dual = [[[(0, 1)], [(1, 1)]], [[(1, 1)], ()]]  # Q[x]/(x^2)
    with pytest.raises(PreconditionError, match="not a two-sided identity"):
        StructureAlgebra(Q, 2, dual, unit=[1, 1])
    with pytest.raises(DimensionError, match="element length differs"):
        StructureAlgebra(Q, 2, dual, unit=[1])
    assert StructureAlgebra(Q, 2, dual, unit=[1, 0]).unit == [1, 0]


def test_multiply_refuses_an_element_of_another_length():
    alg = corpus.group_algebra(Q, 3)
    with pytest.raises(DimensionError, match="element length differs"):
        alg.multiply([Q.one, Q.zero], alg.basis_vector(0))


def test_subalgebra_of_a_subspace_that_is_not_closed_is_refused():
    m2 = corpus.matrix_algebra(Q, 2)
    off_diagonal = Subspace.coordinate(Q, 4, [1, 2])  # E_12 E_21 = E_11 leaves it
    with pytest.raises(PreconditionError, match="not closed under multiplication"):
        m2.subalgebra(off_diagonal)


def test_multiply_bilinear():
    alg = corpus.group_algebra(Q, 3)
    rng = random.Random(5)
    for _ in range(20):
        x = [Q(rng.randint(-3, 3)) for _ in range(3)]
        y = [Q(rng.randint(-3, 3)) for _ in range(3)]
        z = [Q(rng.randint(-3, 3)) for _ in range(3)]
        c = Q(rng.randint(-3, 3))
        left = alg.multiply([a + c * b for a, b in zip(x, y)], z)
        right = [
            a + c * b
            for a, b in zip(alg.multiply(x, z), alg.multiply(y, z))
        ]
        assert left == right
        left2 = alg.multiply(z, [a + c * b for a, b in zip(x, y)])
        right2 = [
            a + c * b
            for a, b in zip(alg.multiply(z, x), alg.multiply(z, y))
        ]
        assert left2 == right2


def test_find_unit_cases():
    m2 = build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q))
    u = m2.find_unit()
    # the unit is the sum of the two diagonal matrix units
    diag = [Q.zero] * 4
    for i, g in enumerate(m2.grading[1]):
        if g in ("(1,1)", "(2,2)"):
            diag[i] = Q.one
    assert u == diag
    zero_alg = StructureAlgebra(Q, 1, [[[]]])
    assert zero_alg.find_unit() is None
    qz2 = corpus.group_algebra(Q, 2)
    assert qz2.find_unit() == [Q.one, Q.zero]


def test_associative_implies_alternative_on_corpus():
    algs = [
        corpus.group_algebra(Q, 2),
        corpus.group_algebra(Q, 3),
        corpus.dual_numbers(Q),
        corpus.upper_triangular2(Q),
        build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q)),
        cayley_dickson_chain(Q, 2),
    ]
    for alg in algs:
        if alg.is_associative():
            assert alg.is_alternative()


def test_center_of_m2_is_scalars():
    m2 = build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q))
    z = m2.center()
    assert z.dim == 1
    assert z.contains(m2.find_unit())


def test_center_of_commutative_is_everything():
    alg = corpus.group_algebra(Q, 3)
    assert alg.center().dim == 3


def test_center_of_octonions():
    octo = cayley_dickson_chain(Q, 3)
    z = octo.center()
    assert z.dim == 1
    assert z.contains(octo.find_unit())


def test_center_elements_invertible_in_simple_algebras():
    # the center of a simple unital algebra is a field
    for alg in (
        build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q)),
        cayley_dickson_chain(Q, 3),
    ):
        z = alg.center()
        sub, basis = alg.subalgebra(z)
        for k in range(sub.dim):
            x = sub.basis_vector(k)
            if not any(x):
                continue
            assert invert_in(sub, x) is not None


def test_ideal_closure_examples():
    alg = corpus.componentwise(Q, 2)
    full = Subspace.full(Q, 2)
    zero = Subspace.zero(Q, 2)
    assert alg.ideal_closure(full) == full
    assert alg.ideal_closure(zero) == zero
    corner = Subspace.from_vectors(Q, 2, [[Q.one, Q.zero]])
    assert alg.ideal_closure(corner) == corner
    # a non-ideal seed grows
    ut = corpus.upper_triangular2(Q)
    seed = Subspace.from_vectors(Q, 3, [[Q.zero, Q.zero, Q.one]])  # E22
    closed = ut.ideal_closure(seed)
    assert closed.dim == 2  # E22 pulls in E12


def test_ideal_closure_sides_differ():
    ut = corpus.upper_triangular2(Q)
    seed = Subspace.from_vectors(Q, 3, [[Q.zero, Q.zero, Q.one]])  # E22
    assert ut.ideal_closure(seed, "left").dim == 2  # E12 E22 = E12
    assert ut.ideal_closure(seed, "right").dim == 1  # E22 kills everything from the right
    with pytest.raises(ValueError):
        ut.ideal_closure(seed, "both")


@pytest.mark.parametrize("n", [4, 8])
def test_ideal_closure_multiplies_each_row_of_the_span_once(n, monkeypatch):
    # E_11 spans M_n as a two-sided ideal, the E_i1 as a left and the E_1j as a
    # right one; each row of that span meets each of the n^2 basis vectors once
    # per side: 2 n^4 products on both sides (8,192 in M_8, 512 in M_4), n^3 on one
    alg = corpus.matrix_algebra(Q, n)
    seed = Subspace.coordinate(Q, n * n, [0])  # E_11
    calls = []
    mul = StructureAlgebra._mul
    monkeypatch.setattr(StructureAlgebra, "_mul",
                        lambda self, x, y: calls.append(None) or mul(self, x, y))
    for side, span, sides in (("two", range(n * n), 2), ("left", range(0, n * n, n), 1),
                              ("right", range(n), 1)):
        calls.clear()
        assert alg.ideal_closure(seed, side) == Subspace.coordinate(Q, n * n, span), side
        assert len(calls) == sides * len(span) * n * n, side


def test_radical_examples():
    m2 = build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q))
    assert m2.jacobson_radical().dim == 0
    dual = corpus.dual_numbers(Q)
    rad = dual.jacobson_radical()
    assert rad.dim == 1 and rad.contains([Q.zero, Q.one])
    assert corpus.group_algebra(Q, 2).jacobson_radical().dim == 0


def test_radical_guards():
    octo = cayley_dickson_chain(Q, 3)
    with pytest.raises(UnsupportedError):
        octo.jacobson_radical()
    f2z2 = corpus.group_algebra(Field(2), 2)
    with pytest.raises(UnsupportedError):
        f2z2.is_semisimple()
    non_unital = StructureAlgebra(Q, 1, [[[]]])
    with pytest.raises(UnsupportedError):
        non_unital.jacobson_radical()


def test_radical_is_nilpotent_ideal_and_quotient_semisimple():
    for alg in (corpus.dual_numbers(Q), corpus.truncated_poly3(Q), corpus.upper_triangular2(Q)):
        rad = alg.jacobson_radical()
        assert alg.is_ideal(rad, "two")
        # nilpotency: iterated products of radical basis vectors within dim steps
        layer = [list(b) for b in rad.basis]
        for _ in range(alg.dim):
            layer = [alg.multiply(x, b) for x in layer for b in rad.basis]
            layer = [v for v in layer if any(v)]
            if not layer:
                break
        assert not layer
        q = quotient_by_ideal(alg, rad)
        assert q.jacobson_radical().dim == 0


def test_radical_of_a_large_triangular_algebra_is_one_kernel():
    # T_24 has dim 300 and radical 276; closing the kernel into an ideal
    # again took seconds, and the kernel is an ideal already
    alg = corpus.upper_triangular(Q, 24)
    start = time.perf_counter()
    report = analyze_algebra(alg)
    elapsed = time.perf_counter() - start
    assert report["radical_dim"] == 276 and report["semisimple"] is False
    assert elapsed < 2.0, f"analyze on T_24 took {elapsed:.2f} s"


def test_linear_systems_reach_exactlin_as_sparse_rows(monkeypatch):
    # each caller writes its system as sparse rows, with no dense Matrix on the way
    from grpd import paction as pact
    from grpd.exactlin import Matrix

    f3 = Field(3)
    m3 = corpus.matrix_algebra(Q, 3)
    octo = cayley_dickson_chain(Q, 3)
    qz6 = corpus.group_algebra(Q, 6)
    t3 = corpus.upper_triangular(Q, 3)
    f3z4 = corpus.group_algebra(f3, 4)
    swap = corpus.swap_action()

    def refuse(self, *args, **kwargs):
        raise AssertionError("a linear system was built as a dense Matrix")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    assert m3.find_unit() == [Q.one if i % 4 == 0 else Q.zero for i in range(9)]
    assert octo.center().dim == 1
    assert qz6.center().dim == 6
    assert t3.jacobson_radical().dim == 3
    # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) over F_3: two blocks F_3, one F_9
    assert f3z4.berlekamp_subalgebra().dim == 3
    assert pact.fixed_ring(swap) == Subspace.from_vectors(Q, 2, [[Q.one, Q.one]])


def test_internal_products_never_reach_the_dense_multiply(monkeypatch):
    # elements multiply inside grpd as raw rows; the dense multiply is only the boundary
    from grpd import paction as pact
    from grpd import leavitt as lv
    from grpd.skewring import build_skew_groupoid_ring

    m3 = corpus.matrix_algebra(Q, 3)
    unit = m3.find_unit()
    e00 = Subspace.from_vectors(Q, 9, [m3.basis_vector(0)])
    swap = corpus.swap_action()
    beta = pact.globalize(corpus.shift_restriction_action()).action

    def refuse(self, x, y):
        raise AssertionError("an internal product went through the dense multiply")

    monkeypatch.setattr(StructureAlgebra, "multiply", refuse)
    assert m3.is_two_sided_unit(unit) and not m3.is_two_sided_unit(m3.basis_vector(0))
    assert [m3.ideal_closure(e00, side).dim for side in ("left", "right", "two")] == [3, 3, 9]
    assert m3.is_ideal(Subspace.full(Q, 9)) and not m3.is_ideal(e00)
    assert m3.subalgebra(Subspace.from_vectors(Q, 9, [unit]))[0].dim == 1
    assert sorted(corpus.group_algebra(Q, 6).wedderburn_blocks().dims()) == [1, 1, 2, 2]
    assert pact.validate_action(swap) == []
    assert pact.validate_action(beta) == []
    assert build_skew_groupoid_ring(swap).dim == 4
    model = lv.GrSkewModel(lv.graph_analysis(corpus.line_graph(3)), Q)
    assert model.algebra.dim == 9 and model.algebra.unit is not None


def test_the_algebra_systems_do_no_boxed_arithmetic():
    # the unit, laws, center, radical, Berlekamp, block and fixed-ring systems read the
    # raw table; over F_p every answer comes back as ints in [0, p)
    from grpd import paction as pact

    f = Field(10007)
    # no unit supplied, so find_unit solves for it
    fz5 = StructureAlgebra(f, 5, corpus.table_of(corpus.group_algebra(f, 5)))
    octo = StructureAlgebra(f, 8, corpus.table_of(cayley_dickson_chain(f, 3)))
    shift = corpus.shift_restriction_action(f)
    for alg, associative, center_dim in ((fz5, True, 5), (octo, False, 1)):
        assert alg.find_unit() == f.unit_vec(alg.dim, 0)
        assert alg.is_associative() is associative and alg.is_alternative()
        assert alg.center().dim == center_dim
    assert fz5.jacobson_radical().dim == 0
    # 10007 has order 4 mod 5, so x^5 - 1 is (x - 1) times an irreducible quartic
    assert fz5.berlekamp_subalgebra().dim == 2
    assert sorted(fz5.wedderburn_blocks().dims()) == [1, 4]
    assert pact.fixed_ring(shift) == Subspace.from_vectors(f, 3, [[f.one] * 3])
    e5e5 = octo.multiply(octo.basis_vector(5), octo.basis_vector(5))
    assert e5e5 == [f.char - 1] + [0] * 7  # e_5 e_5 = -e_0
    answers = [octo.multiply(*octo.center().basis * 2), e5e5]
    answers += [v for b in fz5.wedderburn_blocks() for v in b.basis] + fz5.center().basis
    assert all(type(x) is int and 0 <= x < f.char for v in answers for x in v)


def test_unit_and_center_of_m31_from_its_sparse_table():
    # dim 961: dense length-961 linear forms took about 12 s for the unit and
    # 8 s for the center, at a peak above 2 GB
    m31 = corpus.matrix_algebra(Q, 31)
    start = time.perf_counter()
    u = m31.find_unit()
    unit_s = time.perf_counter() - start
    start = time.perf_counter()
    z = m31.center()
    center_s = time.perf_counter() - start
    assert u == [Q.one if i % 32 == 0 else Q.zero for i in range(961)]
    assert z.dim == 1 and z.contains(u)
    assert unit_s < 5.0, f"find_unit on M_31 took {unit_s:.2f} s"
    assert center_s < 5.0, f"center on M_31 took {center_s:.2f} s"


def test_wedderburn_blocks_examples():
    qz2 = corpus.group_algebra(Q, 2)
    assert sorted(qz2.wedderburn_blocks().dims()) == [1, 1]
    m2 = build_groupoid_ring(gpd.pair_groupoid(2), corpus.scalar_algebra(Q))
    assert m2.wedderburn_blocks().dims() == [4]
    # Q x M2 via a two-component groupoid
    two = gpd.disjoint_union(gpd.cyclic_group(1), gpd.pair_groupoid(2))
    coeffs = {"A:*": corpus.scalar_algebra(Q), "B:1": corpus.scalar_algebra(Q)}
    alg = build_groupoid_ring(two, coeffs)
    assert sorted(alg.wedderburn_blocks().dims()) == [1, 4]


def test_wedderburn_blocks_are_orthogonal_ideals():
    two = gpd.disjoint_union(gpd.cyclic_group(1), gpd.pair_groupoid(2))
    coeffs = {"A:*": corpus.scalar_algebra(Q), "B:1": corpus.scalar_algebra(Q)}
    alg = build_groupoid_ring(two, coeffs)
    blocks = alg.wedderburn_blocks()
    assert sum(b.dim for b in blocks) == alg.dim
    assert not blocks.non_split
    for i, a in enumerate(blocks):
        assert alg.is_ideal(a, "two")
        sub, _ = alg.subalgebra(a)
        assert sub.jacobson_radical().dim == 0
        assert sub.center().dim == 1
        for j, b in enumerate(blocks):
            if i == j:
                continue
            for u in a.basis:
                for v in b.basis:
                    assert not any(alg.multiply(u, v))


def test_wedderburn_blocks_tied_on_pivot_and_dim_keep_the_formatted_basis_order():
    # Q x Q in the basis b0 = e1 + e2, b1 = e1 - e2: both blocks have pivot 0
    # and dim 1, with RREF rows [1, -1] and [1, 1]; "-1" sorts before "1"
    h = Fraction(1, 2)
    table = [[[(0, 1)], [(1, 1)]], [[(1, 1)], [(0, 1)]]]
    alg = StructureAlgebra(Q, 2, table, unit=[1, 0])
    assert alg.multiply([h, h], [h, h]) == [h, h]
    assert [b.basis for b in alg.wedderburn_blocks()] == [[[1, -1]], [[1, 1]]]


def test_wedderburn_blocks_format_no_entry_without_a_tie(monkeypatch):
    m3 = corpus.matrix_algebra(Q, 3)

    def refuse(self, x):
        raise AssertionError("a block basis was formatted to sort blocks without a tie")

    monkeypatch.setattr(Field, "fmt", refuse)
    assert m3.wedderburn_blocks().dims() == [9]


@pytest.mark.parametrize("char", [0, 10007])
def test_a_simple_algebra_is_its_own_block_without_a_product(monkeypatch, char):
    m3 = corpus.matrix_algebra(Field(char), 3)
    m3.is_semisimple()
    m3.center()
    if char:
        m3.berlekamp_subalgebra()

    def refuse(self, x, y):
        raise AssertionError("a product was formed for the only block")

    monkeypatch.setattr(StructureAlgebra, "_mul", refuse)
    blocks = m3.wedderburn_blocks()
    assert blocks.dims() == [9] and not blocks.non_split
    assert blocks[0] == Subspace.full(Field(char), 9)


def test_wedderburn_requires_semisimple():
    with pytest.raises(PreconditionError):
        corpus.dual_numbers(Q).wedderburn_blocks()


def test_non_split_center_flagged():
    qz3 = corpus.group_algebra(Q, 3)
    blocks = qz3.wedderburn_blocks()
    assert sorted(blocks.dims()) == [1, 2]
    assert blocks.non_split  # the quadratic factor stays whole over Q


def test_blocks_factor_each_minimal_polynomial_once(monkeypatch):
    # Q^8 splits off one point at a time, every candidate with mp t^2 - t:
    # one factorization per decomposition, none kept from one to the next
    calls = []

    def counted(mp):
        calls.append(tuple(mp))
        return _q_factors(mp)

    monkeypatch.setattr(algebra, "_q_factors", counted)
    for _ in range(2):
        assert corpus.componentwise(Q, 8).wedderburn_blocks().dims() == [1] * 8
    assert calls == [(0, -1, 1)] * 2


def _load_oracle():
    """The benchmark's independent answers, loaded from their file (they import nothing of grpd)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _load_oracle()


@pytest.mark.parametrize("char", [0, 10007])
@pytest.mark.parametrize("n", [5, 6])
def test_partial_group_algebra_blocks_match_the_orbit_formula(n, char):
    # K_par(Z_n) is the product over orbits of translated subsets of M_k(K[Z_s])
    # (Dokuchaev-Exel-Piccione); Z_5 and Z_6 split idempotents that are not yet
    # final again, over several levels, in dims 48 and 112
    alg = build_partial_group_algebra(gpd.cyclic_group(n), Field(char))
    blocks = alg.wedderburn_blocks()
    assert sorted(blocks.dims()) == ORACLE.partial_group_algebra_blocks(n, char)
    assert blocks.non_split == [i for i, b in enumerate(blocks)
                                if alg.subalgebra(b)[0].center().dim > 1]
    assert Subspace.span(alg.field, alg.dim, blocks.blocks).dim == alg.dim


def test_minimal_polynomial_and_roots():
    qz2 = corpus.group_algebra(Q, 2)
    mp = corpus.minimal_polynomial(qz2, [Q.zero, Q.one], qz2.find_unit())  # the generator: t^2 = 1
    assert mp == [Q(-1), Q.zero, Q.one]
    assert polynomial_roots(Q, mp) == [Q(-1), Q(1)]
    f5 = Field(5)
    coeffs = [f5(4), f5(0), f5(1)]  # t^2 + 4 = t^2 - 1 mod 5
    assert polynomial_roots(f5, coeffs) == [f5(1), f5(4)]
    # the generator of F_5[Z_4]: t^4 - 1 splits into the four units of F_5
    f5z4 = corpus.group_algebra(f5, 4)
    mp = corpus.minimal_polynomial(f5z4, f5.unit_vec(4, 1), f5z4.find_unit())
    assert mp == [f5(-1), f5(0), f5(0), f5(0), f5(1)]
    assert polynomial_roots(f5, mp) == [f5(1), f5(2), f5(3), f5(4)]
    # over F_7 the same polynomial has only the roots 1 and 6 = -1
    f7 = Field(7)
    assert polynomial_roots(f7, [f7(-1), f7(0), f7(0), f7(0), f7(1)]) == [f7(1), f7(6)]
    # over Q: a repeated root is reported once, a root need not be an integer
    assert polynomial_roots(Q, [Q(-2), Q(3), Q.zero, Q(-1)]) == [Q(-2), Q(1)]  # -(t - 1)^2 (t + 2)
    assert polynomial_roots(Q, [Q(1), Q(-3), Q(2)]) == [Q(Fraction(1, 2)), Q(1)]
    assert polynomial_roots(Q, [Q.zero, Q.zero, Q(2), Q(4)]) == [Q(Fraction(-1, 2)), Q.zero]


def test_minimal_polynomial_runs_no_elimination(monkeypatch):
    from grpd import exactlin

    def refuse(rows, p):
        raise AssertionError("minimal_polynomial must not run an elimination")

    qz6 = corpus.group_algebra(Q, 6)
    one = qz6.find_unit()
    x = [Q(1), Q(2), Q.zero, Q(-1), Q.zero, Q(3)]
    monkeypatch.setattr(exactlin, "_gauss_jordan", refuse)
    mp = corpus.minimal_polynomial(qz6, x, one)
    assert mp[-1] == Q.one and len(mp) == 7  # x has six distinct eigenvalues
    acc = Q.zero_vec(6)
    for c in reversed(mp):  # Horner: mp(x) = 0
        acc = [a + c * u for a, u in zip(qz6.multiply(acc, x), one)]
    assert not any(acc)


def _brute_roots(p, coeffs):
    return [r for r in range(p)
            if sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p == 0]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_roots_match_brute_force(p):
    f = Field(p)
    rng = random.Random(1000 + p)
    for _ in range(200):
        degree = rng.randint(1, 8)
        coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        roots = polynomial_roots(f, corpus.vec(f, coeffs))
        assert roots == _brute_roots(p, coeffs), coeffs


def test_prime_field_roots_at_the_largest_prime():
    p = 2**31 - 1
    f = Field(p)
    rng = random.Random(31)
    non_residue = next(a for a in range(2, 100) if pow(a, (p - 1) // 2, p) == p - 1)
    for _ in range(20):
        roots = [rng.randrange(p) for _ in range(rng.randint(1, 5))]
        roots.append(roots[0])  # a repeated root is reported once
        # times t^2 - a for a non-residue a, a factor with no root in F_p
        poly = [f(-non_residue), f.zero, f.one]
        for r in roots:
            poly = [a - f(r) * b for a, b in zip([f.zero] + poly, poly + [f.zero])]
        found = polynomial_roots(f, poly)
        assert found == sorted(set(roots))
        for r in found:
            acc = f.zero
            for c in reversed(poly):
                acc = f(acc * r + c)
            assert not acc


def test_berlekamp_subalgebra_needs_a_prime_field():
    assert corpus.group_algebra(Field(13), 12).berlekamp_subalgebra().dim == 12
    with pytest.raises(UnsupportedError):
        corpus.group_algebra(Q, 2).berlekamp_subalgebra()


def test_minimal_polynomial_needs_an_identity_for_the_element():
    qz2 = corpus.group_algebra(Q, 2)
    with pytest.raises(PreconditionError):
        corpus.minimal_polynomial(qz2, [Q.zero, Q.one], [Q.zero, Q.one])


def test_division_by_a_non_root_is_refused():
    # recombination keeps a candidate factor only when it divides exactly over Z
    t2_minus_1 = [-1, 0, 1]
    assert _z_divide(t2_minus_1, [-1, 1]) == [1, 1]
    assert _z_divide(t2_minus_1, [-2, 1]) is None
    assert _z_divide([-1, 1, 2], [-1, 2]) == [1, 1]  # 2t^2 + t - 1 = (2t - 1)(t + 1)
    assert _z_divide([-1, 1, 2], [1, 2]) is None
    assert _z_divide(t2_minus_1, [-1, 2]) is None  # 2 does not divide the leading 1


def cyclotomic(n):
    """Phi_n over Z: t^n - 1 divided exactly by Phi_d for every proper divisor d of n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            g = cyclotomic(d)
            k = len(g) - 1
            q = [0] * (len(f) - k)
            for i in range(len(q) - 1, -1, -1):  # g is monic: long division by it
                q[i] = f[i + k]
                for j, b in enumerate(g):
                    f[i + j] -= q[i] * b
            assert not any(f)
            f = q
    return f


def poly_product(*fs):
    out = [1]
    for f in fs:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


SD4 = [1, 0, -10, 0, 1]  # the minimal polynomial of sqrt2 + sqrt3
SD8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # of sqrt2 + sqrt3 + sqrt5


def test_cyclotomic_factors_of_t_to_the_n_minus_1():
    for n in [*range(1, 37), 48, 64, 96, 128, 256]:
        factors = _q_factors([-1] + [0] * (n - 1) + [1])
        assert sorted(factors) == sorted(cyclotomic(d) for d in range(1, n + 1) if n % d == 0), n


@pytest.mark.parametrize("f, factors", [
    (SD4, [SD4]),
    (SD8, [SD8]),
    (poly_product(SD4, [-1, 1], [2, 1]), [SD4, [-1, 1], [2, 1]]),
    (poly_product(SD8, [3, -2], [-1, 1], [1, 1]), [SD8, [Fraction(-3, 2), 1], [-1, 1], [1, 1]]),
    (poly_product([Fraction(1, 3)], SD8, SD4, [0, 1]), [SD8, SD4, [0, 1]]),
])
def test_swinnerton_dyer_polynomials_stay_whole(f, factors):
    # irreducible over Q, yet split modulo every prime into factors of degree
    # at most 2, so every subset of those is tried before they are kept whole
    assert sorted(_q_factors(f)) == sorted(factors)


def test_factoring_past_the_recombination_budget_is_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(polynomial, "_RECOMBINATION_BUDGET", 3)
    with pytest.raises(UnsupportedError, match="3 factor combinations"):
        _q_factors(SD8)
    # no partial split is reported: the verb stops with exit 1
    monkeypatch.setattr(polynomial, "_RECOMBINATION_BUDGET", 0)
    path = tmp_path / "qz3.json"
    path.write_text(json.dumps(corpus.group_algebra(Q, 3).to_dict()))
    assert cli.main(["analyze", str(path)]) == 1
    assert "0 factor combinations" in capsys.readouterr().err


def test_recombination_tries_each_subset_once(monkeypatch):
    # twelve quadratics with negative discriminant, irreducible over Q; modulo
    # the prime each is one factor, found among the subsets of size 1, or two
    # linear ones, found among their pairs.  So m modular factors, l of them
    # linear, need at most m + C(l, 2) subsets when none is tried twice (going
    # back to the first subset after each factor found tried 97 here)
    quads = [[c, b, 1] for b in range(4) for c in range(1, 12) if b * b < 4 * c][:12]
    lift = polynomial._hensel

    def hensel(*args):
        lifted = lift(*args)
        linear = sum(len(h) == 2 for h in lifted)
        monkeypatch.setattr(polynomial, "_RECOMBINATION_BUDGET",
                            len(lifted) + linear * (linear - 1) // 2)
        return lifted

    monkeypatch.setattr(polynomial, "_hensel", hensel)
    assert sorted(_q_factors(poly_product(*quads))) == sorted(quads)


def reference_hensel(f, facs, p, mod):
    """The monic lifts of facs as `_hensel` made them before its factor tree:
    Newton's iteration on the root of each linear factor, and a two-factor
    lift of the whole f for every other factor."""
    def value(g, x):
        acc = 0
        for c in reversed(g):
            acc = acc * x + c
        return acc

    out, df = [], polynomial._poly_deriv(0, f)
    for h in facs:
        if len(h) == 2:
            r, m = -h[0], p
            while m < mod:
                m = min(m * m, mod)
                r = (r - value(f, r) * pow(value(df, r), -1, m)) % m
            out.append([-r % mod, 1])
        else:
            cofactor = polynomial._poly_divmod(p, [c % p for c in f], h)[0]
            out.append(polynomial._hensel_lift(f, cofactor, h, p, mod)[1])
    return out


class _Lifted(Exception):
    """Stops `_zassenhaus` once it has chosen what to lift."""


def lift_arguments(f):
    """(f, facs, p, mod) as `_zassenhaus` hands them to `_hensel`, or None
    when f is irreducible modulo the chosen prime."""
    seen = []

    def record(*args):
        seen.append(args)
        raise _Lifted

    with mock.patch.object(polynomial, "_hensel", record):
        try:
            polynomial._zassenhaus(f)
        except _Lifted:
            pass
    return seen[0] if seen else None


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.lists(st.builds(lambda low, lead: [*low, lead], st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                          st.sampled_from([*range(-9, 0), *range(1, 10)])),
                min_size=1, max_size=6, unique_by=tuple))
def test_tree_lift_matches_the_per_factor_lifts(factors):
    # products of up to six factors of degree 1-4 give up to 24 modular factors
    f = poly_product(*factors)
    content = math.gcd(*f)
    f = [c // content for c in f]
    assume(len(polynomial._poly_gcd(0, f, polynomial._poly_deriv(0, f))) == 1)  # square-free
    args = lift_arguments(f)
    assume(args is not None)
    _, facs, p, mod = args
    lifted = polynomial._hensel(*args)
    assert lifted == reference_hensel(*args)
    for u, h in zip(lifted, facs, strict=True):
        assert u[-1] == 1 and [c % p for c in u] == h
    prod = [f[-1] % mod]
    for u in lifted:
        prod = polynomial._poly_mul(mod, prod, u)
    assert prod == [c % mod for c in f]


def test_hensel_lifts_once_per_node_of_a_balanced_tree(monkeypatch):
    # t^256 - 1 has 15 factors mod 3, 13 of them nonlinear: one lift of the
    # whole f per nonlinear factor would lift degree 13 * 256 = 3,328 in all
    hensel, hensel_lift, counts, degrees = polynomial._hensel, polynomial._hensel_lift, [], []

    def counted(f, facs, p, mod):
        counts.append(len(facs))
        return hensel(f, facs, p, mod)

    def measured(f, *args):
        degrees.append(len(f) - 1)
        return hensel_lift(f, *args)

    monkeypatch.setattr(polynomial, "_hensel", counted)
    monkeypatch.setattr(polynomial, "_hensel_lift", measured)
    assert len(_q_factors([-1] + [0] * 255 + [1])) == 9
    assert counts == [15]
    assert len(degrees) == 14 and sum(degrees) <= 256 * 4  # r - 1 nodes, ceil(log2 15) levels


def test_rational_roots_of_large_constant_terms():
    # the old search tried every divisor of the constant term up to its square root
    f = poly_product([-1000003, 1], [99999989, 1], [1, 1, 1], [-3, 7])
    assert abs(f[0]) > 10**14
    start = time.perf_counter()
    roots = polynomial_roots(Q, f)
    assert roots == [-99999989, Fraction(3, 7), 1000003]
    assert time.perf_counter() - start < 1.0


def test_algebra_json_roundtrip():
    alg = corpus.upper_triangular2(Q)
    d1 = alg.to_dict()
    d2 = StructureAlgebra.from_dict(d1).to_dict()
    assert d1 == d2
    f5alg = corpus.group_algebra(Field(5), 2)
    d1 = f5alg.to_dict()
    d2 = StructureAlgebra.from_dict(d1).to_dict()
    assert d1 == d2


@pytest.mark.parametrize("table", [
    pytest.param([[[Q.one, Q.zero], []], [[], []]], id="dense-vector"),
    pytest.param([[[(0, Q.zero)], []], [[], []]], id="zero-coefficient"),
    pytest.param([[[(1, Q.one), (0, Q.one)], []], [[], []]], id="decreasing-index"),
    pytest.param([[[(0, Q.one), (0, Q.one)], []], [[], []]], id="repeated-index"),
    pytest.param([[[(2, Q.one)], []], [[], []]], id="index-out-of-range"),
    pytest.param([[[(-1, Q.one)], []], [[], []]], id="negative-index"),
    pytest.param([[[], []]], id="missing-row"),
])
def test_table_cells_must_be_sparse(table):
    with pytest.raises(DimensionError):
        StructureAlgebra(Q, 2, table)


@pytest.mark.parametrize("c", [0, 7, -1, 8, Fraction(3), Fraction(1, 2), True, "3"],
                         ids=repr)
def test_table_cells_over_fp_hold_reduced_residues(c):
    # the algebra reports its cells as given, so a cell takes only an int in [1, p)
    f7 = Field(7)
    with pytest.raises(DimensionError):
        StructureAlgebra(f7, 1, [[[(0, c)]]])
    assert StructureAlgebra(f7, 1, [[[(0, 6)]]]).multiply([1], [1]) == [6]


@pytest.mark.parametrize("c", ["3", 3.0, True, 0, Fraction(0), None], ids=repr)
def test_table_cells_over_q_hold_nonzero_rationals(c):
    # a cell coefficient over Q is a nonzero int or Fraction, stored in canonical form
    with pytest.raises(DimensionError):
        StructureAlgebra(Q, 1, [[[(0, c)]]])
    three = StructureAlgebra(Q, 1, [[[(0, Fraction(3))]]])
    assert type(three._cells[0][0][0]) is int
    assert three == StructureAlgebra(Q, 1, [[[(0, 3)]]])
    assert three.to_dict()["table"] == [[0, 0, ["3"]]]


def test_center_of_commutative_nonassociative_is_its_nucleus():
    # 1 is the unit, e e = e, e x = x e = x/2, x x = 0: commutative, but
    # (e, e, x) = x/4, so the nucleus conditions cut the commutant to span(1)
    half = Q(Fraction(1, 2))
    table = [
        [[(0, Q.one)], [(1, Q.one)], [(2, Q.one)]],
        [[(1, Q.one)], [(1, Q.one)], [(2, half)]],
        [[(2, Q.one)], [(2, half)], []],
    ]
    alg = StructureAlgebra(Q, 3, table)
    assert not alg.is_associative()
    assert alg.center() == Subspace.from_vectors(Q, 3, [alg.basis_vector(0)])
    without_unit = StructureAlgebra(Q, 2, [[[(0, Q.one)], [(1, half)]], [[(1, half)], []]])
    assert without_unit.center().dim == 0


def graded(alg, groupoid, degrees):
    """alg's table and unit with the grading record (groupoid, degrees)."""
    return StructureAlgebra(alg.field, alg.dim, corpus.table_of(alg), alg.unit,
                            grading=(groupoid, degrees))


def test_grading_respected_refuses_a_product_in_the_wrong_degree():
    z2, qz2 = gpd.cyclic_group(2), corpus.group_algebra(Q, 2)
    assert grading_respected(graded(qz2, z2, ["g0", "g1"])) is True
    # with the degrees swapped, d0 d0 = d0 lies in degree g1, not in g1 g1 = g0
    assert grading_respected(graded(qz2, z2, ["g1", "g0"])) is False


def test_equality_compares_the_products_and_the_unit():
    def alg(table, unit=None):
        return StructureAlgebra(Q, 2, table, unit=unit)

    dual = [[[(0, 1)], [(1, 1)]], [[(1, 1)], []]]
    assert alg(dual) == alg([[list(cell) for cell in row] for row in dual])
    empty = []  # one empty cell shared by every zero product, against a fresh [] each
    assert alg([[empty] * 2 for _ in range(2)]) == alg([[[] for _ in range(2)] for _ in range(2)])
    assert alg([[[(0, 1)], empty], [empty, empty]]) == alg([[[(0, 1)], []], [[], []]])
    assert alg([[[(0, Fraction(3))], []], [[], []]]) == alg([[[(0, 3)], []], [[], []]])
    assert alg(dual, unit=[Q.one, Q.zero]) != alg(dual)
    assert alg(dual) != alg([[[(0, 1)], [(1, 2)]], [[(1, 1)], []]])
    assert alg(dual) != alg([[[(0, 1)], [(1, 1)]], [[(1, 1)], [(1, 1)]]])
    assert alg(dual) != StructureAlgebra(Field(7), 2, dual)
    assert alg(dual) != "dual numbers"


def test_grading_respected_without_a_grading_and_where_products_must_vanish():
    alg = corpus.group_algebra(Q, 2)
    assert grading_respected(alg) is None
    # over the discrete groupoid on x and y, d0 d1 = d1 is nonzero, but id:x and id:y
    # do not compose, so products of those degrees must vanish
    discrete = gpd.from_dict({"objects": ["x", "y"], "morphisms": []})
    assert grading_respected(graded(alg, discrete, ["id:x", "id:y"])) is False


def test_subalgebra_refuses_a_subspace_of_another_ambient():
    from grpd import paction as pact

    pa = corpus.swap_action()
    for space in (Subspace.coordinate(Q, 1, [0]), Subspace.full(Q, 3)):
        with pytest.raises(DimensionError):
            pa.ambient.subalgebra(space)
        with pytest.raises(DimensionError):
            pact.is_invariant_subring(pa, space)
