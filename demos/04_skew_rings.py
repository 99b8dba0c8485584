"""Partial skew groupoid rings from actions: swaps, matrix rings, Exel algebras.

The twisted product glues the coefficient ideals along the groupoid; a
global swap of two field copies already produces a 2x2 matrix ring, and
the pair groupoid produces generalized matrix rings of any size.
"""

from grpd import (
    Field,
    Matrix,
    Subspace,
    PartialAction,
    StructureAlgebra,
    analyze_algebra,
    build_partial_group_algebra,
    build_skew_groupoid_ring,
    build_groupoid_ring,
    cyclic_group,
    exel_semigroup,
    matrix_units_isomorphism,
    pair_groupoid,
    trace_map,
    fixed_ring,
    validate_action,
)

Q = Field(0)


def componentwise(n):
    table = [[[(i, Q.one)] if i == j else [] for j in range(n)] for i in range(n)]
    return StructureAlgebra(Q, n, table, unit=[Q.one] * n)


print("== the coordinate swap on Q x Q ==")
z2 = cyclic_group(2)
amb = componentwise(2)
full = Subspace.full(Q, 2)
swap = Matrix(Q, [[Q.zero, Q.one], [Q.one, Q.zero]])
pa = PartialAction.from_ambient_maps(
    z2, amb, {"*": full}, {"g0": full, "g1": full},
    {"g0": Matrix.identity(Q, 2), "g1": swap},
)
print("axioms:", validate_action(pa) or "all pass")
print("trace of (x,y) = (1,0):", [str(c) for c in trace_map(pa, [Q.one, Q.zero])])
print("fixed ring basis:", [[str(c) for c in b] for b in fixed_ring(pa).basis])

skew = build_skew_groupoid_ring(pa)
print("skew ring analysis:", analyze_algebra(skew))
print("-> a single 4-dimensional block: the 2x2 matrices")

print("\n== generalized matrix rings from the pair groupoid ==")
scalar = StructureAlgebra(Q, 1, [[[(0, Q.one)]]], unit=[Q.one], labels=["1"])
for n in (2, 3):
    ring = build_groupoid_ring(pair_groupoid(n), scalar)
    result = matrix_units_isomorphism(ring, n, scalar)
    print(f"n = {n}: dim {ring.dim}, matrix-unit checks {result.checks}, all pass: {bool(result)}")

print("\n== Exel's semigroup and the partial group algebra of Z/2 ==")
table = exel_semigroup(cyclic_group(2))
print("semigroup elements:", table.labels)
alg = build_partial_group_algebra(cyclic_group(2), Q)
print("partial group algebra:", analyze_algebra(alg))
print("-> dimension 3 with three one-dimensional blocks")
