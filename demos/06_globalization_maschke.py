"""Globalizing partial actions and Maschke-type semisimplicity transfer.

A unital partial action embeds into a global one on an enveloping algebra
built from functions on incoming morphisms; the verifier checks the four
defining axioms.  The trace of the unit drives an averaged projection that
turns coefficient-linear module splittings into skew-ring-linear ones.
"""

from grpd import (
    Field,
    Matrix,
    Subspace,
    PartialAction,
    StructureAlgebra,
    analyze_algebra,
    build_skew_groupoid_ring,
    cyclic_group,
    globalize,
    globalization_verify,
    is_finite_type,
    finite_type_witnesses,
    maschke_check,
)
from grpd.paction import envelope_component_unital

Q = Field(0)


def componentwise(n):
    table = [[[(i, Q.one)] if i == j else [] for j in range(n)] for i in range(n)]
    return StructureAlgebra(Q, n, table, unit=[Q.one] * n)


print("== globalizing the one-dimensional restricted flip ==")
z2 = cyclic_group(2)
amb = componentwise(1)
full1 = Subspace.full(Q, 1)
pa = PartialAction.from_ambient_maps(
    z2, amb, {"*": full1},
    {"g0": full1, "g1": Subspace.zero(Q, 1)},
    {"g0": Matrix.identity(Q, 1), "g1": Matrix.zeros(Q, 1, 1)},
)
glob = globalize(pa)
print("envelope dimension:", glob.action.ambient.dim, "(two copies of the line)")
print("verifier violations:", globalization_verify(pa, glob) or "none")
print("envelope components unital:", envelope_component_unital(glob))
print("finite type:", is_finite_type(pa), "witnesses:", finite_type_witnesses(pa))

print("\n== the Z/4 shift restricted to three of four coordinates ==")
z4 = cyclic_group(4)
amb3 = componentwise(3)
full3 = Subspace.full(Q, 3)
e = [Q.unit_vec(3, i) for i in range(3)]
span = lambda *vs: Subspace.from_vectors(Q, 3, list(vs))
domains = {"g0": full3, "g1": span(e[1], e[2]), "g2": span(e[0], e[2]), "g3": span(e[0], e[1])}


def shift(k):
    def f(v):
        out = Q.zero_vec(3)
        for i, c in enumerate(v):
            j = (i + k) % 4
            if j < 3:
                out[j] = c
            elif c:
                raise ValueError("left the window")
        return out
    return f


pa4 = PartialAction.from_ambient_maps(
    z4, amb3, {"*": full3}, domains,
    {"g0": Matrix.identity(Q, 3), "g1": shift(1), "g2": shift(2), "g3": shift(3)},
)
glob4 = globalize(pa4)
print("envelope dimension:", glob4.action.ambient.dim, "(the full four-cycle reappears)")
print("verifier violations:", globalization_verify(pa4, glob4) or "none")
skew4 = build_skew_groupoid_ring(pa4)
print("skew ring of the restriction:", analyze_algebra(skew4))
print("-> a single 9-dimensional block: the 3x3 matrices")

print("\n== Maschke report for the shift restriction ==")
report = maschke_check(pa4)
print("coefficients semisimple:", report["r_semisimple"])
print("isotropy orders:", report["isotropy_orders"], "invertible:", report["isotropy_invertible"])
print("trace of the unit invertible:", report["trace_invertible"])
print("skew ring semisimple:", report["skew_semisimple"])
print("isotropy route:", report["implication_isotropy"], "| trace route:", report["implication_trace"])
print("artinian bookkeeping:", report["park_criterion"])
