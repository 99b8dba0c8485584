"""Finite groupoids: constructors, components, isotropy, hom-set counting."""

from grpd import (
    cyclic_group,
    pair_groupoid,
    disjoint_union,
    validate,
    connected_components,
    isotropy,
    hom_set,
    is_finite_mor_criterion,
)

print("== the pair groupoid on three objects ==")
g = pair_groupoid(3)
print("objects:", g.objects)
print("morphisms:", g.morphisms)
print("violations:", validate(g))
print("(1,2)(2,3) =", g.compose("(1,2)", "(2,3)"))
print("components:", connected_components(g))
print("isotropy at 1:", isotropy(g, "1").morphisms)

print("\n== a group is a one-object groupoid ==")
z3 = cyclic_group(3)
print("Z/3 morphisms:", z3.morphisms, "violations:", validate(z3))

print("\n== disjoint unions keep components apart ==")
u = disjoint_union(z3, pair_groupoid(2))
print("components:", connected_components(u))

print("\n== hom-set counting ==")
report = is_finite_mor_criterion(u)
print("isotropy sizes:", report.isotropy_sizes)
print("every nonempty G(e,f) has |G_e| elements:", report.counting_identity)
for e in u.objects:
    for f in u.objects:
        hs = hom_set(u, e, f)
        if hs.morphisms:
            print(f"  |G({e},{f})| = {len(hs.morphisms)}")
