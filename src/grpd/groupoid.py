"""Finite groupoids as small categories whose morphisms are all invertible.

Morphism and object ids are opaque strings taken from the input; internal
work uses the input order, so reports and serializations are deterministic.
"""

from dataclasses import dataclass

from .errors import SchemaError, Violation
from . import schema


@dataclass
class HomSet:
    source: str
    target: str
    morphisms: list


@dataclass
class FiniteMorReport:
    """Finiteness criterion report: object count, isotropy and hom-set sizes.

    Truthy when every nonempty hom-set G(e,f) has exactly |G_e| elements.
    """

    isotropy_sizes: dict
    hom_sizes: dict
    counting_identity: bool

    def __bool__(self):
        return self.counting_identity


class FiniteGroupoid:
    """Finite groupoid given by explicit domain/codomain/inverse/compose tables.

    The compose table is total on the composable pairs of a well-formed
    groupoid; composability itself is decided by dom/cod so that malformed
    tables are detectable by `validate`.
    """

    def __init__(self, objects, morphisms, dom, cod, inverse, compose, identity):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.inverse = dict(inverse)
        self._compose = dict(compose)
        self._obj_index = {e: i for i, e in enumerate(self.objects)}
        self._mor_index = {g: i for i, g in enumerate(self.morphisms)}
        self._into = {}  # codomain -> its morphisms, in input order
        self._out = {}  # domain -> its morphisms, in input order
        for g in self.morphisms:
            self._into.setdefault(self.cod[g], []).append(g)
            self._out.setdefault(self.dom[g], []).append(g)
        self.identity = dict(identity)

    # -- basic queries ----------------------------------------------------

    def is_composable(self, g, h):
        return self.dom[g] == self.cod[h]

    def compose(self, g, h):
        if not self.is_composable(g, h):
            raise ValueError(f"morphisms not composable: {g}, {h}")
        try:
            return self._compose[(g, h)]
        except KeyError:
            raise KeyError(f"compose table has no entry for ({g}, {h})") from None

    def composable_pairs(self):
        """The pairs (g, h) with cod h = dom g: g in input order, then h."""
        for g in self.morphisms:
            for h in self._into.get(self.dom[g], ()):
                yield g, h

    def morphisms_into(self, e):
        """G(-, e): all morphisms with codomain e."""
        return list(self._into.get(e, ()))

    def morphisms_out_of(self, e):
        """G(e, -): all morphisms with domain e."""
        return list(self._out.get(e, ()))

    def __repr__(self):
        return f"FiniteGroupoid({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


# -- validation -----------------------------------------------------------


def validate(g):
    """Check all groupoid axioms; returns a list of violations (empty = valid)."""
    out = []
    objs = set(g.objects)
    for m in g.morphisms:
        if g.dom.get(m) not in objs or g.cod.get(m) not in objs:
            out.append(Violation("dom-cod", (m,), "domain or codomain is not an object"))
    for e in g.objects:
        i = g.identity.get(e)
        if i is None:
            out.append(Violation("identity", (e,), "no neutral loop found for this object"))
        elif g.dom.get(i) != e or g.cod.get(i) != e:
            out.append(Violation("identity", (e, i), "identity morphism has wrong endpoints"))

    for pair in g.composable_pairs():
        a, b = pair
        k = g._compose.get(pair)
        if k is None:
            out.append(Violation("compose", pair, "missing entry for a composable pair"))
            continue
        if k not in g._mor_index:
            out.append(Violation("compose", pair, f"result {k!r} is not a morphism"))
            continue
        if g.dom.get(k) != g.dom.get(b) or g.cod.get(k) != g.cod.get(a):
            out.append(Violation("compose", pair, "composite has wrong endpoints"))
    for pair, k in g._compose.items():
        a, b = pair
        if a in g._mor_index and b in g._mor_index and not g.is_composable(a, b):
            out.append(Violation("compose", pair, "table entry for a non-composable pair"))

    for m in g.morphisms:
        inv = g.inverse.get(m)
        if inv is None or inv not in g._mor_index:
            out.append(Violation("inverse", (m,), "missing inverse"))
            continue
        if g.dom.get(inv) != g.cod.get(m) or g.cod.get(inv) != g.dom.get(m):
            out.append(Violation("inverse", (m, inv), "inverse has wrong endpoints"))
            continue
        e_c = g.identity.get(g.cod.get(m))
        e_d = g.identity.get(g.dom.get(m))
        if e_c is not None and g._compose.get((m, inv)) != e_c:
            out.append(Violation("inverse", (m, inv), "g g^-1 is not the codomain identity"))
        if e_d is not None and g._compose.get((inv, m)) != e_d:
            out.append(Violation("inverse", (inv, m), "g^-1 g is not the domain identity"))

    # associativity on every composable triple
    for a, b in g.composable_pairs():
        ab = g._compose.get((a, b))
        if ab is None or ab not in g._mor_index:
            continue
        for c in g._into.get(g.dom[b], ()):
            bc = g._compose.get((b, c))
            if bc is None or bc not in g._mor_index:
                continue
            left = g._compose.get((ab, c))
            right = g._compose.get((a, bc))
            if left != right or left is None:
                out.append(Violation("associativity", (a, b, c), f"(ab)c={left!r}, a(bc)={right!r}"))
    return out


# -- constructors ---------------------------------------------------------


def from_group(elements, mul_table):
    """One-object groupoid, on the object "*", from a finite group multiplication table.

    `mul_table` maps pairs of element names to element names.  The identity
    is the neutral element and each inverse the first right inverse; then
    `validate` decides the group axioms.  Raises ValueError naming the first
    violation unless the table is a genuine group.
    """
    elements = list(elements)
    ends = {a: "*" for a in elements}
    ident = _neutral_loop("*", elements, ends, ends, mul_table)
    inverse = {a: next((b for b in elements if mul_table.get((a, b)) == ident), None)
               for a in elements}
    g = FiniteGroupoid(["*"], elements, ends, ends, inverse, mul_table, {"*": ident})
    bad = validate(g)
    if bad:
        raise ValueError(f"table is not a group: {bad[0]}")
    return g


def cyclic_group(n):
    """The cyclic group Z/n as a one-object groupoid, elements g0..g(n-1)."""
    names = [f"g{i}" for i in range(n)]
    table = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
    return from_group(names, table)


def pair_groupoid(n):
    """Pair groupoid on n objects: morphisms (i,j), d(i,j)=j, c(i,j)=i."""
    if n < 1:
        raise ValueError("pair groupoid needs at least one object")
    objects = [str(i) for i in range(1, n + 1)]
    name = lambda i, j: f"({i},{j})"
    morphisms = [name(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    dom = {}
    cod = {}
    inverse = {}
    compose = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            m = name(i, j)
            dom[m] = str(j)
            cod[m] = str(i)
            inverse[m] = name(j, i)
            for k in range(1, n + 1):
                compose[(m, name(j, k))] = name(i, k)
    identity = {str(i): name(i, i) for i in range(1, n + 1)}
    return FiniteGroupoid(objects, morphisms, dom, cod, inverse, compose, identity)


def disjoint_union(a, b, tags=("A:", "B:")):
    """Disjoint union of two groupoids, ids prefixed to keep them apart."""
    ta, tb = tags

    def remap(g, t):
        objs = [t + e for e in g.objects]
        mors = [t + m for m in g.morphisms]
        return (
            objs,
            mors,
            {t + m: t + g.dom[m] for m in g.morphisms},
            {t + m: t + g.cod[m] for m in g.morphisms},
            {t + m: t + g.inverse[m] for m in g.morphisms},
            {(t + x, t + y): t + z for (x, y), z in g._compose.items()},
            {t + e: t + i for e, i in g.identity.items()},
        )

    oa, ma, da, ca, ia, pa, ea = remap(a, ta)
    ob, mb, db, cb, ib, pb, eb = remap(b, tb)
    return FiniteGroupoid(
        oa + ob, ma + mb, {**da, **db}, {**ca, **cb}, {**ia, **ib}, {**pa, **pb}, {**ea, **eb}
    )


# -- structure queries ----------------------------------------------------


def connected_components(g):
    """Partition of the objects under "some morphism joins them"."""
    parent = {e: e for e in g.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in g.morphisms:
        a, b = find(g.dom[m]), find(g.cod[m])
        if a != b:
            parent[b] = a
    comps = {}
    for e in g.objects:
        comps.setdefault(find(e), []).append(e)
    # deterministic: components ordered by first object appearance
    return [comps[r] for r in sorted(comps, key=lambda r: g._obj_index[r])]


def hom_set(g, e, f):
    """G(e, f): morphisms with domain e and codomain f."""
    if e not in g._obj_index or f not in g._obj_index:
        raise KeyError(f"unknown object in hom_set({e!r}, {f!r})")
    return HomSet(e, f, [m for m in g._out.get(e, ()) if g.cod[m] == f])


def full_subgroupoid(g, objects):
    """The subgroupoid on `objects` with every morphism of g between them.

    It keeps the compose entries whose three morphisms all survive.
    """
    objects = list(objects)
    kept = set(objects)
    mors = [m for m in g.morphisms if g.dom[m] in kept and g.cod[m] in kept]
    mor_set = set(mors)
    return FiniteGroupoid(
        objects=objects,
        morphisms=mors,
        dom={m: g.dom[m] for m in mors},
        cod={m: g.cod[m] for m in mors},
        inverse={m: g.inverse[m] for m in mors},
        compose={(a, b): c for (a, b), c in g._compose.items()
                 if a in mor_set and b in mor_set and c in mor_set},
        identity={e: g.identity[e] for e in objects},
    )


def isotropy(g, e):
    """The isotropy group G_e = G(e, e) as a one-object groupoid."""
    if e not in g._obj_index:
        raise KeyError(f"unknown object {e!r}")
    return full_subgroupoid(g, [e])


def is_finite_mor_criterion(g):
    """Finiteness bookkeeping: isotropy orders, hom-set sizes, counting identity.

    For a finite groupoid the criterion always holds; the value of the check
    is the count report: every nonempty G(e,f) must have |G_e| elements.
    """
    hom = {(e, f): len(hom_set(g, e, f).morphisms) for e in g.objects for f in g.objects}
    iso = {e: hom[e, e] for e in g.objects}
    ok = all(not size or size == iso[e] for (e, _), size in hom.items())
    return FiniteMorReport(isotropy_sizes=iso, hom_sizes=hom, counting_identity=ok)


# -- JSON schema ----------------------------------------------------------


def to_dict(g):
    return {
        "objects": list(g.objects),
        "morphisms": [
            {"id": m, "dom": g.dom[m], "cod": g.cod[m], "inv": g.inverse[m]} for m in g.morphisms
        ],
        "compose": sorted([[a, b, c] for (a, b), c in g._compose.items()]),
    }


def from_dict(d):
    """Parse the groupoid schema; omitted identities are created as "id:<object>".

    A repeated object id, morphism id or compose pair is a SchemaError.
    """
    objects = schema.items(schema.get(d, "objects", list, "groupoid"), str, "objects")
    repeated = [e for t, e in enumerate(objects) if e in objects[:t]]
    if repeated:
        raise SchemaError(f"repeated object id {repeated[0]!r}")
    morphisms = []
    dom, cod, inverse = {}, {}, {}
    for t, ent in enumerate(schema.get(d, "morphisms", list, "groupoid")):
        m, dom_m, cod_m, inv_m = (schema.get(ent, k, str, f"morphism {t}")
                                  for k in ("id", "dom", "cod", "inv"))
        if m in dom:
            raise SchemaError(f"repeated morphism id {m!r}")
        morphisms.append(m)
        dom[m], cod[m], inverse[m] = dom_m, cod_m, inv_m
    compose = {}
    for t, ent in enumerate(schema.get(d, "compose", list, "groupoid", [])):
        a, b, c = schema.items(ent, str, f"compose entry {t}", 3)
        if (a, b) in compose:
            raise SchemaError(f"repeated compose pair ({a!r}, {b!r})")
        compose[(a, b)] = c
    # find each identity as its first neutral loop, creating those left out
    # under the id:<object> convention; a created id:<e> adds compose entries
    # only with itself, so it changes no other object's neutral loops
    identity = {}
    for e in objects:
        m = f"id:{e}"
        i = _neutral_loop(e, morphisms, dom, cod, compose)
        if i is not None:
            identity[e] = i
        elif m not in dom:
            identity[e] = m
            morphisms.append(m)
            dom[m] = e
            cod[m] = e
            inverse[m] = m
            for h in list(morphisms):
                if cod.get(h) == e:
                    compose[(m, h)] = h
                if dom.get(h) == e:
                    compose[(h, m)] = h
    return FiniteGroupoid(objects, morphisms, dom, cod, inverse, compose, identity)


def _neutral_loop(e, morphisms, dom, cod, compose):
    """The first loop at e that is neutral for composition on both sides, or None."""
    for i in morphisms:
        if dom.get(i) != e or cod.get(i) != e:
            continue
        if all(
            (cod.get(h) != e or compose.get((i, h)) == h)
            and (dom.get(h) != e or compose.get((h, i)) == h)
            for h in morphisms
        ):
            return i
    return None
