"""Finite groupoids as small categories whose morphisms are all invertible.

Morphism and object ids are opaque strings taken from the input; internal
work uses the input order, so reports and serializations are deterministic.
"""

from dataclasses import dataclass

from .errors import Violation
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

    def __init__(self, objects, morphisms, dom, cod, inverse, compose, identity=None):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.inverse = dict(inverse)
        self._compose = dict(compose)
        self._obj_index = {e: i for i, e in enumerate(self.objects)}
        self._mor_index = {g: i for i, g in enumerate(self.morphisms)}
        if identity is None:
            identity = self._derive_identities()
        self.identity = dict(identity)

    def _derive_identities(self):
        """Find each object's identity from neutrality in the compose table."""
        ids = {}
        for e in self.objects:
            i = _neutral_loop(e, self.morphisms, self.dom, self.cod, self._compose)
            if i is not None:
                ids[e] = i
        return ids

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
        for g in self.morphisms:
            for h in self.morphisms:
                if self.is_composable(g, h):
                    yield g, h

    def morphisms_into(self, e):
        """G(-, e): all morphisms with codomain e."""
        return [g for g in self.morphisms if self.cod[g] == e]

    def morphisms_out_of(self, e):
        """G(e, -): all morphisms with domain e."""
        return [g for g in self.morphisms if self.dom[g] == e]

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
    for a in g.morphisms:
        for b in g.morphisms:
            if not g.is_composable(a, b):
                continue
            ab = g._compose.get((a, b))
            if ab is None or ab not in g._mor_index:
                continue
            for c in g.morphisms:
                if not g.is_composable(b, c):
                    continue
                bc = g._compose.get((b, c))
                if bc is None or bc not in g._mor_index:
                    continue
                left = g._compose.get((ab, c))
                right = g._compose.get((a, bc))
                if left != right or left is None:
                    out.append(Violation("associativity", (a, b, c), f"(ab)c={left!r}, a(bc)={right!r}"))
    return out


# -- constructors ---------------------------------------------------------


def from_group(elements, mul_table, object_id="*"):
    """One-object groupoid from a finite group multiplication table.

    `mul_table` maps pairs of element names to element names.  Raises
    ValueError unless the table is a genuine group.
    """
    elements = list(elements)
    elset = set(elements)
    for a in elements:
        for b in elements:
            if mul_table.get((a, b)) not in elset:
                raise ValueError(f"table is not closed at ({a}, {b})")
    ident = None
    for e in elements:
        if all(mul_table[(e, x)] == x and mul_table[(x, e)] == x for x in elements):
            ident = e
            break
    if ident is None:
        raise ValueError("table has no identity element")
    inverse = {}
    for a in elements:
        inv = [b for b in elements if mul_table[(a, b)] == ident and mul_table[(b, a)] == ident]
        if not inv:
            raise ValueError(f"element {a} has no inverse")
        inverse[a] = inv[0]
    for a in elements:
        for b in elements:
            for c in elements:
                if mul_table[(mul_table[(a, b)], c)] != mul_table[(a, mul_table[(b, c)])]:
                    raise ValueError(f"table is not associative at ({a}, {b}, {c})")
    e = object_id
    return FiniteGroupoid(
        objects=[e],
        morphisms=elements,
        dom={a: e for a in elements},
        cod={a: e for a in elements},
        inverse=inverse,
        compose=dict(mul_table),
        identity={e: ident},
    )


def cyclic_group(n, object_id="*"):
    """The cyclic group Z/n as a one-object groupoid, elements g0..g(n-1)."""
    names = [f"g{i}" for i in range(n)]
    table = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
    return from_group(names, table, object_id=object_id)


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
    return HomSet(e, f, [m for m in g.morphisms if g.dom[m] == e and g.cod[m] == f])


def isotropy(g, e):
    """The isotropy group G_e = G(e, e) as a one-object groupoid."""
    if e not in g._obj_index:
        raise KeyError(f"unknown object {e!r}")
    mors = [m for m in g.morphisms if g.dom[m] == e and g.cod[m] == e]
    return FiniteGroupoid(
        objects=[e],
        morphisms=mors,
        dom={m: e for m in mors},
        cod={m: e for m in mors},
        inverse={m: g.inverse[m] for m in mors},
        compose={(a, b): g._compose[(a, b)] for a in mors for b in mors},
        identity={e: g.identity[e]},
    )


def is_finite_mor_criterion(g):
    """Finiteness bookkeeping: isotropy orders, hom-set sizes, counting identity.

    For a finite groupoid the criterion always holds; the value of the check
    is the count report: every nonempty G(e,f) must have |G_e| elements.
    """
    iso = {e: len(isotropy(g, e).morphisms) for e in g.objects}
    hom = {}
    ok = True
    for e in g.objects:
        for f in g.objects:
            size = len(hom_set(g, e, f).morphisms)
            hom[(e, f)] = size
            if size and size != iso[e]:
                ok = False
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
    """Parse the groupoid schema; omitted identities are created as "id:<object>"."""
    objects = schema.items(schema.get(d, "objects", list, "groupoid"), str, "objects")
    morphisms = []
    dom, cod, inverse = {}, {}, {}
    for t, ent in enumerate(schema.get(d, "morphisms", list, "groupoid")):
        m, dom_m, cod_m, inv_m = (schema.get(ent, k, str, f"morphism {t}")
                                  for k in ("id", "dom", "cod", "inv"))
        morphisms.append(m)
        dom[m], cod[m], inverse[m] = dom_m, cod_m, inv_m
    compose = {}
    for t, ent in enumerate(schema.get(d, "compose", list, "groupoid", [])):
        a, b, c = schema.items(ent, str, f"compose entry {t}", 3)
        compose[(a, b)] = c
    # create identities that were left out, under the id:<object> convention
    for e in objects:
        m = f"id:{e}"
        if m not in dom and _neutral_loop(e, morphisms, dom, cod, compose) is None:
            morphisms.append(m)
            dom[m] = e
            cod[m] = e
            inverse[m] = m
            for h in list(morphisms):
                if cod.get(h) == e:
                    compose[(m, h)] = h
                if dom.get(h) == e:
                    compose[(h, m)] = h
    return FiniteGroupoid(objects, morphisms, dom, cod, inverse, compose)


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
