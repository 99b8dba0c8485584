"""Builders turning actions and combinatorial data into structure algebras.

Partial skew groupoid rings from validated actions, groupoid rings over
coefficient algebras, generalized matrix rings, Exel-semigroup partial
group algebras, quotients by ideals, and the Maschke-type machinery
(semisimplicity report and the averaged module projection).
"""

from dataclasses import dataclass, field as dc_field

from .errors import PreconditionError, UnsupportedError
from .exactlin import Matrix, Subspace, solve
from .algebra import StructureAlgebra, grading_respected, nonzero_terms
from .groupoid import connected_components
from . import paction as pact


# -- layout helpers ------------------------------------------------------------


def skew_layout(pa):
    """Basis offsets of the skew ring: morphisms in input order, then RREF order."""
    return _layout(pa.groupoid.morphisms, pa.domains)


def _layout(degrees, domains):
    offsets = {}
    off = 0
    for g in degrees:
        offsets[g] = off
        off += domains[g].dim
    return offsets, off


def component_coords(pa, r):
    """Split an ambient vector along the component decomposition."""
    field = pa.ambient.field
    cols = []
    spans = []
    for e in pa.groupoid.objects:
        comp = pa.object_components[e]
        cols.extend(comp.basis)
        spans.append((e, comp.dim))
    m = Matrix.from_columns(field, cols, pa.ambient.dim)
    sol = solve(m, r)
    if sol is None:
        raise PreconditionError("vector does not decompose along the components")
    out = {}
    pos = 0
    for e, d in spans:
        out[e] = sol[pos:pos + d]
        pos += d
    return out


def embed_in_skew(pa, r, offsets=None, total=None):
    """Embed an ambient element along the identity degrees of the skew ring."""
    if offsets is None:
        offsets, total = skew_layout(pa)
    field = pa.ambient.field
    vec = field.zero_vec(total)
    parts = component_coords(pa, r)
    for e in pa.groupoid.objects:
        i = pa.groupoid.identity[e]
        off = offsets[i]
        # valid unital actions have R_{id_e} = R_e, so coordinates carry over
        comp = pa.object_components[e]
        dom = pa.domains[i]
        if dom != comp:
            raise PreconditionError("identity domain differs from component; validate the action")
        for k, c in enumerate(parts[e]):
            vec[off + k] = c
    return vec


def delta_element(pa, g, coeff_ambient, offsets=None, total=None):
    """The element (coeff delta_g) of the skew ring, as a coordinate vector."""
    if offsets is None:
        offsets, total = skew_layout(pa)
    field = pa.ambient.field
    vec = field.zero_vec(total)
    coords = pa.domains[g].coords(coeff_ambient)
    off = offsets[g]
    for k, c in enumerate(coords):
        vec[off + k] = c
    return vec


# -- partial skew groupoid ring --------------------------------------------------


def skew_product_ring(field, degrees, domains, triples, inv, alpha, mul, name, unit):
    """The skew-product kernel shared by every skew-ring builder.

    The basis runs over `degrees` in order and, inside a degree g, over the
    RREF basis of its domain D_g (`domains[g]`).  For each triple (g, h, gh)
    in `triples` the product of a degree-g and a degree-h basis vector is
    alpha_g(alpha_{g^-1}(r) r') in degree gh, with `alpha(g, x)` applying
    alpha_g, `inv(g)` giving g^-1 and `mul` the ambient product; products of
    all other pairs are zero.  A gh that is None or not a degree marks a
    product that must vanish.  `name(g)` labels and grades degree g.
    `unit` maps degrees to elements of their domains, or is None; their sum
    becomes the algebra's unit when it is a two-sided identity.

    Returns the algebra and the basis offset of each degree.
    """
    offsets, total = _layout(degrees, domains)
    labels = []
    grading = {}
    for g in degrees:
        for j in range(domains[g].dim):
            grading[len(labels)] = name(g)
            labels.append(f"{name(g)}:{j}")

    table = [[[] for _ in range(total)] for _ in range(total)]
    pulled = {}  # g -> alpha_{g^-1} of each basis vector of D_g
    for g, h, gh in triples:
        dg = domains[g]
        dh = domains[h]
        if dg.dim == 0 or dh.dim == 0:
            continue
        if g not in pulled:
            pulled[g] = [alpha(inv(g), r) for r in dg.basis]
        dgh = domains.get(gh)
        for i, p in enumerate(pulled[g]):
            for j, rp in enumerate(dh.basis):
                x = mul(p, rp)
                if not any(x):
                    continue
                y = alpha(g, x)
                if dgh is None:
                    if any(y):
                        raise RuntimeError(
                            "nonzero product escaped the support; model is inconsistent"
                        )
                    continue
                try:
                    coords = dgh.coords(y)
                except ValueError:
                    raise PreconditionError(
                        f"product of degrees {name(g)}, {name(h)} left R_({name(gh)})"
                    ) from None
                off = offsets[gh]
                table[offsets[g] + i][offsets[h] + j] = [
                    (off + k, c) for k, c in enumerate(coords) if c
                ]

    alg = StructureAlgebra(field, total, table, labels=labels, grading=grading)
    if unit is not None:
        u = field.zero_vec(total)
        for g, r in unit.items():
            for k, c in enumerate(domains[g].coords(r)):
                u[offsets[g] + k] = c
        if alg.is_two_sided_unit(u):
            alg.unit = u
    return alg, offsets


def build_skew_groupoid_ring(pa):
    """Assemble R *_alpha G with the twisted product.

    Degree-g basis vectors are the RREF basis of R_g; the product of a
    degree-g and a degree-h vector is alpha_g(alpha_{g^-1}(r) r') in degree
    gh for composable pairs and zero otherwise.  For unital actions the
    element summing the component identities over the identity degrees is
    verified to be the two-sided unit.
    """
    violations = pact.validate_action(pa)
    if violations:
        raise PreconditionError(
            "action does not validate: " + "; ".join(str(v) for v in violations)
        )
    g0 = pa.groupoid
    unit = None
    if pact.is_unital(pa):
        ids = [g0.identity[e] for e in g0.objects]
        parts = {i: pa.domain_unit(i) for i in ids}
        if all(u is not None or pa.domains[i].dim == 0 for i, u in parts.items()):
            unit = {i: u for i, u in parts.items() if u is not None}
    triples = (
        (g, h, g0.compose(g, h))
        for g in g0.morphisms for h in g0.morphisms if g0.is_composable(g, h)
    )
    alg, _ = skew_product_ring(
        pa.ambient.field, g0.morphisms, pa.domains, triples,
        pa.inv, pa.apply_alpha, pa.ambient.multiply, lambda g: g, unit,
    )
    alg.grading_groupoid = g0
    return alg


# -- groupoid rings and generalized matrix rings -----------------------------------


def groupoid_ring_action(groupoid, coeffs):
    """The global action behind a groupoid ring R[G].

    Every object carries a copy of its component's coefficient algebra and
    every alpha_g is the canonical identification between the copies at its
    endpoints.  `coeffs` maps component representatives (first object of
    each connected component) to unital algebras; a single algebra is used
    for all components.
    """
    comps = connected_components(groupoid)
    if isinstance(coeffs, StructureAlgebra):
        coeffs = {c[0]: coeffs for c in comps}
    rep_of = {}
    for comp in comps:
        rep = comp[0]
        if rep not in coeffs:
            raise PreconditionError(f"no coefficient algebra for component of {rep!r}")
        for e in comp:
            rep_of[e] = rep
    fields = {coeffs[c[0]].field for c in comps}
    if len(fields) != 1:
        raise PreconditionError("coefficient algebras live over different fields")
    base_field = fields.pop()
    for comp in comps:
        if coeffs[comp[0]].find_unit() is None:
            raise PreconditionError("coefficient algebras must be unital")

    offsets = {}
    off = 0
    for e in groupoid.objects:
        offsets[e] = off
        off += coeffs[rep_of[e]].dim
    n = off

    table = [[[] for _ in range(n)] for _ in range(n)]
    labels = [None] * n
    for e in groupoid.objects:
        t = coeffs[rep_of[e]]
        o = offsets[e]
        for i in range(t.dim):
            labels[o + i] = f"{e}.{t.label(i)}"
            for j in range(t.dim):
                table[o + i][o + j] = [(o + k, c) for k, c in t.table[i][j]]
    unit = base_field.zero_vec(n)
    for e in groupoid.objects:
        t = coeffs[rep_of[e]]
        for k, c in enumerate(t.find_unit()):
            unit[offsets[e] + k] = c
    ambient = StructureAlgebra(base_field, n, table, unit=unit, labels=labels)

    components = {
        e: Subspace.coordinate(base_field, n, range(o, o + coeffs[rep_of[e]].dim))
        for e, o in offsets.items()
    }
    domains = {g: components[groupoid.cod[g]] for g in groupoid.morphisms}
    maps = {
        g: Matrix.identity(base_field, coeffs[rep_of[groupoid.cod[g]]].dim)
        for g in groupoid.morphisms
    }
    return pact.PartialAction(groupoid, ambient, components, domains, maps)


def build_groupoid_ring(groupoid, coeffs):
    """Groupoid ring R[G]: the skew ring of the canonical identification action."""
    return build_skew_groupoid_ring(groupoid_ring_action(groupoid, coeffs))


@dataclass
class MatrixUnitsResult:
    mapping: dict | None
    counterexample: str | None
    checks: int

    def __bool__(self):
        return self.mapping is not None


def matrix_units_isomorphism(alg, n, t):
    """Verify the generalized matrix-unit relations in a pair-groupoid ring.

    Expects `alg` built from pair_groupoid(n) with constant coefficient
    algebra `t`; checks E_ij(b) E_kl(b') = delta_jk E_il(b b') over all
    index pairs and coefficient basis pairs.  Returns the basis
    identification, or the first failing relation.
    """
    if alg.grading is None:
        return MatrixUnitsResult(None, "algebra carries no grading", 0)
    mapping = {}
    seen = {}
    for idx in range(alg.dim):
        deg = alg.grading[idx]
        k = seen.get(deg, 0)
        seen[deg] = k + 1
        mapping[(deg, k)] = idx
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            deg = f"({i},{j})"
            if seen.get(deg, 0) != t.dim:
                return MatrixUnitsResult(
                    None, f"degree {deg} has {seen.get(deg, 0)} basis vectors, wanted {t.dim}", 0
                )
    checks = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    for m1 in range(t.dim):
                        for m2 in range(t.dim):
                            a = mapping[(f"({i},{j})", m1)]
                            b = mapping[(f"({k},{l})", m2)]
                            expected = [] if j != k else sorted(
                                (mapping[(f"({i},{l})", m3)], c) for m3, c in t.table[m1][m2]
                            )
                            checks += 1
                            if alg.table[a][b] != expected:
                                return MatrixUnitsResult(
                                    None,
                                    f"E({i},{j})[{m1}] * E({k},{l})[{m2}] broke the matrix-unit law",
                                    checks,
                                )
    out = {(i, j, m): mapping[(f"({i},{j})", m)] for i in range(1, n + 1)
           for j in range(1, n + 1) for m in range(t.dim)}
    return MatrixUnitsResult(out, None, checks)


# -- Exel semigroup and partial group algebras ----------------------------------------


@dataclass
class SemigroupTable:
    """Finite semigroup with elements (A, g), g in A, under (A,g)(B,h) = (A u gB, gh)."""

    elements: list
    labels: list
    table: list

    def validate(self):
        """Exhaustive associativity check; returns witnesses of failure."""
        bad = []
        n = len(self.elements)
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        bad.append((a, b, c))
        return bad


def exel_semigroup(group):
    """Exel's semigroup S(G) of a finite group in (A, g) normal form."""
    if len(group.objects) != 1:
        raise PreconditionError("partial group algebras need a one-object groupoid")
    elems = list(group.morphisms)
    order = {x: i for i, x in enumerate(elems)}
    e = group.identity[group.objects[0]]
    subsets = []
    for mask in range(1 << len(elems)):
        a = frozenset(elems[i] for i in range(len(elems)) if mask & (1 << i))
        if e in a:
            subsets.append(a)
    items = []
    for a in subsets:
        for g in elems:
            if g in a:
                items.append((a, g))
    items.sort(key=lambda t: (len(t[0]), sorted(order[x] for x in t[0]), order[t[1]]))

    def mul(x, y):
        (a, g), (b, h) = x, y
        moved = frozenset(group.compose(g, t) for t in b)
        return (a | moved, group.compose(g, h))

    index = {x: i for i, x in enumerate(items)}
    table = [[index[mul(x, y)] for y in items] for x in items]

    def lab(x):
        a, g = x
        inner = ",".join(sorted(a, key=lambda m: order[m]))
        return f"({{{inner}}},{g})"

    return SemigroupTable(items, [lab(x) for x in items], table)


def semigroup_algebra(table, field):
    """Contracted-free semigroup algebra of a finite semigroup table."""
    n = len(table.elements)
    alg_table = [[[(table.table[i][j], field.one)] for j in range(n)] for i in range(n)]
    alg = StructureAlgebra(field, n, alg_table, labels=list(table.labels))
    u = alg.find_unit()
    if u is not None:
        alg.unit = u
    return alg


def build_partial_group_algebra(group, field):
    """Partial group algebra K_par[G] as the Exel-semigroup algebra."""
    return semigroup_algebra(exel_semigroup(group), field)


# -- quotients ---------------------------------------------------------------------------


def quotient_by_ideal(alg, ideal):
    """Structure constants induced on a complement basis of a two-sided ideal."""
    if ideal.ambient_dim != alg.dim:
        raise PreconditionError("ideal lives in a different ambient space")
    if not alg.is_ideal(ideal, "two"):
        raise PreconditionError("subspace is not a two-sided ideal")
    keep = [k for k in range(alg.dim) if k not in set(ideal.pivots)]
    d = len(keep)
    table = []
    for a in keep:
        row = []
        for b in keep:
            red = ideal.reduce(alg.multiply(alg.basis_vector(a), alg.basis_vector(b)))
            row.append(nonzero_terms(red[c] for c in keep))
        table.append(row)
    labels = [alg.label(k) for k in keep]
    out = StructureAlgebra(alg.field, d, table, labels=labels)
    u = alg.find_unit()
    if u is not None:
        red = ideal.reduce(u)
        out.unit = [red[c] for c in keep]
    return out


# -- graded modules and the Maschke projection ---------------------------------------------


@dataclass
class GradedModule:
    """Left module over a skew ring, with one action matrix per algebra basis vector."""

    algebra: StructureAlgebra
    dim: int
    action: list

    @classmethod
    def regular(cls, algebra):
        mats = [
            algebra.left_mult_matrix(algebra.basis_vector(i)) for i in range(algebra.dim)
        ]
        return cls(algebra, algebra.dim, mats)

    def act_matrix(self, coords):
        out = Matrix.zeros(self.algebra.field, self.dim, self.dim)
        for i, c in enumerate(coords):
            if c:
                out = out.add(self.action[i].scale(c))
        return out

    def act(self, coords, v):
        return self.act_matrix(coords).apply(v)

    def validate(self):
        """Action respects the product; the algebra unit acts as the identity."""
        bad = []
        alg = self.algebra
        n = alg.dim
        for a in range(n):
            ma = self.action[a]
            for b in range(n):
                prod = self.act_matrix(alg.multiply(alg.basis_vector(a), alg.basis_vector(b)))
                if ma.mul(self.action[b]) != prod:
                    bad.append((a, b))
        u = self.algebra.find_unit()
        if u is not None and self.act_matrix(u) != Matrix.identity(self.algebra.field, self.dim):
            bad.append(("unit",))
        return bad


def maschke_split(pa, module, w, pi):
    """Average an R-linear projection into a skew-ring-linear one.

    Given a module V over R *_alpha G, a submodule W, and an R-linear
    projection pi onto W, returns psi(v) = l sum_g (1_{g^-1} d_{g^-1})
    pi((1_g d_g) v) with l the inverse of the trace of the ambient unit.
    """
    amb = pa.ambient
    field = amb.field
    offsets, total = skew_layout(pa)
    if module.algebra.dim != total:
        raise PreconditionError("module is not over the skew ring of this action")
    if w.ambient_dim != module.dim:
        raise PreconditionError("submodule lives in a different space")
    for i in range(total):
        for v in w.basis:
            if not w.contains(module.action[i].apply(v)):
                raise PreconditionError("w is not a submodule")
    if pi.nrows != module.dim or pi.ncols != module.dim:
        raise PreconditionError("projection has the wrong shape")
    for j in range(module.dim):
        if not w.contains(pi.column(j)):
            raise PreconditionError("projection does not land in w")
    for v in w.basis:
        if pi.apply(v) != v:
            raise PreconditionError("projection is not the identity on w")
    id_degrees = [
        i for g in pa.groupoid.objects
        for i in range(offsets[pa.groupoid.identity[g]],
                       offsets[pa.groupoid.identity[g]] + pa.domains[pa.groupoid.identity[g]].dim)
    ]
    for i in id_degrees:
        if module.action[i].mul(pi) != pi.mul(module.action[i]):
            raise PreconditionError("projection is not R-linear")

    one_r = amb.find_unit()
    if one_r is None:
        raise PreconditionError("ambient algebra is not unital")
    tr = pact.trace_map(pa, one_r)
    l = invert_in(amb, tr)
    if l is None:
        raise PreconditionError("trace of the unit is not invertible")

    acc = Matrix.zeros(field, module.dim, module.dim)
    for g in pa.groupoid.morphisms:
        u_g = pa.domain_unit(g)
        u_ginv = pa.domain_unit(pa.inv(g))
        if u_g is None or u_ginv is None:
            continue
        front = module.act_matrix(delta_element(pa, pa.inv(g), u_ginv, offsets, total))
        back = module.act_matrix(delta_element(pa, g, u_g, offsets, total))
        acc = acc.add(front.mul(pi.mul(back)))
    l_s = embed_in_skew(pa, l, offsets, total)
    return module.act_matrix(l_s).mul(acc)


def invert_in(alg, x):
    """Two-sided inverse of an element of a unital algebra, or None."""
    u = alg.find_unit()
    if u is None:
        return None
    y = solve(alg.left_mult_matrix(x), u)
    if y is None:
        return None
    if alg.multiply(y, x) != u or alg.multiply(x, y) != u:
        return None
    return y


# -- Maschke report --------------------------------------------------------------------------


@dataclass
class MaschkeReport:
    r_semisimple: object
    isotropy_orders: dict
    isotropy_invertible: dict
    trace_unit: list | None
    trace_invertible: object
    skew_dim: int
    skew_semisimple: object
    premises_isotropy: object
    premises_trace: object
    implication_isotropy: str
    implication_trace: str
    park: dict = dc_field(default_factory=dict)

    def to_dict(self, fmt=None):
        out = {
            "r_semisimple": self.r_semisimple,
            "isotropy_orders": dict(self.isotropy_orders),
            "isotropy_invertible": dict(self.isotropy_invertible),
            "trace_invertible": self.trace_invertible,
            "skew_dim": self.skew_dim,
            "skew_semisimple": self.skew_semisimple,
            "premises_isotropy": self.premises_isotropy,
            "premises_trace": self.premises_trace,
            "implication_isotropy": self.implication_isotropy,
            "implication_trace": self.implication_trace,
            "park_criterion": dict(self.park),
        }
        if fmt is not None and self.trace_unit is not None:
            out["trace_unit"] = [fmt(c) for c in self.trace_unit]
        return out


def maschke_check(pa):
    """Semisimplicity transfer report for a unital action with finite support.

    Premise routes: semisimple coefficients with invertible isotropy orders,
    or semisimple coefficients with invertible trace of the unit.  Status
    strings replace booleans where the radical validity window blocks a
    computation; only the stated implications are reported, never converses.
    """
    from .groupoid import isotropy

    amb = pa.ambient
    g0 = pa.groupoid

    def guarded(f):
        try:
            return f()
        except UnsupportedError as exc:
            return f"unsupported: {exc}"

    r_ss = guarded(amb.is_semisimple)
    iso_orders = {e: len(isotropy(g0, e).morphisms) for e in g0.objects}
    one = amb.find_unit()
    iso_inv = {}
    for e, m in iso_orders.items():
        if one is None:
            iso_inv[e] = False
            continue
        scaled = [amb.field(m) * c for c in one]
        iso_inv[e] = invert_in(amb, scaled) is not None

    trace_unit = None
    trace_inv = "unsupported: action is not unital"
    if pact.is_unital(pa) and one is not None:
        trace_unit = pact.trace_map(pa, one)
        trace_inv = invert_in(amb, trace_unit) is not None

    skew = build_skew_groupoid_ring(pa)
    skew_ss = guarded(skew.is_semisimple)

    def conj(*vals):
        if any(v is False for v in vals):
            return False
        if all(v is True for v in vals):
            return True
        return None  # undecidable with the guards above

    prem_iso = conj(r_ss, *iso_inv.values())
    prem_tr = conj(r_ss, trace_inv)

    def implication(prem):
        if prem is False:
            return "premises unmet"
        if prem is None or isinstance(skew_ss, str):
            return "not decidable"
        return "holds" if skew_ss else "FAILS"

    supp = pact.support(pa)
    park = {
        "support_size": len(supp),
        "morphism_count": len(g0.morphisms),
        "component_dims": {e: pa.object_components[e].dim for e in g0.objects},
    }
    return MaschkeReport(
        r_semisimple=r_ss,
        isotropy_orders=iso_orders,
        isotropy_invertible=iso_inv,
        trace_unit=trace_unit,
        trace_invertible=trace_inv,
        skew_dim=skew.dim,
        skew_semisimple=skew_ss,
        premises_isotropy=prem_iso,
        premises_trace=prem_tr,
        implication_isotropy=implication(prem_iso),
        implication_trace=implication(prem_tr),
        park=park,
    )


# -- CLI-facing analysis ------------------------------------------------------------------------


def analyze_algebra(alg):
    """Standard analysis report: identity, laws, center, radical, blocks, grading."""
    unit = alg.find_unit()
    assoc = alg.is_associative()
    report = {
        "dim": alg.dim,
        "unital": unit is not None,
        "associative": assoc,
        "alternative": assoc or alg.is_alternative(),
        "center_dim": alg.center().dim,
        "radical_dim": None,
        "semisimple": "undecided",
        "blocks": None,
        "grading_ok": None,
    }
    if assoc and unit is not None:
        try:
            rad = alg.jacobson_radical()
            report["radical_dim"] = rad.dim
            report["semisimple"] = rad.dim == 0
            if rad.dim == 0:
                blocks = alg.wedderburn_blocks()
                report["blocks"] = blocks.dims()
        except UnsupportedError as exc:
            report["semisimple"] = f"unsupported: {exc}"
    if alg.grading is not None and alg.grading_groupoid is not None:
        g0 = alg.grading_groupoid

        def compose(a, b):
            return g0.compose(a, b) if g0.is_composable(a, b) else None

        report["grading_ok"] = grading_respected(alg, compose)
    return report
