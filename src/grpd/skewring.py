"""Builders turning actions and combinatorial data into structure algebras.

Partial skew groupoid rings from validated actions, groupoid rings over
coefficient algebras, generalized matrix rings, partial group algebras in
the groupoid basis of Gamma(G), quotients by ideals, and the Maschke-type
machinery (semisimplicity report and the averaged module projection).
"""

from dataclasses import dataclass

from .errors import DimensionError, PreconditionError, UnsupportedError
from .exactlin import Matrix, Subspace, _combine, _dense, _reduce, _solve, _subtract, _transpose
from .algebra import MAX_DIM, StructureAlgebra, _induced, _terms, grading_respected
from .groupoid import connected_components, hom_set
from . import paction as pact


# -- layout helpers ------------------------------------------------------------


def skew_layout(pa):
    """Basis offsets of the skew ring: morphisms in input order, then RREF order."""
    return _layout(pa.groupoid.morphisms, pa.domains)


def _layout(degrees, domains):
    """Basis offset of each degree and the dimension; past MAX_DIM an UnsupportedError."""
    offsets = {}
    off = 0
    for g in degrees:
        offsets[g] = off
        off += domains[g].dim
    if off > MAX_DIM:
        raise UnsupportedError(f"the skew ring has dimension {off}, above the limit {MAX_DIM}")
    return offsets, off


def delta_element(pa, g, coeff_ambient, offsets, total):
    """The element (coeff delta_g) of the skew ring, as a coordinate vector.

    `coeff_ambient` is an ambient vector lying in R_g; `offsets` and `total`
    are the layout from `skew_layout`.
    """
    row = pa.domains[g]._row(coeff_ambient)
    return _dense(pa.ambient.field, _delta_row(pa, g, row, offsets), total)


def _delta_row(pa, g, coeff, offsets):
    """The raw row of (coeff delta_g) for a raw row coeff lying in R_g."""
    return {offsets[g] + k: c for k, c in pa.domains[g]._raw_coords(coeff).items()}


# -- partial skew groupoid ring --------------------------------------------------


def skew_product_ring(field, degrees, domains, triples, inv, alpha, mul, name, unit):
    """The skew-product kernel shared by every skew-ring builder.

    The basis runs over `degrees` in order and, inside a degree g, over the
    RREF basis of its domain D_g (`domains[g]`).  For each triple (g, h, gh)
    in `triples` the product of a degree-g and a degree-h basis vector is
    alpha_g(alpha_{g^-1}(r) r') in degree gh, with `inv(g)` giving g^-1;
    products of all other pairs are zero, so a builder lists only the pairs
    whose domains can meet.  Ambient elements are raw rows
    {index: value}: `alpha(g, x)` applies alpha_g to one and `mul` is the
    ambient product of two.  A gh that is None or not a degree marks a
    product that must vanish.  `name(g)` labels and grades degree g.
    `unit` maps degrees to raw rows lying in their domains, or is None;
    their sum is passed to the algebra as its unit, so a sum that is no
    two-sided identity raises a PreconditionError.

    Returns the algebra and the basis offset of each degree; past MAX_DIM
    basis vectors it raises an UnsupportedError before building the table.
    """
    offsets, total = _layout(degrees, domains)
    labels = []
    grading = {}
    for g in degrees:
        for j in range(domains[g].dim):
            grading[len(labels)] = name(g)
            labels.append(f"{name(g)}:{j}")

    table = [[()] * total for _ in range(total)]
    # g -> (D_g, offset, alpha_{g^-1} of D_g's basis as raw rows, filled on first use)
    layout = {g: (domains[g], offsets[g], []) for g in degrees}
    for g, h, gh in triples:
        (dg, og, pulled), (dh, oh, _) = layout[g], layout[h]
        if dg.dim == 0 or dh.dim == 0:
            continue
        if not pulled:
            pulled += [alpha(inv(g), r) for r in dg._rows.values()]
        dgh, ogh, _ = layout.get(gh, (None, None, None))
        for i, p in enumerate(pulled):
            for j, rp in enumerate(dh._rows.values()):
                x = mul(p, rp)
                if not x:
                    continue
                if dgh is None:  # alpha_g is injective on D_g^-1, so alpha_g(x) is nonzero too
                    raise RuntimeError("nonzero product escaped the support; model is inconsistent")
                y = alpha(g, x)
                try:
                    coords = dgh._raw_coords(y)
                except ValueError:
                    raise PreconditionError(
                        f"product of degrees {name(g)}, {name(h)} left R_({name(gh)})"
                    ) from None
                table[og + i][oh + j] = _terms(coords, ogh)

    if unit is not None:
        unit = _dense(field, {offsets[g] + k: c for g, r in unit.items()
                              for k, c in domains[g]._raw_coords(r).items()}, total)
    return StructureAlgebra(field, total, table, unit, labels, grading), offsets


def build_skew_groupoid_ring(pa):
    """Assemble R *_alpha G with the twisted product.

    Degree-g basis vectors are the RREF basis of R_g; the product of a
    degree-g and a degree-h vector is alpha_g(alpha_{g^-1}(r) r') in degree
    gh for composable pairs and zero otherwise.  For unital actions the
    element summing the component identities over the identity degrees is
    verified to be the two-sided unit.  A ring past MAX_DIM is refused
    before the action is validated.
    """
    skew_layout(pa)  # refuses a ring past MAX_DIM
    _require_valid(pa)
    g0 = pa.groupoid
    unit = None
    if pact.is_unital(pa):
        ids = [g0.identity[e] for e in g0.objects]
        unit = {i: pa._unit_row(i) for i in ids}
    triples = ((g, h, g0.compose(g, h)) for g, h in g0.composable_pairs())
    alg, _ = skew_product_ring(
        pa.ambient.field, g0.morphisms, pa.domains, triples,
        pa.inv, lambda g, x: pa._alphas[g]._image_of(x), pa.ambient._mul, lambda g: g, unit,
    )
    alg.grading_groupoid = g0
    return alg


def _require_valid(pa):
    """Refuse an action that fails validate_action, naming its violations."""
    violations = pact.validate_action(pa)
    if violations:
        raise PreconditionError(
            "action does not validate: " + "; ".join(str(v) for v in violations)
        )


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
    supplied = [coeffs] if isinstance(coeffs, StructureAlgebra) else list(coeffs.values())
    if isinstance(coeffs, StructureAlgebra):
        coeffs = {c[0]: coeffs for c in comps}
    rep_of = {}
    for comp in comps:
        rep = comp[0]
        if rep not in coeffs:
            raise PreconditionError(f"no coefficient algebra for component of {rep!r}")
        for e in comp:
            rep_of[e] = rep
    # the field is read from the supplied algebras, so the empty groupoid has one too
    if not supplied:
        raise PreconditionError("no coefficient algebra is supplied, so the ring has no field")
    if len({a.field for a in supplied}) != 1:
        raise PreconditionError("coefficient algebras live over different fields")
    base_field = supplied[0].field
    for comp in comps:
        if coeffs[comp[0]].find_unit() is None:
            raise PreconditionError("coefficient algebras must be unital")

    offsets = {}
    off = 0
    for e in groupoid.objects:
        offsets[e] = off
        off += coeffs[rep_of[e]].dim
    n = off

    table = [[()] * n for _ in range(n)]
    labels = [None] * n
    for e in groupoid.objects:
        t = coeffs[rep_of[e]]
        o = offsets[e]
        for i, cells in enumerate(t._cells):
            labels[o + i] = f"{e}.{t.label(i)}"
            for j, cell in cells.items():
                table[o + i][o + j] = _terms(cell, o)
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
    of_degree = {}  # degree label -> its basis indices, increasing
    for idx in range(alg.dim):
        of_degree.setdefault(alg.grading[idx], []).append(idx)
    units = {}  # (i, j) -> the basis indices of E_ij(b_0), ..., E_ij(b_{dim t - 1})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            units[i, j] = found = of_degree.get(f"({i},{j})", [])
            if len(found) != t.dim:
                return MatrixUnitsResult(
                    None, f"degree ({i},{j}) has {len(found)} basis vectors, wanted {t.dim}", 0
                )
    checks = 0
    for (i, j), ij in units.items():
        for (k, l), kl in units.items():
            il = units[i, l]
            for m1, a in enumerate(ij):
                for m2, b in enumerate(kl):
                    cell = t._cells[m1].get(m2, {}) if j == k else {}
                    checks += 1
                    if alg._cells[a].get(b, {}) != {il[m3]: c for m3, c in cell.items()}:
                        return MatrixUnitsResult(
                            None,
                            f"E({i},{j})[{m1}] * E({k},{l})[{m2}] broke the matrix-unit law",
                            checks,
                        )
    out = {(i, j, m): idx for (i, j), ij in units.items() for m, idx in enumerate(ij)}
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


def _exel_items(group):
    """The 2^(g-2) (g+1) pairs (A, g), g in A, of Exel's S(G) for a group of order g:
    A is the mask of the input positions of a subset holding the identity e, and the
    pairs are sorted by |A|, A's members, then g.  Refused past MAX_DIM before the 2^g
    subsets are scanned.  Returns the elements, their products, e, members and pairs."""
    if len(group.objects) != 1:
        raise PreconditionError("partial group algebras need a one-object groupoid")
    elems = list(group.morphisms)
    n = len(elems)
    size = (1 << n) * (n + 1) // 4
    if size > MAX_DIM:
        raise UnsupportedError(
            f"Exel's semigroup of a group of order {n} has {size} elements, "
            f"above the limit {MAX_DIM}")
    number = {x: i for i, x in enumerate(elems)}
    comp = [[number[group.compose(g, h)] for h in elems] for g in elems]
    e = number[group.identity[group.objects[0]]]
    members = [[i for i in range(n) if a >> i & 1] for a in range(1 << n)]
    items = sorted(((a, g) for a in range(1 << n) if a >> e & 1 for g in members[a]),
                   key=lambda t: (len(members[t[0]]), members[t[0]], t[1]))
    return elems, comp, e, members, items


def exel_semigroup(group):
    """Exel's semigroup S(G) in (A, g) normal form, ordered by `_exel_items`.  With a
    table of translated masks per g, (A, g)(B, h) = (A u gB, gh) is an OR and a lookup."""
    elems, comp, _, members, items = _exel_items(group)
    moved = [[sum(1 << gh[t] for t in ts) for ts in members] for gh in comp]
    index = {x: k for k, x in enumerate(items)}
    table = [[index[a | moved[g][b], comp[g][h]] for b, h in items] for a, g in items]
    return SemigroupTable(
        [(frozenset(elems[i] for i in members[a]), elems[g]) for a, g in items],
        [f"({{{','.join(elems[i] for i in members[a])}}},{elems[g]})" for a, g in items],
        table)


def build_partial_group_algebra(group, field):
    """K_par(G) = K Gamma(G) (Dokuchaev-Exel-Piccione, J. Algebra 226, 2000) in the basis
    eps_A[g], (A, g) as in `_exel_items`, where e_a = [a][a^-1] and eps_A = prod_{a in A}
    e_a prod_{b not in A} (1 - e_b).  eps_A[g] eps_B[h] = eps_A[gh] if B = g^-1 A, else 0,
    and the unit is sum_A eps_A[e].  Exel's (A, g) is the sum of the eps_B[g], B containing
    A, so by Moebius inversion eps_A[g] = sum_B (-1)^|B - A| (B, g): a change of basis
    from Exel's semigroup algebra, unitriangular in this order."""
    elems, comp, e, members, items = _exel_items(group)
    n = len(items)
    index = {x: k for k, x in enumerate(items)}
    cells = [((k, field.one),) for k in range(n)]  # one cell per product, shared
    table = [[()] * n for _ in range(n)]
    for row, (a, g) in zip(table, items):
        b = sum(1 << comp[comp[g].index(e)][t] for t in members[a])  # g^-1 A
        for h in members[b]:
            row[index[b, h]] = cells[index[a, comp[g][h]]]
    return StructureAlgebra(
        field, n, table, unit=[field.one if g == e else field.zero for _, g in items],
        labels=[f"eps{{{','.join(elems[i] for i in members[a])}}}[{elems[g]}]" for a, g in items])


# -- quotients ---------------------------------------------------------------------------


def quotient_by_ideal(alg, ideal):
    """Structure constants induced on a complement basis of a two-sided ideal."""
    if ideal.ambient_dim != alg.dim:
        raise PreconditionError("ideal lives in a different ambient space")
    if not alg.is_ideal(ideal, "two"):
        raise PreconditionError("subspace is not a two-sided ideal")
    keep = [k for k in range(alg.dim) if k not in ideal._at]
    at = {k: t for t, k in enumerate(keep)}
    piv, p = ideal._rows, alg.field.char
    u = alg.find_unit()
    unit = None if u is None else [ideal.reduce(u)[c] for c in keep]
    return _induced(alg.field, [{k: 1} for k in keep], alg._mul,
                    lambda x: {at[c]: v for c, v in _reduce(x, piv, p).items()},
                    [alg.label(k) for k in keep], unit)


# -- graded modules and the Maschke projection ---------------------------------------------


@dataclass
class GradedModule:
    """Left module over a skew ring, with one action matrix per algebra basis vector."""

    algebra: StructureAlgebra
    dim: int
    action: list

    def __post_init__(self):
        n, k = self.dim, self.algebra.dim
        if len(self.action) != k or any(m.shape != (n, n) for m in self.action):
            raise DimensionError(f"a module needs {k} action matrices, each {n} x {n}")

    @classmethod
    def regular(cls, algebra):
        mats = [
            algebra.left_mult_matrix(algebra.basis_vector(i)) for i in range(algebra.dim)
        ]
        return cls(algebra, algebra.dim, mats)

    def _act(self, coeffs):
        """Raw columns of the action of the algebra element with raw row coeffs."""
        p, out = self.algebra.field.char, [{} for _ in range(self.dim)]
        for i, c in coeffs.items():
            for col, other in zip(out, self.action[i]._cols):
                _subtract(col, -c, other, p)
        return out

    def validate(self):
        """Action respects the product; the algebra unit acts as the identity."""
        alg, p = self.algebra, self.algebra.field.char
        cols = [m._cols for m in self.action]
        bad = [(a, b) for a in range(alg.dim) for b in range(alg.dim)
               if _compose(cols[a], cols[b], p) != self._act(alg._mul({a: 1}, {b: 1}))]
        u = alg.find_unit()
        if u is not None and self._act(alg._row(u)) != [{j: 1} for j in range(self.dim)]:
            bad.append(("unit",))
        return bad


def maschke_split(pa, module, w, pi):
    """Average an R-linear projection into a skew-ring-linear one.

    Given a module V over R *_alpha G, a submodule W, and an R-linear
    projection pi onto W, returns psi(v) = l sum_g (1_{g^-1} d_{g^-1})
    pi((1_g d_g) v) with l the inverse of the trace of the ambient unit.
    An action that fails `validate_action`, and a module that fails
    `GradedModule.validate`, are refused with a PreconditionError.  A valid
    action has R the direct sum of the ideals R_e and R_{id_e} = R_e, so l
    embeds in the skew ring as
    sum_e (l 1_{id_e}) d_{id_e}.  Maps are composed as raw columns, and
    psi is returned as its raw columns.
    """
    amb, field = pa.ambient, pa.ambient.field
    p, n = field.char, module.dim
    offsets, total = skew_layout(pa)
    _require_valid(pa)
    if module.algebra.dim != total:
        raise PreconditionError("module is not over the skew ring of this action")
    if module.validate():
        raise PreconditionError("module breaks the module axioms")
    if w.ambient_dim != n:
        raise PreconditionError("submodule lives in a different space")
    w_rows = list(w._rows.values())
    for a in module.action:
        if any(_reduce(y, w._rows, p) for y in _compose(a._cols, w_rows, p)):
            raise PreconditionError("w is not a submodule")
    if pi.shape != (n, n):
        raise PreconditionError("projection has the wrong shape")
    pi_cols = pi._cols
    if any(_reduce(dict(y), w._rows, p) for y in pi_cols):
        raise PreconditionError("projection does not land in w")
    if _compose(pi_cols, w_rows, p) != w_rows:
        raise PreconditionError("projection is not the identity on w")
    for i in (pa.groupoid.identity[e] for e in pa.groupoid.objects):
        for a in module.action[offsets[i]:offsets[i] + pa.domains[i].dim]:
            if _compose(a._cols, pi_cols, p) != _compose(pi_cols, a._cols, p):
                raise PreconditionError("projection is not R-linear")

    one_r = amb.find_unit()
    if one_r is None:
        raise PreconditionError("ambient algebra is not unital")
    l = invert_in(amb, pact.trace_map(pa, one_r))
    if l is None:
        raise PreconditionError("trace of the unit is not invertible")

    acc = [{} for _ in range(n)]
    for g in pa.groupoid.morphisms:  # trace_map has found every unit 1_g
        front = module._act(_delta_row(pa, pa.inv(g), pa._unit_row(pa.inv(g)), offsets))
        back = module._act(_delta_row(pa, g, pa._unit_row(g), offsets))
        for col, y in zip(acc, _compose(front, _compose(pi_cols, back, p), p)):
            _subtract(col, -1, y, p)
    l_s = {}
    for e in pa.groupoid.objects:
        i = pa.groupoid.identity[e]  # the parts sit at disjoint offsets
        l_s.update(_delta_row(pa, i, amb._mul(amb._row(l), pa._unit_row(i)), offsets))
    cols = _compose(module._act(l_s), acc, p)
    return Matrix._of_columns(field, n, cols)


def _compose(a, b, p):
    """Raw columns of the product ab of two maps given by their raw columns."""
    return [_combine(y, a, p) for y in b]


def invert_in(alg, x):
    """Two-sided inverse of an element of a unital algebra, or None."""
    u = alg.find_unit()
    if u is None:
        return None
    x, u, n = alg._row(x), alg._row(u), alg.dim
    # x y = u: the columns x b_j of left multiplication by x, then u at column n
    y = _solve(alg.field, _transpose([alg._mul(x, {j: 1}) for j in range(n)] + [u], n), n)
    if y is None:
        return None
    row = alg._row(y)
    if alg._mul(row, x) != u or alg._mul(x, row) != u:
        return None
    return y


# -- Maschke report --------------------------------------------------------------------------


def _guarded(f):
    """f(), or the status string of the UnsupportedError it raises."""
    try:
        return f()
    except UnsupportedError as exc:
        return f"unsupported: {exc}"


def maschke_check(pa):
    """Semisimplicity transfer report for a unital action with finite support.

    Premise routes: semisimple coefficients with invertible isotropy orders
    |G_e| 1, or semisimple coefficients with invertible trace of the unit,
    each decided in R by `invert_in`.  Status strings replace booleans
    where the radical validity window blocks a computation; only the stated
    implications are reported, never converses.  Returns the report as the
    `maschke` verb prints it, with `trace_unit` only when it was computed.
    """
    amb = pa.ambient
    g0 = pa.groupoid
    r_ss = _guarded(amb.is_semisimple)
    iso_orders = {e: len(hom_set(g0, e, e).morphisms) for e in g0.objects}
    one = amb.find_unit()
    iso_inv = {e: one is not None and invert_in(amb, [amb.field(m) * c for c in one]) is not None
               for e, m in iso_orders.items()}

    trace_unit = None
    trace_inv = "unsupported: action is not unital"
    if pact.is_unital(pa) and one is not None:
        trace_unit = pact.trace_map(pa, one)
        trace_inv = invert_in(amb, trace_unit) is not None

    skew = build_skew_groupoid_ring(pa)
    skew_ss = _guarded(skew.is_semisimple)

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

    report = {
        "r_semisimple": r_ss,
        "isotropy_orders": iso_orders,
        "isotropy_invertible": iso_inv,
        "trace_invertible": trace_inv,
        "skew_dim": skew.dim,
        "skew_semisimple": skew_ss,
        "premises_isotropy": prem_iso,
        "premises_trace": prem_tr,
        "implication_isotropy": implication(prem_iso),
        "implication_trace": implication(prem_tr),
        "park_criterion": {
            "support_size": len(pact.support(pa)),
            "morphism_count": len(g0.morphisms),
            "component_dims": {e: pa.object_components[e].dim for e in g0.objects},
        },
    }
    if trace_unit is not None:
        report["trace_unit"] = [amb.field.fmt(c) for c in trace_unit]
    return report


# -- CLI-facing analysis ------------------------------------------------------------------------


def _groupoid_basis(alg):
    """The algebra of a finite inverse semigroup in Steinberg's groupoid basis, or None.

    A table qualifies when some two distinct idempotent basis vectors e, f
    have ef = fe = e (scanned first: otherwise the Moebius map below is the
    identity), every nonzero cell is one basis vector with coefficient 1, the
    table is associative, and every s has exactly one s* with ss*s = s and
    s*ss* = s*.  The basis and 0 are then an inverse semigroup S, and alg is
    its contracted algebra.  With t <= s iff t = (tt*)s and mu the Moebius
    function of the idempotents, the elements [s] = sum_{t<=s} mu(tt*, ss*) t
    form a basis in which [s][t] = [st] if s*s = tt*, and 0 otherwise
    (Steinberg, J. Combin. Theory Ser. A 113, 2006); the unit is the sum of
    the [e], e idempotent.  Returns that algebra and first(space), the first
    pivot of a subspace of it read in alg's basis, mapped back exactly.
    """
    cells, n, p = alg._cells, alg.dim, alg.field.char
    idem = [s for s in range(n) if cells[s].get(s) == {s: 1}]
    below = {f: {e for e in idem if e != f and cells[e].get(f) == {e: 1} == cells[f].get(e)}
             for f in idem}
    if not any(below.values()) or any(len(c) != 1 or 1 not in c.values()
                                      for row in cells for c in row.values()):
        return None
    if not alg.is_associative():
        return None
    prod = [{t: next(iter(c)) for t, c in row.items()} for row in cells]
    star = []
    for s, row in enumerate(prod):
        inv = [t for t, st in row.items() if prod[st].get(s) == s
               and (ts := prod[t].get(s)) is not None and prod[ts].get(t) == t]
        if len(inv) != 1:
            return None
        star += inv
    top = [prod[s][star[s]] for s in range(n)]  # ss*
    mu = {}
    for f in idem:  # mu(e, f) = -sum of mu(g, f) over e < g <= f, larger g first
        m = mu[f] = {f: 1}
        for e in sorted(below[f], key=lambda e: -len(below[e])):
            m[e] = -sum(c for g, c in m.items() if e in below[g])
    moeb = [{prod[e][s]: c for e, m in mu[top[s]].items() if (c := m % p if p else m)}
            for s in range(n)]
    with_top = {}
    for t in range(n):
        with_top.setdefault(top[t], []).append(t)
    one = [((k, alg.field.one),) for k in range(n)]
    table = [[()] * n for _ in range(n)]
    for s in range(n):
        for t in with_top[top[star[s]]]:  # tt* = s*s
            table[s][t] = one[prod[s][t]]
    unit = [alg.field.one if s in mu else alg.field.zero for s in range(n)]
    return (StructureAlgebra(alg.field, n, table, unit),
            lambda space: min(min(_combine(v, moeb, p)) for v in space._rows.values()))


def analyze_algebra(alg):
    """Standard analysis report: identity, laws, center, radical, blocks, grading.

    The table of a finite inverse semigroup is analyzed in Steinberg's
    groupoid basis (`_groupoid_basis`), where it is sparse.  Every entry is
    invariant under that change of basis; its blocks are put in the order
    the general path gives them, by first pivot in alg's basis, then by dim.
    """
    work, first = _groupoid_basis(alg) or (alg, None)
    assoc = work.is_associative()  # first, so that the unit is solved on generators
    unit = work.find_unit()
    report = {
        "dim": alg.dim,
        "unital": unit is not None,
        "associative": assoc,
        "alternative": assoc or work.is_alternative(),
        "center_dim": work.center().dim,
        "radical_dim": None,
        "semisimple": "undecided",
        "blocks": None,
        "grading_ok": None,
    }
    if assoc and unit is not None:
        try:
            rad = work.jacobson_radical()
        except UnsupportedError as exc:
            report["semisimple"] = f"unsupported: {exc}"
        else:
            report["radical_dim"] = rad.dim
            report["semisimple"] = rad.dim == 0
            if rad.dim == 0:  # blocks past the factoring budget raise, and the verb exits 1
                blocks = work.wedderburn_blocks()
                report["blocks"] = blocks.dims() if first is None else [
                    b.dim for b in sorted(blocks, key=lambda b: (first(b), b.dim))]
    if alg.grading is not None and alg.grading_groupoid is not None:
        g0 = alg.grading_groupoid

        def compose(a, b):
            return g0.compose(a, b) if g0.is_composable(a, b) else None

        report["grading_ok"] = grading_respected(alg, compose)
    return report
