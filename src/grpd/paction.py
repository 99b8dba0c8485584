"""Partial actions of finite groupoids on decomposed algebras.

A partial action assigns to every object e a component ideal R_e with
R = (+)_e R_e, to every morphism g a domain ideal R_g inside R_{c(g)}, and
to every morphism a linear ring isomorphism alpha_g from R_{g^-1} onto R_g.
This module validates the axioms, decides unitality / globality / finite
type, computes trace maps and fixed rings, and constructs and verifies
globalizations inside a function-space envelope.

Each alpha_g is given as a matrix between RREF coordinates, kept as the
public record `maps`, and is built once, by the constructor, from the
matrix's raw columns into a `SubspaceMap`: the ambient images of the RREF
basis of R_{g^-1}.  `from_ambient_maps` and `globalize` make their maps
from raw columns too, so only `action_to_dict` reads a map's dense rows.
`apply_alpha` is its dense form; the axiom checks apply these maps row by
row and multiply elements (`StructureAlgebra._mul`), and the globalization
checks also take images of subspaces, without leaving exactlin's raw rows.
Bijectivity inverts each map on its raw columns.  A global action is first
checked on a generating set S: multiplicativity of beta_s, (P1), and (P3)
on the pairs (g, s), s in S; only when one of these fails do the full
checks run (see `_generators`).  Domains spanned by unit vectors meet at
their common pivots, without elimination (`Subspace.intersect`), and
`globalize` computes psi_e(r) once per object e and RREF row r of R_e.
"""

from collections import defaultdict
from dataclasses import dataclass

from .errors import DimensionError, PreconditionError, SchemaError, UnsupportedError, Violation
from .exactlin import (Matrix, Subspace, SubspaceMap, _combine, _dense, _gauss_jordan, _kernel,
                       _reduce, _sparse, _subtract)
from .algebra import MAX_DIM, _induced
from .groupoid import full_subgroupoid
from . import schema


class PartialAction:
    """Partial groupoid action on a decomposed ambient algebra.

    Subspaces are held as their RREF rows; each alpha_g is a matrix sending
    RREF coordinates of R_{g^-1} to RREF coordinates of R_g, and
    `_alphas[g]` is its `SubspaceMap` on R_{g^-1}, built with the action.
    """

    def __init__(self, groupoid, ambient, object_components, domains, maps):
        self.groupoid = groupoid
        self.ambient = ambient
        self.object_components = dict(object_components)
        self.domains = dict(domains)
        self.maps = dict(maps)
        n = ambient.dim
        for e in groupoid.objects:
            if e not in self.object_components:
                raise KeyError(f"no component subspace for object {e!r}")
            if self.object_components[e].ambient_dim != n:
                raise DimensionError(f"component at {e!r} has wrong ambient dimension")
        for g in groupoid.morphisms:
            if g not in self.domains:
                raise KeyError(f"no domain subspace for morphism {g!r}")
            if self.domains[g].ambient_dim != n:
                raise DimensionError(f"domain at {g!r} has wrong ambient dimension")
        self._alphas = {}
        for g in groupoid.morphisms:
            m = self.maps.get(g)
            src, dst = self.domains[self.inv(g)], self.domains[g]
            if m is None:
                raise KeyError(f"no map for morphism {g!r}")
            if m.shape != (dst.dim, src.dim):
                raise DimensionError(f"map at {g!r} has shape {m.shape}, expected {(dst.dim, src.dim)}")
            self._alphas[g] = SubspaceMap.from_matrix(src, dst, m)
        self._unit_rows = {}
        self._violations = None

    @classmethod
    def from_ambient_maps(cls, groupoid, ambient, object_components, domains, ambient_maps):
        """Build from alpha_g given as ambient matrices or as functions on dense vectors."""
        field, n, maps = ambient.field, ambient.dim, {}
        for g in groupoid.morphisms:
            src, dst, f = domains[groupoid.inverse[g]], domains[g], ambient_maps[g]
            if not isinstance(f, Matrix):
                images = [dst._row(f(b)) for b in src.basis]
            elif f.shape != (n, n):
                raise DimensionError(f"ambient map at {g!r} has shape {f.shape}, expected {(n, n)}")
            else:
                images = [_combine(r, f._cols, field.char) for r in src._rows.values()]
            maps[g] = Matrix._of_columns(field, dst.dim, [dst._raw_coords(y) for y in images])
        return cls(groupoid, ambient, object_components, domains, maps)

    # -- small helpers -------------------------------------------------------

    def inv(self, g):
        return self.groupoid.inverse[g]

    def apply_alpha(self, g, v):
        """alpha_g applied to an ambient vector lying in R_{g^-1}."""
        return self._alphas[g](v)

    def _unit_row(self, g):
        """The raw row of the unit 1_g of R_g, found once; None when R_g has none.
        R_g = 0 has the unit 1_g = 0, the row {}."""
        if g not in self._unit_rows:
            space = self.domains[g]
            u = self.ambient.subalgebra(space)[0].find_unit()
            self._unit_rows[g] = None if u is None else _combine(
                _sparse(space.field, u), list(space._rows.values()), space.field.char)
        return self._unit_rows[g]

    def __repr__(self):
        return (
            f"PartialAction({self.groupoid!r} on dim-{self.ambient.dim} algebra)"
        )


# -- validation ---------------------------------------------------------------


def validate_action(pa):
    """Check (P1)-(P4), ideal-ness, and the ring-isomorphism conditions.

    Returns a violation list; checks are guarded so that a single broken
    axiom does not cascade into unrelated violation classes.  The list is
    computed once per action and cached on it.
    """
    if pa._violations is None:
        pa._violations = _axiom_violations(pa)
    return list(pa._violations)


def _axiom_violations(pa):
    out = []
    g0 = pa.groupoid
    amb = pa.ambient
    field = amb.field
    n = amb.dim

    # (P4) direct sum decomposition of the ambient algebra
    comps = [pa.object_components[e] for e in g0.objects]
    total = Subspace.span(field, n, comps)
    dims = sum(comp.dim for comp in comps)
    if total.dim != n:
        out.append(Violation("P4", (), f"components span dimension {total.dim} of {n}"))
    elif dims != n:
        out.append(Violation("P4", (), "components overlap: dimensions add beyond ambient"))

    # ideals: R_e ideal of R; R_g inside R_{c(g)} and an ideal of it.  An
    # ideal of R is an ideal of itself, so R_g = R_{c(g)} needs no second test
    ideal_comps = set()
    units = [{i: 1} for i in range(n)]
    for e in g0.objects:
        comp = pa.object_components[e]
        if not any(amb._residues(comp, units)):
            ideal_comps.add(e)
        else:
            out.append(Violation("ideal", (e,), "component is not an ideal of the ambient algebra"))
    for g in g0.morphisms:
        dom = pa.domains[g]
        c = g0.cod[g]
        comp = pa.object_components[c]
        if not dom <= comp:
            out.append(Violation("ideal", (g,), "domain is not contained in its codomain component"))
        elif not (c in ideal_comps and dom == comp) and any(
                amb._residues(dom, comp._rows.values())):
            out.append(Violation("ideal", (g,), "domain is not an ideal of its codomain component"))

    # alpha_g bijective; the inverses serve (P2) below
    bad_bijection = set()
    inverses = {}
    for g in g0.morphisms:
        inverses[g] = _inverse(pa, g)
        if inverses[g] is None:
            out.append(Violation("bijective", (g,), "alpha is not a linear bijection"))
            bad_bijection.add(g)

    def multiplicative(g):
        return _is_multiplicative(amb, pa.domains[pa.inv(g)], pa._alphas[g]._image_of, amb._mul)

    # a valid global action passes on its generators alone (see _generators);
    # anything else falls through to the full checks below
    p1 = _p1_violations(pa)
    if not out and not p1 and is_global(pa):
        gens = _generators(g0)
        if all(map(multiplicative, gens)) and not any(
                _pair_violations(pa, inverses, g, s)
                for s in gens for g in g0.morphisms_out_of(g0.cod[s])):
            return out

    # alpha_g multiplicative on its domain
    for g in g0.morphisms:
        if g not in bad_bijection and not multiplicative(g):
            out.append(Violation("multiplicative", (g,), "alpha(xy) differs from alpha(x)alpha(y)"))
    out += p1

    # (P2) and (P3) on composable pairs
    for g, h in g0.composable_pairs():
        if h in bad_bijection or g in bad_bijection or g0.compose(g, h) in bad_bijection:
            continue
        out += _pair_violations(pa, inverses, g, h)
    return out


def _inverse(pa, g):
    """alpha_g^-1 as a SubspaceMap on R_g, or None unless alpha_g is a linear bijection.

    One elimination of the rows [column j of the map | unit vector j] leaves
    [I | the transpose of the inverse] when the map is invertible; row i on
    the right is then the R_{g^-1} coordinates of alpha_g^-1 of row i of R_g.
    """
    src, dst, p = pa.domains[pa.inv(g)], pa.domains[g], pa.ambient.field.char
    k = dst.dim
    if src.dim != k:
        return None
    piv = _gauss_jordan([{**col, k + j: 1} for j, col in enumerate(pa.maps[g]._cols)], p)
    if any(c >= k for c in piv):
        return None
    rows = list(src._rows.values())
    images = [_combine({j - k: x for j, x in piv[i].items() if j >= k}, rows, p) for i in range(k)]
    return SubspaceMap(dst, images, src.ambient_dim)


def _p1_violations(pa):
    """(P1): identity morphisms act as the identity on the full component."""
    g0, out = pa.groupoid, []
    for e in g0.objects:
        comp, i = pa.object_components[e], g0.identity[e]
        dom = pa.domains[i]
        if dom != comp:
            out.append(Violation("P1", (e,), "identity domain differs from the object component"))
        elif pa._alphas[i]._images != list(dom._rows.values()):
            out.append(Violation("P1", (e,), "alpha at the identity is not the identity map"))
    return out


def _generators(g0):
    """A generating set S whose pairs (g, s) and maps beta_s decide a global action.

    S is taken greedily in morphism order, skipping each morphism reached;
    the reached ones start as the identities and are closed under composition
    on the right with S and S^-1.  Let beta be global, its components ideals,
    every beta_g a linear bijection and (P1) holding, and let beta_{gs} =
    beta_g beta_s for every s in S and every g with d(g) = c(s).  (P2) holds
    by itself, since each domain is a whole component.  The pair (s^-1, s)
    and (P1) give beta_{s^-1} = beta_s^-1, and the pair (g s^-1, s) gives
    beta_g = beta_{g s^-1} beta_s, so beta_{g s^-1} = beta_g beta_{s^-1}.
    Every morphism is an identity or a word in S and S^-1, so beta_{gh} =
    beta_g beta_h for every composable pair, by induction on the length of h,
    and every beta_g is a composite of maps beta_s and beta_s^-1.  An inverse
    or a composite of bijective ring maps is a ring map, so when every beta_s
    is multiplicative, every beta_g is; a component is an ideal, so each
    product of its basis rows stays in it and is tested.  The full checks
    would then find nothing.  Finiteness alone gives no inverses: in a pair
    groupoid, (2,1) is not a composite of (1,2), (1,3), ...  The groupoid
    must be valid.
    """
    reached, letters, gens = set(g0.identity.values()), [], []
    for s in (s for s in g0.morphisms if s not in reached):
        gens.append(s)
        letters += [s, g0.inverse[s]]
        todo = [(r, t) for r in reached for t in letters[-2:]]
        while todo:
            r, t = todo.pop()
            if g0.dom[r] == g0.cod[t] and (m := g0.compose(r, t)) not in reached:
                reached.add(m)
                todo += [(m, u) for u in letters]
    return gens


def _pair_violations(pa, inverses, g, h):
    """(P2) and (P3) at a composable pair of bijective morphisms, row by row.

    Each RREF row y of R_h meet R_{g^-1} has the preimage x = alpha_h^-1(y).
    (P2) holds iff every x lies in R_{(gh)^-1}, and then (P3) compares
    alpha_g(y) with alpha_gh(x).  Where (P2) fails, (P3) is compared on the
    RREF rows x of the preimage's meet with R_{(gh)^-1}, paired with alpha_h(x).
    """
    field, gh, out = pa.ambient.field, pa.groupoid.compose(g, h), []
    target = pa.domains[pa.inv(gh)]
    inter = pa.domains[h].intersect(pa.domains[pa.inv(g)])
    pairs = [(inverses[h]._image_of(y), y) for y in inter._rows.values()]
    if any(_reduce(dict(x), target._rows, field.char) for x, _ in pairs):
        out.append(Violation("P2", (g, h), "alpha_h^-1(R_h meet R_{g^-1}) leaves R_{(gh)^-1}"))
        pre = Subspace(field, target.ambient_dim, _gauss_jordan([dict(x) for x, _ in pairs], field.char))
        pairs = [(x, pa._alphas[h]._image_of(x)) for x in pre.intersect(target)._rows.values()]
    alpha_g, alpha_gh = pa._alphas[g]._image_of, pa._alphas[gh]._image_of
    if any(alpha_g(y) != alpha_gh(x) for x, y in pairs):
        out.append(Violation("P3", (g, h), "alpha_g alpha_h differs from alpha_{gh}"))
    return out


def _is_multiplicative(amb, space, f, mul):
    """f(uv) = mul(f(u), f(v)) on raw basis rows whose product stays in space.

    Products leaving the space are the ideal check's concern, not this one's.
    """
    piv, p = space._rows, amb.field.char
    images = [(u, f(u)) for u in piv.values()]
    for u, fu in images:
        for v, fv in images:
            w = amb._mul(u, v)
            if not _reduce(dict(w), piv, p) and f(w) != mul(fu, fv):
                return False
    return True


# -- predicates ----------------------------------------------------------------


def is_unital(pa):
    """True when every domain R_g carries a multiplicative identity 1_g; R_g = 0
    has 1_g = 0."""
    return all(pa._unit_row(g) is not None for g in pa.groupoid.morphisms)


def is_global(pa):
    """True when R_g equals the full codomain component for every morphism."""
    return all(
        pa.domains[g] == pa.object_components[pa.groupoid.cod[g]]
        for g in pa.groupoid.morphisms
    )


def support(pa):
    """Morphisms with nonzero domain, in input order."""
    return [g for g in pa.groupoid.morphisms if pa.domains[g].dim > 0]


# -- restriction to the supported part ------------------------------------------


def restrict_to_g_sharp(pa):
    """Drop objects with zero component and all morphisms touching them.

    The resulting action has the same skew ring as the original, under the
    canonical identification of basis vectors.
    """
    field = pa.ambient.field
    kept_obj = [e for e in pa.groupoid.objects if pa.object_components[e].dim > 0]
    sharp = full_subgroupoid(pa.groupoid, kept_obj)
    kept_mor = sharp.morphisms
    big = Subspace.span(field, pa.ambient.dim, [pa.object_components[e] for e in kept_obj])
    sub_alg, _ = pa.ambient.subalgebra(big)

    def push_space(space):
        rows = [big._raw_coords(r) for r in space._rows.values()]
        return Subspace(field, sub_alg.dim, _gauss_jordan(rows, field.char))

    components = {e: push_space(pa.object_components[e]) for e in kept_obj}
    domains = {g: push_space(pa.domains[g]) for g in kept_mor}
    # a pushed RREF basis is the coordinates of the original one, so each map carries over
    return PartialAction(sharp, sub_alg, components, domains, {g: pa.maps[g] for g in kept_mor})


# -- finite type -----------------------------------------------------------------


def _finite_type_at(pa, e, gens):
    """Check the generating condition at object e for a given generator list."""
    g0 = pa.groupoid
    for g in g0.morphisms_out_of(e):
        spaces = [pa.domains[g0.compose(g, gi)] for gi in gens]
        target = pa.object_components[g0.cod[g]]
        if Subspace.span(pa.ambient.field, pa.ambient.dim, spaces) != target:
            return False
    return True


def is_finite_type(pa):
    """Finite-type test with the full hom-set G(-, e) as generating set.

    The condition is monotone in the generating set, so for a finite
    groupoid this choice is decisive.
    """
    g0 = pa.groupoid
    return all(_finite_type_at(pa, e, g0.morphisms_into(e)) for e in g0.objects)


def finite_type_witnesses(pa):
    """Greedily minimized generator lists per object; None where none works."""
    g0 = pa.groupoid
    out = {}
    for e in g0.objects:
        gens = list(g0.morphisms_into(e))
        if not _finite_type_at(pa, e, gens):
            out[e] = None
            continue
        chosen = []
        for gi in gens:
            if _finite_type_at(pa, e, chosen):
                break
            chosen.append(gi)
        for gi in list(chosen):
            rest = [x for x in chosen if x != gi]
            if _finite_type_at(pa, e, rest):
                chosen = rest
        out[e] = chosen
    return out


# -- trace map and fixed ring ------------------------------------------------------


def _alpha_cut(pa, g, x):
    """alpha_g(x 1_{g^-1}) for a raw row x of a unital action."""
    try:
        return pa._alphas[g]._image_of(pa.ambient._mul(x, pa._unit_row(pa.inv(g))))
    except ValueError:
        raise PreconditionError(
            "x 1_{g^-1} left the domain; ambient is not associative enough") from None


def trace_map(pa, x):
    """tr(x) = sum over morphisms of alpha_g(x 1_{g^-1}); where R_{g^-1} = 0,
    1_{g^-1} = 0 and the term is zero."""
    if not is_unital(pa):
        raise UnsupportedError("trace map needs a unital action")
    field = pa.ambient.field
    row, acc = pa.ambient._row(x), {}
    for g in pa.groupoid.morphisms:
        _subtract(acc, -1, _alpha_cut(pa, g, row), field.char)
    return _dense(field, acc, pa.ambient.dim)


def fixed_ring(pa):
    """Solutions of alpha_g(x 1_{g^-1}) = x 1_g for all morphisms g.

    For each g, row r of the stacked block reads coordinate r of
    alpha_g(b_c 1_{g^-1}) - b_c 1_g at column c.
    """
    if not is_unital(pa):
        raise UnsupportedError("fixed ring needs a unital action")
    amb = pa.ambient
    rows = defaultdict(dict)  # (g, r) -> row r of the block of g
    for g in pa.groupoid.morphisms:
        u_dst = pa._unit_row(g)
        for c in range(amb.dim):
            col = _alpha_cut(pa, g, {c: 1})
            _subtract(col, 1, amb._mul({c: 1}, u_dst), amb.field.char)
            for r, x in col.items():
                rows[g, r][c] = x
    return _kernel(amb.field, rows.values(), amb.dim)


def is_invariant_subring(pa, space):
    """G-invariance: alpha_g(A meet R_{g^-1}) stays inside A meet R_g, for a subspace
    A closed under multiplication."""
    if any(pa.ambient._residues(space, space._rows.values(), "right")):
        raise PreconditionError("subspace is not closed under multiplication")
    p = pa.ambient.field.char
    for g in pa.groupoid.morphisms:
        inter = space.intersect(pa.domains[pa.inv(g)])._rows
        target = space.intersect(pa.domains[g])._rows
        if any(_reduce(pa._alphas[g]._image_of(x), target, p) for x in inter.values()):
            return False
    return True


# -- globalization ------------------------------------------------------------------


@dataclass
class Globalization:
    """A global action together with the embeddings of the original components.

    `action` acts on the enveloping algebra T; `embeddings[e]` maps RREF
    coordinates of the original component R_e to ambient T coordinates.
    """

    partial: PartialAction
    action: PartialAction
    embeddings: dict


class _Envelope:
    """Function-space coordinates: one ambient-R block per (object, incoming h)."""

    def __init__(self, pa):
        self.pa = pa
        g0 = pa.groupoid
        self.into = {e: g0.morphisms_into(e) for e in g0.objects}
        self.offsets = {}
        off = 0
        n = pa.ambient.dim
        for e in g0.objects:
            for h in self.into[e]:
                self.offsets[(e, h)] = off
                off += n
        self.dim = off
        self.block = n
        # beta_g moves the block of (d(g), g^-1 h) to the block of (c(g), h)
        self.moves = {g: {self.offsets[(g0.dom[g], g0.compose(g0.inverse[g], h))]:
                          self.offsets[(g0.cod[g], h)] for h in self.into[g0.cod[g]]}
                      for g in g0.morphisms}

    def split(self, x):
        """A raw row as {block offset: the raw row of its block in the ambient R}."""
        n, out = self.block, defaultdict(dict)
        for c, v in x.items():
            out[c - c % n][c % n] = v
        return out

    def mul(self, xs, ys):
        """The raw product of two split rows: blockwise, each block in the ambient algebra."""
        mul, out = self.pa.ambient._mul, {}
        for off in xs.keys() & ys.keys():
            out.update((off + k, v) for k, v in mul(xs[off], ys[off]).items())
        return out

    def psi_vec(self, e, r):
        """psi_e(r)(h) = alpha_{h^-1}(r 1_h) for a raw row r, laid out in the e block."""
        pa = self.pa
        return {self.offsets[(e, h)] + k: v for h in self.into[e]
                for k, v in _alpha_cut(pa, pa.inv(h), r).items()}

    def beta_apply(self, g, x):
        """(beta_g f)(h) = f(g^-1 h) on a raw row, moving the d(g) block to the c(g) block."""
        n, moved = self.block, self.moves[g]
        return {moved[j - j % n] + j % n: v for j, v in x.items() if j - j % n in moved}


def globalize(pa):
    """Enveloping globalization of a unital partial action.

    T_e is generated inside the function space on G(-, e) by the shifted
    embeddings of the components; beta shifts function arguments.  The
    construction's correctness contract is passing `globalization_verify`.
    """
    if not is_unital(pa):
        raise UnsupportedError("globalization needs a unital action")
    env = _Envelope(pa)
    g0 = pa.groupoid
    field = pa.ambient.field

    # psi_e(r), once per object e and RREF row r of R_e
    psi = {e: [env.psi_vec(e, r) for r in pa.object_components[e]._rows.values()]
           for e in g0.objects}
    # T_e lives on the e blocks, laid out in object order, so the parts'
    # RREF rows together are already the RREF rows of T
    t_rows, part_range = {}, {}
    for e in g0.objects:
        start = len(t_rows)
        t_rows.update(_gauss_jordan([env.beta_apply(h, x) for h in env.into[e]
                                     for x in psi[g0.dom[h]]], field.char))
        part_range[e] = (start, len(t_rows))
    t_dim = len(t_rows)
    if t_dim > MAX_DIM:
        raise UnsupportedError(
            f"the enveloping algebra has dimension {t_dim}, above the limit {MAX_DIM}")
    t_space = Subspace(field, env.dim, t_rows)
    parts = [env.split(r) for r in t_rows.values()]
    try:
        t_alg = _induced(field, parts, env.mul, t_space._raw_coords)
    except ValueError:
        raise UnsupportedError("enveloping space is not multiplicatively closed") from None

    components = {e: Subspace.coordinate(field, t_dim, range(*part_range[e])) for e in g0.objects}
    domains = {g: components[g0.cod[g]] for g in g0.morphisms}
    # beta_g maps T_{d(g)}, whose basis is the T rows of its part, into T_{c(g)}
    t_basis, maps = list(t_rows.values()), {}
    for g in g0.morphisms:
        dst = components[g0.cod[g]]
        cols = [dst._raw_coords(t_space._raw_coords(env.beta_apply(g, r)))
                for r in t_basis[slice(*part_range[g0.dom[g]])]]
        maps[g] = Matrix._of_columns(field, dst.dim, cols)
    beta = PartialAction(g0, t_alg, components, domains, maps)

    embeddings = {}
    for e in g0.objects:
        # beta at the identity fixes psi_e(r), one of the generators of T_e
        embeddings[e] = Matrix._of_columns(field, t_dim, [t_space._raw_coords(x) for x in psi[e]])
    return Globalization(partial=pa, action=beta, embeddings=embeddings)


def globalization_verify(pa, glob):
    """Check the four globalization axioms plus monomorphism conditions.

    Axioms (i)-(iv) are checked only once beta is a valid global action."""
    out = []
    g0 = pa.groupoid
    beta = glob.action
    t_alg = beta.ambient
    field = t_alg.field

    if validate_action(beta):
        out.append(Violation("beta-invalid", (), "candidate global action breaks the action axioms"))
    if not is_global(beta):
        out.append(Violation("beta-not-global", (), "candidate action is not global"))
    trusted = not out  # checks (i)-(iv) read a valid global beta

    psi, psi_of_component = {}, {}
    for e in g0.objects:
        comp = pa.object_components[e]
        psi[e] = SubspaceMap(comp, glob.embeddings[e]._cols, t_alg.dim)
        psi_of_component[e] = psi[e].image()
        if psi_of_component[e].dim != comp.dim:
            out.append(Violation("psi-mono", (e,), "psi is not injective"))
        if not _is_multiplicative(pa.ambient, comp, psi[e]._image_of, t_alg._mul):
            out.append(Violation("psi-ring", (e,), "psi is not multiplicative"))
    if not trusted:
        return out

    # (i) psi_e(R_e) is an ideal of T_e
    for e in g0.objects:
        if any(t_alg._residues(psi_of_component[e], beta.object_components[e]._rows.values())):
            out.append(Violation("(i)", (e,), "psi(R_e) is not an ideal of T_e"))

    # (ii) psi(R_g) = psi(R_{c(g)}) meet beta_g(psi(R_{d(g)}))
    shifted = {}
    for g in g0.morphisms:
        c, d = g0.cod[g], g0.dom[g]
        lhs = psi[c].image(pa.domains[g])
        shifted[g] = beta._alphas[g].image(psi_of_component[d])
        rhs = psi_of_component[c].intersect(shifted[g])
        if lhs != rhs:
            out.append(Violation("(ii)", (g,), "psi(R_g) differs from psi(R_c) meet beta_g(psi(R_d))"))

    # (iii) beta_g psi_{d(g)} = psi_{c(g)} alpha_g on the rows of R_{g^-1}
    for g in g0.morphisms:
        lhs, rhs = beta._alphas[g]._image_of, psi[g0.cod[g]]._image_of
        if any(lhs(psi[g0.dom[g]]._image_of(x)) != rhs(pa._alphas[g]._image_of(x))
               for x in pa.domains[pa.inv(g)]._rows.values()):
            out.append(Violation("(iii)", (g,), "beta_g psi differs from psi alpha_g"))

    # (iv) T_g is generated by the shifted embedded components; the sum depends on c(g) alone
    generated = {e: Subspace.span(field, t_alg.dim, [shifted[h] for h in g0.morphisms_into(e)])
                 for e in g0.objects}
    for g in g0.morphisms:
        if generated[g0.cod[g]] != beta.domains[g]:
            out.append(Violation("(iv)", (g,), "T_g is not the sum of shifted component images"))
    return out


def envelope_component_unital(glob):
    """Per-object unitality of T_e, as needed by the finite-type equivalence."""
    beta = glob.action
    ids = beta.groupoid.identity
    return {e: beta._unit_row(ids[e]) is not None for e in beta.groupoid.objects}


# -- JSON schema -----------------------------------------------------------------------


def action_to_dict(pa, groupoid_ref, algebra_ref):
    fmt = pa.ambient.field.fmt
    return {
        "groupoid": groupoid_ref,
        "algebra": algebra_ref,
        "components": {
            e: [[fmt(c) for c in row] for row in pa.object_components[e].basis]
            for e in pa.groupoid.objects
        },
        "domains": {
            g: [[fmt(c) for c in row] for row in pa.domains[g].basis]
            for g in pa.groupoid.morphisms
        },
        "maps": {
            g: [[fmt(c) for c in row] for row in pa.maps[g].rows]
            for g in pa.groupoid.morphisms
        },
    }


def action_from_dict(d, groupoid, ambient):
    field = ambient.field
    entries = {k: schema.get(d, k, dict, "action") for k in ("components", "domains", "maps")}
    objects, morphisms = set(groupoid.objects), set(groupoid.morphisms)
    for key, ids in (("components", objects), ("domains", morphisms), ("maps", morphisms)):
        if unknown := [x for x in entries[key] if x not in ids]:
            raise SchemaError(f"{key} names {unknown[0]!r}, which is not in the groupoid")

    def rows(key, x, n):
        what = f"{key} at {x!r}"
        return [schema.vec(field, r, n, f"{what} row {i}")
                for i, r in enumerate(schema.items(entries[key].get(x, []), object, what))]

    def space(key, x):
        return Subspace.from_vectors(field, ambient.dim, rows(key, x, ambient.dim))

    try:
        components = {e: space("components", e) for e in groupoid.objects}
        domains = {g: space("domains", g) for g in groupoid.morphisms}
        maps = {}
        for g in groupoid.morphisms:
            shape = (domains[g].dim, domains[groupoid.inverse[g]].dim)
            m = rows("maps", g, shape[1])
            if not m and all(shape):
                raise SchemaError(f"missing map for {g}")
            maps[g] = Matrix(field, m) if m else Matrix.zeros(field, *shape)
        return PartialAction(groupoid, ambient, components, domains, maps)
    except (DimensionError, KeyError) as exc:
        raise SchemaError(f"bad action description: {exc}") from exc
