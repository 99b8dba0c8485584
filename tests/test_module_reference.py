"""Graded modules and the Maschke projection against a dense reference (hypothesis, derandomized).

The reference below acts by dense matrices, combining the action matrices
with `Matrix.add` and `Matrix.scale` and composing them with `Matrix.mul`,
and computes delta elements from dense RREF coordinates.

`GradedModule.validate` is compared over Q, F_2 and F_5 on the regular
modules of small skew rings (the swap action, the Z/4 shift restricted to
three coordinates, pair-groupoid rings and two partial Z/2 actions) and on
copies with one action entry changed or one action matrix scaled.
`maschke_split` is compared over Q and F_5: on R-linear projections onto
submodules, and on broken inputs that reach each of its PreconditionErrors,
whose messages must match the reference's.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd.algebra import StructureAlgebra
from grpd.errors import PreconditionError
from grpd.exactlin import Field, Matrix, Subspace, kernel
from grpd.skewring import (GradedModule, build_skew_groupoid_ring, groupoid_ring_action,
                           invert_in, maschke_split, skew_layout)
from test_skewring import _module_closure, _solve_r_linear_projection

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


# -- the dense reference -----------------------------------------------------------------


def ref_act(module, coords):
    """The matrix by which the algebra element with dense coordinates coords acts."""
    out = Matrix.zeros(module.algebra.field, module.dim, module.dim)
    for i, c in enumerate(coords):
        if c:
            out = out.add(module.action[i].scale(c))
    return out


def ref_validate(module):
    alg = module.algebra
    bad = []
    for a in range(alg.dim):
        for b in range(alg.dim):
            prod = ref_act(module, alg.multiply(alg.basis_vector(a), alg.basis_vector(b)))
            if module.action[a].mul(module.action[b]) != prod:
                bad.append((a, b))
    u = alg.find_unit()
    if u is not None and ref_act(module, u) != Matrix.identity(alg.field, module.dim):
        bad.append(("unit",))
    return bad


def ref_delta(pa, g, coeff, offsets, total):
    """(coeff delta_g) in the skew ring, from the dense RREF coordinates of coeff in R_g."""
    vec = pa.ambient.field.zero_vec(total)
    for k, c in enumerate(pa.domains[g].coords(coeff), offsets[g]):
        vec[k] = c
    return vec


def ref_maschke_split(pa, module, w, pi):
    amb = pa.ambient
    field = amb.field
    g0 = pa.groupoid
    offsets, total = skew_layout(pa)
    violations = pact.validate_action(pa)
    if violations:
        raise PreconditionError("action does not validate: " + "; ".join(str(v) for v in violations))
    if module.algebra.dim != total:
        raise PreconditionError("module is not over the skew ring of this action")
    if w.ambient_dim != module.dim:
        raise PreconditionError("submodule lives in a different space")
    if any(not w.contains(module.action[i].apply(v)) for i in range(total) for v in w.basis):
        raise PreconditionError("w is not a submodule")
    if pi.shape != (module.dim, module.dim):
        raise PreconditionError("projection has the wrong shape")
    if any(not w.contains(pi.column(j)) for j in range(module.dim)):
        raise PreconditionError("projection does not land in w")
    if any(pi.apply(v) != v for v in w.basis):
        raise PreconditionError("projection is not the identity on w")
    for e in g0.objects:
        i = g0.identity[e]
        for k in range(offsets[i], offsets[i] + pa.domains[i].dim):
            if module.action[k].mul(pi) != pi.mul(module.action[k]):
                raise PreconditionError("projection is not R-linear")
    one = amb.find_unit()
    if one is None:
        raise PreconditionError("ambient algebra is not unital")
    l = invert_in(amb, pact.trace_map(pa, one))
    if l is None:
        raise PreconditionError("trace of the unit is not invertible")
    acc = Matrix.zeros(field, module.dim, module.dim)
    for g in g0.morphisms:
        u_g, u_ginv = corpus.domain_unit(pa, g), corpus.domain_unit(pa, pa.inv(g))
        if u_g is None or u_ginv is None:
            continue
        front = ref_act(module, ref_delta(pa, pa.inv(g), u_ginv, offsets, total))
        back = ref_act(module, ref_delta(pa, g, u_g, offsets, total))
        acc = acc.add(front.mul(pi.mul(back)))
    l_s = field.zero_vec(total)
    for e in g0.objects:
        i = g0.identity[e]
        u = corpus.domain_unit(pa, i)
        if u is not None:
            part = ref_delta(pa, i, amb.multiply(l, u), offsets, total)
            l_s = [a + b for a, b in zip(l_s, part)]
    return ref_act(module, l_s).mul(acc)


def outcome(f, *args):
    """f's result, or the message of the PreconditionError it raises."""
    try:
        return f(*args)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


# -- inputs ------------------------------------------------------------------------------


ACTIONS = {
    "swap": corpus.swap_action,
    "shift_restriction": corpus.shift_restriction_action,
    "restricted_swap": corpus.restricted_swap_action,
    "corner": corpus.corner_action,
    "pair1": lambda field: corpus.pair_ring_action(1, field),
    "pair2": lambda field: corpus.pair_ring_action(2, field),
    "pair3": lambda field: corpus.pair_ring_action(3, field),
}


def step(field, rng):
    p = field.char
    return field(rng.randrange(1, p)) if p else field(rng.choice([1, -1, 2, Fraction(1, 2)]))


def broken_module(module, rng, how):
    """A copy with one action entry changed, or one action matrix scaled (possibly by 0)."""
    field, action = module.algebra.field, list(module.action)
    k = rng.randrange(len(action))
    if how == "entry":
        rows = [list(r) for r in action[k].rows]
        i, j = rng.randrange(module.dim), rng.randrange(module.dim)
        rows[i][j] = rows[i][j] + step(field, rng)
        action[k] = Matrix(field, rows, module.dim)
    else:
        action[k] = action[k].scale(field(rng.randrange(5)))
    return GradedModule(module.algebra, module.dim, action)


def random_vector(field, n, rng):
    return [field(rng.choice([0, 0, 1, -1, 2, 3])) for _ in range(n)]


def trivial_action(field, n):
    """The trivial action of Z/n on the field: tr(1) = n, zero over F_p when p divides n."""
    return groupoid_ring_action(gpd.cyclic_group(n), corpus.scalar_algebra(field))


def nilpotent_action(field):
    """The trivial group acting on K x with x^2 = 0: valid, but the ambient has no unit."""
    amb = StructureAlgebra(field, 1, [[[]]])
    full = Subspace.full(field, 1)
    g = gpd.cyclic_group(1)
    return pact.PartialAction(g, amb, {"*": full}, {"g0": full}, {"g0": Matrix.identity(field, 1)})


BROKEN = ["not_valid", "other_ring", "other_space", "not_submodule", "shape", "leaves_w",
          "not_identity", "other_projection", "not_unital", "trace"]


def maschke_case(field, name, kind, rng):
    """(pa, module, w, pi): an R-linear projection onto a submodule, or an input broken as kind says."""
    if kind == "not_valid":
        pa = corpus.mutants()[rng.choice(["P1", "P3", "ideal", "multiplicative"])]
        field = pa.ambient.field
    elif kind == "not_unital":
        pa = nilpotent_action(field)
    elif kind == "trace":
        pa = trivial_action(field, field.char or 2)
    else:
        pa = ACTIONS[name](field)
    module = GradedModule.regular(build_skew_groupoid_ring(pa) if kind != "not_valid"
                                  else corpus.group_algebra(field, 2))
    n = module.dim
    seeds = [rng.choice([field.unit_vec(n, rng.randrange(n)), random_vector(field, n, rng)])
             for _ in range(rng.choice([0, 1, 1, 2]))]
    w = _module_closure(module, seeds) if seeds else Subspace.zero(field, n)
    pi = Matrix.zeros(field, n, n)
    if w.dim and kind != "not_valid":
        pi = _solve_r_linear_projection(pa, module, w)
    if kind == "other_ring":
        module = GradedModule.regular(corpus.group_algebra(field, module.algebra.dim + 1))
    elif kind == "other_space":
        w = Subspace.full(field, n + 1)
    elif kind == "not_submodule":
        w = Subspace.from_vectors(field, n, [random_vector(field, n, rng)])
    elif kind == "shape":
        pi = Matrix.zeros(field, n + rng.randint(0, 1), n + 1)
    elif kind == "leaves_w":
        rows = [list(r) for r in pi.rows]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rows[i][j] + step(field, rng)
        pi = Matrix(field, rows, n)
    elif kind == "not_identity":
        pi = pi.scale(field(2))
    elif kind == "other_projection" and 0 < w.dim < n:
        # pi + v f with v in w and f vanishing on w: a projection onto w, R-linear or not
        f, v = rng.choice(kernel(Matrix(field, w.basis)).basis), rng.choice(w.basis)
        pi = pi.add(Matrix(field, [[a * b for b in f] for a in v]))
    return pa, module, w, pi


# -- tests -------------------------------------------------------------------------------


@SETTINGS
@given(st.sampled_from([0, 2, 5]), st.sampled_from(sorted(ACTIONS)),
       st.sampled_from(["regular", "entry", "scale"]), st.integers(0, 2**32))
def test_graded_module_validate_matches_reference(p, name, how, seed):
    field, rng = Field(p), random.Random(seed)
    module = GradedModule.regular(build_skew_groupoid_ring(ACTIONS[name](field)))
    if how != "regular":
        module = broken_module(module, rng, how)
    assert module.validate() == ref_validate(module)


def test_group_algebra_module_validate_matches_reference():
    for p in (0, 2, 5):
        field, rng = Field(p), random.Random(p)
        module = GradedModule.regular(corpus.group_algebra(field, 6))
        for how in ("regular", "entry", "scale"):
            m = module if how == "regular" else broken_module(module, rng, how)
            assert m.validate() == ref_validate(m)


@SETTINGS
@given(st.sampled_from([0, 5]), st.sampled_from(sorted(ACTIONS)),
       st.sampled_from(["submodule"] * 4 + BROKEN), st.integers(0, 2**32))
def test_maschke_split_matches_reference(p, name, kind, seed):
    pa, module, w, pi = maschke_case(Field(p), name, kind, random.Random(seed))
    assert outcome(maschke_split, pa, module, w, pi) == outcome(ref_maschke_split, pa, module, w, pi)


@pytest.mark.parametrize("p", [0, 5])
def test_maschke_cases_reach_every_outcome(p):
    """The broken inputs reach every PreconditionError of maschke_split, and the projections a result."""
    seen = set()
    for seed in range(6):
        for kind in ["submodule"] + BROKEN:
            pa, module, w, pi = maschke_case(Field(p), "swap", kind, random.Random(seed))
            got = outcome(maschke_split, pa, module, w, pi)
            assert got == outcome(ref_maschke_split, pa, module, w, pi)
            seen.add(got.split(":")[1].strip() if isinstance(got, str) else "result")
    expected = {"result", "action does not validate", "module is not over the skew ring of this action",
                "submodule lives in a different space", "w is not a submodule",
                "projection has the wrong shape", "projection does not land in w",
                "projection is not the identity on w", "projection is not R-linear",
                "ambient algebra is not unital", "trace of the unit is not invertible"}
    assert seen == expected - ({"trace of the unit is not invertible"} if not p else set())
