"""Global actions with a map that is not a ring map (hypothesis, derandomized).

The validator tests multiplicativity of a global action on the maps beta_s,
s in the generating set of `pact._generators`, and runs the full checks
once anything fails.  Here one map beta_g of a global action over Q, F_2 or
F_10007 (the full-window Z/n shift, the groupoid ring action of a pair
groupoid, the beta of a globalization) is composed with a linear bijection
of its domain that is not a ring map, with g a generator or not; the
violation list must equal the dense reference's, the full list.  Actions
whose only fault is multiplicativity, with (P1) and (P3) holding on every
pair, must be caught through the generators alone.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd.exactlin import Field, Matrix, Subspace
from grpd.skewring import groupoid_ring_action
from test_paction_generators import shears, with_map
from test_paction_reference import CHARS, Reference, restricted_shift, sheared_split_algebra

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)


def crooked(field, d, rng):
    """An invertible d x d matrix: a diagonal times up to three shears."""
    p = field.char
    nonzero = [1, 2, 3, -1] if not p else list(range(1, min(p, 5)))
    rows = [[field(rng.choice(nonzero)) if i == j else field.zero for j in range(d)]
            for i in range(d)]
    m = Matrix(field, rows, d)
    for _ in range(rng.randint(1, 3) if d > 1 else 0):
        a, b = rng.sample(range(d), 2)
        shear = [[field.one if i == j else field.zero for j in range(d)] for i in range(d)]
        shear[a][b] = field(rng.choice(nonzero))
        m = m.mul(Matrix(field, shear, d))
    return m


@st.composite
def crooked_global_actions(draw):
    """(action, the morphism whose map is no ring map), the morphism a generator or not."""
    field = Field(draw(st.sampled_from(CHARS)))
    kind = draw(st.sampled_from(["shift", "pair_ring", "envelope"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    # over F_2 a one-dimensional domain has no linear bijection but the identity
    least = 2 if field.char == 2 else 1
    if kind == "pair_ring":
        m = draw(st.integers(least, 2))
        coeffs, _, _ = sheared_split_algebra(field, m, shears(rng, m))
        pa = groupoid_ring_action(gpd.pair_groupoid(draw(st.integers(2, 4))), coeffs)
    else:
        n = draw(st.integers(max(2, least), 6 if kind == "shift" else 5))
        window = set(range(n)) if kind == "shift" else draw(
            st.sets(st.integers(0, n - 1), min_size=least))
        pa = restricted_shift(field, n, window, shears(rng, len(window)))
        if kind == "envelope":
            pa = pact.globalize(pa).action
    gens = pact._generators(pa.groupoid)
    g = rng.choice(gens if draw(st.booleans()) else [h for h in pa.groupoid.morphisms if h not in gens])
    m = pa.maps[g]
    return with_map(pa, g, m.mul(crooked(field, m.ncols, rng))), g


@SETTINGS
@given(crooked_global_actions())
def test_crooked_map_of_a_global_action_gives_the_full_list(case):
    pa, g = case
    assert pact.is_global(pa)
    want = Reference(pa).violations()
    # a diagonal times shears can still be a ring automorphism, such as a swap
    assume(("multiplicative", (g,)) in want)
    assert [(v.rule, v.witness) for v in pact.validate_action(pa)] == want


def involution(field):
    """A linear involution of K^2 that is no ring map: e_1 goes to e_0 - e_1."""
    return Matrix(field, [[field.one, field.one], [field.zero, field(-1)]])


@pytest.mark.parametrize("field", [Field(c) for c in CHARS], ids=str)
@pytest.mark.parametrize("n", [2, 4, 6])
def test_shift_by_an_involution_is_multiplicative_nowhere_else(field, n):
    # beta_{g_k} = L^k on K^2: (P1) and (P3) hold on every pair, and only the
    # odd k, the generator g1 among them, break multiplicativity
    g = gpd.cyclic_group(n)
    full = Subspace.full(field, 2)
    maps = {f"g{k}": involution(field) if k % 2 else Matrix.identity(field, 2) for k in range(n)}
    pa = pact.PartialAction(g, corpus.componentwise(field, 2), {"*": full},
                            {h: full for h in g.morphisms}, maps)
    got = [(v.rule, v.witness) for v in pact.validate_action(pa)]
    assert got == [("multiplicative", (f"g{k}",)) for k in range(1, n, 2)]
    assert got == Reference(pa).violations()


@pytest.mark.parametrize("field", [Field(c) for c in CHARS], ids=str)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pair_groupoid_twisted_by_an_involution(field, k):
    # beta_{(i,j)} is the identification of the copies of K^2 times L^{c_i + c_j},
    # c = 1 at object 2 alone: a cocycle, so only the maps across it break
    pa = groupoid_ring_action(gpd.pair_groupoid(k), corpus.componentwise(field, 2))
    across = [h for h in pa.groupoid.morphisms if (pa.groupoid.dom[h] == "2") != (pa.groupoid.cod[h] == "2")]
    for h in across:
        pa = with_map(pa, h, pa.maps[h].mul(involution(field)))
    got = [(v.rule, v.witness) for v in pact.validate_action(pa)]
    assert got == [("multiplicative", (h,)) for h in pa.groupoid.morphisms if h in across]
    assert got == Reference(pa).violations()
