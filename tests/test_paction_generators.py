"""Global actions whose (P3) is decided on generators (hypothesis, derandomized).

The validator checks a global action on the pairs (g, s), s in a generating
set, and runs the full pair loop once one of them fails.  The inputs are
global actions over Q, F_2 and F_10007: the full-window shift of K^n by Z/n,
the groupoid ring action of a pair groupoid on 2 to 4 objects, whose
generators are not loops, and the global action beta of a globalization.
One map is broken, on a generator or on a non-generator: either one entry
changes, which mostly breaks multiplicativity before any pair is checked,
or the map is composed with a ring automorphism of its domain, which keeps
it bijective and multiplicative and breaks (P3) alone.  The violation list
must equal the dense reference's.
"""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd import groupoid as gpd
from grpd import paction as pact
from grpd.exactlin import Field, Matrix
from grpd.skewring import groupoid_ring_action
from test_paction_reference import CHARS, Reference, norm, plain, restricted_shift, sheared_split_algebra

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)


def shears(rng, m):
    return [(a, b, rng.choice([1, 2, -1, 3]))
            for a, b in (rng.sample(range(m), 2) for _ in range(rng.randint(0, 3) if m > 1 else 0))]


def swap_matrix(field, fwd, back):
    """The swap of the two factors of K^2, in the sheared basis of `sheared_split_algebra`."""
    p = field.char
    return Matrix(field, [[field(norm(sum(fwd[a][1 - k] * back[k][j] for k in range(2)), p))
                           for a in range(2)] for j in range(2)])


def with_map(pa, g, m):
    maps = dict(pa.maps, **{g: m})
    return pact.PartialAction(pa.groupoid, pa.ambient, pa.object_components, pa.domains, maps)


def entry_changed(m, rng):
    """m with one entry changed to another value."""
    field = m.field
    p = field.char
    rows = [list(r) for r in m.rows]
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    step = rng.randrange(1, p) if p else rng.choice([1, -1, 2, Fraction(1, 2)])
    rows[i][j] = field(norm(plain(rows[i][j], p) + step, p))
    return Matrix(field, rows, m.ncols)


@st.composite
def broken_global_actions(draw):
    """(action, broken morphism, whether it is a generator, how it was broken)."""
    field = Field(draw(st.sampled_from(CHARS)))
    kind = draw(st.sampled_from(["shift", "pair_ring", "envelope"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "pair_ring":
        k, m = draw(st.integers(2, 4)), draw(st.integers(1, 2))
        coeffs, fwd, back = sheared_split_algebra(field, m, shears(rng, m))
        pa = groupoid_ring_action(gpd.pair_groupoid(k), coeffs)
        # the greedy generators, in input order: (1,1) is an identity and (1,2)
        # reaches (2,1), (2,2) and nothing else; and so on
        gens = [f"(1,{j})" for j in range(2, k + 1)]
        twist = swap_matrix(field, fwd, back) if m == 2 else None
    else:
        n = draw(st.integers(2, 6 if kind == "shift" else 5))
        window = set(range(n)) if kind == "shift" else draw(
            st.sets(st.integers(0, n - 1), min_size=1))
        pa = restricted_shift(field, n, window, shears(rng, len(window)))
        if kind == "envelope":
            pa = pact.globalize(pa).action
        gens = ["g1"]
        # one object: beta_k is an automorphism of the only component
        twist = pa.maps[f"g{rng.randrange(1, n)}"]
    on_generator = draw(st.booleans())
    g = rng.choice(gens if on_generator else [h for h in pa.groupoid.morphisms if h not in gens])
    how = draw(st.sampled_from(["entry", "twist"]))
    if how == "twist" and twist is not None:
        return with_map(pa, g, pa.maps[g].mul(twist)), g, on_generator, how
    return with_map(pa, g, entry_changed(pa.maps[g], rng)), g, on_generator, "entry"


@SETTINGS
@given(broken_global_actions())
def test_broken_global_action_matches_reference(case):
    pa, _, _, _ = case
    assert pact.is_global(pa)
    got = [(v.rule, v.witness) for v in pact.validate_action(pa)]
    assert got == Reference(pa).violations()


@pytest.fixture
def checked_pairs(monkeypatch):
    """The pairs whose (P2) and (P3) the validator checks, in order."""
    pairs = []
    pair_violations = pact._pair_violations

    def counted(pa, inverses, g, h):
        pairs.append((g, h))
        return pair_violations(pa, inverses, g, h)

    monkeypatch.setattr(pact, "_pair_violations", counted)
    return pairs


@pytest.mark.parametrize("make, count", [
    (lambda: pact.globalize(corpus.shift_restriction_action()).action, 4),
    (partial(corpus.pair_ring_action, 4), 12),
], ids=["envelope_z4", "pair4_ring"])
def test_valid_global_action_checks_generator_pairs_only(checked_pairs, make, count):
    # Z/4 has the generator g1 and 4 pairs (g, g1); the pair groupoid on 4
    # objects has the generators (1,2), (1,3), (1,4) and 4 pairs each
    pa = make()
    assert pact.validate_action(pa) == []
    assert len(checked_pairs) == count


def test_broken_global_action_falls_back_to_every_pair(checked_pairs):
    # beta_g2 becomes beta_g2 beta_g1 = beta_g3: still an automorphism, and
    # the generator pair (g1, g1) fails
    beta = pact.globalize(corpus.shift_restriction_action()).action
    pa = with_map(beta, "g2", beta.maps["g2"].mul(beta.maps["g1"]))
    violations = pact.validate_action(pa)
    assert corpus.violation_rules(violations) == {"P3"}
    every = list(pa.groupoid.composable_pairs())
    assert checked_pairs[-len(every):] == every
    assert len(checked_pairs) < 2 * len(every)


def test_partial_action_checks_every_pair(checked_pairs):
    pa = corpus.shift_restriction_action()
    assert pact.validate_action(pa) == []
    assert checked_pairs == list(pa.groupoid.composable_pairs())
