"""Equal algebras have equal stored forms (hypothesis, derandomized).

Every builder hands its structure constants to the one `StructureAlgebra`
constructor, which stores residues in [1, p) over F_p and canonical
rationals over Q.  So an algebra written out by `to_dict` and read back by
`from_dict` must equal the original, cell for cell and type for type, and
its dump must be byte-identical.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from grpd import groupoid as gpd
from grpd import leavitt as lv
from grpd import paction as pact
from grpd.algebra import StructureAlgebra, cayley_dickson_chain
from grpd.exactlin import Field, Subspace
from grpd.skewring import (build_groupoid_ring, build_partial_group_algebra,
                           build_skew_groupoid_ring, quotient_by_ideal)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
ACTIONS = [corpus.swap_action, corpus.corner_action, corpus.shift_restriction_action]


def strict_upper(field, n):
    """The strictly upper triangular part of T_n(field), a subalgebra with many zero products."""
    alg = corpus.upper_triangular(field, n)
    space = Subspace.coordinate(field, alg.dim, [a for a, label in enumerate(alg.labels)
                                                 if label[1] < label[2]])
    return alg.subalgebra(space)[0]


def truncated_quotient(field, n):
    """field[x]/(x^(n+2)) modulo the ideal spanned by x^(n+1)."""
    alg = corpus.truncated_poly(field, n + 2)
    return quotient_by_ideal(alg, Subspace.coordinate(field, alg.dim, [n + 1]))


BUILDERS = {  # name -> builder(field, n) for n = 1, 2, 3
    "skew groupoid ring": lambda f, n: build_skew_groupoid_ring(ACTIONS[n - 1](f)),
    "groupoid ring": lambda f, n: build_groupoid_ring(gpd.pair_groupoid(n), corpus.dual_numbers(f)),
    "partial group algebra": lambda f, n: build_partial_group_algebra(gpd.cyclic_group(n + 1), f),
    "leavitt": lambda f, n: lv.build_gr_skew_ring(corpus.line_graph(n + 1), f),
    "path pairs": lambda f, n: lv.lpa_path_pair_oracle(corpus.line_graph(n + 1), f),
    "cayley-dickson": lambda f, n: cayley_dickson_chain(f, n),
    "globalization": lambda f, n: pact.globalize(ACTIONS[n - 1](f)).action.ambient,
    "quotient": truncated_quotient,
    "subalgebra": lambda f, n: strict_upper(f, n + 1),
}


@SETTINGS
@given(st.sampled_from(sorted(BUILDERS)), st.sampled_from([0, 5]), st.integers(1, 3))
def test_every_builder_round_trips_through_its_dump(name, char, n):
    alg = BUILDERS[name](Field(char), n)
    dump = json.dumps(alg.to_dict(), indent=2, sort_keys=True)
    again = StructureAlgebra.from_dict(json.loads(dump))
    assert again == alg
    assert repr(again._cells) == repr(alg._cells)  # 3 == Fraction(3), but not in repr
    assert json.dumps(again.to_dict(), indent=2, sort_keys=True) == dump
