"""grpd's own linear maps never pass through a Matrix's dense rows.

A `Matrix` is its raw columns, and grpd builds every map it makes from raw
columns.  With the `Matrix.rows` getter made to raise, globalization and
its check, the skew ring, the Maschke report, `invert_in`, the regular
module's check and the Maschke projection must all still run, and must
give what they give once the getter is back.
"""

import pytest

import corpus
from grpd import paction as pact
from grpd.exactlin import Matrix
from grpd.skewring import (GradedModule, build_skew_groupoid_ring, invert_in, maschke_check,
                           maschke_split)
from test_skewring import _module_closure, _solve_r_linear_projection


def outcomes(w, pi):
    """Each computation on freshly built actions, so that no cached result hides a read."""
    shift = corpus.shift_restriction_action()
    glob = pact.globalize(shift)
    swap = corpus.swap_action()
    alg = build_skew_groupoid_ring(swap)
    module = GradedModule.regular(alg)
    return {
        "beta": glob.action.maps,
        "embeddings": glob.embeddings,
        "verify": pact.globalization_verify(shift, glob),
        "skew": (corpus.table_of(alg), alg.unit),
        "maschke": maschke_check(swap),
        "inverse": invert_in(swap.ambient, pact.trace_map(swap, swap.ambient.find_unit())),
        "validate": module.validate(),
        "split": maschke_split(swap, module, w, pi),
    }


def test_grpd_computes_without_dense_rows(monkeypatch):
    # the submodule and its R-linear projection are inputs, made with the rows readable
    swap = corpus.swap_action()
    alg = build_skew_groupoid_ring(swap)
    module = GradedModule.regular(alg)
    w = _module_closure(module, [alg.basis_vector(0)])
    pi = _solve_r_linear_projection(swap, module, w)

    def refuse(m):
        raise AssertionError("grpd read the dense rows of a Matrix")

    monkeypatch.setattr(Matrix, "rows", property(refuse))
    with pytest.raises(AssertionError):
        pi.rows
    got = outcomes(w, pi)
    monkeypatch.undo()
    want = outcomes(w, pi)
    assert got == want
    assert got["verify"] == [] and got["validate"] == [] and got["inverse"] is not None
    for key in ("beta", "embeddings"):
        assert {g: m.rows for g, m in got[key].items()} == {g: m.rows for g, m in want[key].items()}
    assert got["split"].rows == want["split"].rows
    assert got["split"].mul(got["split"]) == got["split"] != Matrix.identity(alg.field, module.dim)
