"""Leavitt path algebras of finite acyclic graphs, built two ways.

For each graph the function-algebra skew-ring model and the path-pair
oracle must agree in dimension, the generator relations must hold, and
the block sizes of the semisimple decomposition must equal the number of
paths into each sink.
"""

from grpd import (Field, DirectedGraph, GrSkewModel, graph_analysis, lpa_characterization,
                  phi_isomorphism_check)

Q = Field(0)

gallery = {
    "single vertex": DirectedGraph(["v"], []),
    "one edge A2": DirectedGraph(["v", "w"], [("f", "v", "w")]),
    "line A3": DirectedGraph(["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3")]),
    "two parallel edges": DirectedGraph(["v", "w"], [("f1", "v", "w"), ("f2", "v", "w")]),
    "binary tree depth 2": DirectedGraph(
        ["u", "c1", "c2", "l1", "l2", "l3", "l4"],
        [("e1", "u", "c1"), ("e2", "u", "c2"), ("a1", "c1", "l1"),
         ("a2", "c1", "l2"), ("a3", "c2", "l3"), ("a4", "c2", "l4")],
    ),
    "two components": DirectedGraph(["v", "w", "x"], [("f", "v", "w")]),
}

for name, graph in gallery.items():
    census = graph_analysis(graph)
    model = GrSkewModel(census, Q)  # one model serves both checks
    phi = phi_isomorphism_check(model)
    rep = lpa_characterization(census, model)
    print(f"== {name} ==")
    print(f"  two models: dims {phi.dims}, relations pass: {phi.relations_ok}")
    print(f"  sinks and path counts: {rep.sink_path_counts}")
    print(f"  block sizes: {rep.block_sizes}  (match: {rep.blocks_match_sinks})")
    print(f"  hereditary+saturated subsets: {rep.hereditary_saturated}")
    if rep.trivial_hs_lattice:
        print(f"  trivial lattice, so simple: one block = {rep.one_block}")
    print()

print("== a cycle stops the construction ==")
loop = graph_analysis(DirectedGraph(["v"], [("f", "v", "v")]))
print("acyclic:", loop.acyclic)
print(lpa_characterization(loop, None).artinian_verdict)
