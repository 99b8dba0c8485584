"""Quick self-test of the benchmark: oracle answers known by hand, then one pass.

Usage (from the repository root):  python3 perfbench/smoke.py

It checks the independent oracles against answers worked out by hand,
runs one untraced and one traced pass of each workload over its smallest
calls, and checks that every metric named in BENCHMARK.json is produced.
Exits 1 on the first failure.
"""

import json
import sys

import run  # also puts this directory on sys.path
import inputs
import oracle
from spans import Tracer

SMALL = {
    "leavitt": ["line_a2", "line_a3", "parallel3", "isolated4", "loop", "cycle_tail"],
    "analyze": ["q_z3", "m2", "trunc_x3", "upper2", "octonions", "q_sqrt2_x_q_sqrt3"],
    "actions": ["check_z3", "check_z3_bad_inverse", "check_mutant_P1", "check_mutant_P3",
                "matrix_ring_2", "kpar_z2"],
}


def hand_checked():
    Q = 0
    assert oracle.rank([[1, 2], [2, 4]]) == 1
    assert oracle.rank([[1, 2], [3, 1]], 5) == 1  # det = -5
    assert oracle.rank([[1, 2], [3, 1]]) == 2
    assert oracle.cyclic_group_algebra_blocks(6) == [1, 1, 2, 2]
    assert oracle.cyclic_group_algebra_blocks(3, 10007) == [1, 2]  # 10007 = 2 mod 3
    assert oracle.cyclic_group_algebra_blocks(4, 13) == [1, 1, 1, 1]  # i lies in F_13
    assert oracle.partial_group_algebra_dim(3) == 8
    assert oracle.partial_group_algebra_blocks(3) == [1, 1, 2, 4]
    assert oracle.partial_group_algebra_blocks(2) == [1, 1, 1]

    quat = oracle.Alg(Q, *inputs.cayley_dickson(2))
    octo = oracle.Alg(Q, *inputs.cayley_dickson(3))
    assert oracle.is_associative(quat) and oracle.center_dim(quat, True) == 1
    assert not oracle.is_associative(octo) and oracle.is_alternative(octo)
    assert oracle.center_dim(octo, False) == 1
    m2 = oracle.Alg(Q, *inputs.matrix_algebra(2))
    assert oracle.center_dim(m2, True) == 1 and oracle.trace_form_radical_dim(m2) == 0
    assert oracle.trace_form_radical_dim(oracle.Alg(Q, 3, inputs.truncated_polynomial(3))) == 2
    assert oracle.trace_form_radical_dim(oracle.Alg(Q, *inputs.matrix_algebra(2, upper=True))) == 1
    pair = oracle.Alg(Q, *inputs.quadratic_pair())
    assert oracle.is_associative(pair) and oracle.center_dim(pair, True) == 4
    assert oracle.trace_form_radical_dim(pair) == 0

    a3 = inputs.line_graph(3)
    assert not oracle.has_cycle(*a3) and oracle.has_cycle(["v"], [("f", "v", "v")])
    assert oracle.sink_path_counts(*a3) == {"v2": 3}
    assert oracle.sink_path_counts(*inputs.binary_tree()) == {f"l{i}": 3 for i in range(1, 5)}
    assert len(oracle.hereditary_saturated_sets(["a", "b", "c"], [])) == 8
    assert len(oracle.hereditary_saturated_sets(*inputs.cycle_graph(3))) == 2
    assert len(oracle.hereditary_saturated_sets(*a3)) == 2  # A_3 gives a simple algebra


def main():
    hand_checked()
    print("oracles agree with the hand-worked answers")
    names = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"] for m in names["end_to_end"]}
    want_layer = {m["name"] for m in names["per_layer"]}
    sys.path.insert(0, str(run.SRC))
    for workload, small in SMALL.items():
        directory = run.OUT / f"smoke-{workload}"
        speed = run.Speed()
        cli, cases, setup_times = run.setup(workload, 0, directory, speed)
        cases = [c for c in cases if c.name in small]
        assert len(cases) == len(small), f"{workload}: missing smoke cases"
        r = run.Run(cli, cases, directory, speed)
        plain = [r.one_pass()[0]]
        tracer = Tracer()
        patches = tracer.install("grpd")
        try:
            traced = [r.one_pass(tracer)[0]]
        finally:
            Tracer.uninstall(patches)
        unexpected = {n: e for n, e in r.errors.items()
                      if not next(c for c in cases if c.name == n).known_fault}
        assert r.correct and not unexpected, f"{workload}: {unexpected}"
        e2e = run.end_to_end_metrics(setup_times, plain, r.call_times)
        layer = run.per_layer_metrics([tracer.snapshot()], plain, traced)
        assert set(e2e) == want_e2e, f"end-to-end names differ: {set(e2e) ^ want_e2e}"
        assert set(layer) == want_layer, f"per-layer names differ: {set(layer) ^ want_layer}"
        assert all(v > 0 for v, _ in e2e.values())
        print(f"{workload}: {len(cases)} calls checked twice, {r.failed} failed as known, "
              f"cli.self_s {layer['cli.self_s'][0]:.4f}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
