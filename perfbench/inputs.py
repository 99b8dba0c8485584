"""Seeded input files for each workload, with the answers each call must give.

A workload is a fixed, ordered list of Cases.  Each Case is one `grpd`
verb call on files this module writes; its expected report fields come
from `oracle`, never from grpd.  Nothing here imports grpd: the program
only ever sees the JSON files.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import oracle

P = 10007  # the prime of the actions workload


@dataclass
class Case:
    name: str
    argv: list  # CLI arguments after "--json"; entries starting with "@" are input files
    code: int  # expected exit code
    expect: object = field(default_factory=dict)  # report field -> expected value, or a
    # function returning that dict, so that oracle work stays out of the timed set-up
    known_fault: str = ""  # set when grpd is known to answer this call wrongly


# -- algebra files ----------------------------------------------------------------


def algebra_json(p, n, table):
    """The grpd algebra schema; no unit is supplied, so grpd has to find it."""
    fmt = (lambda c: str(c)) if p == 0 else (lambda c: int(c) % p)
    entries = []
    for i in range(n):
        for j in range(n):
            prod = table.get((i, j))
            if prod:
                entries.append([i, j, [fmt(prod.get(k, 0)) for k in range(n)]])
    return {"field": {"char": p}, "dim": n,
            "basis": [f"b{i}" for i in range(n)], "table": entries}


def group_algebra(n):
    return {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)}


def matrix_algebra(n, upper=False):
    """M_n, or its upper-triangular subalgebra, in the matrix-unit basis E_ij."""
    units = [(i, j) for i in range(n) for j in range(n) if not upper or i <= j]
    idx = {u: a for a, u in enumerate(units)}
    table = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                table[a, b] = {idx[i, l]: 1}
    return len(units), table


def truncated_polynomial(k):
    """K[x]/(x^k) in the basis 1, x, ..., x^(k-1)."""
    return {(i, j): {i + j: 1} for i in range(k) for j in range(k) if i + j < k}


def cayley_dickson(doublings):
    """Structure constants of the Cayley-Dickson algebra of dimension 2^doublings over Q.

    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)), conj(a, b) = (conj a, -b),
    starting from Q with the identity conjugation.
    """
    n = 1
    sign = {(0, 0): (0, 1)}  # (i, j) -> (k, sign) with e_i e_j = sign e_k
    conj = [1]  # conj(e_i) = conj[i] e_i
    for _ in range(doublings):
        new = {}
        for i in range(2 * n):
            for j in range(2 * n):
                a, b = divmod(i, n)[0], i % n
                c, d = divmod(j, n)[0], j % n
                if a == 0 and c == 0:  # (e_b, 0)(e_d, 0) = (e_b e_d, 0)
                    k, s = sign[b, d]
                elif a == 0 and c == 1:  # (e_b, 0)(0, e_d) = (0, e_d e_b)
                    k, s = sign[d, b]
                    k += n
                elif a == 1 and c == 0:  # (0, e_b)(e_d, 0) = (0, e_b conj(e_d))
                    k, s = sign[b, d]
                    k, s = k + n, s * conj[d]
                else:  # (0, e_b)(0, e_d) = (-conj(e_d) e_b, 0)
                    k, s = sign[d, b]
                    s = -s * conj[d]
                new[i, j] = (k, s)
        sign = new
        conj = conj + [-1] * n
        n *= 2
    return n, {ij: {k: s} for ij, (k, s) in sign.items()}


def partial_group_algebra(n):
    """K_par(Z_n) as the algebra of Exel's semigroup of pairs (A, g), g in A, 0 in A."""
    items = [(frozenset(a for a in range(n) if mask >> a & 1), g)
             for mask in range(1 << n) if mask & 1
             for g in range(n) if mask >> g & 1]
    idx = {x: i for i, x in enumerate(items)}
    table = {}
    for i, (a, g) in enumerate(items):
        for j, (b, h) in enumerate(items):
            prod = (a | frozenset((g + t) % n for t in b), (g + h) % n)
            table[i, j] = {idx[prod]: 1}
    return len(items), table


def quadratic_pair():
    """Q(sqrt2) x Q(sqrt3) in the basis (sqrt2, sqrt3), (1+sqrt2, sqrt3), (sqrt2, 1+sqrt3), (sqrt2, 2 sqrt3).

    Coordinates are taken against the split basis u0 = (1, 0), u1 = (sqrt2, 0),
    u2 = (0, 1), u3 = (0, sqrt3), where u1^2 = 2 u0 and u3^2 = 3 u2.
    """
    basis = [[0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0, 2]]
    split = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 2},
             (2, 2): {2: 1}, (2, 3): {3: 1}, (3, 2): {3: 1}, (3, 3): {2: 3}}

    def smul(x, y):
        out = [Fraction(0)] * 4
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                for k, c in split.get((i, j), {}).items():
                    out[k] += a * b * c
        return out

    # coordinates in `basis` by solving against the columns of the basis matrix
    def coords(v):
        m = [[Fraction(basis[c][r]) for c in range(4)] + [Fraction(v[r])] for r in range(4)]
        for c in range(4):
            piv = next(r for r in range(c, 4) if m[r][c])
            m[c], m[piv] = m[piv], m[c]
            m[c] = [x / m[c][c] for x in m[c]]
            for r in range(4):
                if r != c and m[r][c]:
                    m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
        return [m[r][4] for r in range(4)]

    table = {}
    for i in range(4):
        for j in range(4):
            table[i, j] = {k: c for k, c in enumerate(coords(smul(basis[i], basis[j]))) if c}
    return 4, table


def analyze_expectation(alg, *, blocks=None, radical=None, center=None):
    """Expected `analyze` report of a unital algebra.

    Laws, center and radical come from the oracle unless a closed form is
    given; blocks are known by construction.
    """
    assoc = oracle.is_associative(alg)
    exp = {
        "dim": alg.n,
        "unital": True,
        "associative": assoc,
        "alternative": True if assoc else oracle.is_alternative(alg),
        "center_dim": center if center is not None else oracle.center_dim(alg, assoc),
        "grading_ok": None,
    }
    if not assoc:
        exp.update(radical_dim=None, semisimple="undecided", blocks=None)
        return exp
    rad = radical if radical is not None else oracle.trace_form_radical_dim(alg)
    exp.update(radical_dim=rad, semisimple=rad == 0, blocks=blocks if rad == 0 else None)
    return exp


def analyze_workload(seed):
    """Over Q: group algebras, partial group algebras, matrix algebras,
    truncated polynomials, upper-triangular matrices, the octonions and the
    sedenions, and Q(sqrt2) x Q(sqrt3) in a basis grpd fails to split.

    The list does not depend on the seed: a change of basis can change
    grpd's block answer (the fault kept as the failing call), and a run
    must not fail on some seeds only.
    """
    files, cases = {}, []

    def add(name, n, table, expect, known_fault=""):
        files[f"{name}.json"] = algebra_json(0, n, table)
        cases.append(Case(name, ["analyze", f"@{name}.json"], 0, expect, known_fault))

    for n in (3, 5, 6, 8, 10):
        t = group_algebra(n)
        alg = oracle.Alg(0, n, t)
        add(f"q_z{n}", n, t, partial(analyze_expectation, alg,
                                     blocks=oracle.cyclic_group_algebra_blocks(n), center=n, radical=0))
    for n in (3, 4):
        d, t = partial_group_algebra(n)
        assert d == oracle.partial_group_algebra_dim(n)
        add(f"kpar_z{n}", d, t, partial(analyze_expectation, oracle.Alg(0, d, t),
                                        blocks=oracle.partial_group_algebra_blocks(n)))
    for n in (2, 3):
        d, t = matrix_algebra(n)
        add(f"m{n}", d, t, partial(analyze_expectation, oracle.Alg(0, d, t), blocks=[d]))
    for k in (3, 5, 8):
        t = truncated_polynomial(k)
        add(f"trunc_x{k}", k, t, partial(analyze_expectation, oracle.Alg(0, k, t),
                                         radical=k - 1, center=k))
    for n in (2, 3, 4):
        d, t = matrix_algebra(n, upper=True)
        add(f"upper{n}", d, t, partial(analyze_expectation, oracle.Alg(0, d, t),
                                       radical=n * (n - 1) // 2))
    for name, doublings in (("octonions", 3), ("sedenions", 4)):
        d, t = cayley_dickson(doublings)
        add(name, d, t, partial(analyze_expectation, oracle.Alg(0, d, t)))
    d, t = quadratic_pair()
    add("q_sqrt2_x_q_sqrt3", d, t, partial(analyze_expectation, oracle.Alg(0, d, t), blocks=[2, 2]),
        known_fault="blocks of Q(sqrt2) x Q(sqrt3) in this basis: grpd splits the center "
                    "only on base-field roots (algebra.py _try_center_split)")
    return files, cases


# -- graphs --------------------------------------------------------------------------


def graph_json(vertices, edges):
    return {"vertices": list(vertices),
            "edges": [{"id": e, "s": s, "r": r} for e, s, r in edges]}


def line_graph(n):
    vs = [f"v{i}" for i in range(n)]
    return vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]


def cycle_graph(n):
    vs = [f"c{i}" for i in range(n)]
    return vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]


def binary_tree():
    vs = ["u", "c1", "c2", "l1", "l2", "l3", "l4"]
    es = [("e1", "u", "c1"), ("e2", "u", "c2"), ("a1", "c1", "l1"), ("a2", "c1", "l2"),
          ("a3", "c2", "l3"), ("a4", "c2", "l4")]
    return vs, es


def random_dag(rng, nv, ne, nsinks, dim, npaths):
    """A seeded acyclic graph with exactly these vertex, edge, sink and path counts and LPA dimension.

    Fixing the counts and the dimension keeps the cost of a call nearly the
    same from seed to seed, while the shape and the names change.
    """
    names = [f"r{i}" for i in range(nv)]
    while True:
        order = rng.sample(names, nv)  # edges run forward in this order
        pairs = [(order[i], order[j]) for i in range(nv) for j in range(i + 1, nv)]
        chosen = sorted(rng.sample(range(len(pairs)), ne))
        edges = [(f"f{k}", *pairs[c]) for k, c in enumerate(chosen)]
        into = oracle.path_counts(names, edges)
        sinks = oracle.sink_path_counts(names, edges)
        if (len(sinks) == nsinks and sum(c * c for c in sinks.values()) == dim
                and sum(into.values()) == npaths):
            return names, edges


def leavitt_expectation(vertices, edges, hs=None):
    hs = hs if hs is not None else oracle.hereditary_saturated_sets(vertices, edges)
    trivial = all(not h or len(h) == len(vertices) for h in hs)
    exp = {"hereditary_saturated": hs, "trivial_hs_lattice": trivial}
    if oracle.has_cycle(vertices, edges):
        exp.update(acyclic=False, artinian="not artinian", dim=None, block_sizes=None,
                   sink_path_counts=None, semisimple=None, two_model_dims=None)
        return exp
    counts = oracle.sink_path_counts(vertices, edges)
    dim = sum(c * c for c in counts.values())
    exp.update(acyclic=True, artinian="artinian", dim=dim, unital=True, semisimple=True,
               block_sizes=sorted(counts.values()), sink_path_counts=counts,
               blocks_match_sinks=True, one_block=len(counts) == 1,
               two_model_dims=[dim, dim], phi_relations_ok=True)
    return exp


def leavitt_workload(seed):
    """Over Q: lines A_n, a tree, parallel edges, disjoint unions, seeded random
    acyclic graphs, and cycles, one wide enough for the 2^|V| subset search to dominate."""
    rng = random.Random(seed)
    files, cases = {}, []

    def add(name, vertices, edges, hs=None):
        files[f"{name}.json"] = graph_json(vertices, edges)
        cases.append(Case(name, ["leavitt", f"@{name}.json"], 0,
                          partial(leavitt_expectation, vertices, edges, hs)))

    for n in range(2, 7):
        add(f"line_a{n}", *line_graph(n))
    add("tree", *binary_tree())
    add("parallel3", ["v", "w"], [(f"f{i}", "v", "w") for i in range(3)])
    vs, es = line_graph(3)
    add("union_a3_a2_point", vs + ["w0", "w1", "x"], es + [("g", "w0", "w1")])
    isolated = [f"i{k}" for k in range(4)]
    add("isolated4", isolated, [])
    add("random_dag_a", *random_dag(rng, 5, 5, 3, 22, 10))
    add("random_dag_b", *random_dag(rng, 5, 5, 2, 29, 11))
    add("loop", ["v"], [("f", "v", "v")])
    add("cycle_tail", ["a", "b", "t"], [("x", "a", "b"), ("y", "b", "a"), ("z", "t", "a")])
    vs, es = cycle_graph(16)
    # an n-cycle has exactly the hereditary saturated sets {} and V
    add("cycle16", vs, es, hs=[frozenset(), frozenset(vs)])
    return files, cases


# -- the actions workload over F_p ------------------------------------------------------


def cyclic_group_json(n, broken_inverse=False):
    names = [f"g{i}" for i in range(n)]
    mors = [{"id": names[i], "dom": "*", "cod": "*",
             "inv": names[1 if broken_inverse and i == 1 else (-i) % n]} for i in range(n)]
    compose = [[names[i], names[j], names[(i + j) % n]] for i in range(n) for j in range(n)]
    return {"objects": ["*"], "morphisms": mors, "compose": compose}


def pair_groupoid_json(n):
    m = lambda i, j: f"({i},{j})"
    objs = [str(i) for i in range(1, n + 1)]
    mors = [{"id": m(i, j), "dom": str(j), "cod": str(i), "inv": m(j, i)}
            for i in range(1, n + 1) for j in range(1, n + 1)]
    compose = [[m(i, j), m(j, k), m(i, k)] for i in range(1, n + 1)
               for j in range(1, n + 1) for k in range(1, n + 1)]
    return {"objects": objs, "morphisms": mors, "compose": compose}


def unit_rows(n, idx):
    return [[1 if c == i else 0 for c in range(n)] for i in idx]


def identity_rows(n):
    return unit_rows(n, range(n))


def restriction_action(n, window, gfile, afile):
    """The cyclic shift of K^n by Z_n, restricted to the ideal K^W of the window W.

    R_{g_k} is spanned by the e_j with j and j - k both in W, and alpha_{g_k}
    sends e_i to e_{i+k}.  Restrictions of global actions to ideals are
    always partial actions (Dokuchaev-Exel).
    """
    w = sorted(window)
    pos = {j: a for a, j in enumerate(w)}
    dom = {k: [j for j in w if (j - k) % n in pos] for k in range(n)}
    domains, maps = {}, {}
    for k in range(n):
        src, dst = dom[(-k) % n], dom[k]
        domains[f"g{k}"] = unit_rows(len(w), [pos[j] for j in dst])
        at = {j: r for r, j in enumerate(dst)}
        maps[f"g{k}"] = [[1 if at[(i + k) % n] == r else 0 for i in src] for r in range(len(dst))]
    return {"groupoid": gfile, "algebra": afile, "components": {"*": identity_rows(len(w))},
            "domains": domains, "maps": maps}


def split_algebra(n):
    """K^n with coordinatewise products."""
    return {(i, i): {i: 1} for i in range(n)}


def mutants(p):
    """The single-axiom mutants, each breaking exactly the named rule (JSON objects)."""
    m1 = p - 1
    z2 = cyclic_group_json(2)
    out = {}
    out["P1"] = ({"z2.json": z2}, "split2.json", {
        "components": {"*": identity_rows(2)},
        "domains": {"g0": [[1, 0]], "g1": [[1, 0]]},
        "maps": {"g0": [[1]], "g1": [[1]]}}, "z2.json")
    # pair groupoid on three objects with the (1,3) and (3,1) domains zeroed
    pg3 = pair_groupoid_json(3)
    doms = {f"({i},{j})": [[1 if c == i - 1 else 0 for c in range(3)]]
            for i in range(1, 4) for j in range(1, 4)}
    mp = {g: [[1]] for g in doms}
    for g in ("(1,3)", "(3,1)"):
        doms[g] = []
        mp[g] = []
    out["P2"] = ({"pair3.json": pg3}, "split3.json", {
        "components": {str(i): [[1 if c == i - 1 else 0 for c in range(3)]] for i in range(1, 4)},
        "domains": doms, "maps": mp}, "pair3.json")
    c1, c2 = unit_rows(4, [0, 1]), unit_rows(4, [2, 3])
    out["P3"] = ({"pair2.json": pair_groupoid_json(2)}, "split4.json", {
        "components": {"1": c1, "2": c2},
        "domains": {"(1,1)": c1, "(2,2)": c2, "(1,2)": c1, "(2,1)": c2},
        "maps": {"(1,1)": identity_rows(2), "(2,2)": identity_rows(2),
                 "(2,1)": identity_rows(2), "(1,2)": [[0, 1], [1, 0]]}}, "pair2.json")
    corner = [[1, 0]]
    out["P4"] = ({"pair2.json": pair_groupoid_json(2)}, "split2.json", {
        "components": {"1": corner, "2": corner},
        "domains": {g: corner for g in ("(1,1)", "(1,2)", "(2,1)", "(2,2)")},
        "maps": {g: [[1]] for g in ("(1,1)", "(1,2)", "(2,1)", "(2,2)")}}, "pair2.json")
    out["ideal"] = ({"z2.json": z2}, "split2.json", {
        "components": {"*": identity_rows(2)},
        "domains": {"g0": identity_rows(2), "g1": [[1, 1]]},
        "maps": {"g0": identity_rows(2), "g1": [[1]]}}, "z2.json")
    out["multiplicative"] = ({"z2.json": z2}, "split2.json", {
        "components": {"*": identity_rows(2)},
        "domains": {"g0": identity_rows(2), "g1": identity_rows(2)},
        "maps": {"g0": identity_rows(2), "g1": [[1, 1], [0, m1]]}}, "z2.json")
    return out


def actions_workload(seed):
    """Over F_10007: groupoid and action validators accepting and rejecting,
    skew-ring builders, globalization, the Maschke report, pair-groupoid
    rings and partial group algebras."""
    rng = random.Random(seed)
    p = P
    files, cases = {}, []
    for n in (2, 3, 4):
        files[f"split{n}.json"] = algebra_json(p, n, split_algebra(n))
    files["scalar.json"] = algebra_json(p, 1, {(0, 0): {0: 1}})

    for n in (3, 4, 6):
        files[f"z{n}.json"] = cyclic_group_json(n)
        cases.append(Case(f"check_z{n}", ["check-groupoid", f"@z{n}.json"], 0, {"rules": []}))
    files["z3_bad_inverse.json"] = cyclic_group_json(3, broken_inverse=True)
    cases.append(Case("check_z3_bad_inverse", ["check-groupoid", "@z3_bad_inverse.json"], 1,
                      {"rules": ["inverse"]}))
    for n in (2, 3):
        files[f"pair{n}.json"] = pair_groupoid_json(n)
        cases.append(Case(f"check_pair{n}", ["check-groupoid", f"@pair{n}.json"], 0,
                          {"rules": []}))

    # two seeded windows, each a fixed shape moved by a seeded rotation and
    # reflection: the domain sizes |W meet (W + k)|, and with them the cost of
    # every call, stay the same from seed to seed
    for n, shape in ((6, (0, 1, 3)), (7, (0, 1, 2, 4))):
        size = len(shape)
        turn, sign = rng.randrange(n), rng.choice((1, -1))
        window = sorted((sign * j + turn) % n for j in shape)
        files[f"z{n}.json"] = cyclic_group_json(n)
        files[f"split{size}.json"] = algebra_json(p, size, split_algebra(size))
        act = f"shift{n}_w{size}.json"
        files[act] = restriction_action(n, window, f"z{n}.json", f"split{size}.json")
        skew_dim = sum(len([j for j in window if (j - k) % n in window]) for k in range(n))
        assert skew_dim == size * size
        cases.append(Case(f"check_{act[:-5]}", ["check-action", f"@{act}"], 0, {"rules": []}))
        cases.append(Case(f"skew_{act[:-5]}", ["build-skew", f"@{act}"], 0, {
            "dim": skew_dim, "unital": True, "associative": True, "center_dim": 1,
            "radical_dim": 0, "semisimple": True, "blocks": [skew_dim], "grading_ok": True}))
        cases.append(Case(f"globalize_{act[:-5]}", ["globalize", f"@{act}"], 0, {
            "envelope_dim": n, "component_dims": {"*": n}, "violations": []}))
        cases.append(Case(f"maschke_{act[:-5]}", ["maschke", f"@{act}"], 0, {
            "skew_dim": skew_dim, "r_semisimple": True, "skew_semisimple": True,
            "isotropy_orders": {"*": n}, "implication_isotropy": "holds"}))

    for rule, (gfiles, afile, body, gref) in mutants(p).items():
        files.update(gfiles)
        name = f"mutant_{rule.lower()}.json"
        files[name] = dict(body, groupoid=gref, algebra=afile)
        cases.append(Case(f"check_mutant_{rule}", ["check-action", f"@{name}"], 1,
                          {"rules": [rule]}))

    for n in (2, 3):
        cases.append(Case(f"groupoid_ring_pair{n}",
                          ["groupoid-ring", f"@pair{n}.json", "@scalar.json"], 0,
                          {"dim": n * n, "center_dim": 1, "radical_dim": 0, "blocks": [n * n]}))
    for n in (2, 3, 4):
        cases.append(Case(f"matrix_ring_{n}", ["matrix-ring", "-n", str(n), "--char", str(p)], 0,
                          {"dim": n * n, "blocks": [n * n], "matrix_units_ok": True,
                           "matrix_unit_checks": n ** 4}))
    for n in (2, 3, 4):
        files.setdefault(f"z{n}.json", cyclic_group_json(n))
        d = oracle.partial_group_algebra_dim(n)
        cases.append(Case(f"kpar_z{n}", ["partial-group-algebra", f"@z{n}.json", "--char", str(p)],
                          0, {"dim": d, "semigroup_size": d, "radical_dim": 0,
                              "blocks": oracle.partial_group_algebra_blocks(n, p)}))
    return files, cases


WORKLOADS = {
    "leavitt": leavitt_workload,
    "analyze": analyze_workload,
    "actions": actions_workload,
}
