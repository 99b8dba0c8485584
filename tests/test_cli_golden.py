"""CLI stdout pinned byte for byte on the corpus inputs.

Each case runs one verb in-process and compares the SHA-256 of everything
it printed on stdout against the value recorded before the skew-ring
builders were merged onto one kernel (the `analyze`, `globalize`,
`partial-group-algebra` and octonion `build-skew --json` cases: before the
structure table became sparse; the group algebras Q[Z_n], F_7[Z_6],
F_11[Z_6] and K_par(Z_4): before blocks were split inside the center; the
F_10007 cases: before the center was split by Frobenius over F_p; the
`maschke --json` cases: after the constant entries `finite_support`,
`coefficients_finite_dimensional`, `artinian` and `note` left
`park_criterion`; `leavitt --json A8` and `analyze --json m7`, the two
largest eliminations here: before the dense elimination loops of
`exactlin` gave way to one sparse kernel; `leavitt --json cycle16` and
`isolated4`: before the hereditary saturated sets were capped; the
`qz4_scaled` and `half_unit` cases, the only inputs with constants or a
unit that are not integers: before integral rationals became plain ints
over Q; the `check-action --json` cases, over the corpus actions and the six
single-axiom mutants: before the axiom checks moved onto raw rows; the
`kpar_exel_*` cases, K_par(Z_2 ... Z_5) in Exel's semigroup basis over Q, F_2,
F_7 and F_10007, and the inverse-semigroup tables I_3, B(Z_3, 2) and a
semilattice in shuffled basis orders: before `analyze` moved inverse-semigroup
tables to Steinberg's groupoid basis; the `groupoid-ring --json` cases, whose
reports hold `grading_ok`, over the `--dump` pairs and Z_2 disjoint from the
pair groupoid on two objects: before the skew-product kernel recorded the
ring's groupoid with its degrees), so a refactor that changes a single
byte of a report fails here.
"""

import hashlib
import itertools
import json

import pytest

import corpus
from grpd import cli
from grpd import groupoid as gpd
from grpd import leavitt as lv
from grpd import paction as pact
from grpd.algebra import cayley_dickson_chain
from grpd.exactlin import Field

Q = Field(0)

ACTIONS = {
    **dict(corpus.unital_corpus()),
    "octonion_trivial": corpus.octonion_trivial_action(),
    "guard_f2": corpus.guard_action_f2(),
}
# check-action only: each breaks exactly one axiom
MUTANTS = {f"mutant_{axiom}": pa for axiom, pa in corpus.mutants().items()}
GRAPHS = {**corpus.corpus_graphs(), **corpus.cyclic_graphs()}
# --json only: their --dump is long, or they have no algebra to dump
JSON_GRAPHS = {"A8": corpus.line_graph(8), "cycle16": corpus.cycle_graph(16),
               "isolated4": corpus.isolated_vertices(4)}
ALGEBRAS = {
    "scalar": corpus.scalar_algebra(Q),
    "qq": corpus.componentwise(Q, 2),
    "qz2": corpus.group_algebra(Q, 2),
    "dual": corpus.dual_numbers(Q),
    "trunc3": corpus.truncated_poly3(Q),
    "upper2": corpus.upper_triangular2(Q),
    "dual_f5": corpus.dual_numbers(Field(5)),
    "octonions": cayley_dickson_chain(Q, 3),
    "sedenions": cayley_dickson_chain(Q, 4),
    **{f"qz{n}": corpus.group_algebra(Q, n) for n in (3, 6, 8, 12)},
    "m7": corpus.matrix_algebra(Q, 7),
    "f7z6": corpus.group_algebra(Field(7), 6),
    "f11z6": corpus.group_algebra(Field(11), 6),
    "f10007z3": corpus.group_algebra(Field(10007), 3),
    "f10007z4": corpus.group_algebra(Field(10007), 4),
    "qz4_scaled": corpus.scaled_group_algebra4(),
    "half_unit": corpus.half_unit_algebra(),
    # Exel's semigroup algebras and other inverse-semigroup tables, with comparable idempotents
    **{f"kpar_exel_z{n}_{fname}": corpus.exel_partial_group_algebra(gpd.cyclic_group(n), f)
       for n in (2, 3, 4, 5)
       for fname, f in (("q", Q), ("f2", Field(2)), ("f7", Field(7)), ("f10007", Field(10007)))},
    "i3_shuffled": corpus.semigroup_algebra(
        Q, corpus.shuffled(corpus.partial_bijections(3), 3), corpus.then),
    "brandt_z3_2_shuffled": corpus.semigroup_algebra(
        Q, corpus.shuffled(corpus.brandt(3, 2)[0], 4), corpus.brandt(3, 2)[1]),
    # the subsets of {0, 1, 2, 3} with at most two members under intersection: no top
    "semilattice_shuffled": corpus.semigroup_algebra(
        Q, corpus.shuffled([frozenset(a) for r in range(3) for a in itertools.combinations(range(4), r)], 5),
        frozenset.intersection),
}
GROUPOIDS = {
    "z2": gpd.cyclic_group(2),
    "z3": gpd.cyclic_group(3),
    "z4": gpd.cyclic_group(4),
    "pair2": gpd.pair_groupoid(2),
    "z2_pair2": gpd.disjoint_union(gpd.cyclic_group(2), gpd.pair_groupoid(2)),
}


def write_inputs(d):
    """Write the corpus as JSON files under d."""
    for name, pa in {**ACTIONS, **MUTANTS}.items():
        (d / f"{name}.g.json").write_text(json.dumps(gpd.to_dict(pa.groupoid)))
        (d / f"{name}.a.json").write_text(json.dumps(pa.ambient.to_dict()))
        doc = pact.action_to_dict(pa, f"{name}.g.json", f"{name}.a.json")
        (d / f"{name}.json").write_text(json.dumps(doc))
    for name, g in {**GRAPHS, **JSON_GRAPHS}.items():
        (d / f"{name}.graph.json").write_text(json.dumps(lv.graph_to_dict(g)))
    for name, alg in ALGEBRAS.items():
        (d / f"{name}.alg.json").write_text(json.dumps(alg.to_dict()))
    for name, g in GROUPOIDS.items():
        (d / f"{name}.gpd.json").write_text(json.dumps(gpd.to_dict(g)))


def cases():
    """Case name -> argv, with input files relative to the corpus directory."""
    out = {}
    for name in ACTIONS:
        out[f"build-skew --dump {name}"] = ["build-skew", "--dump", f"{name}.json"]
        out[f"maschke --json {name}"] = ["--json", "maschke", f"{name}.json"]
        out[f"build-skew --json {name}"] = ["--json", "build-skew", f"{name}.json"]
        out[f"globalize --json {name}"] = ["--json", "globalize", f"{name}.json"]
    for name in [*ACTIONS, *MUTANTS]:
        out[f"check-action --json {name}"] = ["--json", "check-action", f"{name}.json"]
    for name in GRAPHS:
        out[f"leavitt --json {name}"] = ["--json", "leavitt", f"{name}.graph.json"]
        out[f"leavitt --dump {name}"] = ["leavitt", "--dump", f"{name}.graph.json"]
    for name in JSON_GRAPHS:
        out[f"leavitt --json {name}"] = ["--json", "leavitt", f"{name}.graph.json"]
    for name in ALGEBRAS:
        out[f"analyze --json {name}"] = ["--json", "analyze", f"{name}.alg.json"]
    rings = [("pair2", "scalar"), ("pair2", "dual"), ("pair2", "upper2"), ("pair2", "qz2"),
             ("z2", "qq"), ("z3", "trunc3"), ("z2", "dual_f5"), ("z2", "half_unit"),
             ("pair2", "qz4_scaled")]
    for gname, aname in rings:
        out[f"groupoid-ring --dump {gname} {aname}"] = [
            "groupoid-ring", "--dump", f"{gname}.gpd.json", f"{aname}.alg.json"]
    for gname, aname in [*rings, ("z2_pair2", "scalar")]:
        out[f"groupoid-ring --json {gname} {aname}"] = [
            "--json", "groupoid-ring", f"{gname}.gpd.json", f"{aname}.alg.json"]
    out["matrix-ring -n 3 --json"] = ["--json", "matrix-ring", "-n", "3"]
    out["matrix-ring -n 3 --json --char 5"] = ["--json", "matrix-ring", "-n", "3", "--char", "5"]
    out["matrix-ring -n 3 --json --char 10007"] = [
        "--json", "matrix-ring", "-n", "3", "--char", "10007"]
    out["matrix-ring -n 3 --json qz2"] = [
        "--json", "matrix-ring", "-n", "3", "--algebra", "qz2.alg.json"]
    for name in ("z3", "z4"):
        out[f"partial-group-algebra --json {name}"] = [
            "--json", "partial-group-algebra", f"{name}.gpd.json"]
    for name in ("z2", "z3", "z4"):
        out[f"partial-group-algebra --json --char 10007 {name}"] = [
            "--json", "partial-group-algebra", f"{name}.gpd.json", "--char", "10007"]
    return out


# (exit code, SHA-256 of stdout)
EXPECTED = {
    'analyze --json dual': (0, '30e0d17de418a584a0942e96b11bad07718f9b47f599f8c94041d8a038197325'),
    'analyze --json dual_f5': (0, '30e0d17de418a584a0942e96b11bad07718f9b47f599f8c94041d8a038197325'),
    'analyze --json f10007z3': (0, 'e747aada1fd3a85320238d5d0bb1418572417124ceac68ca4408682a5c74dfa2'),
    'analyze --json f10007z4': (0, '6c382d64f97cf676f4be94f74f2006b52edf06c9a813787ff4ab8fd1e60c19a4'),
    'analyze --json f11z6': (0, 'be67f28a05f6f72a75e5c17b779a7f8cc63c3d5018a2924326b1c83cf556056b'),
    'analyze --json half_unit': (0, '0bd92932cf6213a485191133d9242adc812037842bf2145113d7856b03594623'),
    'analyze --json f7z6': (0, 'ab01eaa6d8047ff34b5aa21f4e89f7ef9adbc3e5f0324f130d283718d1ffcf04'),
    'analyze --json m7': (0, '995b1612c8854a835f6395b82d88fe66caa12187bfa89d42df9ea88c258b18e8'),
    'analyze --json octonions': (0, '9a8f42a1171e80e0f86014d4215a5c5ac90acd54d0176245f74414ed2c45f032'),
    'analyze --json qq': (0, '0bd92932cf6213a485191133d9242adc812037842bf2145113d7856b03594623'),
    'analyze --json qz12': (0, '78f6aedf1d57f9e419c33d27e6a3a1b095f263b2f2810c986179212ca39f86a1'),
    'analyze --json qz2': (0, '0bd92932cf6213a485191133d9242adc812037842bf2145113d7856b03594623'),
    'analyze --json qz3': (0, 'e747aada1fd3a85320238d5d0bb1418572417124ceac68ca4408682a5c74dfa2'),
    'analyze --json qz6': (0, 'be67f28a05f6f72a75e5c17b779a7f8cc63c3d5018a2924326b1c83cf556056b'),
    'analyze --json qz8': (0, '147a4eb368a70848567e264abaaf92023ab7d6841ff8bd2102b728459428664c'),
    'analyze --json qz4_scaled': (0, '6c382d64f97cf676f4be94f74f2006b52edf06c9a813787ff4ab8fd1e60c19a4'),
    'analyze --json scalar': (0, 'c03c0ea0828396db5c0d4198500cf94c7fafe10fb3d4e51298644e5556d0c191'),
    'analyze --json sedenions': (0, '5e6f89450d1c3be8731e83b4a738146003ad99ef333d44f0643be7a7016356a2'),
    'analyze --json trunc3': (0, '17f03a72bece0214f012bbfccda01425eb729035e3a656c4c3528ae0d369c725'),
    'analyze --json upper2': (0, '6c7301bff0a9a4093f84e5f9831f389b82beba80389e3f4c8ae878f0d0f197c1'),
    'analyze --json brandt_z3_2_shuffled': (0, '267e94d35e11dc2a52affd85f3cb83ccc392069d5e23b0d2888b72d4fed4cab6'),
    'analyze --json i3_shuffled': (0, '3d69dcc9d0a37c3efb150483d7c1f46be1bb9026824dc4398bb986c666b2a8ec'),
    'analyze --json kpar_exel_z2_f10007': (0, 'aaaac82a747eb07054e9a36be71135d5ebb17983b376bb0ac8f7623360c3d67c'),
    'analyze --json kpar_exel_z2_f2': (0, '35376d1ff0eef768e7ec977fb397aba86f6d52a604627ca18aa1e402ee4f2810'),
    'analyze --json kpar_exel_z2_f7': (0, 'aaaac82a747eb07054e9a36be71135d5ebb17983b376bb0ac8f7623360c3d67c'),
    'analyze --json kpar_exel_z2_q': (0, 'aaaac82a747eb07054e9a36be71135d5ebb17983b376bb0ac8f7623360c3d67c'),
    'analyze --json kpar_exel_z3_f10007': (0, 'eed5915def907e748d007a15bab20be03fe016ef21736392a7cc51cebb981c1a'),
    'analyze --json kpar_exel_z3_f2': (0, '29a72378d48d58d3a4d1f67fcbd20ca26438d38c5b96674c2f77ebd85def5399'),
    'analyze --json kpar_exel_z3_f7': (0, '85d1934c51fbe2c600f380fe1efe8d8d73137002e8137957320fdf14e2c04833'),
    'analyze --json kpar_exel_z3_q': (0, 'eed5915def907e748d007a15bab20be03fe016ef21736392a7cc51cebb981c1a'),
    'analyze --json kpar_exel_z4_f10007': (0, '3304972d17377e469b91dee5c56f8669a422a36b48a974cb065ed901f6819c69'),
    'analyze --json kpar_exel_z4_f2': (0, 'ce4be7dce031239736ef1f4f116abeec53a479a86738b33b49ee49f57ff5d9e6'),
    'analyze --json kpar_exel_z4_f7': (0, 'f8d53426a143e7a80f3fe1dd3060a0fbcdb29a150b79236e5dd5c57377d3a8f4'),
    'analyze --json kpar_exel_z4_q': (0, '3304972d17377e469b91dee5c56f8669a422a36b48a974cb065ed901f6819c69'),
    'analyze --json kpar_exel_z5_f10007': (0, 'aff797a4caf301e03589599130cbf26184ac3f9f72ca3d3f2ccbc236eb8c3cb4'),
    'analyze --json kpar_exel_z5_f2': (0, '9d5c905e7a91d8235a5ddb64866f598fa00c7f40c6af609a54b9b6f1937c7c88'),
    'analyze --json kpar_exel_z5_f7': (0, '8fcbc6394c03c7a8c2a4abd71aca656387e5549a1c762a15ca5d5832fbccf545'),
    'analyze --json kpar_exel_z5_q': (0, 'aff797a4caf301e03589599130cbf26184ac3f9f72ca3d3f2ccbc236eb8c3cb4'),
    'analyze --json semilattice_shuffled': (0, '4550b8d75031218803e85ca644e718e38bf586336e24aa175140b0d200a15811'),
    'build-skew --dump corner': (0, '2c6dac844b5833d54bf0217ca7d18deb75871df8df673eba76d7781b036d8df9'),
    'build-skew --dump guard_f2': (0, '727cb351b81081990e90461688a3a6a99c48bd56850982f5a4aaee5dce255e21'),
    'build-skew --dump octonion_trivial': (0, 'ad30ed5aaea52be032ac03f463972e6be3818472e00d723da9eb043a71fb3819'),
    'build-skew --dump pair2_ring': (0, 'e00b7491739fd67c1cdecb9a8ced26c2ee52a79ebd45b23f5aa5bce27725f782'),
    'build-skew --dump restricted_swap': (0, '11cc36c878d3d8371be7eb051dd3d8036b48bcccaf1a088eb6cabcd5a47effb0'),
    'build-skew --dump shift_restriction': (0, '96d64ebfc053e88f812f4390cab9ba23a091f709e9136da2ac57701010f339a9'),
    'build-skew --dump swap': (0, '490ba315ecfe77bbb819fe07f26a885dce9a8daa39e9c29e463db46f63a7d0ac'),
    'build-skew --dump swap_f5': (0, 'e4d974bf716dcd0e242b32cde4c4fa3a2bd13afd8b45890dafacebce825dcf48'),
    'build-skew --json corner': (0, '4164b8b0f2c3d08b0ded63ee46fb5ced0fa8e57724be10f3d380910630b8c916'),
    'build-skew --json guard_f2': (0, '92e183b4110cf613a258a04bab56e1807ad775cf0ded6db89960fab094c506e8'),
    'build-skew --json octonion_trivial': (0, '72ccc62bd080d13b1a5f0c021f6e5a0aca049d79550abba1b15cf17409336670'),
    'build-skew --json pair2_ring': (0, '7a2267b4361171fae1e69e4872e37fdda3be82c6db70152e02b9a34079010738'),
    'build-skew --json restricted_swap': (0, '83b14bd64b712d8af917647674647bbdd266e093128d2ec18c2d99d7afb5e60f'),
    'build-skew --json shift_restriction': (0, '88996831b68befb92b2616dadfb3600b3add8d6456090289d2f3313aa74fa994'),
    'build-skew --json swap': (0, '7a2267b4361171fae1e69e4872e37fdda3be82c6db70152e02b9a34079010738'),
    'build-skew --json swap_f5': (0, '7a2267b4361171fae1e69e4872e37fdda3be82c6db70152e02b9a34079010738'),
    'check-action --json corner': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'check-action --json guard_f2': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'check-action --json mutant_P1': (1, '5c0b7256529565c17756ff616c4fc47f0c935a4b5ce20b28cb7db8ddc64eb89c'),
    'check-action --json mutant_P2': (1, '991b8f4400f7d4ab50c36c2e933d9f0eeec385ae90a35b4cdae5bae944ae5c51'),
    'check-action --json mutant_P3': (1, '3db77c6eb76b76d0fa2eeabdd0f1f71b18672aa4afe9b434650ebdd852f5152b'),
    'check-action --json mutant_P4': (1, '1a6a152c634a0196671847dfd479e1516b83e2a6671a577b4fac25f4063dd566'),
    'check-action --json mutant_ideal': (1, '40bc8a920ccfb43013434bd1a6985feb9a48b16797cae8d6c3af4711ecb23d1a'),
    'check-action --json mutant_multiplicative': (1, '96d351c1a6f3368e7ec2664124ede8c0ed81aef99089f222ef0e4f53996ba7e4'),
    'check-action --json octonion_trivial': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'check-action --json pair2_ring': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'check-action --json restricted_swap': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'check-action --json shift_restriction': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'check-action --json swap': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'check-action --json swap_f5': (0, 'c6c5c5ddfb7d7a5198b30c5bc2f9ee0ebb6156dfabc193837c10fd97251ed3ca'),
    'globalize --json corner': (0, '0e7b54de4e681427ba7d7a89463b2c7cfef113555d598cc6a8b521b08f04ef97'),
    'globalize --json guard_f2': (0, '9a9f496428ebc164a15ceb455d851bcd4baa1d5a56be956b7bb5cfece0019868'),
    'globalize --json octonion_trivial': (0, 'f6ab69f40ee284a4865163f84f2da2970ff2d4083a311b8912029afcf749688a'),
    'globalize --json pair2_ring': (0, '2005f0f5f51d9eb7460bc3fa3e85faf290b9dd975f44ec953de7659c42107be3'),
    'globalize --json restricted_swap': (0, '486863508175e8a75af1eae2827bbc4b1ec32dd1bd9b11039494e622fa6deabf'),
    'globalize --json shift_restriction': (0, 'a43ff3e56ead6531069a46b7e8fcff734d47fe3737c34fe8f27400ed3bfc26f0'),
    'globalize --json swap': (0, '486863508175e8a75af1eae2827bbc4b1ec32dd1bd9b11039494e622fa6deabf'),
    'globalize --json swap_f5': (0, '486863508175e8a75af1eae2827bbc4b1ec32dd1bd9b11039494e622fa6deabf'),
    'groupoid-ring --dump pair2 dual': (0, '0f58de327669c0be64e9a1adc11404ec76b31887dd8c438f189b5e51de15f342'),
    'groupoid-ring --dump pair2 qz2': (0, '3b8163e1a3568abb3790ccf400ad017f8625e985a933b4d483bbc2f60b3eeb8f'),
    'groupoid-ring --dump pair2 qz4_scaled': (0, '664e3b8b77111fbedc5bb21242c721a8251b27a5ad27490db9474aa1588845df'),
    'groupoid-ring --dump pair2 scalar': (0, 'e00b7491739fd67c1cdecb9a8ced26c2ee52a79ebd45b23f5aa5bce27725f782'),
    'groupoid-ring --dump pair2 upper2': (0, '46aded8de5fb63da1a3ddfdf423d9bd8e35fba83a96cfe912c59576feadbfee0'),
    'groupoid-ring --dump z2 dual_f5': (0, 'ec1c677079a0d3e4c9e3ae89c7049646ddd419febd97276638d2caeaf2db8f83'),
    'groupoid-ring --dump z2 half_unit': (0, '880663f6c77ef45595a396af82a38546fb49c658fac6fbfd57615ce9b7eb93ec'),
    'groupoid-ring --dump z2 qq': (0, '18feb7824b9121b39601b701d3b8b839a1f5a8bd0523952286fbd50a34781761'),
    'groupoid-ring --dump z3 trunc3': (0, '88d3cbb75a0324a0090890d43a64a5323f143fe41a79de2f72121a8772c36401'),
    'leavitt --dump A2': (0, '57ec6bbae4502857a1148ec32b6493c7d7fcce09b8149947d12e68ba97ed6f6a'),
    'leavitt --dump A3': (0, '11ada4fb6282117ccafebc7c8f6fad26aac2e22261aec3a2933226ac806f4723'),
    'leavitt --dump disjoint': (0, 'fae80f219ce4a598c44913c8c9dc571021752857594b8f00949f0ca9a302bea2'),
    'leavitt --dump loop': (0, '03308ce55da5c23595287763908cddf296d3c1167e08faf8c70d0a110fc5cafd'),
    'leavitt --dump parallel': (0, 'f16bdbb200bf2ea697e788ed15007872b59d7015fc1e9423bb1eaf52fb3c11ba'),
    'leavitt --dump single': (0, 'c43cdf89ab955a60be627a12ed07d6a676c7061e1f2a29518a3a79518086e5b8'),
    'leavitt --dump tree': (0, 'e449cd1a9f349df3b2f5649edfa8b5cde6491ea265484af039638561a6114e3f'),
    'leavitt --dump two_cycle': (0, '5b2f915465a5416336fe6ffe1a8e5bc73789a70573a6c008db5eb1941fbb5b2f'),
    'leavitt --json A2': (0, '699d08b0599ebdc7e7ceffe7bfe1fc92b66b5f5a29ccbf5153e238fc08481b94'),
    'leavitt --json A3': (0, 'd24bdaba01c519d7d2b276e34b287bc2238cc240e4887964d6686ce262a9f039'),
    'leavitt --json A8': (0, 'f7af2bd5971679d2129a1fb08453c043f3ba641d1e4edc31db31047ab8054924'),
    'leavitt --json cycle16': (0, '6b76d9264d9908795bdc7aacde1bd5f9df123fba27d60120a71932c1d1d97ba5'),
    'leavitt --json disjoint': (0, '59ddc9d73a20b4678fd3d1a271cc68d3cec75546c808b40f8bb69144dd186ef7'),
    'leavitt --json isolated4': (0, 'e19b57a3c4dc4d24375d012b8b29e51ab69aa7d799a284e837a1137b45990b8e'),
    'leavitt --json loop': (0, 'f940f914c1aa8991b7c75048e983528d3f582e81d464d96b6fe5c755c1ad81e3'),
    'leavitt --json parallel': (0, 'b5065f4138f33e5b547041bcaaf5f42fc8a649986120adf0a09c5b00a19b60ca'),
    'leavitt --json single': (0, '5f6b2af0e9942329bafaf7e2151de7c760ad2233c904f0dd3390d04ba70dceb3'),
    'leavitt --json tree': (0, '72d36fadac4f3a54389bc64c00a1309dfe70894f71a79a003a3af6692382dbc7'),
    'leavitt --json two_cycle': (0, '4cd476e50dbc1141a441770e49483fb4b3fec65d1dc767310b6d63d3d9895c88'),
    'maschke --json corner': (0, 'e4f10ddb8d8cab356041717f56dd64208c14329dfaef38ecbc5477210a8338fa'),
    'maschke --json guard_f2': (0, '4c22994af0857e78009ade38f12d6434ce26e0fc71cef421d5330296fdf37c4a'),
    'maschke --json octonion_trivial': (0, '94fafb54c60f4887879a237e9f7dabc3bae055c2d6685b648ac7959bee3289c6'),
    'maschke --json pair2_ring': (0, 'c6f13fc6615727789571c336b4634d17101266d20d1f7c6d692bda383537cac4'),
    'maschke --json restricted_swap': (0, 'df30755bfa68cbfdd7f75ae3cf398185571a177ff2fc8a664ba072c651672c96'),
    'maschke --json shift_restriction': (0, 'eecf35382a6a0fb6f9e07fadea1f5f38b3bc811abf3ea32654e81ae466fe16fd'),
    'maschke --json swap': (0, 'ba9519dc38e45dd667d3b07609b5f89e2dc1dbb73b0d5b1f18a6a8c40438cd0c'),
    'maschke --json swap_f5': (0, '42b5997df91cbc876eb4c55b010abd4d55e3615436c6d3f96c87d74ed13e5684'),
    'groupoid-ring --json pair2 dual': (0, '58fb2f10ab46cc6a864bbcdef458dc447c47780824bac9ae7271124a53ce7777'),
    'groupoid-ring --json pair2 qz2': (0, 'ff9b315efb2b541f440f27282ecfb4a01f822591fbba7e73309d97ea2ca8131a'),
    'groupoid-ring --json pair2 qz4_scaled': (0, '00649ae7639f730309624d569ea4eb728029f272e2c6f3ab1e388da7e15938dc'),
    'groupoid-ring --json pair2 scalar': (0, '7a2267b4361171fae1e69e4872e37fdda3be82c6db70152e02b9a34079010738'),
    'groupoid-ring --json pair2 upper2': (0, '8db1c3b8ecd9932629bee64aab0eb0b453ea23976d37487f42b6c0e456ccd225'),
    'groupoid-ring --json z2 dual_f5': (0, 'c1d2d8e094a44404b05603b2f7f69284e52df2e6dc6b312c76acc485e0ae6a3f'),
    'groupoid-ring --json z2 half_unit': (0, '26e080871791c6482f4cb583d0712b886a00751b5d939e46b084c22944345b38'),
    'groupoid-ring --json z2 qq': (0, '26e080871791c6482f4cb583d0712b886a00751b5d939e46b084c22944345b38'),
    'groupoid-ring --json z2_pair2 scalar': (0, 'd133b905ce646b66b3c660ccdb526976940dcc3fa88195346571e2aefa70196c'),
    'groupoid-ring --json z3 trunc3': (0, '255c70c6d7c0c7573ec68a7924ba8485318ac5d635bff11763c6931ee3d4d53b'),
    'matrix-ring -n 3 --json --char 10007': (0, '716b6d4c511c690ac954c94d4ff52e60878e2a288fabc121fe0644a3f65112fc'),
    'matrix-ring -n 3 --json --char 5': (0, '3619493d5eb4b4127996f961f6b216efcf916c4489d29bd3dd36c9f4efa77c52'),
    'matrix-ring -n 3 --json qz2': (0, '2f2b165e579664f5bf8cac9f3e93b01f4feeb0dc7d93cb81ff10b851b2b8cb62'),
    'matrix-ring -n 3 --json': (0, '716b6d4c511c690ac954c94d4ff52e60878e2a288fabc121fe0644a3f65112fc'),
    'partial-group-algebra --json --char 10007 z2': (0, 'd3c5cd450fd582a376c39f705e5b176d2fedc6501be8e6764e4f9723e3e0a7fd'),
    'partial-group-algebra --json --char 10007 z3': (0, 'd8b52f4e5e28b303b37ffb9bce4cc07ae1c91542f92616af082f6f21e446f1ad'),
    'partial-group-algebra --json --char 10007 z4': (0, '11336e3be3edc3663c1b7128ec8e4b440c767aee5f3a049074ba3c1a33e6e5a4'),
    'partial-group-algebra --json z3': (0, 'd8b52f4e5e28b303b37ffb9bce4cc07ae1c91542f92616af082f6f21e446f1ad'),
    'partial-group-algebra --json z4': (0, '11336e3be3edc3663c1b7128ec8e4b440c767aee5f3a049074ba3c1a33e6e5a4'),
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_inputs(d)
    return d


@pytest.mark.parametrize("case", sorted(cases()))
def test_stdout_bytes_unchanged(case, corpus_dir, capsys):
    argv = [str(corpus_dir / a) if a.endswith(".json") else a for a in cases()[case]]
    code = cli.main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == EXPECTED[case]


# Text mode prints a report's keys in the order the report holds them, so these
# pin that order: case -> (argv, exit code, SHA-256 of stdout), recorded before
# the `leavitt` and `maschke` reports became the dicts the CLI prints.
TEXT_CASES = {
    "leavitt A3": (["leavitt", "A3.graph.json"], 0,
                   "4d121131afe2a516a1ad4dcc7e2f18fc793ff3fcc67dcd3fcf3ed64d51680ac9"),
    "leavitt loop": (["leavitt", "loop.graph.json"], 0,
                     "03308ce55da5c23595287763908cddf296d3c1167e08faf8c70d0a110fc5cafd"),
    "maschke pair2_ring": (["maschke", "pair2_ring.json"], 0,
                           "56a18dd1abff1da3637caa4dd52381743b3037abd7f77b7a6532d6ead2bf9f1c"),
    "maschke shift_restriction": (["maschke", "shift_restriction.json"], 0,
                                  "ddf836fd3f0dffbabb5dae6515487dfc36089451d30128db551da4b293de7172"),
}


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_text_stdout_bytes_unchanged(case, corpus_dir, capsys):
    argv, want_code, want_digest = TEXT_CASES[case]
    code = cli.main([str(corpus_dir / a) if a.endswith(".json") else a for a in argv])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (want_code, want_digest)
