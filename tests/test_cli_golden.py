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
`park_criterion`), so a refactor that changes a single byte of a report
fails here.
"""

import hashlib
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
GRAPHS = {**corpus.corpus_graphs(), **corpus.cyclic_graphs()}
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
    "f7z6": corpus.group_algebra(Field(7), 6),
    "f11z6": corpus.group_algebra(Field(11), 6),
    "f10007z3": corpus.group_algebra(Field(10007), 3),
    "f10007z4": corpus.group_algebra(Field(10007), 4),
}
GROUPOIDS = {
    "z2": gpd.cyclic_group(2),
    "z3": gpd.cyclic_group(3),
    "z4": gpd.cyclic_group(4),
    "pair2": gpd.pair_groupoid(2),
}


def write_inputs(d):
    """Write the corpus as JSON files under d."""
    for name, pa in ACTIONS.items():
        (d / f"{name}.g.json").write_text(json.dumps(gpd.to_dict(pa.groupoid)))
        (d / f"{name}.a.json").write_text(json.dumps(pa.ambient.to_dict()))
        doc = pact.action_to_dict(pa, f"{name}.g.json", f"{name}.a.json")
        (d / f"{name}.json").write_text(json.dumps(doc))
    for name, g in GRAPHS.items():
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
    for name in GRAPHS:
        out[f"leavitt --json {name}"] = ["--json", "leavitt", f"{name}.graph.json"]
        out[f"leavitt --dump {name}"] = ["leavitt", "--dump", f"{name}.graph.json"]
    for name in ALGEBRAS:
        out[f"analyze --json {name}"] = ["--json", "analyze", f"{name}.alg.json"]
    for gname, aname in [("pair2", "scalar"), ("pair2", "dual"), ("pair2", "upper2"),
                         ("pair2", "qz2"), ("z2", "qq"), ("z3", "trunc3"), ("z2", "dual_f5")]:
        out[f"groupoid-ring --dump {gname} {aname}"] = [
            "groupoid-ring", "--dump", f"{gname}.gpd.json", f"{aname}.alg.json"]
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
    'analyze --json f7z6': (0, 'ab01eaa6d8047ff34b5aa21f4e89f7ef9adbc3e5f0324f130d283718d1ffcf04'),
    'analyze --json octonions': (0, '9a8f42a1171e80e0f86014d4215a5c5ac90acd54d0176245f74414ed2c45f032'),
    'analyze --json qq': (0, '0bd92932cf6213a485191133d9242adc812037842bf2145113d7856b03594623'),
    'analyze --json qz12': (0, '78f6aedf1d57f9e419c33d27e6a3a1b095f263b2f2810c986179212ca39f86a1'),
    'analyze --json qz2': (0, '0bd92932cf6213a485191133d9242adc812037842bf2145113d7856b03594623'),
    'analyze --json qz3': (0, 'e747aada1fd3a85320238d5d0bb1418572417124ceac68ca4408682a5c74dfa2'),
    'analyze --json qz6': (0, 'be67f28a05f6f72a75e5c17b779a7f8cc63c3d5018a2924326b1c83cf556056b'),
    'analyze --json qz8': (0, '147a4eb368a70848567e264abaaf92023ab7d6841ff8bd2102b728459428664c'),
    'analyze --json scalar': (0, 'c03c0ea0828396db5c0d4198500cf94c7fafe10fb3d4e51298644e5556d0c191'),
    'analyze --json sedenions': (0, '5e6f89450d1c3be8731e83b4a738146003ad99ef333d44f0643be7a7016356a2'),
    'analyze --json trunc3': (0, '17f03a72bece0214f012bbfccda01425eb729035e3a656c4c3528ae0d369c725'),
    'analyze --json upper2': (0, '6c7301bff0a9a4093f84e5f9831f389b82beba80389e3f4c8ae878f0d0f197c1'),
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
    'groupoid-ring --dump pair2 scalar': (0, 'e00b7491739fd67c1cdecb9a8ced26c2ee52a79ebd45b23f5aa5bce27725f782'),
    'groupoid-ring --dump pair2 upper2': (0, '46aded8de5fb63da1a3ddfdf423d9bd8e35fba83a96cfe912c59576feadbfee0'),
    'groupoid-ring --dump z2 dual_f5': (0, 'ec1c677079a0d3e4c9e3ae89c7049646ddd419febd97276638d2caeaf2db8f83'),
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
    'leavitt --json disjoint': (0, '59ddc9d73a20b4678fd3d1a271cc68d3cec75546c808b40f8bb69144dd186ef7'),
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
