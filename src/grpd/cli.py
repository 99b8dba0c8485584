"""Command-line frontend: load JSON descriptions, run checks and builders.

Exit codes: 0 on success (all checks pass), 1 when a validator reports
violations, 2 on unreadable or malformed input.  Output is deterministic
for identical inputs; `--json` switches to machine-readable reports.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import GrpdError, SchemaError
from . import groupoid as gpd
from .algebra import MAX_DIM, StructureAlgebra, cayley_dickson_chain
from . import paction as pact
from . import skewring as sk
from . import leavitt as lv
from . import schema


def _unique_keys(pairs):
    """A JSON object as a dict; a key given twice is refused, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError(f"repeated key {key!r}")
        out[key] = value
    return out


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _load_groupoid(path):
    return gpd.from_dict(_load_json(path))


def _load_algebra(path):
    return StructureAlgebra.from_dict(_load_json(path))


def _load_action(path):
    d = _load_json(path)
    base = Path(path).parent
    gref, aref = (schema.get(d, k, str, "action") for k in ("groupoid", "algebra"))
    g0 = _load_groupoid(base / gref)
    if bad := gpd.validate(g0):
        raise SchemaError("referenced groupoid is invalid: " + "; ".join(map(str, bad)))
    amb = _load_algebra(base / aref)
    return pact.action_from_dict(d, g0, amb)


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key in report:
        print(f"{key}: {_plain(report[key])}")


def _plain(v):
    if isinstance(v, dict):
        inner = ", ".join(f"{k}={_plain(x)}" for k, x in sorted(v.items(), key=lambda kv: str(kv[0])))
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_plain(x) for x in v) + "]"
    return str(v)


def _violations_report(violations, as_json):
    if as_json:
        print(json.dumps(
            {"violations": [{"rule": v.rule, "witness": list(v.witness), "detail": v.detail}
                            for v in violations]},
            indent=2, sort_keys=True))
    else:
        if not violations:
            print("ok: no violations")
        for v in violations:
            print(str(v))
    return 1 if violations else 0


def cmd_check_groupoid(args):
    g = _load_groupoid(args.file)
    return _violations_report(gpd.validate(g), args.json)


def cmd_check_action(args):
    pa = _load_action(args.file)
    return _violations_report(pact.validate_action(pa), args.json)


def cmd_analyze(args):
    alg = _load_algebra(args.file)
    _emit(sk.analyze_algebra(alg), args.json)
    return 0


def _dump_or_analyze(alg, args):
    """Print the algebra's table with --dump, else its analysis report."""
    if args.dump:
        print(json.dumps(alg.to_dict(), indent=2, sort_keys=True))
    else:
        _emit(sk.analyze_algebra(alg), args.json)
    return 0


def cmd_build_skew(args):
    return _dump_or_analyze(sk.build_skew_groupoid_ring(_load_action(args.file)), args)


def cmd_groupoid_ring(args):
    g = _load_groupoid(args.groupoid)
    bad = gpd.validate(g)
    if bad:
        return _violations_report(bad, args.json)
    return _dump_or_analyze(sk.build_groupoid_ring(g, _load_algebra(args.algebra)), args)


def cmd_matrix_ring(args):
    if args.n < 1:
        raise SchemaError(f"-n must be at least 1, got {args.n}")
    field = schema.field(args.char or 0, "--char")
    coeff = _load_algebra(args.algebra) if args.algebra else cayley_dickson_chain(field, 0)
    if args.char is not None and coeff.field.char != args.char:
        raise SchemaError(f"--char {args.char} differs from the characteristic "
                          f"{coeff.field.char} of {args.algebra}")
    dim = args.n ** 2 * coeff.dim
    if max(dim, args.n ** 2) > MAX_DIM:
        raise SchemaError(f"-n {args.n} needs {args.n ** 2} matrix units and dimension {dim}, "
                          f"above the limit {MAX_DIM}")
    g = gpd.pair_groupoid(args.n)
    alg = sk.build_groupoid_ring(g, coeff)
    result = sk.matrix_units_isomorphism(alg, args.n, coeff)
    report = dict(sk.analyze_algebra(alg))
    report["matrix_units_ok"] = bool(result)
    report["matrix_unit_checks"] = result.checks
    if result.counterexample:
        report["matrix_units_counterexample"] = result.counterexample
    _emit(report, args.json)
    return 0 if result else 1


def cmd_partial_group_algebra(args):
    g = _load_groupoid(args.group)
    bad = gpd.validate(g)
    if bad:
        return _violations_report(bad, args.json)
    field = schema.field(args.char, "--char")
    alg = sk.build_partial_group_algebra(g, field)
    report = dict(sk.analyze_algebra(alg))
    report["semigroup_size"] = alg.dim
    _emit(report, args.json)
    return 0


def cmd_leavitt(args):
    graph = lv.graph_from_dict(_load_json(args.file))
    field = schema.field(args.char, "--char")
    census = lv.graph_analysis(graph)
    model = lv.GrSkewModel(census, field) if census.acyclic else None
    if args.dump and model is not None:
        print(json.dumps(model.algebra.to_dict(), indent=2, sort_keys=True))
        return 0
    out = lv.lpa_characterization(census, model)
    if model is not None:
        out.update(lv.phi_isomorphism_check(model))
    _emit(out, args.json)
    return 0


def cmd_globalize(args):
    pa = _load_action(args.file)
    bad = pact.validate_action(pa)
    if bad:
        return _violations_report(bad, args.json)
    glob = pact.globalize(pa)
    violations = pact.globalization_verify(pa, glob)
    unital = pact.envelope_component_unital(glob)
    report = {
        "envelope_dim": glob.action.ambient.dim,
        "component_dims": {e: glob.action.object_components[e].dim
                           for e in glob.action.groupoid.objects},
        "components_unital": unital,
        "finite_type": pact.is_finite_type(pa),
        "violations": [str(v) for v in violations],
    }
    _emit(report, args.json)
    return 1 if violations else 0


def cmd_maschke(args):
    pa = _load_action(args.file)
    bad = pact.validate_action(pa)
    if bad:
        return _violations_report(bad, args.json)
    _emit(sk.maschke_check(pa), args.json)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="grpd",
        description="Exact computations with partial skew groupoid rings, "
                    "groupoid rings, partial group algebras and Leavitt path algebras.",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("check-groupoid", help="validate a groupoid JSON file")
    s.add_argument("file")
    s.set_defaults(func=cmd_check_groupoid)

    s = sub.add_parser("check-action", help="validate a partial-action JSON file")
    s.add_argument("file")
    s.set_defaults(func=cmd_check_action)

    s = sub.add_parser("analyze", help="analysis report for an algebra JSON file")
    s.add_argument("file")
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("build-skew", help="build and analyze a partial skew groupoid ring")
    s.add_argument("file")
    s.add_argument("--dump", action="store_true", help="print the algebra JSON instead")
    s.set_defaults(func=cmd_build_skew)

    s = sub.add_parser("groupoid-ring", help="groupoid ring over a coefficient algebra")
    s.add_argument("groupoid")
    s.add_argument("algebra")
    s.add_argument("--dump", action="store_true")
    s.set_defaults(func=cmd_groupoid_ring)

    s = sub.add_parser("matrix-ring", help="pair-groupoid ring with matrix-unit verification")
    s.add_argument("-n", type=int, required=True, help="matrix size")
    s.add_argument("--algebra", help="coefficient algebra JSON (default: the base field)")
    s.add_argument("--char", type=int, help="field characteristic (default 0, or that of --algebra)")
    s.set_defaults(func=cmd_matrix_ring)

    s = sub.add_parser("partial-group-algebra", help="K_par(G) in the basis of the groupoid Gamma(G)")
    s.add_argument("group", help="one-object groupoid JSON file")
    s.add_argument("--char", type=int, default=0)
    s.set_defaults(func=cmd_partial_group_algebra)

    s = sub.add_parser("leavitt", help="classify a graph and build its path algebra when finite-dimensional")
    s.add_argument("file")
    s.add_argument("--char", type=int, default=0)
    s.add_argument("--dump", action="store_true", help="print the algebra JSON instead")
    s.set_defaults(func=cmd_leavitt)

    s = sub.add_parser("globalize", help="construct and verify the enveloping globalization")
    s.add_argument("file")
    s.set_defaults(func=cmd_globalize)

    s = sub.add_parser("maschke", help="semisimplicity transfer report for an action")
    s.add_argument("file")
    s.set_defaults(func=cmd_maschke)
    return p


@functools.cache
def _parser():
    """The parser, built on first use and shared by later calls in the process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GrpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
