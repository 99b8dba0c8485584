"""Spans and counts around grpd's functions, installed from outside the package.

`Tracer.install` wraps every public function and method of the layer
modules (and the constructors of their classes outside `exactlin`) and
rebinds each wrapped function wherever a grpd module imported it.  Each
call becomes a span (id, parent, name, start, end).  Self time is the
span's duration minus what its child spans cover; it is summed per layer
(the module) and per group, a named set of functions such as
`algebra.blocks`.  A span without a group of its own inherits its
parent's group when both sit in the same layer, so helpers count towards
the group that called them.  Counts are taken at the same boundaries.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "exactlin", "groupoid", "algebra", "paction", "skewring", "leavitt")

# group -> qualified names (layer.function or layer.Class.method) whose spans start it
GROUPS = {
    "exactlin.rref": ["exactlin.Matrix.rref_pivots"],
    "algebra.multiply": ["algebra.StructureAlgebra.multiply"],
    "algebra.unit": ["algebra.StructureAlgebra.find_unit"],
    "algebra.laws": ["algebra.StructureAlgebra.is_associative",
                     "algebra.StructureAlgebra.is_alternative",
                     "algebra.StructureAlgebra.associator"],
    "algebra.center": ["algebra.StructureAlgebra.center"],
    "algebra.radical": ["algebra.StructureAlgebra.jacobson_radical",
                        "algebra.StructureAlgebra.is_semisimple"],
    "algebra.blocks": ["algebra.StructureAlgebra.wedderburn_blocks"],
    "algebra.roots": ["algebra.polynomial_roots"],
    "paction.validate": ["paction.validate_action"],
    "paction.globalize": ["paction.globalize"],
    "paction.verify": ["paction.globalization_verify"],
    "skewring.build": ["skewring.build_skew_groupoid_ring", "skewring.build_groupoid_ring",
                       "skewring.groupoid_ring_action", "skewring.exel_semigroup",
                       "skewring.semigroup_algebra", "skewring.build_partial_group_algebra"],
    "skewring.maschke": ["skewring.maschke_check"],
    "leavitt.model": ["leavitt.GrSkewModel.__init__", "leavitt.build_gr_skew_ring"],
    "leavitt.oracle": ["leavitt.PathPairModel.__init__", "leavitt.lpa_path_pair_oracle"],
    "leavitt.phi": ["leavitt.phi_isomorphism_check"],
    "leavitt.hs": ["leavitt.hereditary_saturated_subsets"],
}
GROUP_OF = {q: g for g, names in GROUPS.items() for q in names}

# counters: name -> (qualified function, function of the call's arguments giving the increment)
COUNTERS = {
    "exactlin.rref.calls": ("exactlin.Matrix.rref_pivots", lambda a, k: 1),
    "exactlin.rref.cells": ("exactlin.Matrix.rref_pivots", lambda a, k: a[0].nrows * a[0].ncols),
    "algebra.multiply.calls": ("algebra.StructureAlgebra.multiply", lambda a, k: 1),
    "algebra.radical.calls": ("algebra.StructureAlgebra.jacobson_radical", lambda a, k: 1),
    "algebra.table_cells": ("algebra.StructureAlgebra.__init__", lambda a, k: _arg(a, k, 2, "dim") ** 3),
    "algebra.table_nnz": ("algebra.StructureAlgebra.__init__",
                          lambda a, k: sum(1 for row in _arg(a, k, 3, "table")
                                           for v in row for c in v if c)),
    "leavitt.model.calls": ("leavitt.GrSkewModel.__init__", lambda a, k: 1),
}

SPAN_CAP = 400_000  # spans kept for the trace file; later ones are counted, not stored


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child_time, layer, group, span_id]
        self.reset()
        self.names = []
        self.name_ids = {}
        self.spans = []
        self.dropped = 0
        self.record = False
        self.next_id = 0
        self.op = -1

    def reset(self):
        """Zero the self times and counts; spans and names are kept."""
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.group_self = dict.fromkeys(GROUPS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, qual, layer, fn):
        group = GROUP_OF.get(qual)
        hooks = [(c, f) for c, (q, f) in COUNTERS.items() if q == qual]
        if qual not in self.name_ids:
            self.name_ids[qual] = len(self.names)
            self.names.append(qual)
        name_id = self.name_ids[qual]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hooks:
                h0 = clock()
                for c, f in hooks:
                    self.counts[c] += f(args, kwargs)
                if parent is not None:
                    parent[0] += clock() - h0  # counting is not the caller's work
            grp = group
            if grp is None and parent is not None and parent[1] == layer:
                grp = parent[2]
            sid = self.next_id
            self.next_id += 1
            frame = [0.0, layer, grp, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                self.layer_self[layer] += own
                if grp is not None:
                    self.group_self[grp] += own
                if parent is not None:
                    parent[0] += dur
                if self.record:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((sid, parent[3] if parent else -1, name_id,
                                           self.op, t0, t1))
                    else:
                        self.dropped += 1

        return traced

    def install(self, package):
        """Wrap the layer modules of `package`; returns the patches for `uninstall`."""
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        everywhere = [importlib.import_module(package), *mods.values()]
        patches = []
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    w = self._wrap(f"{layer}.{name}", layer, obj)
                    for m in everywhere:
                        for n, o in list(vars(m).items()):
                            if o is obj:
                                patches.append((m, n, o))
                                setattr(m, n, w)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_") and not (attr == "__init__" and layer != "exactlin"):
                            continue
                        qual = f"{layer}.{name}.{attr}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            new = type(raw)(self._wrap(qual, layer, raw.__func__))
                        elif inspect.isfunction(raw):
                            new = self._wrap(qual, layer, raw)
                        else:
                            continue
                        patches.append((obj, attr, raw))
                        setattr(obj, attr, new)
        return patches

    @staticmethod
    def uninstall(patches):
        for owner, name, orig in reversed(patches):
            setattr(owner, name, orig)

    # -- output ------------------------------------------------------------------

    def snapshot(self):
        """Per-layer self times, per-group self times and counts since the last reset."""
        out = {f"{layer}.self_s": t for layer, t in self.layer_self.items()}
        out.update({f"{g}.self_s": t for g, t in self.group_self.items()})
        out.update(self.counts)
        return out

    def dump(self, meta):
        """The recorded spans as JSON-ready data; times in microseconds from the first span."""
        base = self.spans[0][4] if self.spans else 0.0
        spans = [[sid, parent, name, op, round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1)]
                 for sid, parent, name, op, t0, t1 in self.spans]
        return dict(meta, names=self.names, dropped=self.dropped,
                    fields=["id", "parent", "name", "op", "start_us", "end_us"], spans=spans)
