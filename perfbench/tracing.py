"""Traced passes: spans and counts recorded around calls into each layer.

`Tracer.install` replaces the public functions and methods listed in
TARGETS by wrappers, in every hilbtaut namespace that bound them (for
example `chern.gamma_action` and `transfer.mult_D` as well as
`tautmod.gamma_action`), so recursive and cross-module calls all pass
through a wrapper.  Nothing under src/ changes.

Each wrapped call is one span: trace id (the job), span id, parent span,
name, start and end.  Spans are kept in memory and written out once, at
the end of the pass.  A span's self time is its duration minus the time its
child spans cover, and a layer's self time is the sum over its span names
(the layer is the name's first dotted component).  Work done by the probes
that count terms is charged to `trace.probe`, not to any layer.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute or Class.attribute, span name).  Several targets may
# share one span name; aliases such as CharPoly.__radd__ are the same
# function object as their original and are patched with it.
TARGETS = [
    ("charpoly", "CharPoly.__init__", "charpoly.new"),
    ("charpoly", "CharPoly.__add__", "charpoly.add"),
    ("charpoly", "CharPoly.__mul__", "charpoly.mul"),
    ("charpoly", "CharPoly.__sub__", "charpoly.sub"),
    ("charpoly", "CharPoly.__rsub__", "charpoly.sub"),
    ("charpoly", "CharPoly.__neg__", "charpoly.neg"),
    ("charpoly", "CharPoly.__truediv__", "charpoly.div"),
    ("charpoly", "CharPoly.__pow__", "charpoly.pow"),
    ("charpoly", "CharPoly.substitute", "charpoly.substitute"),
    ("basering", "Ring.normalize_monomial", "basering.normalize"),
    ("basering", "BaseClass.__add__", "basering.baseclass_ops"),
    ("basering", "BaseClass.__mul__", "basering.baseclass_ops"),
    ("basering", "make_total_space_ring", "basering.make_ring"),
    ("basering", "make_boundary_ring", "basering.make_ring"),
    ("basering", "make_node_base_ring", "basering.make_ring"),
    ("partitions", "Distribution.__init__", "partitions.distribution"),
    ("partitions", "aut_count", "partitions.aut_count"),
    ("partitions", "enumerate_distributions", "partitions.enumerate"),
    ("family", "FamilyDescriptor.__init__", "family.new"),
    ("family", "FamilyDescriptor.boundary_family", "family.boundary_family"),
    ("family", "fiber_integral", "family.fiber_integral"),
    ("family", "integrate_classes", "family.integrate_classes"),
    ("family", "symbolic_family", "family.symbolic_family"),
    ("tautmod", "gamma_action", "tautmod.gamma_action"),
    ("tautmod", "gamma_power", "tautmod.gamma_power"),
    ("tautmod", "gamma_as_class", "tautmod.gamma_as_class"),
    ("tautmod", "TautClass.add_diag", "tautmod.add_diag"),
    ("tautmod", "TautClass.__add__", "tautmod.class_add"),
    ("tautmod", "TautClass.scale", "tautmod.scale"),
    ("tautmod", "TautClass.from_twists", "tautmod.from_twists"),
    ("tautmod", "mult_D", "tautmod.mult_D"),
    ("tautmod", "norm_mult", "tautmod.norm_mult"),
    ("tautmod", "base_monomial_mult", "tautmod.base_monomial_mult"),
    ("tautmod", "integrate", "tautmod.integrate"),
    ("tautmod", "to_data", "tautmod.to_data"),
    ("tautmod", "from_data", "tautmod.from_data"),
    ("transfer", "transfer", "transfer.transfer"),
    ("transfer", "punctual_chern", "transfer.punctual"),
    ("transfer", "punctual_transfer", "transfer.punctual"),
    ("transfer", "segre_contact_step", "transfer.punctual"),
    ("transfer", "integrate_punctual_degree2", "transfer.punctual"),
    ("transfer", "pluecker_s2", "transfer.pluecker"),
    ("transfer", "pluecker_c2", "transfer.pluecker"),
    ("chern", "push_monomial", "chern.push_monomial"),
    ("chern", "pushdown", "chern.pushdown"),
    ("chern", "integrate_w", "chern.integrate_w"),
    ("chern", "w3_monomial", "chern.w3_monomial"),
    ("chern", "chern_splitting", "chern.chern_splitting"),
    ("chern", "chern_class_on_hilb", "chern.chern_class_on_hilb"),
    ("chern", "chern_numbers_w3", "chern.chern_numbers_w3"),
    ("chern", "trisecant_count", "chern.trisecant_count"),
    ("chern", "trisecant_grand_total", "chern.trisecant_grand_total"),
    ("chern", "single_curve_trisecant_scroll", "chern.single_curve_trisecant_scroll"),
    ("chern", "double_point_class", "chern.double_point_class"),
    ("tensym", "discriminant_op", "tensym.discriminant_op"),
    ("tensym", "u_omega_total", "tensym.u_omega_total"),
    ("tensym", "union_op", "tensym.union_op"),
    ("tensym", "interior_mult", "tensym.interior_mult"),
    ("tensym", "TensorClass.simple", "tensym.simple"),
    ("tensym", "TensorClass.__add__", "tensym.tensor_add"),
    ("oracle", "ordered_disc", "oracle.ordered_disc"),
    ("oracle", "ordered_union", "oracle.ordered_union"),
    ("oracle", "symmetrize", "oracle.symmetrize"),
    ("oracle", "OrderedTensor.pure", "oracle.pure"),
    ("oracle", "OrderedTensor.__add__", "oracle.tensor_add"),
    ("cli", "main", "cli.main"),
    ("cli", "load_descriptor", "cli.load_descriptor"),
]

JOB = "job"  # span name of one whole job; its self time is `other.self_s`
PROBE = "trace.probe"
SECTORS = ("diag", "scroll", "section")
SPAN_FIELDS = ("trace_id", "span_id", "parent_id", "name", "start_s", "end_s")


def payload_depth(tc):
    """Nesting depth of boundary payloads: 0 for a purely diagonal class."""
    depth = 0
    for sector in (tc.scroll, tc.section):
        for payload in sector.values():
            depth = max(depth, 1 + payload_depth(payload))
    return depth


class Tracer:
    """Spans, call counts and probe counts of one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (child name, parent name) -> calls
        self.counts = Counter()  # terms and depths seen by the probes
        self.gamma_keys = set()
        self.spans = array("d")  # SPAN_FIELDS, flattened
        self.missing = []
        self._patched = []  # (namespace, attribute, original value)
        self._stack = []  # frames [name, start, child time, span id]
        self._next_span = 0
        self.trace_id = -1

    # -- recording ----------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, probe=None):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges
        spans = self.spans
        name_id = self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_span
            self._next_span = span_id + 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_s[name] += dur - frame[2]
                calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                    edges[name, parent[0]] += 1
                spans.extend((self.trace_id, span_id,
                              parent[3] if parent is not None else -1,
                              name_id, frame[1], end))
            if probe is not None:
                t = clock()
                probe(args, result)
                spent = clock() - t
                self_s[PROBE] += spent
                if parent is not None:
                    parent[2] += spent
            return result

        return wrapper

    def run_job(self, trace_id, fn):
        """Run one job as the root span of its own trace."""
        self.trace_id = trace_id
        return self.wrap(JOB, fn)()

    # -- probes ---------------------------------------------------------------------

    def _probe_gamma(self, args, out):
        tc = args[0]
        for sector in SECTORS:
            self.counts["gamma.in." + sector] += len(getattr(tc, sector))
            self.counts["gamma.out." + sector] += len(getattr(out, sector))
        for key in tc.diag:
            # the family object itself, not its id: a freed family's id is reused
            self.gamma_keys.add((tc.fam, tc.m, key))
        depth = max(payload_depth(tc), payload_depth(out))
        self.counts["payload_depth.max"] = max(self.counts["payload_depth.max"], depth)

    def _probe_transfer(self, args, out):
        self.counts["transfer.out"] += len(out.diag) + len(out.scroll) + len(out.section)
        depth = payload_depth(out)
        self.counts["payload_depth.max"] = max(self.counts["payload_depth.max"], depth)

    # -- patching -------------------------------------------------------------------

    def install(self, mods):
        """Patch every target in every hilbtaut namespace that bound it."""
        probes = {"tautmod.gamma_action": self._probe_gamma,
                  "transfer.transfer": self._probe_transfer}
        owners = list(mods.values())
        for mod in mods.values():
            owners += [v for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
        done = set()
        for mod_name, attr, name in TARGETS:
            owner = mods.get(mod_name)
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(parts[-1]) if owner is not None else None
            if raw is None:
                self.missing.append("%s.%s" % (mod_name, attr))
                continue
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            if id(original) in done:
                continue
            done.add(id(original))
            wrapped = self.wrap(name, original, probes.get(name))
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        new = wrapped
                    elif isinstance(value, staticmethod) and value.__func__ is original:
                        new = staticmethod(wrapped)
                    else:
                        continue
                    self._patched.append((target, key, value))
                    setattr(target, key, new)

    def uninstall(self):
        for target, key, value in reversed(self._patched):
            setattr(target, key, value)
        self._patched.clear()

    # -- results --------------------------------------------------------------------

    def layer_self_s(self, layer):
        return sum((s for n, s in self.self_s.items() if n.split(".")[0] == layer), 0.0)

    def layer_metrics(self):
        """Per-layer metrics of the pass (counts exact, self times in seconds)."""
        c, s, k = self.calls, self.self_s, self.counts
        gamma_in_diag = k["gamma.in.diag"]
        inserted = self.edges["tautmod.add_diag", "tautmod.gamma_action"]
        out = {
            "charpoly.new.calls": c["charpoly.new"],
            "charpoly.add.calls": c["charpoly.add"],
            "charpoly.mul.calls": c["charpoly.mul"],
            "basering.normalize.calls": c["basering.normalize"],
            "basering.baseclass_ops.calls": c["basering.baseclass_ops"],
            "partitions.distribution.calls": c["partitions.distribution"],
            "family.fiber_integral.calls": c["family.fiber_integral"],
            "family.fiber_integral.self_s": s["family.fiber_integral"],
            "family.boundary_family.calls": c["family.boundary_family"],
            "family.boundary_family.built": self.edges["family.new", "family.boundary_family"],
            "tautmod.gamma_action.calls": c["tautmod.gamma_action"],
            "tautmod.gamma_action.self_s": s["tautmod.gamma_action"],
        }
        for sector in SECTORS:
            out["tautmod.gamma_action.terms_in." + sector] = k["gamma.in." + sector]
        for sector in SECTORS:
            out["tautmod.gamma_action.terms_out." + sector] = k["gamma.out." + sector]
        out.update({
            "tautmod.gamma_action.distinct_key_frac":
                len(self.gamma_keys) / gamma_in_diag if gamma_in_diag else 0.0,
            "tautmod.add_diag.calls": c["tautmod.add_diag"],
            "tautmod.add_diag.kept_ratio":
                k["gamma.out.diag"] / inserted if inserted else 0.0,
            "tautmod.class_add.calls": c["tautmod.class_add"],
            "tautmod.class_add.self_s": s["tautmod.class_add"],
            "tautmod.mult_D.self_s": s["tautmod.mult_D"],
            "tautmod.integrate.calls": c["tautmod.integrate"],
            "tautmod.integrate.self_s": s["tautmod.integrate"],
            "tautmod.payload_depth.max": k["payload_depth.max"],
            "transfer.transfer.calls": c["transfer.transfer"],
            "transfer.transfer.self_s": s["transfer.transfer"],
            "transfer.transfer.terms_out": k["transfer.out"],
            "transfer.punctual.self_s": s["transfer.punctual"],
            "chern.push_monomial.calls": c["chern.push_monomial"],
            "chern.push_monomial.self_s": s["chern.push_monomial"],
            "chern.pushdown.self_s": s["chern.pushdown"],
            "tensym.discriminant_op.calls": c["tensym.discriminant_op"],
            "oracle.ordered_disc.calls": c["oracle.ordered_disc"],
            "oracle.tensor_add.calls": c["oracle.tensor_add"],
            "oracle.ordered_disc.self_s": s["oracle.ordered_disc"],
            "cli.invocations": c["cli.main"],
            "cli.load_descriptor.self_s": s["cli.load_descriptor"],
            "other.self_s": s[JOB],
        })
        for layer in ("charpoly", "basering", "partitions", "family", "tautmod",
                      "transfer", "chern", "tensym", "oracle", "cli"):
            out[layer + ".self_s"] = self.layer_self_s(layer)
        out["trace.probe_s"] = s[PROBE]
        return out

    def write_spans(self, path):
        """Write the spans gzipped: a JSON header line, then one span a line.

        A span line holds the SPAN_FIELDS as numbers; `name` indexes the
        header's name list and `parent_id` is -1 for a job's root span.
        """
        width = len(SPAN_FIELDS)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "names": self.names,
                                 "time": "seconds on the pass's perf_counter"}) + "\n")
            data = self.spans
            for i in range(0, len(data), width):
                fh.write("%d %d %d %d %.9f %.9f\n" % tuple(data[i:i + width]))
