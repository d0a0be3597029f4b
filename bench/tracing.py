"""Span and counter tracing for the per-layer run.

`Tracer.install()` replaces the traced functions and methods of the loaded
`pbw` modules with wrappers.  A module-level function is replaced under
every name that refers to it in any `pbw` module, so a name imported with
`from .rewrite import reduce_bounded` is traced where it is used, not only
where it is defined.  `uninstall()` puts every original back.

A span is `(name, start_ns, end_ns, parent span index, op id)`.  Spans stay
in memory and are written out by the caller at the end.  Self time is a
span's duration minus the time its child spans cover; it is kept per layer
for every wrapped call, including the frequent `Datum.mul`, whose calls are
aggregated rather than stored as spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer, module, attribute): timed, and stored as spans
SPANS = (
    ("datumio.load", "datumio", "load_datum"),
    ("exprs.parse", "exprs", "parse_expr"),
    ("presets.build", "presets", "build_preset"),
    ("criterion.check", "criterion", "check_pbw"),
    ("criterion.bracket_table", "criterion", "bracket_table"),
    ("criterion.elements", "criterion", "jacobi_element"),
    ("criterion.elements", "criterion", "leibniz_le_element"),
    ("criterion.elements", "criterion", "leibniz_self_element"),
    ("criterion.elements", "criterion", "leibniz_gt_element"),
    ("criterion.membership", "criterion", "in_bounded_ideal"),
    ("criterion.span_build", "criterion", "bounded_span_elements"),
    ("criterion.redundancy", "criterion", "generic_redundancies"),
    ("criterion.redundancy", "criterion", "forced_serre_from_power"),
    ("criterion.redundancy", "criterion", "forced_power_from_jacobi"),
    ("oracle.span_contains", "oracle", "span_contains"),
    ("oracle.quotient_rank", "oracle", "quotient_rank"),
    ("rewrite.build_rules", "rewrite", "build_rules"),
    ("rewrite.normal_form", "rewrite", "normal_form"),
    ("rewrite.reduce_bounded", "rewrite", "reduce_bounded"),
    # library calls the CLI makes around the layers above; timed so that
    # cli.overhead_ms leaves them out
    ("algebra.validate", "algebra", "Datum.validate"),
    ("algebra.format", "algebra", "format_poly"),
)

# timed and aggregated, not stored: called too often for one span per call
AGGREGATED = (
    ("algebra.mul", "algebra", "Datum.mul"),
)

# counted only
COUNTED = (
    ("rewrite.find_site", "rewrite", "RuleSystem.find_site"),
    ("rewrite.rewrite_at", "rewrite", "RuleSystem.rewrite_at"),
    ("algebra.add_term", "algebra", "NCPoly.add_term"),
    ("scalars.mul", "scalars", "Cyclo.__mul__"),
    ("scalars.mul", "scalars", "Fp.__mul__"),
    ("scalars.add", "scalars", "Cyclo.__add__"),
    ("scalars.add", "scalars", "Cyclo.__sub__"),
    ("scalars.add", "scalars", "Fp.__add__"),
    ("scalars.add", "scalars", "Fp.__sub__"),
    ("scalars.inverse", "scalars", "Cyclo.inverse"),
    ("scalars.inverse", "scalars", "Fp.inverse"),
    ("oracle.echelon_insert", "oracle", "Echelon.insert"),
)

# per-layer metrics: name -> unit; see README.md for what each should move
LAYER_METRICS = {
    "criterion.fallback_share": "ratio",
    "criterion.span_build_ms": "ms/op",
    "criterion.span_elements": "count/op",
    "oracle.span_contains_ms": "ms/op",
    "rewrite.find_site_calls": "count/op",
    "rewrite.rewrite_steps": "count/op",
    "rewrite.site_hit_share": "ratio",
    "rewrite.normal_form_ms": "ms/op",
    "rewrite.reduce_bounded_ms": "ms/op",
    "rewrite.build_rules_ms": "ms/op",
    "criterion.bracket_table_ms": "ms/op",
    "criterion.elements_ms": "ms/op",
    "criterion.redundancy_ms": "ms/op",
    "algebra.mul_calls": "count/op",
    "algebra.mul_ms": "ms/op",
    "algebra.term_pairs": "count/op",
    "algebra.add_term_calls": "count/op",
    "scalars.mul_calls": "count/op",
    "scalars.add_calls": "count/op",
    "scalars.inverse_calls": "count/op",
    "oracle.quotient_rank_ms": "ms/op",
    "oracle.echelon_inserts": "count/op",
    "oracle.echelon_useful_share": "ratio",
    "datumio.load_ms": "ms/op",
    "exprs.parse_ms": "ms/op",
    "cli.overhead_ms": "ms/op",
    "presets.build_ms": "ms",
    "trace.overhead_share": "ratio",
}


def _owner_and_name(module, attr):
    owner, _, name = attr.rpartition(".")
    return (getattr(module, owner) if owner else module), name


PACKAGE = "pbw"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = "setup"
        self._stack = [[0, None]]       # [child time ns, enclosing span index]
        self._patched = []              # (owner, name, original)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def reset(self):
        """Clear the per-layer totals and counts in place (the wrappers hold
        them); spans are kept."""
        for table in (self.total_ns, self.self_ns, self.calls, self.counts):
            table.clear()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer, fn, store, observe=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        total, own, calls = self.total_ns, self.self_ns, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if store:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[1]
            frame = [0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                total[layer] += dur
                own[layer] += dur - frame[0]
                calls[layer] += 1
                if store:
                    spans[index] = (layer, t0, t1, parent[1], self.op_id)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, layer, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self):
        c = self.counts

        def membership(args, result):
            c["criterion.conditions"] += 1
            c["criterion.fallbacks"] += bool(result[2])

        def span_build(args, result):
            c["criterion.span_elements"] += len(result)

        def mul(args, result):
            c["algebra.term_pairs"] += len(args[1].terms) * len(args[2].terms)

        def insert(args, result):
            c["oracle.echelon_useful"] += bool(result)

        return {
            "criterion.membership": membership,
            "criterion.span_build": span_build,
            "algebra.mul": mul,
            "oracle.echelon_insert": insert,
        }

    # -- installing ------------------------------------------------------------

    @staticmethod
    def _modules():
        """The loaded package modules by short name ("" for the package)."""
        return {
            name[len(PACKAGE) + 1:]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".")
        } | {"": sys.modules[PACKAGE]}

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        observers = self._observers()
        targets = (
            [(layer, m, a, "span") for layer, m, a in SPANS]
            + [(layer, m, a, "aggregate") for layer, m, a in AGGREGATED]
            + [(layer, m, a, "count") for layer, m, a in COUNTED]
        )
        for layer, mod_name, attr, how in targets:
            owner, name = _owner_and_name(mods[mod_name], attr)
            original = vars(owner)[name]
            observe = observers.get(layer)
            if how == "count":
                wrapper = self._counted(layer, original, observe)
            else:
                wrapper = self._timed(layer, original, how == "span", observe)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        """Restore every original; raises if one is not back in place."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        wrong = [name for owner, name, original in self._patched if vars(owner)[name] is not original]
        self._patched = []
        if wrong:
            raise RuntimeError(f"originals not restored: {wrong}")

    # -- measuring ops -----------------------------------------------------------

    def run_op(self, op_id, layer, fn, *args):
        """Call fn(*args) as the root span of one op."""
        self.op_id = op_id
        return self._timed(layer, fn, True)(*args)

    def metrics(self, n_ops, n_cli_ops, presets_build_ns, overhead_share):
        """The per-layer metrics of LAYER_METRICS, times and counts per op."""
        t, c = self.total_ns, self.counts

        def per_op(value, n=n_ops):
            return value / n if n else 0.0

        def ms(layer):
            return per_op(t[layer] / 1e6)

        def share(num, den):
            return num / den if den else 0.0

        values = {
            "criterion.fallback_share": share(c["criterion.fallbacks"], c["criterion.conditions"]),
            "criterion.span_build_ms": ms("criterion.span_build"),
            "criterion.span_elements": per_op(c["criterion.span_elements"]),
            "oracle.span_contains_ms": ms("oracle.span_contains"),
            "rewrite.find_site_calls": per_op(c["rewrite.find_site"]),
            "rewrite.rewrite_steps": per_op(c["rewrite.rewrite_at"]),
            "rewrite.site_hit_share": share(c["rewrite.rewrite_at"], c["rewrite.find_site"]),
            "rewrite.normal_form_ms": ms("rewrite.normal_form"),
            "rewrite.reduce_bounded_ms": ms("rewrite.reduce_bounded"),
            "rewrite.build_rules_ms": ms("rewrite.build_rules"),
            "criterion.bracket_table_ms": ms("criterion.bracket_table"),
            "criterion.elements_ms": ms("criterion.elements"),
            "criterion.redundancy_ms": ms("criterion.redundancy"),
            "algebra.mul_calls": per_op(self.calls["algebra.mul"]),
            "algebra.mul_ms": ms("algebra.mul"),
            "algebra.term_pairs": per_op(c["algebra.term_pairs"]),
            "algebra.add_term_calls": per_op(c["algebra.add_term"]),
            "scalars.mul_calls": per_op(c["scalars.mul"]),
            "scalars.add_calls": per_op(c["scalars.add"]),
            "scalars.inverse_calls": per_op(c["scalars.inverse"]),
            "oracle.quotient_rank_ms": ms("oracle.quotient_rank"),
            "oracle.echelon_inserts": per_op(c["oracle.echelon_insert"]),
            "oracle.echelon_useful_share": share(c["oracle.echelon_useful"], c["oracle.echelon_insert"]),
            "datumio.load_ms": ms("datumio.load"),
            "exprs.parse_ms": ms("exprs.parse"),
            "cli.overhead_ms": per_op(self.self_ns["op.cli"] / 1e6, n_cli_ops),
            "presets.build_ms": presets_build_ns / 1e6,
            "trace.overhead_share": overhead_share,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def summary(self):
        """Calls, total and self milliseconds per timed layer."""
        return {
            layer: {
                "calls": self.calls[layer],
                "total_ms": self.total_ns[layer] / 1e6,
                "self_ms": self.self_ns[layer] / 1e6,
            }
            for layer in sorted(self.total_ns)
        }
