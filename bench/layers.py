"""The library boundaries the traced run wraps, and the per-layer metrics
derived from their spans.

Each public function is wrapped wherever a module of the package binds it
(``from .trees import canonical_code`` gives census and characterize their
own binding), so calls made inside the library are seen as well as the
benchmark's own.  ``Tree.__post_init__`` and ``Tree.without`` are wrapped on
the class.  Nothing under ``src/`` is edited; ``Tracer.restore`` puts every
original back.
"""

from __future__ import annotations

from treedom import census, characterize, generators, solvers, trees


def _add(key, amount):
    def hook(tracer, args, result, exc):
        if exc is None:
            tracer.count(key, amount(args, result))
    return hook


def _decompose_hook(tracer, args, result, exc):
    if exc is None and result is not None:
        tracer.count("characterize.decompose_to_p4.members")
        tracer.count("characterize.decompose_to_p4.steps", len(result.steps))
        tracer.count("characterize.decompose_to_p4.fallbacks", int(result.used_fallback))


# span name -> (functions, hook); every function in the tuple shares the span
FUNCTION_SPANS = {
    "trees.canonical_code": (
        (trees.canonical_code,),
        _add("trees.canonical_code.bytes", lambda a, r: len(r))),
    "trees.structure": ((trees.structure,), None),
    "trees.diameter": ((trees.diameter,), None),
    "trees.distance_matrix": (
        (trees.distance_matrix,),
        _add("trees.distance_matrix.cells", lambda a, r: a[0].n * a[0].n)),
    "trees.parse_edge_list": ((trees.parse_edge_list,), None),
    "solvers.invariant_value": ((solvers.invariant_value,), None),
    "solvers.witness": (
        (solvers.independence_number, solvers.total_domination_number,
         solvers.tcoi_number),
        _add("solvers.witness.vertices", lambda a, r: a[0].n)),
    "solvers.invariant_report": ((solvers.invariant_report,), None),
    "solvers.in_some_optimal_set": ((solvers.in_some_optimal_set,), None),
    "solvers.subsets": (
        (solvers.optimal_sets, solvers.all_tcoi_sets),
        _add("solvers.subsets.masks", lambda a, r: 1 << a[0].n)),
    "solvers.predicates": ((solvers.is_tcoi_set, solvers.is_minimal_tcoi_set), None),
    "characterize.family_checks": (
        (characterize.attains_lower_bound, characterize.attains_upper_bound,
         characterize.structural_upper_bound_check),
        None),
    "characterize.decompose_to_p4": ((characterize.decompose_to_p4,), _decompose_hook),
    "characterize.verify_certificate": ((characterize.verify_certificate,), None),
    "characterize.certificate_text": (
        (characterize.certificate_to_text, characterize.certificate_from_text), None),
    "generators.apply_operation": ((generators.apply_operation,), None),
    "census.enumerate_trees": (
        (census.enumerate_trees,),
        _add("census.enumerate_trees.trees_out", lambda a, r: len(r))),
    "census.classify": ((census.classify,), None),
    "census.subset_checks": (
        (census.check_distance_remark, census.check_minimality_agreement), None),
    "census.records_to_csv": ((census.records_to_csv,), None),
}

METHOD_SPANS = {
    "trees.Tree": (trees.Tree, "__post_init__"),
    "trees.Tree.without": (trees.Tree, "without"),
}


def install(tracer):
    for name, (cls, attr) in METHOD_SPANS.items():
        tracer.patch_method(cls, attr, name)
    for name, (fns, hook) in FUNCTION_SPANS.items():
        for fn in fns:
            tracer.patch_function("treedom", fn, name, hook)


# (metric, unit, better) in the order the traced run prints them
PER_LAYER = [
    ("trees.Tree.calls", "count", "lower"),
    ("trees.Tree.self_s", "s", "lower"),
    ("trees.Tree.without.calls", "count", "lower"),
    ("trees.Tree.without.self_s", "s", "lower"),
    ("trees.Tree.without.rejected", "count", "lower"),
    ("trees.canonical_code.calls", "count", "lower"),
    ("trees.canonical_code.self_s", "s", "lower"),
    ("trees.canonical_code.bytes", "bytes", "lower"),
    ("trees.structure.calls", "count", "lower"),
    ("trees.structure.self_s", "s", "lower"),
    ("trees.diameter.calls", "count", "lower"),
    ("trees.diameter.self_s", "s", "lower"),
    ("trees.distance_matrix.calls", "count", "lower"),
    ("trees.distance_matrix.self_s", "s", "lower"),
    ("trees.distance_matrix.cells", "count", "lower"),
    ("trees.parse_edge_list.calls", "count", "lower"),
    ("trees.parse_edge_list.self_s", "s", "lower"),
    ("solvers.invariant_value.calls", "count", "lower"),
    ("solvers.invariant_value.self_s", "s", "lower"),
    ("solvers.invariant_value.per_tree", "calls/tree", "lower"),
    ("solvers.witness.calls", "count", "lower"),
    ("solvers.witness.self_s", "s", "lower"),
    ("solvers.witness.vertices", "count", "lower"),
    ("solvers.invariant_report.calls", "count", "lower"),
    ("solvers.invariant_report.self_s", "s", "lower"),
    ("solvers.in_some_optimal_set.calls", "count", "lower"),
    ("solvers.in_some_optimal_set.self_s", "s", "lower"),
    ("solvers.subsets.calls", "count", "lower"),
    ("solvers.subsets.self_s", "s", "lower"),
    ("solvers.subsets.masks", "count", "lower"),
    ("solvers.predicates.calls", "count", "lower"),
    ("solvers.predicates.self_s", "s", "lower"),
    ("characterize.family_checks.calls", "count", "lower"),
    ("characterize.family_checks.self_s", "s", "lower"),
    ("characterize.decompose_to_p4.calls", "count", "lower"),
    ("characterize.decompose_to_p4.self_s", "s", "lower"),
    ("characterize.decompose_to_p4.members", "count", "higher"),
    ("characterize.decompose_to_p4.steps", "count", "lower"),
    ("characterize.decompose_to_p4.fallback_ratio", "ratio", "lower"),
    ("characterize.verify_certificate.calls", "count", "lower"),
    ("characterize.verify_certificate.self_s", "s", "lower"),
    ("characterize.verify_certificate.failed", "count", "lower"),
    ("characterize.certificate_text.self_s", "s", "lower"),
    ("generators.apply_operation.calls", "count", "lower"),
    ("generators.apply_operation.self_s", "s", "lower"),
    ("generators.apply_operation.rejected", "count", "lower"),
    ("census.enumerate_trees.calls", "count", "lower"),
    ("census.enumerate_trees.self_s", "s", "lower"),
    ("census.enumerate_trees.trees_out", "count", "higher"),
    ("census.enumerate_trees.yield_ratio", "ratio", "higher"),
    ("census.classify.calls", "count", "lower"),
    ("census.classify.self_s", "s", "lower"),
    ("census.subset_checks.calls", "count", "lower"),
    ("census.subset_checks.self_s", "s", "lower"),
    ("census.records_to_csv.self_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]

# span-level figures exposed under another name
_RAISED_AS = {
    "trees.Tree.without": "rejected",
    "characterize.verify_certificate": "failed",
    "generators.apply_operation": "rejected",
}


def pass_metrics(tracer, first, counters, trees_in_pass):
    """Per-layer figures of one traced pass: the spans from index first on
    and the counters the pass added."""
    out = {}
    for name, rec in tracer.summary(first).items():
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.self_s"] = rec["self_s"]
        if name in _RAISED_AS:
            out[f"{name}.{_RAISED_AS[name]}"] = rec["raised"]
    out.update(counters)
    members = counters.get("characterize.decompose_to_p4.members", 0)
    fallbacks = counters.get("characterize.decompose_to_p4.fallbacks", 0)
    out["characterize.decompose_to_p4.fallback_ratio"] = fallbacks / members if members else 0.0
    out["solvers.invariant_value.per_tree"] = out["solvers.invariant_value.calls"] / trees_in_pass
    built = tracer.count_under("trees.Tree", "census.enumerate_trees", first)
    trees_out = counters.get("census.enumerate_trees.trees_out", 0)
    out["census.enumerate_trees.yield_ratio"] = trees_out / built if built else 0.0
    return {m: out.get(m, 0) for m, _, _ in PER_LAYER if not m.startswith("bench.")}
