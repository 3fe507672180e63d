"""Per-layer metrics: what the traced run wraps, what it reports, and which
end-to-end metric each layer metric is expected to move on which workload.

The mapping is written down before any optimisation is measured, so that a
later change can be held to it.  ``pass_ref``, on the last line of every
run, moves with the workload-specific names in ``moves``, which are printed
on the detail line of that workload.
"""

from __future__ import annotations

from cycbrauer import criterion, deltapoly, diagrams, gram, linalg, oracle, \
    partitions, scalars

ORACLE, CONCORD, CLOSED = "oracle-cold", "concord-sweep", "closed-form"

_TABLE = {"moves": {ORACLE: ["oracle_verdict_s.*", "peak_rss_mb"]},
          "unchanged_on": [CONCORD, CLOSED]}
_TRACE = {"moves": {ORACLE: ["oracle_verdict_s.*"],
                    CONCORD: ["concord_points_per_s"]},
          "unchanged_on": [CLOSED]}
_RANK = {"moves": {ORACLE: ["oracle_verdict_s.radical (certificate)",
                            "oracle_verdict_s.full-rank (single pass)"],
                   CONCORD: ["concord_points_per_s"]},
         "unchanged_on": [CLOSED]}
_CROSS = {"moves": {CONCORD: ["concord_points_per_s (~7%)"],
                    ORACLE: ["oracle_verdict_s.* (~3%)"]},
          "unchanged_on": []}
_CRITERION = {"moves": {CLOSED: ["decide_per_s"]},
              "unchanged_on": [ORACLE]}
_GRAM = {"moves": {CLOSED: ["gram_forms_s"]},
         "unchanged_on": [ORACLE, CONCORD]}
_TRACING = {"moves": {}, "unchanged_on": []}

RANK_METHODS = ("modular-full-rank", "modular-certified-kernel", "exact-gauss")

# name -> (unit, mapping); every traced run reports every entry, with 0 for
# a layer the workload never enters
LAYER_METRICS = {
    "diagrams.multiply_calls": ("count", _TABLE),
    "diagrams.multiply_s": ("s", _TABLE),
    "oracle.table_s": ("s", _TABLE),
    "oracle.table_self_s": ("s", _TABLE),
    "oracle.table_entries": ("count", _TABLE),
    "oracle.trace_s": ("s", _TRACE),
    "scalars.cyc_mul_calls": ("count", _TRACE),
    "scalars.cyc_add_calls": ("count", _TRACE),
    "oracle.blocks_s": ("s", _RANK),
    "oracle.rank_s": ("s", _RANK),
    "oracle.rank_self_s": ("s", _RANK),
    **{"oracle.rank_method." + m: ("count", _RANK) for m in RANK_METHODS},
    "linalg.rref_calls": ("count", _RANK),
    "linalg.rref_rows": ("count", _RANK),
    "linalg.rref_s": ("s", _RANK),
    "linalg.rref_calls_per_verdict": ("ratio", _RANK),
    "linalg.reconstruct_calls": ("count", _RANK),
    "linalg.reconstruct_failed": ("count", _RANK),
    "oracle.cross_check_s": ("s", _CROSS),
    "gram.cell_gram_s": ("s", _CROSS),
    "linalg.det_s": ("s", _CROSS),
    "oracle.verdicts": ("count", _TRACING),
    "oracle.verdict_self_s": ("s", _TRACING),
    **{"criterion.decide_s." + v: ("s", _CRITERION) for v in criterion.VARIANTS},
    "criterion.decide_calls": ("count", _CRITERION),
    "criterion.g_mu_calls": ("count", _CRITERION),
    "criterion.bar_deltas_calls": ("count", _CRITERION),
    "criterion.bar_deltas_per_decide": ("ratio", _CRITERION),
    "partitions.admissible_set_s": ("s", _CRITERION),
    "partitions.multipartitions_s": ("s", _CRITERION),
    "gram.gram_big_s": ("s", _GRAM),
    "gram.equivariance_s": ("s", _GRAM),
    "gram.single_box_s": ("s", _GRAM),
    "deltapoly.mul_calls": ("count", _GRAM),
    "trace.untraced_pass_s": ("s", _TRACING),
    "trace.traced_pass_s": ("s", _TRACING),
    "trace.overhead_s": ("s", _TRACING),
}

# metrics that must repeat exactly between two traced runs of one seed
EXACT = tuple(name for name in LAYER_METRICS
              if name.endswith(("_calls", "_entries", "_rows"))
              or ".rank_method." in name or name.endswith("reconstruct_failed")
              or name == "oracle.verdicts")


def _count_entries(tracer, args, kwargs, result):
    tracer.counts["oracle.table_entries"] += len(args[0].products)


def _count_method(tracer, args, kwargs, result):
    tracer.counts["oracle.rank_method." + result[1]] += 1


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["linalg.rref_rows"] += len(args[0])


def _count_failed(tracer, args, kwargs, result):
    if result is None:
        tracer.counts["linalg.reconstruct_failed"] += 1


def _decide_name(args, kwargs):
    variant = args[4] if len(args) > 4 else kwargs.get("variant", "printed-z")
    return "criterion.decide." + variant


def register(tracer):
    """Wrap the library's layer boundaries (from the outside)."""
    tracer.span(oracle, "semisimple_verdict", "oracle.verdict")
    tracer.span(oracle, "concordance_sweep", "oracle.sweep")
    tracer.span(oracle.StructureTable, "__init__", "oracle.table",
                after=_count_entries)
    tracer.span(oracle, "trace_matrix", "oracle.trace")
    tracer.span(oracle, "_to_rational_blocks", "oracle.blocks")
    tracer.span(oracle, "_rank_exact_certified", "oracle.rank",
                after=_count_method)
    tracer.span(oracle, "_cell_det_values", "oracle.cross_check")
    tracer.span(linalg, "rref_mod_p", "linalg.rref", after=_count_rows)
    tracer.counter(linalg, "rational_reconstruct", "linalg.reconstruct",
                   after=_count_failed)
    tracer.span(linalg, "gauss_det", "linalg.det")
    tracer.span(linalg, "minor_det", "linalg.det")
    tracer.timer(diagrams, "multiply_diagrams", "diagrams.multiply")
    tracer.counter(scalars.CycElt, "__mul__", "scalars.cyc_mul")
    tracer.counter(scalars.CycElt, "__add__", "scalars.cyc_add")
    tracer.counter(deltapoly.DeltaPoly, "__mul__", "deltapoly.mul")
    tracer.span(criterion, "decide", _decide_name)
    tracer.timer(criterion, "g_mu", "criterion.g_mu")
    tracer.counter(criterion, "bar_deltas", "criterion.bar_deltas")
    tracer.timer(partitions, "admissible_set", "partitions.admissible_set")
    tracer.timer(partitions, "multipartitions", "partitions.multipartitions")
    tracer.span(gram, "cell_gram", "gram.cell_gram")
    tracer.span(gram, "gram_big", "gram.gram_big")
    tracer.span(gram, "shape_check", "gram.shape_check")
    tracer.span(gram, "equivariance_check", "gram.equivariance")
    tracer.span(gram, "single_box_gram", "gram.single_box")


def layer_values(tracer, untraced_s, traced_s):
    """Every entry of LAYER_METRICS from one traced pass."""
    c, sec, own = tracer.counts, tracer.seconds, tracer.self_seconds
    decides = sum(c["criterion.decide.%s_calls" % v] for v in criterion.VARIANTS)
    verdicts = c["oracle.verdict_calls"]
    values = {
        "diagrams.multiply_calls": c["diagrams.multiply_calls"],
        "diagrams.multiply_s": sec["diagrams.multiply"],
        "oracle.table_s": sec["oracle.table"],
        "oracle.table_self_s": own["oracle.table"],
        "oracle.table_entries": c["oracle.table_entries"],
        "oracle.trace_s": sec["oracle.trace"],
        "scalars.cyc_mul_calls": c["scalars.cyc_mul_calls"],
        "scalars.cyc_add_calls": c["scalars.cyc_add_calls"],
        "oracle.blocks_s": sec["oracle.blocks"],
        "oracle.rank_s": sec["oracle.rank"],
        "oracle.rank_self_s": own["oracle.rank"],
        "linalg.rref_calls": c["linalg.rref_calls"],
        "linalg.rref_rows": c["linalg.rref_rows"],
        "linalg.rref_s": sec["linalg.rref"],
        "linalg.rref_calls_per_verdict":
            c["linalg.rref_calls"] / verdicts if verdicts else 0.0,
        "linalg.reconstruct_calls": c["linalg.reconstruct_calls"],
        "linalg.reconstruct_failed": c["linalg.reconstruct_failed"],
        "oracle.cross_check_s": sec["oracle.cross_check"],
        "gram.cell_gram_s": sec["gram.cell_gram"],
        "linalg.det_s": sec["linalg.det"],
        "oracle.verdicts": verdicts,
        "oracle.verdict_self_s": own["oracle.verdict"],
        "criterion.decide_calls": decides,
        "criterion.g_mu_calls": c["criterion.g_mu_calls"],
        "criterion.bar_deltas_calls": c["criterion.bar_deltas_calls"],
        "criterion.bar_deltas_per_decide":
            c["criterion.bar_deltas_calls"] / decides if decides else 0.0,
        "partitions.admissible_set_s": sec["partitions.admissible_set"],
        "partitions.multipartitions_s": sec["partitions.multipartitions"],
        "gram.gram_big_s": sec["gram.gram_big"],
        "gram.equivariance_s": sec["gram.equivariance"],
        "gram.single_box_s": sec["gram.single_box"],
        "deltapoly.mul_calls": c["deltapoly.mul_calls"],
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for method in RANK_METHODS:
        values["oracle.rank_method." + method] = c["oracle.rank_method." + method]
    for v in criterion.VARIANTS:
        values["criterion.decide_s." + v] = sec["criterion.decide." + v]
    assert set(values) == set(LAYER_METRICS)
    return values
