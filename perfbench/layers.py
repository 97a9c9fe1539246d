"""Per-layer metrics from the spans of one traced CLI run.

A layer's time is the summed duration of the spans around calls into it; a
stage's self time is its span minus the part its child spans cover.  Layers a
workload never calls read 0.  Per-call percentiles are reported only when at
least ten calls lie beyond them, and read 0 otherwise.
"""

STAGES = (
    "close", "check_axioms", "check_ch", "construct_entropy",
    "verify_principle", "simple_system_suite", "thermal_suite",
    "calibration_suite",
)

# metric name -> unit, in the order the benchmark prints them
UNITS = {
    "relation.close.s": "s",
    "relation.close.facts": "count",
    "relation.close.universe": "count",
    "relation.close.facts_per_s": "1/s",
    "relation.axioms.s": "s",
    "relation.axioms.checked": "count",
    "relation.ch.s": "s",
    "relation.ch.pairs": "count",
    "entropy.verify.s": "s",
    "entropy.verify.facts": "count",
    "entropy.construct.s": "s",
    "entropy.construct.states": "count",
    "simple.nesting.s": "s",
    "simple.nesting.calls": "count",
    "simple.nesting.p50_ms": "ms",
    "simple.nesting.p90_ms": "ms",
    "simple.pressure_evals": "count",
    "simple.pressure_evals_per_check": "count",
    "simple.checks.s": "s",
    "thermal.split.s": "s",
    "thermal.flow.s": "s",
    "thermal.flow.calls": "count",
    "thermal.flow.redraws": "count",
    "thermal.zeroth.s": "s",
    "thermal.isotherm.s": "s",
    "thermal.entropy_evals": "count",
    "constants.matrices.s": "s",
    "constants.no_sinks.s": "s",
    "constants.solve.s": "s",
    "constants.gaps.s": "s",
    "constants.gaps.calls": "count",
    "constants.facts": "count",
    "constants.spaces": "count",
    "relation.load.s": "s",
    "simple.load.s": "s",
    "constants.load.s": "s",
}
for _stage in STAGES:
    UNITS["pipeline.stage.%s.s" % _stage] = "s"
    UNITS["pipeline.stage.%s.self_s" % _stage] = "s"
UNITS["pipeline.emit.s"] = "s"
UNITS["pipeline.emit.bytes"] = "bytes"
UNITS["trace.overhead_frac"] = "ratio"


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = duration(span) - covered
    return out


def percentile_ms(durations, q):
    """The q-quantile in ms, or 0 when fewer than ten samples lie beyond it."""
    n = len(durations)
    k = min(n - 1, int(q * n))
    if n - 1 - k < 10:
        return 0.0
    return 1000.0 * sorted(durations)[k]


def layer_metrics(spans):
    """Every per-layer metric except the tracing overhead."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def sel(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def secs(*names):
        return sum(duration(s) for s in sel(*names))

    def attr(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in sel(name))

    def counted(counter, *names):
        return sum(s["counts"].get(counter, 0) for s in sel(*names))

    nesting = [duration(s) for s in sel("simple.check_nesting")]
    flows = sel("thermal.check_energy_flow")
    close_s = secs("relation.close")
    close_facts = attr("relation.close", "facts")
    m = {
        "relation.close.s": close_s,
        "relation.close.facts": close_facts,
        "relation.close.universe": attr("relation.close", "universe"),
        "relation.close.facts_per_s": close_facts / close_s if close_s else 0.0,
        "relation.axioms.s": secs("relation.run_axiom_scan"),
        "relation.axioms.checked": attr("relation.run_axiom_scan", "checked"),
        "relation.ch.s": secs("relation.check_comparison_hypothesis"),
        "relation.ch.pairs": attr("relation.check_comparison_hypothesis", "pairs"),
        "entropy.verify.s": secs("entropy.verify_entropy_principle"),
        "entropy.verify.facts": attr("entropy.verify_entropy_principle", "facts"),
        "entropy.construct.s": secs("entropy.construct_entropy"),
        "entropy.construct.states": attr("entropy.construct_entropy", "states"),
        "simple.nesting.s": sum(nesting),
        "simple.nesting.calls": len(nesting),
        "simple.nesting.p50_ms": percentile_ms(nesting, 0.5),
        "simple.nesting.p90_ms": percentile_ms(nesting, 0.9),
        "simple.pressure_evals": counted("pressure", "cli.main"),
        "simple.pressure_evals_per_check": (
            counted("pressure", "simple.check_nesting") / len(nesting)
            if nesting else 0.0
        ),
        "simple.checks.s": secs(
            "simple.check_convexity", "simple.check_lipschitz",
            "simple.pressure_consistency", "simple.integrate_adiabat",
        ),
        "thermal.split.s": secs("thermal.thermal_split"),
        "thermal.flow.s": secs("thermal.check_energy_flow"),
        "thermal.flow.calls": len(flows),
        "thermal.flow.redraws": sum(1 for s in flows if "error" in s),
        "thermal.zeroth.s": secs("thermal.check_zeroth_law",
                                 "thermal.isotherm_state"),
        "thermal.isotherm.s": secs("thermal.isotherm_samples"),
        "thermal.entropy_evals": counted("entropy", "stage.thermal_suite"),
        "constants.matrices.s": secs("constants.matrix_json"),
        "constants.no_sinks.s": secs("constants.check_no_sinks"),
        "constants.solve.s": secs("constants.solve_additive_constants"),
        "constants.gaps.s": secs("constants.detect_gap"),
        "constants.gaps.calls": len(sel("constants.detect_gap")),
        "constants.facts": attr("constants.graph_from_json", "facts"),
        "constants.spaces": attr("constants.graph_from_json", "spaces"),
        "relation.load.s": secs("relation.relation_from_json"),
        "simple.load.s": secs("simple.model_from_spec"),
        "constants.load.s": secs("constants.graph_from_json"),
    }
    own = self_times(spans)
    for stage in STAGES:
        runs = sel("stage." + stage)
        m["pipeline.stage.%s.s" % stage] = sum(duration(s) for s in runs)
        m["pipeline.stage.%s.self_s" % stage] = sum(own[s["id"]] for s in runs)
    m["pipeline.emit.s"] = secs("pipeline.emit_report")
    m["pipeline.emit.bytes"] = attr("pipeline.emit_report", "bytes")
    return m
