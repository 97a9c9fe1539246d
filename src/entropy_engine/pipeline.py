"""Batch pipeline: load a spec and its instances, run stages, emit reports.

`load_pipeline_spec` reads a spec file and loads it with the spec module's
`load_spec_document` (`spec.py`: the stage list checked against its
STAGE_TABLE, each section against FIELDS, every instance loaded before any
stage runs), given the layer loaders this module imports.  STAGE_FUNCS maps
each stage to its function.  Stage outputs go into one schema-versioned JSON
report plus CSV tables, written atomically as UTF-8 and byte-identical for
identical spec and seed.
"""

import csv
import io
import json
import math
import os
import random
from collections import namedtuple
from fractions import Fraction

from .constants import (
    check_no_sinks,
    detect_gap,
    graph_from_json,
    matrix_json,
    solve_additive_constants,
)
from .entropy import (
    construct_entropy,
    entropy_table_csv,
    fit_affine,
    verify_entropy_principle,
)
from .errors import DomainError, EngineError, SplitBoundaryError, read_json
from .rational import format_rational
from .relation import (
    check_comparison_hypothesis,
    close,
    relation_from_json,
    run_axiom_scan,
)
from .simple import (
    StatePoint,
    check_convexity,
    check_lipschitz,
    check_nesting,
    integrate_adiabat,
    model_from_spec,
    pressure_consistency,
)
from .spec import SCHEMA, load_spec_document, spec_dir
from .states import CompoundState
from .thermal import (
    ThermalJoin,
    check_energy_flow,
    check_transversality,
    check_zeroth_law,
    isotherm_samples,
    isotherm_state,
    temperature,
    thermal_split,
)


def load_pipeline_spec(path, only_stages=None):
    """Read a spec file and load it with this module's instance loaders.

    The loaders are read from this module when it is called, so a wrapper
    set on `model_from_spec`, `relation_from_json` or `graph_from_json` here
    sees every instance `run` loads.
    """
    return load_spec_document(read_json(path), spec_dir(path), only_stages, {
        "model": model_from_spec, "relation": relation_from_json,
        "graph": graph_from_json})


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, CompoundState):
        return {"parts": _jsonable(obj.parts)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "_asdict"):  # a namedtuple record, not a plain tuple
        return _jsonable(obj._asdict())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    return str(obj)


class PipelineContext:
    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.relation = spec.relation  # replaced by its closure in close
        self.tables = {}
        self.reports = {}
        self.violations = []
        self.csv_files = {}


def _stage_close(ctx):
    opts = ctx.spec.options
    ctx.relation = close(ctx.relation, max_parts=opts["max_parts"],
                         budget=opts["budget"])
    return {
        "facts": ctx.relation.fact_count(),
        "universe": len(ctx.relation.universe),
    }


def _stage_check_axioms(ctx):
    reports = run_axiom_scan(ctx.relation, ctx.spec.options["max_parts"])
    out = {}
    for name, rep in sorted(reports.items()):
        # scanner order follows set iteration; sort for stable bundles
        shown = sorted(json.dumps(_jsonable(v), sort_keys=True)
                       for v in rep.violations)[:10]
        out[name] = {
            "checked": rep.checked,
            "violations": shown,
            "violation_count": len(rep.violations),
        }
        for v in shown:
            ctx.violations.append("%s: %s" % (name, v))
        if len(rep.violations) > 10:
            ctx.violations.append(
                "%s: %d further violations" % (name, len(rep.violations) - 10)
            )
    return out


def _stage_check_ch(ctx):
    result = check_comparison_hypothesis(ctx.relation)
    if not result.holds:
        ctx.violations.append(
            "comparison hypothesis fails: %s vs %s"
            % (result.witness[0], result.witness[1])
        )
    return result


def _stage_construct_entropy(ctx):
    cfg = ctx.spec.entropy
    table = construct_entropy(
        ctx.relation, cfg["space"], cfg["ref_low"], cfg["ref_high"],
        resolution=cfg["resolution"], lambda_lo=cfg["lambda_lo"],
        lambda_hi=cfg["lambda_hi"],
    )
    ctx.tables[table.space_id] = table
    ctx.csv_files["entropy_tables.csv"] = entropy_table_csv(ctx.tables)
    out = {
        "space": table.space_id,
        "states": len(table.values),
        "ref_low": table.ref_low,
        "ref_high": table.ref_high,
        "resolution": format_rational(table.lambda_resolution),
    }
    if table.clipped:
        out["clipped"] = list(table.clipped)
    oracle = cfg["oracle_values"]
    if oracle:
        a, b, residual = fit_affine(
            {k: float(v) for k, v in oracle.items()},
            {k: float(v) for k, v in table.values.items()},
        )
        out["oracle_fit"] = {"a": a, "b": b, "max_residual": residual}
        tol = 2.0 * float(table.lambda_resolution)
        if residual > tol or a <= 0:
            ctx.violations.append(
                "entropy table deviates from its oracle: residual %g" % residual
            )
    return out


def _stage_verify_principle(ctx):
    if not ctx.tables:
        return {"skipped": "no entropy tables were constructed"}
    report = verify_entropy_principle(ctx.relation, ctx.tables, limit=500)
    for v in report.violations[:20]:
        ctx.violations.append(
            "entropy principle %s: %s -> %s margin %g"
            % (v.kind, v.left, v.right, v.margin)
        )
    out = report.to_json()
    if report.facts_checked > 500:
        out["inequalities_truncated"] = True
    return out


def _random_interior(rng, model, margin=0.1):
    lo, hi = model.domain.lo, model.domain.hi
    coords = [
        l + (margin + (1.0 - 2.0 * margin) * rng.random()) * (h - l)
        for l, h in zip(lo, hi)
    ]
    return StatePoint(*coords)


def _stage_simple_suite(ctx):
    cfg = ctx.spec.simple_system
    model = cfg["model"]
    rng = random.Random(ctx.seed)
    out = {"model": model.name, "seed": ctx.seed}

    cases = {}
    crossings = 0
    for _ in range(cfg["pairs"]):
        x = _random_interior(rng, model)
        y = _random_interior(rng, model)
        result = check_nesting(model, x, y)
        cases[result.case] = cases.get(result.case, 0) + 1
        if result.violation:
            crossings += 1
    out["nesting_cases"] = cases
    if crossings:
        ctx.violations.append(
            "%d crossing forward sectors in %s" % (crossings, model.name)
        )

    if model.entropy is not None:
        conv = check_convexity(model, _random_interior(rng, model),
                               _random_interior(rng, model))
        out["convexity_violations"] = len(conv.violations)
        if not conv.holds:
            ctx.violations.append("convexity violated in %s" % model.name)
        center = _random_interior(rng, model, margin=0.4)
        out["pressure_consistency"] = pressure_consistency(model, center)
        if out["pressure_consistency"] > 1e-5:
            ctx.violations.append(
                "pressure disagrees with the entropy tangent plane in %s"
                % model.name
            )

    if model.lipschitz_bound is not None:
        lip = check_lipschitz(model, samples=cfg["lipschitz_samples"], seed=ctx.seed)
        out["lipschitz_worst_quotient"] = lip.details["worst_quotient"]
        out["lipschitz_violations"] = len(lip.violations)
        if not lip.holds:
            ctx.violations.append(
                "pressure difference quotients exceed the declared bound in %s"
                % model.name
            )

    x = _random_interior(rng, model, margin=0.3)
    lo_v, hi_v = model.domain.lo[1], model.domain.hi[1]
    target = lo_v + 0.66 * (hi_v - lo_v)
    surface = integrate_adiabat(model, x, [target, x.V])
    out["forward_backward_drift"] = abs(surface.samples[-1].U - x.U)
    rows = ["U,V"] + ["%r,%r" % (s.U, s.V) for s in surface.samples]
    ctx.csv_files["adiabat_samples.csv"] = "\n".join(rows) + "\n"
    if out["forward_backward_drift"] > 1e-6 * max(1.0, abs(x.U)):
        ctx.violations.append("adiabat does not return on itself in %s" % model.name)
    return out


def _stage_thermal_suite(ctx):
    cfg = ctx.spec.thermal
    left, right = cfg["left"], cfg["right"]
    rng = random.Random(ctx.seed)
    join = ThermalJoin(left, right)
    out = {"left": left.name, "right": right.name, "seed": ctx.seed}

    experiments = []
    for exp in cfg["experiments"]:
        try:
            split = thermal_split(join, exp["U"], exp["V1"], exp["V2"])
            t1 = temperature(left, split.X1)
            t2 = temperature(right, split.X2)
        except EngineError as exc:
            # one failed split must not hide the rest of the suite
            experiments.append({"U": exp["U"], "error": str(exc)})
            ctx.violations.append("thermal experiment at U=%g: %s" % (exp["U"], exc))
            continue
        experiments.append({
            "U": exp["U"],
            "U1": split.X1.U,
            "U2": split.X2.U,
            "T1": t1,
            "T2": t2,
            "degenerate": split.degenerate,
        })
        if abs(t1 - t2) > 1e-6 * max(t1, t2):
            ctx.violations.append(
                "thermal split temperatures differ: %g vs %g" % (t1, t2)
            )
    out["experiments"] = experiments

    flows = cfg["flow_checks"]
    flow_bad = 0
    flow_done = 0
    for _ in range(flows * 10):
        if flow_done >= flows:
            break
        a = _random_interior(rng, left)
        b = _random_interior(rng, right)
        try:
            rep = check_energy_flow(left, a, right, b)
        except (SplitBoundaryError, DomainError):
            continue  # partition not expressible inside the boxes; redraw
        flow_done += 1
        if not rep.ok:
            flow_bad += 1
    out["flow_checks"] = flow_done
    if flow_bad:
        ctx.violations.append("%d energy flows against the gradient" % flow_bad)

    n_triples = cfg["zeroth_triples"]
    triples = []
    for _ in range(n_triples * 10):
        if len(triples) >= n_triples:
            break
        probe = _random_interior(rng, left, margin=0.3)
        t = temperature(left, probe)
        v_r = _random_interior(rng, right, margin=0.3).V
        v_l = _random_interior(rng, left, margin=0.3).V
        y = isotherm_state(right, v_r, t)
        z = isotherm_state(left, v_l, t)
        if y is None or z is None:
            continue
        triples.append(((left, probe), (right, y), (left, z)))
    zeroth = check_zeroth_law(triples)
    out["zeroth_law"] = {
        "checked": zeroth.checked,
        "non_equilibrium": zeroth.non_equilibrium,
        "undecided": zeroth.undecided,
        "violations": len(zeroth.violations),
    }
    if not zeroth.holds:
        ctx.violations.append(
            "%d transitivity failures of thermal equilibrium"
            % len(zeroth.violations)
        )

    x = _random_interior(rng, left, margin=0.35)
    trans = check_transversality(left, x)
    out["transversality_found"] = trans.found
    if not trans.found:
        ctx.violations.append(
            "no isothermal pair straddles the adiabat through %s" % (x,)
        )

    iso = cfg["isotherm"]
    if iso:
        model = iso["model"]
        samples = isotherm_samples(model, iso["T"], iso["v_grid"])
        rows = ["U,V,T"] + [
            "%r,%r,%r" % (s.U, s.V, temperature(model, s)) for s in samples
        ]
        ctx.csv_files["isotherm_samples.csv"] = "\n".join(rows) + "\n"
        out["isotherm_samples"] = len(samples)
    return out


def _stage_calibration_suite(ctx):
    graph = ctx.spec.calibration
    out = {"max_chain": graph.max_chain}
    out["matrices"] = matrix_json(graph)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["from", "to", "D", "E", "F"])
    ids = graph.simple_ids()
    for a in ids:
        for b in ids:
            key = "%s->%s" % (a, b)
            writer.writerow([a, b] + [out["matrices"][m][key] for m in "DEF"])
    ctx.csv_files["def_matrices.csv"] = buf.getvalue()

    sinks = check_no_sinks(graph)
    out["no_sinks"] = sinks.holds
    if not sinks.holds:
        cycle = sinks.negative_cycle
        if cycle is not None:  # its nodes are 1-tuples of space ids
            cycle = ([node for (node,) in cycle[0]], cycle[1])
        ctx.violations.append(
            "sink structure: asymmetric %s, inequality %s, cycle %s"
            % tuple(json.dumps(_jsonable(part), sort_keys=True) for part in (
                sinks.asymmetric_pairs, sinks.inequality_violations, cycle))
        )
        return out

    constants = solve_additive_constants(graph)
    out["B"] = {k: _jsonable(v) for k, v in sorted(constants.B.items())}
    out["component_id"] = constants.component_id
    out["gauges"] = constants.gauges
    out["max_violation"] = constants.max_violation

    gaps = {}
    for a in ids:
        for b in ids:
            if a < b:
                gap = detect_gap(graph, a, b)
                if gap.has_gap or math.isinf(gap.width):  # not pinned
                    gaps["%s|%s" % (a, b)] = gap.width
    out["gaps"] = gaps
    return out


# stage -> its function; spec.STAGE_TABLE says what each stage needs
STAGE_FUNCS = {
    "close": _stage_close,
    "check_axioms": _stage_check_axioms,
    "check_ch": _stage_check_ch,
    "construct_entropy": _stage_construct_entropy,
    "verify_principle": _stage_verify_principle,
    "simple_system_suite": _stage_simple_suite,
    "thermal_suite": _stage_thermal_suite,
    "calibration_suite": _stage_calibration_suite,
}


PipelineResult = namedtuple("PipelineResult", "exit_code report files")


def run_pipeline(spec, out_dir, seed=None):
    """Execute the spec's stages in order and write the report bundle.

    Exit code 0 means every executed stage was violation-free, 1 means at
    least one violation was found.
    """
    seed = spec.seed if seed is None else seed
    ctx = PipelineContext(spec, seed)
    for name in spec.stages:
        try:
            ctx.reports[name] = STAGE_FUNCS[name](ctx)
        except EngineError as exc:
            ctx.reports[name] = {"error": str(exc)}
            ctx.violations.append("%s: %s" % (name, exc))
    report = {
        "schema": SCHEMA,
        "seed": seed,
        "stages": spec.stages,
        "reports": _jsonable(ctx.reports),
        "violations": ctx.violations,
        "exit_code": 1 if ctx.violations else 0,
    }
    files = emit_report(report, ctx.csv_files, out_dir)
    return PipelineResult(report["exit_code"], report, files)


def emit_report(report, csv_files, out_dir):
    """Write report.json and CSV tables atomically; returns written paths.

    report.json is encoded straight into its temp file, so the document is
    never held as one string.  A failed write removes its temp file and
    leaves the earlier file of that name in place.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in ["report.json"] + sorted(csv_files):
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                if name == "report.json":
                    json.dump(report, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                else:
                    fh.write(csv_files[name])
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        written.append(path)
    return written
