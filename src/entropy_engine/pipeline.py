"""Batch pipeline: load instances, run verification stages, emit reports.

A pipeline spec lists stages to run over declared inputs.  Stage outputs are
collected into one schema-versioned JSON report plus CSV tables; all files
are written atomically and are byte-identical for identical spec and seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field, is_dataclass, asdict
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
from .errors import (
    DomainError,
    EngineError,
    InputFormatError,
    SplitBoundaryError,
)
from .rational import format_rational, parse_rational
from .relation import (
    DEFAULT_BUDGET,
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

SCHEMA = "entropy-engine/1"

STAGES = (
    "close",
    "check_axioms",
    "check_ch",
    "construct_entropy",
    "verify_principle",
    "simple_system_suite",
    "thermal_suite",
    "calibration_suite",
)

STAGE_REQUIRES = {
    "construct_entropy": ("close",),
    "verify_principle": ("close", "construct_entropy"),
}

DEFAULT_OPTIONS = {"max_parts": 3, "budget": DEFAULT_BUDGET}


@dataclass
class PipelineSpec:
    stages: list
    seed: int = 0
    options: dict = field(default_factory=lambda: dict(DEFAULT_OPTIONS))
    relation: object = None
    entropy: dict = None
    models: dict = field(default_factory=dict)
    simple_system: dict = None
    thermal: dict = None
    calibration: object = None
    base_dir: str = "."


def _integer(value, what, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError("%s must be an integer, got %r" % (what, value))
    if minimum is not None and value < minimum:
        raise InputFormatError("%s must be at least %d, got %d" % (what, minimum, value))
    return value


def _options(doc):
    """max_parts and budget as integers >= 1, defaults filled in."""
    if not isinstance(doc, dict):
        raise InputFormatError("options must be an object, got %r" % (doc,))
    return {
        name: _integer(doc.get(name, default), "option %r" % name, 1)
        for name, default in DEFAULT_OPTIONS.items()
    }


def _entropy_section(doc):
    """The entropy section with its rationals parsed and checked."""
    if not isinstance(doc, dict):
        raise InputFormatError("the entropy section must be an object, got %r" % (doc,))
    missing = [k for k in ("space", "ref_low", "ref_high") if k not in doc]
    if missing:
        raise InputFormatError("the entropy section lacks %s" % ", ".join(missing))
    cfg = dict(doc)
    cfg["resolution"] = parse_rational(doc.get("resolution", "1/128"))
    if cfg["resolution"] <= 0:
        raise InputFormatError(
            "entropy resolution must be positive, got %s" % cfg["resolution"]
        )
    cfg["lambda_lo"] = parse_rational(doc.get("lambda_lo", "-1"))
    cfg["lambda_hi"] = parse_rational(doc.get("lambda_hi", "2"))
    oracle = doc.get("oracle_values")
    if oracle is not None:
        if not isinstance(oracle, dict):
            raise InputFormatError("oracle_values must be an object")
        cfg["oracle_values"] = {k: parse_rational(v) for k, v in oracle.items()}
    return cfg


def load_pipeline_spec(path):
    """Read and validate a pipeline spec; every problem is an InputFormatError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InputFormatError("a pipeline spec must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputFormatError(
            "unknown schema %r (expected %r)" % (doc.get("schema"), SCHEMA)
        )
    stages = doc.get("stages", [])
    if not isinstance(stages, list):
        raise InputFormatError("stages must be a list, got %r" % (stages,))
    for st in stages:
        if st not in STAGES:
            raise InputFormatError("unknown stage %r" % st)
    for st, needs in STAGE_REQUIRES.items():
        if st in stages:
            for need in needs:
                if need not in stages or stages.index(need) > stages.index(st):
                    raise InputFormatError(
                        "stage %r requires %r to run first" % (st, need)
                    )
    entropy = doc.get("entropy")
    if entropy is not None or "construct_entropy" in stages:
        entropy = _entropy_section(entropy)
    return PipelineSpec(
        stages=list(stages),
        seed=_integer(doc.get("seed", 0), "seed"),
        options=_options(doc.get("options", {})),
        relation=doc.get("relation"),
        entropy=entropy,
        models=dict(doc.get("models", {})),
        simple_system=doc.get("simple_system"),
        thermal=doc.get("thermal"),
        calibration=doc.get("calibration"),
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def _resolve(doc_or_path, base_dir):
    if isinstance(doc_or_path, str):
        with open(os.path.join(base_dir, doc_or_path)) as fh:
            return json.load(fh)
    return doc_or_path


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if is_dataclass(obj):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    return str(obj)


class PipelineContext:
    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        self.relation = None
        self.closed = None
        self.tables = {}
        self.models = {}
        self.reports = {}
        self.violations = []
        self.csv_files = {}

    def get_relation(self):
        if self.relation is None:
            doc = _resolve(self.spec.relation, self.spec.base_dir)
            if doc is None:
                raise InputFormatError("this stage needs a relation input")
            self.relation = relation_from_json(doc)
        return self.closed if self.closed is not None else self.relation

    def get_model(self, name):
        if name not in self.models:
            doc = _resolve(self.spec.models.get(name), self.spec.base_dir)
            if doc is None:
                raise InputFormatError("model %r is not declared" % name)
            self.models[name] = model_from_spec(doc)
        return self.models[name]


def _stage_close(ctx):
    rel = ctx.get_relation()
    opts = ctx.spec.options
    closed = close(rel, max_parts=opts["max_parts"], budget=opts["budget"])
    ctx.closed = closed
    return {
        "facts": len(closed.facts),
        "universe": len(closed.universe),
    }


def _stage_check_axioms(ctx):
    rel = ctx.get_relation()
    reports = run_axiom_scan(rel, ctx.spec.options["max_parts"])
    out = {}
    for name, rep in sorted(reports.items()):
        # scanner order follows set iteration; sort for stable bundles
        shown = sorted(str(_jsonable(v)) for v in rep.violations)[:10]
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
    rel = ctx.get_relation()
    result = check_comparison_hypothesis(rel)
    if not result.holds:
        ctx.violations.append(
            "comparison hypothesis fails: %s vs %s"
            % (result.witness[0], result.witness[1])
        )
    return {
        "holds": result.holds,
        "witness": _jsonable(result.witness),
        "pairs_checked": result.pairs_checked,
        "universe_size": result.universe_size,
    }


def _stage_construct_entropy(ctx):
    cfg = ctx.spec.entropy
    rel = ctx.get_relation()
    table = construct_entropy(
        rel,
        cfg["space"],
        cfg["ref_low"],
        cfg["ref_high"],
        resolution=cfg["resolution"],
        lambda_lo=cfg["lambda_lo"],
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
    oracle = cfg.get("oracle_values")
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
    rel = ctx.get_relation()
    if not ctx.tables:
        return {"skipped": "no entropy tables were constructed"}
    report = verify_entropy_principle(rel, ctx.tables)
    for v in report.violations[:20]:
        ctx.violations.append(
            "entropy principle %s: %s -> %s margin %g"
            % (v.kind, v.left, v.right, v.margin)
        )
    out = report.to_json()
    if len(out["inequalities"]) > 500:
        out["inequalities"] = out["inequalities"][:500]
        out["inequalities_truncated"] = True
    return out


def _random_interior(rng, model, margin=0.1):
    lo, hi = model.domain.lo, model.domain.hi
    coords = [
        l + (margin + (1.0 - 2.0 * margin) * rng.random()) * (h - l)
        for l, h in zip(lo, hi)
    ]
    return StatePoint(coords[0], tuple(coords[1:]))


def _stage_simple_suite(ctx):
    cfg = ctx.spec.simple_system or {}
    model = ctx.get_model(cfg["model"])
    rng = random.Random(ctx.seed)
    out = {"model": model.name, "seed": ctx.seed}

    pairs = int(cfg.get("pairs", 50))
    cases = {}
    crossings = 0
    for _ in range(pairs):
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
        lip = check_lipschitz(
            model, samples=int(cfg.get("lipschitz_samples", 200)), seed=ctx.seed
        )
        out["lipschitz_worst_quotient"] = lip.details["worst_quotient"]
        out["lipschitz_violations"] = len(lip.violations)
        if not lip.holds:
            ctx.violations.append(
                "pressure difference quotients exceed the declared bound in %s"
                % model.name
            )

    x = _random_interior(rng, model, margin=0.3)
    lo_v, hi_v = model.domain.lo[1], model.domain.hi[1]
    target = (lo_v + 0.66 * (hi_v - lo_v),)
    surface = integrate_adiabat(model, x, [target, tuple(x.V)])
    out["forward_backward_drift"] = abs(surface.samples[-1].U - x.U)
    rows = ["U,V"] + ["%r,%r" % (s.U, s.V[0]) for s in surface.samples]
    ctx.csv_files["adiabat_samples.csv"] = "\n".join(rows) + "\n"
    if out["forward_backward_drift"] > 1e-6 * max(1.0, abs(x.U)):
        ctx.violations.append("adiabat does not return on itself in %s" % model.name)
    return out


def _stage_thermal_suite(ctx):
    cfg = ctx.spec.thermal or {}
    left = ctx.get_model(cfg["left"])
    right = ctx.get_model(cfg["right"])
    rng = random.Random(ctx.seed)
    join = ThermalJoin(left, right)
    out = {"left": left.name, "right": right.name, "seed": ctx.seed}

    experiments = []
    for exp in cfg.get("experiments", []):
        split = thermal_split(
            join, float(exp["U"]),
            tuple(float(v) for v in exp["V1"]),
            tuple(float(v) for v in exp["V2"]),
        )
        t1 = temperature(left, split.X1).T
        t2 = temperature(right, split.X2).T
        s_gain = split.total_entropy - (
            left.entropy(float(exp["U"]) - split.X2.U, split.X1.V)
            + right.entropy(split.X2.U, split.X2.V)
        )
        experiments.append({
            "U": exp["U"],
            "U1": split.X1.U,
            "U2": split.X2.U,
            "T1": t1,
            "T2": t2,
            "degenerate": split.degenerate,
            "entropy_gain": s_gain,
        })
        if abs(t1 - t2) > 1e-6 * max(t1, t2):
            ctx.violations.append(
                "thermal split temperatures differ: %g vs %g" % (t1, t2)
            )
    out["experiments"] = experiments

    flows = int(cfg.get("flow_checks", 20))
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

    n_triples = int(cfg.get("zeroth_triples", 10))
    triples = []
    for _ in range(n_triples * 10):
        if len(triples) >= n_triples:
            break
        probe = _random_interior(rng, left, margin=0.3)
        t = temperature(left, probe).T
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

    iso_cfg = cfg.get("isotherm")
    if iso_cfg:
        model = ctx.get_model(iso_cfg["model"])
        samples = isotherm_samples(
            model, float(iso_cfg["T"]),
            [float(v) for v in iso_cfg["v_grid"]],
        )
        rows = ["U,V,T"] + [
            "%r,%r,%r" % (s.U, s.V[0], temperature(model, s).T) for s in samples
        ]
        ctx.csv_files["isotherm_samples.csv"] = "\n".join(rows) + "\n"
        out["isotherm_samples"] = len(samples)
    return out


def _stage_calibration_suite(ctx):
    doc = _resolve(ctx.spec.calibration, ctx.spec.base_dir)
    if doc is None:
        raise InputFormatError("calibration stage needs a graph input")
    graph = graph_from_json(doc)
    max_chain = int(doc.get("max_chain", 4))
    out = {"max_chain": max_chain}
    out["matrices"] = matrix_json(graph, max_chain)
    rows = ["from,to,D,E,F"]
    ids = graph.simple_ids()
    for a in ids:
        for b in ids:
            key = "%s->%s" % (a, b)
            rows.append("%s,%s,%s,%s,%s" % (
                a, b,
                out["matrices"]["D"][key],
                out["matrices"]["E"][key],
                out["matrices"]["F"][key],
            ))
    ctx.csv_files["def_matrices.csv"] = "\n".join(rows) + "\n"

    sinks = check_no_sinks(graph, max_chain)
    out["no_sinks"] = sinks.holds
    if not sinks.holds:
        ctx.violations.append(
            "sink structure: asymmetric %s, inequality %s, cycle %s"
            % (sinks.asymmetric_pairs, sinks.inequality_violations,
               _jsonable(sinks.negative_cycle))
        )
        return out

    constants = solve_additive_constants(graph, max_chain)
    out["B"] = {k: _jsonable(v) for k, v in sorted(constants.B.items())}
    out["component_id"] = constants.component_id
    out["gauges"] = constants.gauges
    out["max_violation"] = constants.max_violation

    gaps = {}
    for a in ids:
        for b in ids:
            if a < b:
                gap = detect_gap(graph, a, b, max_chain)
                if gap.has_gap:
                    gaps["%s|%s" % (a, b)] = gap.width
    out["gaps"] = gaps
    return out


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


@dataclass
class PipelineResult:
    exit_code: int
    report: dict
    files: list


def run_pipeline(spec, out_dir, seed=None, only_stages=None):
    """Execute the spec's stages in order and write the report bundle.

    Exit code 0 means every executed stage was violation-free, 1 means at
    least one violation was found, 2 an input or dependency problem.
    """
    seed = spec.seed if seed is None else seed
    ctx = PipelineContext(spec, seed)
    stages = [
        s for s in spec.stages if only_stages is None or s in only_stages
    ]
    for name in stages:
        try:
            ctx.reports[name] = STAGE_FUNCS[name](ctx)
        except InputFormatError:
            raise
        except EngineError as exc:
            ctx.reports[name] = {"error": str(exc)}
            ctx.violations.append("%s: %s" % (name, exc))
    report = {
        "schema": SCHEMA,
        "seed": seed,
        "stages": stages,
        "reports": _jsonable(ctx.reports),
        "violations": ctx.violations,
        "exit_code": 1 if ctx.violations else 0,
    }
    files = emit_report(report, ctx.csv_files, out_dir)
    return PipelineResult(report["exit_code"], report, files)


def emit_report(report, csv_files, out_dir):
    """Write report.json and CSV tables atomically; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    for name, content in [("report.json", payload)] + sorted(csv_files.items()):
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
        written.append(path)
    return written
