"""Batch pipeline: load a spec and its instances, run stages, emit reports.

`load_pipeline_spec` checks the stage list against STAGE_TABLE and each spec
section against FIELDS, and loads every instance the spec names, so bad input
fails before any stage runs and stages read only parsed values.  Stage
outputs go into one schema-versioned JSON report plus CSV tables, written
atomically and byte-identical for identical spec and seed.
"""

import json
import math
import os
import random
from dataclasses import dataclass, is_dataclass, asdict
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


def read_json(path):
    """Parse a JSON file; an unreadable or malformed file is an InputFormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            "%s: parse error at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc)) from exc


def _object(value, what):
    if not isinstance(value, dict):
        raise InputFormatError("%s must be an object, got %r" % (what, value))
    return value


def _field(kind, value, what, models):
    """Parse one raw field of a FIELDS kind; `what` names it in messages."""
    if kind in ("integer", "count", "positive"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputFormatError("%s must be an integer, got %r" % (what, value))
        minimum = {"count": 0, "positive": 1}.get(kind)
        if minimum is not None and value < minimum:
            raise InputFormatError("%s must be at least %d, got %d" % (what, minimum, value))
        return value
    if kind in ("name", "model"):
        if not isinstance(value, str):
            raise InputFormatError("%s must be a string, got %r" % (what, value))
        if kind == "model" and models.get(value) is None:
            raise InputFormatError("%s names an undeclared model %r" % (what, value))
        return models[value] if kind == "model" else value
    if kind in ("rational", "resolution"):
        value = parse_rational(value)
        if kind == "resolution" and value <= 0:
            raise InputFormatError("%s must be positive, got %s" % (what, value))
        return value
    if kind == "rationals":
        return {k: parse_rational(v) for k, v in _object(value, what).items()}
    if kind == "real":
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise InputFormatError("%s must be a finite number, got %r" % (what, value))
        return float(value)
    if kind in ("reals", "experiments") and not isinstance(value, list):
        raise InputFormatError("%s must be a list, got %r" % (what, value))
    if kind == "reals":
        if not value:
            raise InputFormatError("%s must not be empty" % what)
        return tuple(_field("real", v, what, models) for v in value)
    if kind == "experiments":
        return [_check(v, "experiment", models, "%s[%d]" % (what, i))
                for i, v in enumerate(value)]
    return _check(value, kind, models, what)  # a nested section


REQUIRED = object()

# section -> field -> (kind, default).  An absent or null field takes its
# default; a REQUIRED one has none.  Kinds: integer, count (>= 0) and positive
# (>= 1) are integers, a model is the name of a declared model, a resolution a
# positive rational, rationals an object of them, reals a nonempty list of
# finite numbers, experiments a list of experiment sections.
FIELDS = {
    "options": {"max_parts": ("positive", 3), "budget": ("positive", DEFAULT_BUDGET)},
    "entropy": {
        "space": ("name", REQUIRED),
        "ref_low": ("name", REQUIRED),
        "ref_high": ("name", REQUIRED),
        "resolution": ("resolution", Fraction(1, 128)),
        "lambda_lo": ("rational", Fraction(-1)),
        "lambda_hi": ("rational", Fraction(2)),
        "oracle_values": ("rationals", None),
    },
    "simple_system": {
        "model": ("model", REQUIRED),
        "pairs": ("count", 50),
        "lipschitz_samples": ("count", 200),
    },
    "thermal": {
        "left": ("model", REQUIRED),
        "right": ("model", REQUIRED),
        "experiments": ("experiments", ()),
        "flow_checks": ("count", 20),
        "zeroth_triples": ("count", 10),
        "isotherm": ("isotherm", None),
    },
    "experiment": {"U": ("real", REQUIRED), "V1": ("reals", REQUIRED),
                   "V2": ("reals", REQUIRED)},
    "isotherm": {"model": ("model", REQUIRED), "T": ("real", REQUIRED),
                 "v_grid": ("reals", REQUIRED)},
}


def _check(doc, section, models, where=None):
    """Check a section against FIELDS[section]; returns its parsed fields."""
    where = where or section
    doc = _object(doc, where)
    out = {}
    for key, (kind, default) in FIELDS[section].items():
        value = doc.get(key)
        if value is None and default is REQUIRED:
            raise InputFormatError("%s lacks %r" % (where, key))
        what = "%s.%s" % (where, key)
        out[key] = default if value is None else _field(kind, value, what, models)
    return out


@dataclass
class PipelineSpec:
    """A checked spec: parsed sections and loaded instances (None if absent)."""

    stages: list
    seed: int
    options: dict
    relation: object
    entropy: dict
    simple_system: dict
    thermal: dict
    calibration: object


def load_pipeline_spec(path):
    """Read a spec and load every instance it names, inline or as a file name
    relative to the spec; any problem raises an EngineError."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputFormatError("a pipeline spec must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputFormatError(
            "unknown schema %r (expected %r)" % (doc.get("schema"), SCHEMA)
        )
    stages = doc.get("stages", [])
    if not isinstance(stages, list):
        raise InputFormatError("stages must be a list, got %r" % (stages,))
    for i, st in enumerate(stages):
        if not isinstance(st, str) or st not in STAGE_TABLE:
            raise InputFormatError("unknown stage %r" % (st,))
        _func, needs, sections = STAGE_TABLE[st]
        for need in needs:
            if need not in stages[:i]:
                raise InputFormatError("stage %r requires %r to run first" % (st, need))
        for section in sections:
            if doc.get(section) is None:
                raise InputFormatError("stage %r needs a %s section" % (st, section))
    base_dir = os.path.dirname(os.path.abspath(path))

    def load(value, loader, what):
        """An instance given inline or as a file name relative to the spec."""
        if value is None:
            return None
        if isinstance(value, str):
            value = read_json(os.path.join(base_dir, value))
        return loader(_object(value, what))

    def checked(name, empty=None):
        value = doc.get(name)
        if value is None:
            value = empty
        return None if value is None else _check(value, name, models)

    declared = doc.get("models")
    models = {
        name: load(model, model_from_spec, "model %r" % name)
        for name, model in _object({} if declared is None else declared,
                                   "models").items()
    }
    spec = PipelineSpec(
        stages=stages,
        seed=_field("integer", doc.get("seed", 0), "seed", models),
        options=checked("options", {}),
        relation=load(doc.get("relation"), relation_from_json, "relation"),
        entropy=checked("entropy"),
        simple_system=checked("simple_system"),
        thermal=checked("thermal"),
        calibration=load(doc.get("calibration"), graph_from_json, "calibration"),
    )
    entropy, thermal = spec.entropy, spec.thermal
    if entropy is not None and spec.relation is not None:
        space = spec.relation.spaces.get(entropy["space"])
        if space is None:
            raise InputFormatError(
                "entropy.space names an undeclared space %r" % entropy["space"])
        for key in ("ref_low", "ref_high"):
            if entropy[key] not in space.state_ids:
                raise InputFormatError("entropy.%s %r is not a state of space %r"
                                       % (key, entropy[key], space.space_id))
    if thermal:
        join = ThermalJoin(thermal["left"], thermal["right"])
        for i, exp in enumerate(thermal["experiments"]):
            _input_checked("thermal.experiments[%d]" % i, join.energy_interval,
                           exp["U"], exp["V1"], exp["V2"])
        iso = thermal["isotherm"]
        for v in iso["v_grid"] if iso else ():
            _input_checked("thermal.isotherm.v_grid",
                           iso["model"].require_work_coordinates, [v])
    return spec


def _input_checked(what, check, *args):
    """Run a domain check on loaded input; its DomainError is bad input."""
    try:
        check(*args)
    except DomainError as exc:
        raise InputFormatError("%s: %s" % (what, exc)) from exc


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
        "facts": len(ctx.relation.facts),
        "universe": len(ctx.relation.universe),
    }


def _stage_check_axioms(ctx):
    reports = run_axiom_scan(ctx.relation, ctx.spec.options["max_parts"])
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
    result = check_comparison_hypothesis(ctx.relation)
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
    report = verify_entropy_principle(ctx.relation, ctx.tables)
    for v in report.violations[:20]:
        ctx.violations.append(
            "entropy principle %s: %s -> %s margin %g"
            % (v.kind, v.left, v.right, v.margin)
        )
    truncated = len(report.entries) > 500
    del report.entries[500:]  # format only the inequalities the report keeps
    out = report.to_json()
    if truncated:
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
    target = (lo_v + 0.66 * (hi_v - lo_v),)
    surface = integrate_adiabat(model, x, [target, tuple(x.V)])
    out["forward_backward_drift"] = abs(surface.samples[-1].U - x.U)
    rows = ["U,V"] + ["%r,%r" % (s.U, s.V[0]) for s in surface.samples]
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
            "%r,%r,%r" % (s.U, s.V[0], temperature(model, s)) for s in samples
        ]
        ctx.csv_files["isotherm_samples.csv"] = "\n".join(rows) + "\n"
        out["isotherm_samples"] = len(samples)
    return out


def _stage_calibration_suite(ctx):
    graph = ctx.spec.calibration
    out = {"max_chain": graph.max_chain}
    out["matrices"] = matrix_json(graph)
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

    sinks = check_no_sinks(graph)
    out["no_sinks"] = sinks.holds
    if not sinks.holds:
        ctx.violations.append(
            "sink structure: asymmetric %s, inequality %s, cycle %s"
            % (sinks.asymmetric_pairs, sinks.inequality_violations,
               _jsonable(sinks.negative_cycle))
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


# stage -> (function, stages that must run before it, spec sections it reads)
STAGE_TABLE = {
    "close": (_stage_close, (), ("relation",)),
    "check_axioms": (_stage_check_axioms, (), ("relation",)),
    "check_ch": (_stage_check_ch, ("close",), ("relation",)),
    "construct_entropy": (_stage_construct_entropy, ("close",),
                          ("relation", "entropy")),
    "verify_principle": (_stage_verify_principle, ("close", "construct_entropy"),
                         ("relation",)),
    "simple_system_suite": (_stage_simple_suite, (), ("simple_system",)),
    "thermal_suite": (_stage_thermal_suite, (), ("thermal",)),
    "calibration_suite": (_stage_calibration_suite, (), ("calibration",)),
}
STAGE_FUNCS = {name: row[0] for name, row in STAGE_TABLE.items()}


@dataclass
class PipelineResult:
    exit_code: int
    report: dict
    files: list


def run_pipeline(spec, out_dir, seed=None, only_stages=None):
    """Execute the spec's stages in order and write the report bundle.

    Exit code 0 means every executed stage was violation-free, 1 means at
    least one violation was found.
    """
    seed = spec.seed if seed is None else seed
    ctx = PipelineContext(spec, seed)
    stages = [
        s for s in spec.stages if only_stages is None or s in only_stages
    ]
    for name in stages:
        try:
            ctx.reports[name] = STAGE_FUNCS[name](ctx)
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
