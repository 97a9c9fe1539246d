"""Pipeline specs: the stage table, the section field table and the loader.

`load_spec_document` loads a parsed spec: it checks the stage list against
STAGE_TABLE and each section against FIELDS, and loads every instance the
spec names, so bad input fails before any stage runs and stages read only
parsed values.  This module imports no layer.  Instances are built by a
table of loaders, one per kind of instance file; the default table, LOADERS,
imports each loader's layer on its first call, so checking a spec compiles
only the layers its instances need.
"""

import math
import os
from collections import namedtuple
from fractions import Fraction

from .errors import (
    DEFAULT_BUDGET,
    DomainError,
    InputFormatError,
    expect_list,
    read_json,
)
from .rational import parse_rational

SCHEMA = "entropy-engine/1"


def _load_model(doc):
    from .simple import model_from_spec
    return model_from_spec(doc)


def _load_relation(doc):
    from .relation import relation_from_json
    return relation_from_json(doc)


def _load_graph(doc):
    from .constants import graph_from_json
    return graph_from_json(doc)


# kind of instance file -> loader of its JSON object
LOADERS = {"model": _load_model, "relation": _load_relation, "graph": _load_graph}

# stage -> (stages that must run before it, spec sections it reads)
STAGE_TABLE = {
    "close": ((), ("relation",)),
    "check_axioms": ((), ("relation",)),
    "check_ch": (("close",), ("relation",)),
    "construct_entropy": (("close",), ("relation", "entropy")),
    "verify_principle": (("close", "construct_entropy"), ("relation",)),
    "simple_system_suite": ((), ("simple_system",)),
    "thermal_suite": ((), ("thermal",)),
    "calibration_suite": ((), ("calibration",)),
}


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
    if kind in ("name", "model", "thermal_model"):
        if not isinstance(value, str):
            raise InputFormatError("%s must be a string, got %r" % (what, value))
        model = models.get(value)
        if kind != "name" and model is None:
            raise InputFormatError("%s names an undeclared model %r" % (what, value))
        if kind == "thermal_model" and model.entropy is None:
            raise InputFormatError("%s: model %r has no entropy oracle" % (what, value))
        return value if kind == "name" else model
    if kind in ("rational", "resolution"):
        value = parse_rational(value)
        if kind == "resolution" and value <= 0:
            raise InputFormatError("%s must be positive, got %s" % (what, value))
        return value
    if kind == "rationals":
        return {k: parse_rational(v) for k, v in _object(value, what).items()}
    if kind in ("real", "temperature"):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise InputFormatError("%s must be a finite number, got %r" % (what, value))
        if kind == "temperature" and value <= 0:
            raise InputFormatError("%s must be positive, got %r" % (what, value))
        return float(value)
    if kind in ("reals", "experiments"):
        expect_list(value, what)
    if kind == "coordinate":
        if not isinstance(value, list) or len(value) != 1:
            raise InputFormatError("%s must be a one-element list, got %r"
                                   % (what, value))
        return _field("real", value[0], what, models)
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
# (>= 1) are integers; model names a declared model, thermal_model one with an
# entropy oracle; resolution is a positive rational, rationals an object of
# them, temperature a positive finite number, reals a nonempty list of finite
# numbers, coordinate a one-element list read as its finite number, and
# experiments a list of experiment sections.
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
        "left": ("thermal_model", REQUIRED),
        "right": ("thermal_model", REQUIRED),
        "experiments": ("experiments", ()),
        "flow_checks": ("count", 20),
        "zeroth_triples": ("count", 10),
        "isotherm": ("isotherm", None),
    },
    "experiment": {"U": ("real", REQUIRED), "V1": ("coordinate", REQUIRED),
                   "V2": ("coordinate", REQUIRED)},
    "isotherm": {"model": ("thermal_model", REQUIRED),
                 "T": ("temperature", REQUIRED), "v_grid": ("reals", REQUIRED)},
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


PipelineSpec = namedtuple(
    "PipelineSpec",
    "stages seed options relation entropy simple_system thermal calibration",
)
PipelineSpec.__doc__ = """A checked spec: parsed sections and loaded instances
(None if absent)."""


def spec_dir(path):
    """The directory a spec file's instance file names are relative to."""
    return os.path.dirname(os.path.abspath(path))


def load_spec_document(doc, base_dir, only_stages=None, loaders=LOADERS):
    """Load every instance a parsed spec names, inline or as a file name
    relative to `base_dir`; any problem raises an EngineError.

    With `only_stages`, the spec's stages are narrowed to those named, in
    spec order.  Each name must be a stage of the spec, and every stage a
    chosen one needs must be chosen too.  `loaders` maps "model", "relation"
    and "graph" to the function that builds that instance from its object.
    """
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
        if st in stages[:i]:
            raise InputFormatError("stage %r is listed twice" % (st,))
        needs, sections = STAGE_TABLE[st]
        for need in needs:
            if need not in stages[:i]:
                raise InputFormatError("stage %r requires %r to run first" % (st, need))
        for section in sections:
            if doc.get(section) is None:
                raise InputFormatError("stage %r needs a %s section" % (st, section))
    if only_stages is not None:
        for name in only_stages:
            if name not in stages:
                raise InputFormatError("selected stage %r is not a stage of the spec"
                                       % (name,))
        stages = [st for st in stages if st in only_stages]
        for st in stages:
            for need in STAGE_TABLE[st][0]:
                if need not in stages:
                    raise InputFormatError("selected stage %r requires %r, which "
                                           "is not selected" % (st, need))

    def load(value, kind, what):
        """An instance given inline or as a file name relative to the spec."""
        if value is None:
            return None
        if isinstance(value, str):
            value = read_json(os.path.join(base_dir, value))
        return loaders[kind](_object(value, what))

    def checked(name, empty=None):
        value = doc.get(name)
        if value is None:
            value = empty
        return None if value is None else _check(value, name, models)

    declared = doc.get("models")
    models = {
        name: load(model, "model", "model %r" % name)
        for name, model in _object({} if declared is None else declared,
                                   "models").items()
    }
    spec = PipelineSpec(
        stages=stages,
        seed=_field("integer", doc.get("seed", 0), "seed", models),
        options=checked("options", {}),
        relation=load(doc.get("relation"), "relation", "relation"),
        entropy=checked("entropy"),
        simple_system=checked("simple_system"),
        thermal=checked("thermal"),
        calibration=load(doc.get("calibration"), "graph", "calibration"),
    )
    entropy, thermal = spec.entropy, spec.thermal
    if entropy is not None:
        if entropy["ref_low"] == entropy["ref_high"]:
            raise InputFormatError("entropy.ref_low and entropy.ref_high are both %r"
                                   % entropy["ref_low"])
        if entropy["lambda_lo"] > entropy["lambda_hi"]:
            raise InputFormatError("entropy.lambda_lo %s exceeds entropy.lambda_hi %s"
                                   % (entropy["lambda_lo"], entropy["lambda_hi"]))
    if entropy is not None and spec.relation is not None:
        space = spec.relation.spaces.get(entropy["space"])
        if space is None:
            raise InputFormatError(
                "entropy.space names an undeclared space %r" % entropy["space"])
        for key in ("ref_low", "ref_high"):
            if entropy[key] not in space.state_ids:
                raise InputFormatError("entropy.%s %r is not a state of space %r"
                                       % (key, entropy[key], space.space_id))
        oracle = entropy["oracle_values"]
        if oracle is not None and set(oracle) != set(space.state_ids):
            raise InputFormatError("entropy.oracle_values must give exactly the "
                                   "states of space %r, got %s"
                                   % (space.space_id, sorted(oracle)))
    if thermal:
        from .thermal import ThermalJoin
        join = ThermalJoin(thermal["left"], thermal["right"])
        for i, exp in enumerate(thermal["experiments"]):
            _input_checked("thermal.experiments[%d]" % i, join.energy_interval,
                           exp["U"], exp["V1"], exp["V2"])
        iso = thermal["isotherm"]
        for v in iso["v_grid"] if iso else ():
            _input_checked("thermal.isotherm.v_grid",
                           iso["model"].require_work_coordinates, v)
    return spec


def _input_checked(what, check, *args):
    """Run a domain check on loaded input; its DomainError is bad input."""
    try:
        check(*args)
    except DomainError as exc:
        raise InputFormatError("%s: %s" % (what, exc)) from exc
