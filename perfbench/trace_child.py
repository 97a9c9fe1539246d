"""Run the entropy-engine CLI with spans around every call into a layer.

Usage: python3 perfbench/trace_child.py SPANS_JSON RUN_ID CLI_ARGS...

The package must be importable (PYTHONPATH=src).  Before calling
`entropy_engine.cli.main`, the functions that `entropy_engine.pipeline`
imported from the layer modules, each `STAGE_FUNCS` entry and `emit_report`
are replaced in the pipeline namespace by timing wrappers.  Models returned
by `model_from_spec` get counting wrappers on `pressure` and `entropy`.
Spans stay in memory and are written to SPANS_JSON when the CLI returns.
"""

import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("relation", "entropy", "simple", "thermal", "constants")
# counters attached to the models; each span records how far they moved
COUNTERS = ("pressure", "entropy")


def _close_attrs(rel):
    return {"facts": len(rel.facts), "universe": len(rel.successors)}


# work counters read off a layer function's return value
RESULT_ATTRS = {
    "relation.close": _close_attrs,
    "relation.run_axiom_scan": lambda r: {
        "checked": sum(rep.checked for rep in r.values())
    },
    "relation.check_comparison_hypothesis": lambda r: {"pairs": r.pairs_checked},
    "entropy.construct_entropy": lambda r: {"states": len(r.values)},
    "entropy.verify_entropy_principle": lambda r: {"facts": r.facts_checked},
    "constants.graph_from_json": lambda g: {
        "facts": len(g.facts), "spaces": len(g.nodes)
    },
    "pipeline.emit_report": lambda paths: {
        "bytes": sum(os.path.getsize(p) for p in paths)
    },
}


class Tracer:
    """In-memory span recorder for one process.

    A span is a dict: id, name, parent id, run id, start and end times in
    seconds, the counter deltas seen inside it, optional work attributes and
    the exception type that ended it, if any.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counters = [0] * len(COUNTERS)

    def wrap(self, name, fn):
        attrs_of = RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self.stack[-1] if self.stack else None,
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            before = list(self.counters)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                self.stack.pop()
                span["counts"] = {
                    c: now - was for c, now, was
                    in zip(COUNTERS, self.counters, before) if now != was
                }
            if attrs_of is not None:
                span["attrs"] = attrs_of(result)
            return result

        return traced

    def count(self, index, fn):
        counters = self.counters

        def counted(*args):
            counters[index] += 1
            return fn(*args)

        return counted

    def instrument(self, pipeline):
        """Swap the pipeline's layer calls, stages and emitter for wrappers."""
        for attr, obj in list(vars(pipeline).items()):
            if not inspect.isfunction(obj):
                continue
            module = obj.__module__.rpartition(".")[2]
            if module in LAYERS:
                setattr(pipeline, attr, self.wrap("%s.%s" % (module, attr), obj))
        load_model = pipeline.model_from_spec

        def model_from_spec(doc):
            model = load_model(doc)
            for index, name in enumerate(COUNTERS):
                fn = getattr(model, name)
                if fn is not None:
                    setattr(model, name, self.count(index, fn))
            return model

        pipeline.model_from_spec = model_from_spec
        for stage, fn in list(pipeline.STAGE_FUNCS.items()):
            pipeline.STAGE_FUNCS[stage] = self.wrap("stage." + stage, fn)
        pipeline.emit_report = self.wrap("pipeline.emit_report",
                                         pipeline.emit_report)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def main(argv):
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    t0 = perf_counter()
    from entropy_engine import cli, pipeline
    tracer.spans.append({
        "id": 0, "name": "import", "run": run_id, "parent": None,
        "start": t0, "end": perf_counter(), "counts": {},
    })
    tracer.instrument(pipeline)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
