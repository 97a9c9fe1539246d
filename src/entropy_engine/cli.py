"""Command-line front end: run verification pipelines, validate instance files.

`validate` loads a file through the spec module's loaders, which import a
layer on first use, so it compiles only the layers the file's instances
need; `run` imports the pipeline, and with it every layer.
"""

import argparse
import gc
import os
import sys

from .errors import EngineError, InputFormatError, read_json

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2


def _detect_kind(doc):
    if not isinstance(doc, dict):
        raise InputFormatError("an instance file must hold a JSON object")
    if "stages" in doc or "schema" in doc:
        return "pipeline"
    if "type" in doc:
        return "model"
    spaces = doc.get("spaces")
    first = spaces[0] if isinstance(spaces, list) and spaces else None
    if isinstance(first, dict) and "entropy" in first:
        return "graph"
    if "spaces" in doc:
        return "relation"
    raise InputFormatError("cannot tell what kind of instance this file is")


def cmd_validate(args):
    from .spec import LOADERS, load_spec_document, spec_dir

    kind = "instance"
    try:
        doc = read_json(args.file)
        kind = _detect_kind(doc)
        if kind == "pipeline":
            load_spec_document(doc, spec_dir(args.file))
        else:
            LOADERS[kind](doc)
    except EngineError as exc:
        print("%s: invalid %s: %s" % (args.file, kind, exc), file=sys.stderr)
        return EXIT_INPUT
    print("%s: valid %s instance" % (args.file, kind))
    return EXIT_OK


def cmd_run(args):
    from .pipeline import load_pipeline_spec, run_pipeline

    try:
        spec = load_pipeline_spec(args.spec, only_stages=args.stage)
    except EngineError as exc:
        print("%s: %s" % (args.spec, exc), file=sys.stderr)
        return EXIT_INPUT
    out_dir = args.out or os.environ.get("ENTROPY_ENGINE_OUT") or "out"
    try:
        result = run_pipeline(spec, out_dir, seed=args.seed)
    except OSError as exc:
        print("pipeline failed: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    for path in result.files:
        print("wrote %s" % path)
    for violation in result.report["violations"]:
        print("violation: %s" % violation)
    return EXIT_VIOLATIONS if result.exit_code else EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="entropy-engine",
        description="Verify accessibility relations, build entropy tables, "
                    "and calibrate entropy constants from instance files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a pipeline spec")
    run_p.add_argument("spec", help="pipeline spec JSON file")
    run_p.add_argument("--out", help="output directory (default: ./out)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the spec's random seed")
    run_p.add_argument("--stage", action="append",
                       help="run only the named stage of the spec "
                            "(repeatable); the stages it needs must be "
                            "named too")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="parse and lint an instance file")
    val_p.add_argument("file")
    val_p.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    # a state name the locale cannot encode prints escaped, not as a traceback
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(errors="backslashreplace")
    return args.func(args)


def entry():
    code = main()
    # Interpreter shutdown runs full collections over every object the
    # collector tracks, about 13,000 after a `validate` and 14,000 after a
    # `run`.  From here to exit that takes 9-11 ms, and 3-4 ms once they are
    # frozen (2-vCPU Xeon, Python 3.11).  Output files are closed by now; the
    # standard streams are still flushed and atexit still runs.  main() does
    # not freeze, because tests call it in process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
