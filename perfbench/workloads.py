"""Seeded input generators and output checks for the three benchmark workloads.

Each generator writes a pipeline spec plus its instance files into a work
directory, and the answers it planted into `answers.json`.  The CLI is only
ever given the spec; the answers file is read back by `check`, which judges a
report bundle against what was planted, never against earlier program output.
"""

import csv
import json
import os
import random
from fractions import Fraction

SCHEMA = "entropy-engine/1"

# Closure sizes (facts, universe) of the relation-compose chain, grid {1/2, 1}
# and max_parts 3, keyed by chain length.  Relabelling and reordering do not
# change them; they were measured on the commit that added this benchmark,
# and any correct closure reproduces them.
CHAIN_CLOSURE = {4: (3307, 164), 5: (10243, 285)}

RELATION_STAGES = [
    "close", "check_axioms", "check_ch", "construct_entropy", "verify_principle",
]


class Workload:
    """Generated inputs of one workload: the spec, every file `validate`
    should accept, and the planted answers."""

    def __init__(self, name, work_dir, files, answers):
        self.name = name
        self.work_dir = work_dir
        self.spec = os.path.join(work_dir, "spec.json")
        self.files = [os.path.join(work_dir, f) for f in files]
        self.answers = answers


def _write(work_dir, name, doc):
    with open(os.path.join(work_dir, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _labels(rng, n, prefix):
    return ["%s%05d" % (prefix, k) for k in rng.sample(range(100000), n)]


def _part(lam, space, state):
    return {"lambda": lam, "space": space, "state": state}


def gen_relation_compose(rng, n_states=4):
    """A chain x0 < x1 < ... plus midpoint equivalences (x_{i-1}/2, x_{i+1}/2) ~ x_i.

    The planted entropy is sigma(x_i) = i / (n - 1).  The seed relabels the
    states and permutes the declaration order of states and facts.
    """
    chain = _labels(rng, n_states, "x")
    facts = [
        [[_part("1", "G", a)], [_part("1", "G", b)]]
        for a, b in zip(chain, chain[1:])
    ]
    for i in range(1, n_states - 1):
        mix = [_part("1/2", "G", chain[i - 1]), _part("1/2", "G", chain[i + 1])]
        rng.shuffle(mix)
        one = [_part("1", "G", chain[i])]
        facts += [[mix, one], [one, mix]]
    rng.shuffle(facts)
    declared = list(chain)
    rng.shuffle(declared)
    relation = {
        "spaces": [{"id": "G", "composition": ["1"], "states": declared}],
        "facts": facts,
        "lambda_grid": ["1/2", "1"],
    }
    spec = {
        "schema": SCHEMA,
        "seed": 0,
        "stages": RELATION_STAGES,
        "relation": "relation.json",
        "options": {"max_parts": 3},
        "entropy": {
            "space": "G", "ref_low": chain[0], "ref_high": chain[-1],
            "resolution": "1/2", "lambda_lo": "0", "lambda_hi": "1",
        },
    }
    facts_n, universe_n = CHAIN_CLOSURE[n_states]
    answers = {
        "sigma": {st: "%d/%d" % (i, n_states - 1) for i, st in enumerate(chain)},
        "resolution": "1/2",
        "facts": facts_n,
        "universe": universe_n,
    }
    return spec, {"relation.json": relation}, answers


def gen_physics(rng, seed, pairs=250, lipschitz_samples=50, flow_checks=500,
                zeroth_triples=125):
    """Van der Waals nesting and Lipschitz checks, then ideal-gas thermal checks.

    The workload seed is the spec seed, which draws every sampled state; the
    split experiments and the isotherm temperature are drawn here.
    """
    experiments = [
        {
            "U": round(rng.uniform(3.0, 12.0), 6),
            "V1": [round(rng.uniform(0.8, 4.5), 6)],
            "V2": [round(rng.uniform(0.8, 4.5), 6)],
        }
        for _ in range(2)
    ]
    v_grid = [0.75 + 0.5 * k for k in range(9)]
    spec = {
        "schema": SCHEMA,
        "seed": seed,
        "stages": ["simple_system_suite", "thermal_suite"],
        "models": {"vdw": "vdw.json", "gas1": "gas1.json", "gas2": "gas2.json"},
        "simple_system": {
            "model": "vdw", "pairs": pairs,
            "lipschitz_samples": lipschitz_samples,
        },
        "thermal": {
            "left": "gas1", "right": "gas2",
            "experiments": experiments,
            "flow_checks": flow_checks,
            "zeroth_triples": zeroth_triples,
            "isotherm": {
                "model": "gas1", "T": round(rng.uniform(1.0, 4.0), 6),
                "v_grid": v_grid,
            },
        },
    }
    instances = {
        "vdw.json": {"type": "van_der_waals", "a": 0.2, "b": 0.02},
        "gas1.json": {"type": "ideal_gas", "moles": "1"},
        "gas2.json": {"type": "ideal_gas", "moles": "2"},
    }
    answers = {
        "pairs": pairs,
        "moles": [1, 2],
        "split_U": [e["U"] for e in experiments],
        "flow_checks": flow_checks,
        "zeroth_triples": zeroth_triples,
        "isotherm_samples": len(v_grid),
    }
    return spec, instances, answers


def gen_calibration(rng, n_spaces=3, n_states=11, max_chain=4):
    """A tight calibration instance, built like `_tight_instance` in the
    acceptance tests, plus its cross-space relation declared as a Hasse chain.

    Every space has shifted entropy s* in 0..5 with state s0 at 0, so all
    one-step infima telescope and B(a) - B(b) is pinned to the planted
    b_true[a] - b_true[b].  The non-zero levels are dealt evenly, so every
    seed gives the same number of facts.  One space doubles as a catalyst.
    """
    names = ["g%d" % k for k in range(n_spaces)]
    b_true = {nm: rng.randint(-2, 2) for nm in names}
    star = {}
    spaces = []
    for nm in names:
        levels = [k % 6 for k in range(n_states - 1)]
        rng.shuffle(levels)
        table = {}
        for k, s in enumerate([0] + levels):
            star[(nm, "s%d" % k)] = s
            table["s%d" % k] = str(s - b_true[nm])
        spaces.append({"id": nm, "composition": ["1"], "entropy": table})
    facts = [
        [[list(x)], [list(y)]]
        for x, vx in star.items() for y, vy in star.items()
        if x != y and vx <= vy
    ]
    rng.shuffle(facts)
    graph = {
        "spaces": spaces,
        "facts": facts,
        "catalysts": [rng.choice(names)],
        "max_chain": max_chain,
    }

    # Hasse chain: a cycle through each entropy level, one step up to the next
    by_level = {}
    for x, v in sorted(star.items()):
        by_level.setdefault(v, []).append(x)
    hasse = []
    below = None
    for v in sorted(by_level):
        level = by_level[v]
        rng.shuffle(level)
        if len(level) > 1:
            hasse += [(a, b) for a, b in zip(level, level[1:] + level[:1])]
        if below is not None:
            hasse.append((below, level[0]))
        below = level[-1]
    rng.shuffle(hasse)
    relation = {
        "spaces": [
            {"id": nm, "composition": ["1"],
             "states": ["s%d" % k for k in range(n_states)]}
            for nm in names
        ],
        "facts": [
            [[_part("1", *a)], [_part("1", *b)]] for a, b in hasse
        ],
        "lambda_grid": ["1"],
    }
    spec = {
        "schema": SCHEMA,
        "seed": 0,
        "stages": ["close", "check_axioms", "check_ch", "calibration_suite"],
        "relation": "relation.json",
        "calibration": "graph.json",
        "options": {"max_parts": 1},
    }
    values = list(star.values())
    answers = {
        "b_true": b_true,
        "facts": sum(1 for a in values for b in values if a <= b),
        "universe": len(values),
    }
    return spec, {"relation.json": relation, "graph.json": graph}, answers


def generate(name, seed, work_dir):
    """Write the workload's spec, instances and answers; same seed, same bytes."""
    rng = random.Random("%s:%d" % (name, seed))
    if name == "relation-compose":
        spec, instances, answers = gen_relation_compose(rng)
    elif name == "physics":
        spec, instances, answers = gen_physics(rng, seed)
    elif name == "calibration":
        spec, instances, answers = gen_calibration(rng)
    else:
        raise ValueError("unknown workload %r" % name)
    os.makedirs(work_dir, exist_ok=True)
    _write(work_dir, "spec.json", spec)
    for fname, doc in instances.items():
        _write(work_dir, fname, doc)
    _write(work_dir, "answers.json", answers)
    return Workload(name, work_dir, ["spec.json"] + sorted(instances), answers)


# ------------------------------------------------------------------- checks


def _read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def _check_relation_stages(reports, answers, problems):
    close = reports.get("close", {})
    for key in ("facts", "universe"):
        if close.get(key) != answers[key]:
            problems.append("close %s %r, planted %r"
                            % (key, close.get(key), answers[key]))
    scans = reports.get("check_axioms", {})
    if not scans:
        problems.append("no axiom scan in the report")
    for name, scan in sorted(scans.items()):
        if scan.get("violation_count") != 0:
            problems.append("scanner %s: %r violations"
                            % (name, scan.get("violation_count")))
    if reports.get("check_ch", {}).get("holds") is not True:
        problems.append("comparison hypothesis does not hold")


def check_relation_compose(out_dir, answers):
    reports = _read_report(out_dir)["reports"]
    problems = []
    _check_relation_stages(reports, answers, problems)
    if reports.get("verify_principle", {}).get("violations") != 0:
        problems.append("entropy principle violated")
    res = Fraction(answers["resolution"])
    want = {
        st: (Fraction(v) // res) * res for st, v in answers["sigma"].items()
    }
    with open(os.path.join(out_dir, "entropy_tables.csv")) as fh:
        got = {row["state"]: Fraction(row["S"]) for row in csv.DictReader(fh)}
    if got != want:
        problems.append("entropy table %s, planted floor %s" % (
            sorted((k, str(v)) for k, v in got.items()),
            sorted((k, str(v)) for k, v in want.items()),
        ))
    return problems


def check_physics(out_dir, answers):
    reports = _read_report(out_dir)["reports"]
    problems = []
    simple = reports.get("simple_system_suite", {})
    cases = simple.get("nesting_cases", {})
    if sum(cases.values()) != answers["pairs"]:
        problems.append("nesting cases %r do not sum to %d pairs"
                        % (cases, answers["pairs"]))
    if "crossing" in cases:
        problems.append("crossing forward sectors: %r" % cases)
    thermal = reports.get("thermal_suite", {})
    n1, n2 = answers["moles"]
    experiments = thermal.get("experiments", [])
    if [e.get("U") for e in experiments] != answers["split_U"]:
        problems.append("split experiments %r, planted U %r"
                        % ([e.get("U") for e in experiments], answers["split_U"]))
    for exp in experiments:
        u = exp["U"]
        for got, share in ((exp["U1"], n1), (exp["U2"], n2)):
            want = u * share / (n1 + n2)
            if abs(got - want) > 1e-9 * want:
                problems.append("split of U=%r gives %r, mole ratio wants %r"
                                % (u, got, want))
    for key, got in (
        ("flow_checks", thermal.get("flow_checks")),
        ("zeroth_triples", thermal.get("zeroth_law", {}).get("checked")),
        ("isotherm_samples", thermal.get("isotherm_samples")),
    ):
        if got != answers[key]:
            problems.append("%s %r, planted %r" % (key, got, answers[key]))
    return problems


def check_calibration(out_dir, answers):
    reports = _read_report(out_dir)["reports"]
    problems = []
    _check_relation_stages(reports, answers, problems)
    cal = reports.get("calibration_suite", {})
    if cal.get("no_sinks") is not True:
        problems.append("sink structure reported")
    b_true = answers["b_true"]
    got = {k: Fraction(v) for k, v in cal.get("B", {}).items()}
    if sorted(got) != sorted(b_true):
        problems.append("B covers %r, planted %r" % (sorted(got), sorted(b_true)))
    else:
        for a in sorted(b_true):
            for b in sorted(b_true):
                if got[a] - got[b] != b_true[a] - b_true[b]:
                    problems.append("B(%s) - B(%s) = %s, planted %d"
                                    % (a, b, got[a] - got[b],
                                       b_true[a] - b_true[b]))
    if cal.get("gaps") != {}:
        problems.append("gaps %r, planted none" % (cal.get("gaps"),))
    if not os.path.exists(os.path.join(out_dir, "def_matrices.csv")):
        problems.append("def_matrices.csv missing")
    return problems


CHECKS = {
    "relation-compose": check_relation_compose,
    "physics": check_physics,
    "calibration": check_calibration,
}


def check(name, out_dir, answers, exit_code):
    """Problems found in one invocation's bundle; empty means correct."""
    if exit_code != 0:
        return ["exit code %d" % exit_code]
    try:
        report = _read_report(out_dir)
        problems = []
        if report.get("violations"):
            problems.append("violations: %r" % report["violations"][:3])
        return problems + CHECKS[name](out_dir, answers)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return ["unreadable bundle: %s: %s" % (type(exc).__name__, exc)]
