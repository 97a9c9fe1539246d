import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from entropy_engine import relation
from entropy_engine.errors import (
    ClosureBudgetError,
    CompositionMismatchError,
    RelationSpecError,
    UnclosedRelationError,
    UnknownStateError,
)
from entropy_engine.relation import (
    EQUIVALENT,
    INCOMPARABLE,
    STRICTLY_FOLLOWS,
    STRICTLY_PRECEDES,
    EpsilonFamily,
    OracleRelation,
    accessible_signed,
    build_relation,
    check_comparison_hypothesis,
    check_stability,
    classify,
    close,
    relation_from_json,
    run_axiom_scan,
)
from entropy_engine.relation import Relation
from entropy_engine.states import compound, make_space, single
from relation_fixtures import relation_from_oracle

HALF = Fraction(1, 2)
GRID = [HALF, Fraction(1)]


def space(states="xyz", name="G"):
    return make_space(name, [1], list(states))


def fact(a, b, name="G"):
    return (single(name, a), single(name, b))


# ---------------------------------------------------------------- build


def test_build_empty_facts_gives_reflexive_diagonal_only():
    rel = build_relation([space("x")], [], [Fraction(1)])
    x = single("G", "x")
    assert rel.facts == {(x, x)}


def test_build_adds_reflexive_pairs_for_generators():
    rel = build_relation([space("xy")], [fact("x", "y")], [Fraction(1)])
    x, y = single("G", "x"), single("G", "y")
    assert rel.facts == {(x, x), (y, y), (x, y)}


def test_facts_is_a_read_only_view_of_successors():
    rel = build_relation([space("xy")], [fact("x", "y")], [Fraction(1)])
    x, y = single("G", "x"), single("G", "y")
    assert len(rel.facts) == 3 and (x, y) in rel.facts and (y, x) not in rel.facts
    with pytest.raises(AttributeError):
        rel.facts.add((y, x))
    assert rel.successors == {x: {x, y}, y: {y}}
    # a hand-built relation interns its states in first-seen order, left
    # before right, into the one store that holds its facts
    z = single("G", "z")
    rel = Relation(spaces=dict(rel.spaces), lambda_grid=rel.lambda_grid,
                   facts=[(y, z), (x, y)])
    assert list(rel.store.index) == [y, z, x]
    assert rel.successors == {y: {z}, z: set(), x: {y}}
    assert rel.fact_count() == len(rel.facts) == 2


def test_build_duplicate_facts_stored_once():
    rel = build_relation(
        [space("xy")], [fact("x", "y"), fact("x", "y")], [Fraction(1)]
    )
    assert len([f for f in rel.facts if f[0] != f[1]]) == 1


def test_build_unknown_state_rejected():
    with pytest.raises(UnknownStateError):
        build_relation([space("xy")], [fact("x", "q")], [Fraction(1)])


def test_build_grid_must_contain_one():
    with pytest.raises(RelationSpecError):
        build_relation([space("xy")], [], [HALF])


def test_build_nonpositive_lambda_rejected():
    with pytest.raises(RelationSpecError):
        build_relation([space("xy")], [], [Fraction(0), Fraction(1)])


def test_build_rejects_composition_mismatch():
    g = make_space("G", [1], ["x"])
    h = make_space("H", [2], ["y"])
    with pytest.raises(CompositionMismatchError):
        build_relation([g, h], [(single("G", "x"), single("H", "y"))], [Fraction(1)])


# ---------------------------------------------------------------- close


def test_close_adds_transitive_fact():
    rel = close(build_relation(
        [space()], [fact("x", "y"), fact("y", "z")], [Fraction(1)]
    ))
    assert rel.accessible(single("G", "x"), single("G", "z"))


def test_close_splitting_example_with_half_grid():
    rel = close(build_relation([space("xy")], [fact("x", "y")], GRID), max_parts=2)
    x = single("G", "x")
    halves = compound([(HALF, "G", "x"), (HALF, "G", "x")])
    assert rel.accessible(x, halves)
    assert rel.accessible(halves, x)
    scaled = (single("G", "x", HALF), single("G", "y", HALF))
    assert scaled in rel.facts


def test_close_empty_facts_reflexive_only_universe():
    rel = close(build_relation([space("xy")], [], [Fraction(1)]))
    assert all(left == right for left, right in rel.facts)


def test_close_is_idempotent():
    rel = close(build_relation(
        [space()], [fact("x", "y"), fact("y", "z")], GRID
    ), max_parts=2)
    again = close(rel, max_parts=2)
    assert again.facts == rel.facts


def midpoint_chain(n, rng, grid=GRID):
    """The chain x0 < ... < x{n-1} plus the midpoint equivalences
    (x_{i-1}/2, x_{i+1}/2) ~ x_i over `grid`, with facts and states declared
    in an order shuffled by rng."""
    chain = ["x%d" % i for i in range(n)]
    facts = [fact(a, b) for a, b in zip(chain, chain[1:])]
    for lo, mid, hi in zip(chain, chain[1:], chain[2:]):
        mix = compound([(HALF, "G", lo), (HALF, "G", hi)])
        facts += [(mix, single("G", mid)), (single("G", mid), mix)]
    rng.shuffle(facts)
    rng.shuffle(chain)
    return build_relation([space(chain)], facts, grid)


QUARTERS = [Fraction(k, 4) for k in range(1, 5)]

# per-rule checked counts of run_axiom_scan on the 4-state quarters chain,
# pinned from the per-fact closure and scan that the row-based ones replaced
QUARTERS_CHECKED = {"cancellation": 36624, "consistency": 180770, "reflexivity": 968,
                    "scaling_invariance": 3891, "splitting_recombination": 592,
                    "stability": 0, "transitivity": 3037004}


@pytest.mark.parametrize("n, grid, facts, states", [
    pytest.param(5, GRID, 10243, 285, id="5-10243-285"),
    pytest.param(6, GRID, 26522, 454, id="6-26522-454"),
    pytest.param(4, QUARTERS, 60826, 968, id="4-quarters-60826-968")])
def test_chain_closure_sizes_do_not_depend_on_declaration_order(n, grid, facts, states):
    closures = [close(midpoint_chain(n, random.Random(seed), grid), max_parts=3)
                for seed in range(3)]
    for closed in closures:
        assert (len(closed.facts), len(closed.successors)) == (facts, states)
        assert closed.successors == closures[0].successors
    if grid is QUARTERS:
        reports = run_axiom_scan(closures[0], max_parts=3)
        assert {name: rep.checked for name, rep in reports.items()} == QUARTERS_CHECKED
        assert all(rep.holds for rep in reports.values())


def test_close_budget_exceeded_raises():
    with pytest.raises(ClosureBudgetError) as info:
        close(build_relation(
            [space("abcdef")],
            [fact(a, b) for a, b in [("a", "b"), ("b", "c"), ("c", "d")]],
            GRID,
        ), max_parts=3, budget=50)
    exc = info.value
    assert (exc.budget, exc.facts) == (50, 51)
    # the message names the rule and the part counts of the overflowing fact
    assert exc.rule in ("input", "reflexive", "split", "transitivity",
                        "scaling", "consistency", "cancellation")
    assert len(exc.parts) == 2 and all(1 <= n <= 3 for n in exc.parts)
    assert "%s fact with %d -> %d parts" % ((exc.rule,) + exc.parts) in str(exc)


BUDGET_MESSAGES = """
from entropy_engine.errors import ClosureBudgetError
from entropy_engine.relation import build_relation, close
from entropy_engine.states import compound, make_space, single

chain = ["x0", "x1", "x2", "x3"]
facts = [(single("G", a), single("G", b)) for a, b in zip(chain, chain[1:])]
for lo, mid, hi in zip(chain, chain[1:], chain[2:]):
    mix = compound([("1/2", "G", lo), ("1/2", "G", hi)])
    facts += [(mix, single("G", mid)), (single("G", mid), mix)]
rel = build_relation([make_space("G", [1], chain)], facts, ["1/2", "1"])
# the chain closes to 3,307 facts: 3306 is the last budget it exceeds
for budget in (40, 200, 1000, 3306, 3307):
    try:
        closed = close(rel, max_parts=3, budget=budget)
        print("closed within %d: %d facts" % (budget, closed.fact_count()))
    except ClosureBudgetError as exc:
        print(exc.budget, exc.facts, exc)
"""


def test_close_budget_message_does_not_depend_on_string_hashing():
    src = os.path.dirname(os.path.dirname(relation.__file__))
    outputs = set()
    for hash_seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", BUDGET_MESSAGES], capture_output=True,
            text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("closure exceeded the fact budget") == 4
        lines = proc.stdout.splitlines()
        assert lines[3].startswith("3306 3307 ")
        assert lines[4] == "closed within 3307: 3307 facts"
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


# ---------------------------------------------------------------- queries


def test_accessible_reflexive():
    rel = close(build_relation([space("x")], [], [Fraction(1)]))
    assert rel.accessible(single("G", "x"), single("G", "x"))


def test_explosion_is_one_way():
    # free expansion: X reaches Y but no process leads back
    rel = close(build_relation([space("xy")], [fact("x", "y")], [Fraction(1)]))
    assert rel.accessible(single("G", "x"), single("G", "y"))
    assert not rel.accessible(single("G", "y"), single("G", "x"))


def test_accessible_requires_closed_relation():
    rel = build_relation([space("xy")], [fact("x", "y")], [Fraction(1)])
    with pytest.raises(UnclosedRelationError):
        rel.accessible(single("G", "x"), single("G", "y"))


def test_accessible_answers_on_both_backends():
    g = space("xy")
    x, y = single("G", "x"), single("G", "y")
    explicit = close(build_relation([g], [fact("x", "y")], [Fraction(1)]))
    oracle = OracleRelation([g], {("G", "x"): Fraction(0), ("G", "y"): Fraction(1)})
    for rel in (explicit, oracle):
        assert rel.accessible(x, y)
        assert not rel.accessible(y, x)


def test_accessible_signed_normalizes_queries():
    rel = close(build_relation([space("xy")], [fact("x", "y")], [Fraction(1)]))
    # (x, -x) below y normalizes to x below (x, y): not a fact here
    assert not accessible_signed(
        rel, [(1, "G", "x"), (-1, "G", "x")], [(1, "G", "y")]
    )
    assert accessible_signed(rel, [(1, "G", "x")], [(1, "G", "y")])


def test_classify_cases():
    rel = close(build_relation([space()], [fact("x", "y")], [Fraction(1)]))
    assert classify(rel, single("G", "x"), single("G", "x")) == EQUIVALENT
    assert classify(rel, single("G", "x"), single("G", "y")) == STRICTLY_PRECEDES
    assert classify(rel, single("G", "y"), single("G", "x")) == STRICTLY_FOLLOWS
    assert classify(rel, single("G", "x"), single("G", "z")) == INCOMPARABLE


def test_unequal_composition_always_incomparable():
    g = make_space("G", [1, 0], ["a", "b"])
    h = make_space("H", [0, 1], ["c", "d"])
    rel = close(build_relation([g, h], [], [Fraction(1)]))
    for s1 in ("a", "b"):
        for s2 in ("c", "d"):
            assert classify(rel, single("G", s1), single("H", s2)) == INCOMPARABLE


# ------------------------------------------------- comparison hypothesis


def test_ch_holds_on_total_order():
    rel = close(build_relation(
        [space()], [fact("x", "y"), fact("y", "z")], [Fraction(1)]
    ), max_parts=1)
    assert rel.universe == {single("G", s) for s in "xyz"}
    result = check_comparison_hypothesis(rel)
    assert result.holds
    assert result.pairs_checked == 3


def test_ch_fails_on_two_disjoint_chains():
    rel = close(build_relation(
        [space("abcd")], [fact("a", "b"), fact("c", "d")], [Fraction(1)]
    ))
    result = check_comparison_hypothesis(rel)
    assert not result.holds
    x, y = result.witness
    chains = ({"a", "b"}, {"c", "d"})
    sides = {x.parts[0][1], y.parts[0][1]}
    assert sides & chains[0] and sides & chains[1]


def test_ch_holds_on_oracle_grid():
    states = [str(k) for k in range(5)]
    g = make_space("G", [1], states)
    sigma = {("G", s): Fraction(int(s)) for s in states}
    rel = relation_from_oracle([g], sigma, [single("G", s) for s in states])
    assert check_comparison_hypothesis(rel).holds


# ---------------------------------------------------------- cancellation


def test_cancellation_holds_after_closing_single_fact():
    rel = close(build_relation([space("xy")], [fact("x", "y")], GRID), max_parts=2)
    assert run_axiom_scan(rel, max_parts=2)["cancellation"].holds


def test_cancellation_fails_on_hand_built_unclosed_relation():
    g = space()
    xz = compound([(1, "G", "x"), (1, "G", "z")])
    yz = compound([(1, "G", "y"), (1, "G", "z")])
    rel = Relation(spaces={g.space_id: g}, lambda_grid=frozenset(GRID),
                   facts=[(xz, yz)])
    report = run_axiom_scan(rel)["cancellation"]
    assert not report.holds
    (pair, reduced) = report.violations[0]
    assert reduced == (single("G", "x"), single("G", "y"))


def test_cancellation_holds_on_oracle_relation():
    states = ["a", "b", "c"]
    g = make_space("G", [1], states)
    sigma = {("G", "a"): Fraction(0), ("G", "b"): Fraction(1), ("G", "c"): Fraction(2)}
    universe = [single("G", s) for s in states]
    universe += [
        compound([(1, "G", s), (1, "G", t)]) for s in states for t in states
    ]
    rel = relation_from_oracle([g], sigma, universe)
    assert run_axiom_scan(rel)["cancellation"].holds


# -------------------------------------------------------------- stability


def test_stability_flags_missing_limit_fact():
    g = space("xyzw")
    eps = [HALF, Fraction(1, 4)]
    x, y = single("G", "x"), single("G", "y")
    z0, z1 = single("G", "z"), single("G", "w")
    facts = []
    for e in eps:
        facts.append((x.combine(z0.scale(e)), y.combine(z1.scale(e))))
    family = EpsilonFamily(X=x, Y=y, Z0=z0, Z1=z1, epsilons=tuple(eps))
    grid = [Fraction(1, 4), HALF, Fraction(1)]
    rel = build_relation([g], facts, grid, [family])
    report = check_stability(rel)
    assert not report.holds

    rel2 = build_relation([g], facts + [(x, y)], grid, [family])
    assert check_stability(rel2).holds


def test_stability_skips_families_with_missing_premises():
    g = space("xyzw")
    x, y = single("G", "x"), single("G", "y")
    family = EpsilonFamily(
        X=x, Y=y, Z0=single("G", "z"), Z1=single("G", "w"), epsilons=(HALF,)
    )
    rel = build_relation([g], [], [HALF, Fraction(1)], [family])
    report = check_stability(rel)
    assert report.holds and report.checked == 0


# ------------------------------------------------------------- axiom scan


def test_axiom_scan_interns_the_relation_once(monkeypatch):
    built = []

    class CountingStore(relation._FactStore):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(relation, "_FactStore", CountingStore)
    # a hand-built relation is interned once, at construction, and its scans
    # read that store
    rel = build_relation(
        [space("wxyz")], [fact("w", "x"), fact("x", "y"), fact("y", "z")], GRID
    )
    assert len(built) == 1
    run_axiom_scan(rel, max_parts=2)
    run_axiom_scan(rel, max_parts=2)
    assert len(built) == 1
    # close() builds one store, and the scan and CH read it
    closed = close(rel, max_parts=2)
    reports = run_axiom_scan(closed, max_parts=2)
    check_comparison_hypothesis(closed)
    assert len(built) == 2
    assert all(rep.holds for rep in reports.values())
    assert reports["reflexivity"].checked == len(closed.universe)


def test_holders_are_entered_once_per_store(monkeypatch):
    held = []
    monkeypatch.setattr(relation._FactStore, "hold",
                        lambda store, sid, hold=relation._FactStore.hold:
                        held.append(sid) or hold(store, sid))
    rel = build_relation(
        [space("wxyz")], [fact("w", "x"), fact("x", "y"), fact("y", "z")], GRID
    )
    # a hand-built relation enters its universe on its first scan only
    for _ in range(2):
        assert run_axiom_scan(rel, max_parts=2)["cancellation"].holds
        assert sorted(held) == sorted(rel.store.index.values())
    # close() enters each state it meets, and the scan reads that index
    held.clear()
    closed = close(rel, max_parts=2)
    assert sorted(held) == sorted(closed.store.index.values())
    run_axiom_scan(closed, max_parts=2)
    assert len(held) == len(closed.universe)


# ------------------------------------------------------------- properties


@st.composite
def random_relation(draw):
    n_states = draw(st.integers(min_value=2, max_value=4))
    states = [chr(ord("a") + k) for k in range(n_states)]
    n_facts = draw(st.integers(min_value=0, max_value=3))
    facts = []
    for _ in range(n_facts):
        a = draw(st.sampled_from(states))
        b = draw(st.sampled_from(states))
        facts.append(fact(a, b))
    return build_relation([space("".join(states))], facts, GRID)


@settings(max_examples=20, deadline=None)
@given(random_relation())
def test_closure_idempotent_and_axioms_hold(rel):
    closed = close(rel, max_parts=2)
    assert close(closed, max_parts=2).facts == closed.facts
    reports = run_axiom_scan(closed, max_parts=2)
    assert all(rep.holds for rep in reports.values())


@settings(max_examples=15, deadline=None)
@given(random_relation())
def test_classify_strict_outcomes_are_antisymmetric(rel):
    closed = close(rel, max_parts=2)
    states = closed.spaces["G"].state_ids
    for a in states:
        for b in states:
            x, y = single("G", a), single("G", b)
            fwd, back = classify(closed, x, y), classify(closed, y, x)
            if fwd == STRICTLY_PRECEDES:
                assert back == STRICTLY_FOLLOWS
            if fwd == EQUIVALENT:
                assert back == EQUIVALENT


# ------------------------------------------------------------------ JSON


def test_relation_json_round_trip():
    doc = {
        "spaces": [{"id": "G", "composition": ["1"], "states": ["x", "y"]}],
        "facts": [[
            [{"lambda": "1", "space": "G", "state": "x"}],
            [{"lambda": "1/2", "space": "G", "state": "y"},
             {"lambda": "1/2", "space": "G", "state": "y"}],
        ]],
        "lambda_grid": ["1/2", "1"],
        "epsilon_families": [{
            "X": [{"lambda": "1", "space": "G", "state": "x"}],
            "Y": [{"lambda": "1", "space": "G", "state": "y"}],
            "Z0": [{"lambda": "1", "space": "G", "state": "x"}],
            "Z1": [{"lambda": "1", "space": "G", "state": "y"}],
            "epsilons": ["1/2"],
        }],
    }
    rel = relation_from_json(doc)
    assert len(rel.epsilon_families) == 1
    target = compound([(HALF, "G", "y"), (HALF, "G", "y")])
    assert (single("G", "x"), target) in rel.facts


def test_relation_json_missing_field():
    with pytest.raises(RelationSpecError):
        relation_from_json({"facts": []})


# --------------------------------------------------------- oracle backend


def test_oracle_relation_respects_scale_signature():
    g = make_space("G", [1], ["a", "b"])
    sigma = {("G", "a"): Fraction(0), ("G", "b"): Fraction(1)}
    rel = OracleRelation([g], sigma)
    a, b = single("G", "a"), single("G", "b")
    assert rel.accessible(a, b)
    assert not rel.accessible(b, a)
    assert not rel.accessible(a, b.scale(HALF))  # totals differ
    halves = compound([(HALF, "G", "a"), (HALF, "G", "a")])
    assert rel.accessible(a, halves) and rel.accessible(halves, a)


def test_materialized_oracle_relation_passes_scanners():
    g = make_space("G", [1], ["a", "b"])
    sigma = {("G", "a"): Fraction(0), ("G", "b"): Fraction(1)}
    # every state of at most two parts over the grid: the rules at max_parts
    # 2 lead nowhere else
    parts = [(lam, "G", st) for st in "ab" for lam in GRID]
    universe = [compound(c) for n in (1, 2)
                for c in combinations_with_replacement(parts, n)]
    rel = relation_from_oracle([g], sigma, universe, lambda_grid=GRID)
    assert close(rel, max_parts=2).universe == rel.universe
    reports = run_axiom_scan(rel, max_parts=2)
    assert all(rep.checked for rep in reports.values() if rep.name != "stability")
    assert all(rep.holds for rep in reports.values())
