"""Frozen reference implementation of the relation layer's rule engine.

These are the Fraction-level versions of close, the structural axiom
scanners, the comparison-hypothesis scan and verify_entropy_principle that
the interned, integer-scaled fact store in entropy_engine.relation replaced.
They work directly on CompoundState pairs with Fraction scales and rescan the
fact set for every rule, so they are slow but follow the rules as written.  Differential tests
compare the package against them.  Do not optimise this module.
"""

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from entropy_engine.entropy import PrincipleReport, PrincipleViolation
from entropy_engine.errors import (
    ClosureBudgetError,
    DegenerateTableError,
    UnclosedRelationError,
)
from entropy_engine.relation import AxiomReport, CHResult
from entropy_engine.states import CompoundState


@dataclass
class Relation:
    """An accessibility relation over declared state spaces.

    facts is a set of ordered (CompoundState, CompoundState) pairs; universe
    is the set of compound states appearing in them.  After close() the
    relation is immutable by convention and all queries are pure.
    """

    search_mode = "grid"  # construct_entropy's default for this backend
    spaces: dict
    facts: set
    lambda_grid: frozenset
    closed: bool = False
    epsilon_families: tuple = ()
    successors: dict = field(default_factory=dict, repr=False)
    predecessors: dict = field(default_factory=dict, repr=False)

    @property
    def universe(self):
        return set(self.successors)

    def fact_count(self):
        return len(self.facts)

    def in_universe(self, state):
        return state in self.successors

    def accessible(self, x, y):
        """Is (x, y) a fact?  Raises UnclosedRelationError before close()."""
        if not self.closed:
            raise UnclosedRelationError(
                "accessible() on an unclosed relation would give false negatives"
            )
        return y in self.successors.get(x, ())


def _index_fact(rel, pair):
    left, right = pair
    rel.successors.setdefault(left, set()).add(right)
    rel.successors.setdefault(right, set())
    rel.predecessors.setdefault(right, set()).add(left)
    rel.predecessors.setdefault(left, set())


def _scaled_pair(pair, lam, grid):
    """Scale both sides of a fact by lam; None when a part leaves the grid."""
    out = []
    for state in pair:
        parts = []
        for sp, st, mu in state.parts:
            prod = mu * lam
            if prod not in grid:
                return None
            parts.append((sp, st, prod))
        out.append(CompoundState(tuple(sorted(parts))))
    return tuple(out)


def _split_variants(state, grid, max_parts):
    """All one-part splits and merges of `state` allowed by grid and size."""
    variants = []
    parts = state.parts
    if len(parts) + 1 <= max_parts:
        for i, (sp, st, mu) in enumerate(parts):
            for lam in grid:
                if lam >= 1:
                    continue
                a, b = mu * lam, mu * (1 - lam)
                if a in grid and b in grid:
                    rest = parts[:i] + parts[i + 1:]
                    variants.append(CompoundState(
                        tuple(sorted(rest + ((sp, st, a), (sp, st, b))))
                    ))
    if len(parts) >= 2:
        for i, j in combinations(range(len(parts)), 2):
            si, sj = parts[i], parts[j]
            if si[0] == sj[0] and si[1] == sj[1]:
                merged = si[2] + sj[2]
                if merged in grid:
                    rest = tuple(p for k, p in enumerate(parts) if k not in (i, j))
                    variants.append(CompoundState(
                        tuple(sorted(rest + ((si[0], si[1], merged),)))
                    ))
    return variants


def _sub_multisets(items):
    """Nonempty proper-or-full sub-multisets of a small part tuple."""
    subs = set()
    n = len(items)
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            subs.add(tuple(items[k] for k in combo))
    return subs


def _remove_parts(state, sub):
    remaining = list(state.parts)
    for p in sub:
        remaining.remove(p)
    if not remaining:
        return None
    return CompoundState(tuple(sorted(remaining)))


def _cancelled_pairs(pair):
    """Facts implied by the cancellation law: drop a common part bundle."""
    left, right = pair
    common = set(_sub_multisets(left.parts)) & set(_sub_multisets(right.parts))
    out = []
    for sub in common:
        new_left = _remove_parts(left, sub)
        new_right = _remove_parts(right, sub)
        if new_left is not None and new_right is not None:
            out.append((new_left, new_right))
    return out


def close(rel, max_parts=3, budget=10 ** 6):
    """Saturate the relation under the structural rules (Fraction level)."""
    out = Relation(
        spaces=dict(rel.spaces),
        facts=set(),
        lambda_grid=rel.lambda_grid,
        epsilon_families=tuple(rel.epsilon_families),
    )
    grid = rel.lambda_grid
    queue = deque()
    size_buckets = {}
    seen_states = set()

    def add_fact(pair):
        if pair in out.facts:
            return
        out.facts.add(pair)
        if len(out.facts) > budget:
            raise ClosureBudgetError(budget, len(out.facts))
        _index_fact(out, pair)
        size_buckets.setdefault((len(pair[0]), len(pair[1])), []).append(pair)
        queue.append(pair)
        for state in pair:
            ensure_state(state)

    def ensure_state(state):
        if state in seen_states:
            return
        seen_states.add(state)
        add_fact((state, state))
        for variant in _split_variants(state, grid, max_parts):
            add_fact((state, variant))
            add_fact((variant, state))

    for left, right in rel.facts:
        add_fact((left, right))

    while queue:
        left, right = queue.popleft()
        for nxt in list(out.successors.get(right, ())):
            add_fact((left, nxt))
        for prev in list(out.predecessors.get(left, ())):
            add_fact((prev, right))
        for lam in grid:
            if lam == 1:
                continue
            scaled = _scaled_pair((left, right), lam, grid)
            if scaled is not None:
                add_fact(scaled)
        for (ls, rs), bucket in list(size_buckets.items()):
            if len(left) + ls > max_parts or len(right) + rs > max_parts:
                continue
            for other_left, other_right in list(bucket):
                add_fact((left.combine(other_left), right.combine(other_right)))
        for pair in _cancelled_pairs((left, right)):
            add_fact(pair)

    out.closed = True
    return out


def check_comparison_hypothesis(rel, universe=None):
    """Scan a universe for an incomparable pair of equal scale totals, one
    pair at a time through rel.accessible."""
    universe = sorted(rel.universe, key=str) if universe is None else list(universe)
    by_signature = {}
    for state in universe:
        sig = tuple(sorted(state.total_scale_by_space().items()))
        by_signature.setdefault(sig, []).append(state)
    checked = 0
    for group in by_signature.values():
        for x, y in combinations(group, 2):
            checked += 1
            if not rel.accessible(x, y) and not rel.accessible(y, x):
                return CHResult(False, (x, y), checked, len(universe))
    return CHResult(True, None, checked, len(universe))


def check_reflexivity(rel):
    viol = [s for s in rel.universe if (s, s) not in rel.facts]
    return AxiomReport("reflexivity", len(rel.universe), viol)


def check_transitivity(rel):
    viol = []
    checked = 0
    for left, right in rel.facts:
        for nxt in rel.successors.get(right, ()):
            checked += 1
            if (left, nxt) not in rel.facts:
                viol.append((left, right, nxt))
    return AxiomReport("transitivity", checked, viol)


def check_consistency(rel, max_parts=3, universe_only=False):
    viol = []
    checked = 0
    buckets = {}
    for pair in rel.facts:
        buckets.setdefault((len(pair[0]), len(pair[1])), []).append(pair)
    for (l1, r1), bucket1 in buckets.items():
        for (l2, r2), bucket2 in buckets.items():
            if l1 + l2 > max_parts or r1 + r2 > max_parts:
                continue
            for p1 in bucket1:
                for p2 in bucket2:
                    combined = (p1[0].combine(p2[0]), p1[1].combine(p2[1]))
                    if universe_only and not (
                        rel.in_universe(combined[0]) and rel.in_universe(combined[1])
                    ):
                        continue
                    checked += 1
                    if combined not in rel.facts:
                        viol.append((p1, p2))
    return AxiomReport("consistency", checked, viol)


def check_scaling_invariance(rel, universe_only=False):
    viol = []
    checked = 0
    for pair in rel.facts:
        for lam in rel.lambda_grid:
            if lam == 1:
                continue
            scaled = _scaled_pair(pair, lam, rel.lambda_grid)
            if scaled is None:
                continue
            if universe_only and not (
                rel.in_universe(scaled[0]) and rel.in_universe(scaled[1])
            ):
                continue
            checked += 1
            if scaled not in rel.facts:
                viol.append((pair, lam))
    return AxiomReport("scaling_invariance", checked, viol)


def check_splitting(rel, max_parts=3, universe_only=False):
    viol = []
    checked = 0
    for state in rel.universe:
        for variant in _split_variants(state, rel.lambda_grid, max_parts):
            if universe_only and not rel.in_universe(variant):
                continue
            checked += 1
            if (state, variant) not in rel.facts or (variant, state) not in rel.facts:
                viol.append((state, variant))
    return AxiomReport("splitting_recombination", checked, viol)


def check_cancellation(rel, universe_only=False):
    viol = []
    checked = 0
    for pair in rel.facts:
        for reduced in _cancelled_pairs(pair):
            if universe_only and not (
                rel.in_universe(reduced[0]) and rel.in_universe(reduced[1])
            ):
                continue
            checked += 1
            if reduced not in rel.facts:
                viol.append((pair, reduced))
    return AxiomReport("cancellation", checked, viol)


def run_axiom_scan(rel, max_parts=3, universe_only=False):
    """The structural scanners by name (stability is not part of the store)."""
    return {
        "reflexivity": check_reflexivity(rel),
        "transitivity": check_transitivity(rel),
        "consistency": check_consistency(rel, max_parts, universe_only),
        "scaling_invariance": check_scaling_invariance(rel, universe_only),
        "splitting_recombination": check_splitting(rel, max_parts, universe_only),
        "cancellation": check_cancellation(rel, universe_only),
    }


def compound_entropy(tables, state, multipliers=None):
    total = 0
    for sp, st, lam in state.parts:
        a = 1 if multipliers is None else multipliers[sp]
        total += a * lam * tables[sp].values[st]
    return total


def verify_entropy_principle(rel, tables, multipliers=None, resolution=None,
                             record_all=True):
    """Check monotonicity of weighted entropy sums over all facts, per fact."""
    if resolution is None:
        resolution = max(
            (t.lambda_resolution for t in tables.values()), default=Fraction(0)
        )
    for sp in rel.spaces:
        if sp not in tables:
            raise DegenerateTableError("no entropy table for space %r" % sp)
    report = PrincipleReport()
    for left, right in sorted(rel.facts, key=lambda p: (str(p[0]), str(p[1]))):
        if left.total_scale_by_space() != right.total_scale_by_space():
            report.skipped_scale_mismatch += 1
            continue
        report.max_parts_seen = max(report.max_parts_seen, len(left), len(right))
        s_left = compound_entropy(tables, left, multipliers)
        s_right = compound_entropy(tables, right, multipliers)
        margin = s_right - s_left
        scale = sum(lam for _sp, _st, lam in left.parts) + sum(
            lam for _sp, _st, lam in right.parts
        )
        amax = 1 if multipliers is None else max(abs(a) for a in multipliers.values())
        tol = resolution * scale * amax
        report.facts_checked += 1
        equivalent = (right, left) in rel.facts
        kind = "equivalence" if equivalent else "monotonicity"
        if record_all:
            report.entries.append((left, right, kind, float(margin)))
        if equivalent:
            if abs(margin) > tol:
                report.violations.append(
                    PrincipleViolation("equivalence", left, right, float(margin))
                )
        elif margin < -tol:
            report.violations.append(
                PrincipleViolation("monotonicity", left, right, float(margin))
            )
    return report
