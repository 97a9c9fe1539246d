"""Entropy differences between state spaces and the additive constants.

Mixing and reaction processes connect different state spaces.  The cheapest
entropy cost of a one-step process gives D; chaining steps through
intermediate spaces gives E; running the chain next to a recoverable catalyst
space gives F.  The additive constants B then have to satisfy the difference
bounds -F(b,a) <= B(a) - B(b) <= F(a,b), a finite feasibility problem solved
with shortest-path potentials; composite spaces carry the implied linear
combination of their factors instead of a variable of their own.

Every one-step cost comes from a table keyed by (left signature, right
signature) that a StateSpaceGraph builds once, at construction.  On first use
it builds two tables of chains bounded by its max_chain, one over the simple
spaces (E) and one over its one node set (F and the composite bounds), so it
must not be mutated after construction: for another bound k, build
StateSpaceGraph(g.nodes, g.facts, g.catalysts, k).
"""

import math
from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from .errors import InfeasibleConstantsError, InputFormatError, expect_list
from .rational import parse_number

INF = math.inf
# StateSpaceGraph.tol's share of the largest |entropy|: the rounding of a
# chain of entropy differences scales with the entropies, not with the result.
FLOAT_REL_TOL = 1e-12


SpaceNode = namedtuple("SpaceNode", "space_id composition entropy")
SpaceNode.__doc__ = """A state space with its (already multiplicatively
calibrated) entropy table and element content."""


def _signature(side):
    """Multiset of space ids on one side of a fact, as a sorted tuple."""
    return tuple(sorted(sp for sp, _st in side))


class StateSpaceGraph:
    """Declared spaces, cross-space facts, and the catalyst catalog.

    A fact side is a tuple of (space, state) pairs (unit scale each); sides
    with two or more parts live in the composite space of their factors.
    max_chain is the chain-length bound the instance declares.

    Every space must declare the same number of element amounts, none
    negative, and every fact must conserve element content, or construction
    raises InputFormatError.  Construction builds `steps`, the one-step
    table: per (left signature, right signature) pair of the facts, the
    least side_entropy(right) - side_entropy(left), ties going to the first
    declared fact.  `d_matrix`, `e_table` and `f_table`, built on first use,
    are the one-step matrix over the simple spaces and the chain tables over
    the simple spaces and over node_ids() plus the composite of every simple
    space with every catalyst: one node set, whatever the catalog order.

    One D, E, F or B value lies below another only by more than `tol`: 0
    when no entropy is a float, so int and Fraction graphs compare exactly,
    else FLOAT_REL_TOL times the largest |entropy| of the graph, at least 1.
    """

    def __init__(self, nodes, facts, catalysts=(), max_chain=4):
        self.nodes = nodes
        self.facts = facts
        self.catalysts = catalysts
        self.max_chain = max_chain
        widths = {len(node.composition) for node in self.nodes.values()}
        if len(widths) > 1:
            raise InputFormatError("spaces declare %s element amounts; every "
                                   "space needs the same number"
                                   % " and ".join(map(str, sorted(widths))))
        for sp, node in self.nodes.items():
            if any(c < 0 for c in node.composition):
                raise InputFormatError("negative element amount in space %r"
                                       % sp)
        values = [v for node in nodes.values() for v in node.entropy.values()]
        self.tol = 0
        if any(isinstance(v, float) for v in values):
            self.tol = FLOAT_REL_TOL * max(1.0, *map(abs, values))
        self.steps = {}
        entropy = {}
        for left, right in self.facts:
            cl = self._side_composition(left)
            cr = self._side_composition(right)
            if cl != cr:
                raise InputFormatError(
                    "fact %s -> %s does not conserve element content"
                    % (left, right)
                )
            for side in (left, right):
                if side not in entropy:
                    entropy[side] = self.side_entropy(side)
            key = (_signature(left), _signature(right))
            diff = entropy[right] - entropy[left]
            if diff < self.steps.setdefault(key, INF):
                self.steps[key] = diff

    def _side_composition(self, side):
        total = None
        for sp, _st in side:
            comp = self.nodes[sp].composition
            total = comp if total is None else tuple(
                a + b for a, b in zip(total, comp)
            )
        return total

    def side_entropy(self, side):
        return sum(self.nodes[sp].entropy[st] for sp, st in side)

    def simple_ids(self):
        return sorted(self.nodes)

    def node_ids(self):
        """Simple spaces plus composite spaces appearing in facts."""
        ids = {(s,) for s in self.nodes}
        for key in self.steps:
            ids.update(key)
        return sorted(ids)

    @cached_property
    def d_matrix(self):
        return _d_matrix(self, [(s,) for s in self.simple_ids()])

    @cached_property
    def e_table(self):
        nodes = [(s,) for s in self.simple_ids()]
        return _chain_table(self.d_matrix, nodes, self.max_chain)

    @cached_property
    def f_table(self):
        nodes = sorted(set(self.node_ids()) | {
            tuple(sorted((s, cat))) for s in self.nodes for cat in self.catalysts
        })
        return _chain_table(_d_matrix(self, nodes), nodes, self.max_chain)


def _fact_side(side, declared):
    parts = tuple(tuple(part) if isinstance(part, list) else None
                  for part in expect_list(side, "fact side"))
    if parts and declared.issuperset(parts):
        return parts
    raise InputFormatError(
        "fact side %r is not a nonempty list of declared [space, state] pairs"
        % (side,)
    )


def _space_node(entry):
    """One declared space.  Its id is a string without "->" or "|", which
    join ids in report keys, and its entropies are at most 1e100 in
    magnitude, so that sums of them stay finite floats."""
    sp = entry["id"]
    if not isinstance(sp, str) or "->" in sp or "|" in sp:
        raise InputFormatError("space id must be a string without '->' or "
                               "'|', got %r" % (sp,))
    composition = tuple(parse_number(c) for c in expect_list(
        entry["composition"], "space %r composition" % (sp,)))
    entropy = {st: parse_number(v) for st, v in entry["entropy"].items()}
    for st, v in entropy.items():
        if abs(v) > 1e100:
            raise InputFormatError("entropy of %r in space %r exceeds 1e100 "
                                   "in magnitude" % (st, sp))
    return SpaceNode(sp, composition, entropy)


def graph_from_json(doc):
    """Build a StateSpaceGraph from its JSON form; malformed entries and
    undeclared spaces or states raise InputFormatError."""
    try:
        max_chain = doc.get("max_chain", 4)
        if isinstance(max_chain, bool) or not isinstance(max_chain, int):
            raise InputFormatError("max_chain must be an integer, got %r"
                                   % (max_chain,))
        nodes = {
            node.space_id: node
            for node in map(_space_node,
                            expect_list(doc.get("spaces", []), "spaces"))
        }
        declared = {(sp, st) for sp in nodes for st in nodes[sp].entropy}
        facts = [
            (_fact_side(left, declared), _fact_side(right, declared))
            for left, right in expect_list(doc.get("facts", []), "facts")
        ]
        catalysts = expect_list(doc.get("catalysts", []), "catalysts")
        unknown = [cat for cat in catalysts if cat not in nodes]
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise InputFormatError("malformed graph (%r)" % (exc,)) from exc
    if max_chain < 1:
        raise InputFormatError("max_chain must be >= 1, got %d" % max_chain)
    if unknown:
        raise InputFormatError("undeclared catalyst spaces %r" % unknown)
    return StateSpaceGraph(nodes, facts, catalysts, max_chain)


def compute_D(graph, a, b):
    """Cheapest declared one-step entropy difference from space a to space b.

    Includes the reflexive step when a == b; +inf when no process leads from
    a to b at all.
    """
    d = graph.steps.get(((a,), (b,)), INF)
    return 0 if a == b and not d < 0 else d


def _chain_table(d_matrix, node_ids, max_chain):
    """Cheapest total over chains of at most max_chain nodes: table[a][b],
    absent when no chain links a to b; d_matrix holds finite one-step costs.

    One min-plus relaxation per source, max_chain - 1 rounds extending only
    what the last round lowered; a strict < keeps the first of equal values.
    The trivial chain gives 0 at the source unless a return there is cheaper.
    """
    succ = {
        u: [(v, d_matrix[(u, v)]) for v in node_ids if (u, v) in d_matrix]
        for u in node_ids
    }
    table = {}
    for a in node_ids:
        dist = {}
        frontier = {a: 0}
        for _ in range(max_chain - 1):
            lowered = {}
            for u, du in frontier.items():
                for v, w in succ[u]:
                    cand = du + w
                    if cand < lowered.get(v, INF) and cand < dist.get(v, INF):
                        lowered[v] = cand
            if not lowered:
                break
            dist.update(lowered)
            frontier = lowered
        back = dist.get(a, INF)
        dist[a] = back if back < 0 else 0
        table[a] = dist
    return table


def _d_matrix(graph, node_ids):
    """Finite one-step costs between the given nodes."""
    matrix = {}
    for u in node_ids:
        for v in node_ids:
            if len(u) == 1 and len(v) == 1:
                d = compute_D(graph, u[0], v[0])
            else:
                d = _signature_D(graph, u, v)
            if d < INF:
                matrix[(u, v)] = d
    return matrix


def _signature_D(graph, sig_u, sig_v):
    """One-step cost between arbitrary (possibly composite) signatures."""
    best = graph.steps.get((sig_u, sig_v), INF)
    if sig_u == sig_v:
        best = min(best, 0)
    # shared-factor product steps: same catalyst on both sides
    if len(sig_u) == 2 and len(sig_v) == 2:
        for cat in set(sig_u) & set(sig_v):
            rest_u = list(sig_u); rest_u.remove(cat)
            rest_v = list(sig_v); rest_v.remove(cat)
            d = compute_D(graph, rest_u[0], rest_v[0])
            d_cat = compute_D(graph, cat, cat)
            if d < INF:
                best = min(best, d + d_cat)
    return best


def compute_E(graph, a, b):
    """Chained entropy difference over simple spaces, chains of at most
    graph.max_chain spaces."""
    return graph.e_table[(a,)].get((b,), INF)


def compute_F(graph, a, b):
    """Catalyzed chained difference: the plain chain value or the chain from
    (a, cat) to (b, cat) for any catalyst cat, whichever is cheaper; all run
    over the graph's one node set, so the catalog order does not matter."""
    best = compute_E(graph, a, b)
    for cat in graph.catalysts:
        src = tuple(sorted((a, cat)))
        dst = tuple(sorted((b, cat)))
        best = min(best, graph.f_table[src].get(dst, INF))
    return best


def detect_negative_cycle(d_matrix, node_ids, tol=0):
    """Bellman-Ford negative-cycle certificate: (cycle nodes, total) or None.

    A distance is relaxed only when it drops by more than tol (a graph's
    `tol`; the default 0 compares exactly).  A cycle is returned only when
    the predecessor walk closes on one.
    """
    dist = {n: 0 for n in node_ids}
    pred = {n: None for n in node_ids}
    last_changed = None
    for _ in range(len(node_ids)):
        last_changed = None
        for (u, v), w in d_matrix.items():
            cand = dist[u] + w
            if cand < dist[v] - tol:
                dist[v] = cand
                pred[v] = u
                last_changed = v
    if last_changed is None:
        return None
    # walk back n steps to land inside the cycle, then extract it
    node = last_changed
    for _ in range(len(node_ids)):
        node = pred[node]
        if node is None:
            return None
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)
        cur = pred[cur]
    cycle.reverse()
    total = sum(
        d_matrix[(cycle[i], cycle[(i + 1) % len(cycle)])]
        for i in range(len(cycle))
    )
    return cycle, total


SinkReport = namedtuple(
    "SinkReport", "holds asymmetric_pairs inequality_violations negative_cycle",
    defaults=(None,),
)


def check_no_sinks(graph):
    """No space may be reachable without a way back.

    Verifies that finiteness of F is symmetric, that -F(b,a) <= F(a,b) on
    finite pairs, and that no negative-total cycle makes the chain infimum
    unbounded below, each within the graph's tol.
    """
    ids = graph.simple_ids()
    f = {(a, b): compute_F(graph, a, b) for a in ids for b in ids}
    asymmetric = []
    bad_pairs = []
    for a in ids:
        for b in ids:
            fab, fba = f[(a, b)], f[(b, a)]
            if (fab < INF) != (fba < INF):
                asymmetric.append((a, b, fab, fba))
            elif fab < INF and fab < -fba - graph.tol:
                bad_pairs.append((a, b, fab, fba))
    matrix = {(u, v): d for (u, v), d in graph.d_matrix.items() if u != v}
    cycle = detect_negative_cycle(matrix, [(s,) for s in ids], graph.tol)
    holds = not asymmetric and not bad_pairs and cycle is None
    return SinkReport(holds, asymmetric, bad_pairs, cycle)


AdditiveConstants = namedtuple("AdditiveConstants",
                               "B component_id gauges max_violation")
AdditiveConstants.__doc__ = """Solved additive constants with one gauge per
connected component."""


def _components(ids, finite_pairs):
    comp = {}
    next_id = 0
    for s in ids:
        if s in comp:
            continue
        stack = [s]
        comp[s] = next_id
        while stack:
            u = stack.pop()
            for a, b in finite_pairs:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in comp:
                        comp[y] = next_id
                        stack.append(y)
        next_id += 1
    return comp


def _collect_constraints(graph):
    """All bounds as (coeffs, w): sum of coeff*B(space) <= w.

    Simple pairs contribute B(a) - B(b) <= F(a, b); signatures with composite
    sides contribute the implied linear combination of their factors.
    """
    ids = graph.simple_ids()
    constraints = []
    for a in ids:
        for b in ids:
            if a == b:
                continue
            w = compute_F(graph, a, b)
            if w < INF:
                constraints.append((((a, 1), (b, -1)), w))
    node_ids = graph.node_ids()
    for u in node_ids:
        for v in node_ids:
            if u == v or (len(u) == 1 and len(v) == 1):
                continue
            w = graph.f_table[u].get(v, INF)
            if math.isinf(w):
                continue
            coeffs = {}
            for s in u:
                coeffs[s] = coeffs.get(s, 0) + 1
            for s in v:
                coeffs[s] = coeffs.get(s, 0) - 1
            coeffs = tuple(
                (s, c) for s, c in sorted(coeffs.items()) if c != 0
            )
            if coeffs:
                constraints.append((coeffs, w))
    return constraints


def solve_additive_constants(graph):
    """Choose B values satisfying every difference bound.

    Upper and lower bounds on each space are propagated to a fixpoint from a
    per-component gauge (the lexicographically first space of the component,
    pinned to zero); on a pure pairwise system this reproduces shortest-path
    potentials exactly.  Spaces no bound ever touches keep a free zero gauge
    of their own.  A bound moves, and bounds conflict, only by more than the
    graph's tol.  Infeasibility raises with a negative-cycle certificate.
    """
    ids = graph.simple_ids()
    constraints = _collect_constraints(graph)
    tol = graph.tol
    zero = 0.0 if tol else Fraction(0)

    touching = [
        (a, b) for coeffs, _w in constraints
        for a, _ca in coeffs for b, _cb in coeffs if a != b
    ]
    components = _components(ids, touching)
    by_comp = {}
    for s in ids:
        by_comp.setdefault(components[s], []).append(s)
    gauges = [min(members) for _cid, members in sorted(by_comp.items())]

    lo = {s: -INF for s in ids}
    hi = {s: INF for s in ids}
    for g in gauges:
        lo[g] = hi[g] = zero

    def raise_infeasible():
        pair_matrix = {}
        for coeffs, w in constraints:
            if len(coeffs) == 2 and {c for _s, c in coeffs} == {1, -1}:
                a = next(s for s, c in coeffs if c == 1)
                b = next(s for s, c in coeffs if c == -1)
                key = ((b,), (a,))
                if w < pair_matrix.get(key, INF):
                    pair_matrix[key] = w
        cert = detect_negative_cycle(pair_matrix, [(s,) for s in ids], tol)
        if cert:
            raise InfeasibleConstantsError([n[0] for n in cert[0]], cert[1])
        raise InfeasibleConstantsError(ids, -INF)

    def propagate():
        max_rounds = 2 * (len(ids) + 1)
        for round_no in range(max_rounds + 1):
            changed = False
            for coeffs, w in constraints:
                for s, c in coeffs:
                    rest = zero
                    finite = True
                    for t, ct in coeffs:
                        if t == s:
                            continue
                        bound = lo[t] if ct > 0 else hi[t]
                        if math.isinf(bound):
                            finite = False
                            break
                        rest += ct * bound
                    if not finite:
                        continue
                    if c > 0:
                        new_hi = (w - rest) / c
                        if new_hi < hi[s] - tol:
                            hi[s] = new_hi
                            changed = True
                    else:
                        new_lo = (w - rest) / c
                        if new_lo > lo[s] + tol:
                            lo[s] = new_lo
                            changed = True
            if not changed:
                return
            if round_no == max_rounds:
                raise_infeasible()

    # fix one free space at a time so composite bounds can pin the rest
    for _ in range(len(ids) + 1):
        propagate()
        free = [
            s for s in ids if math.isinf(lo[s]) and math.isinf(hi[s])
        ]
        if not free:
            break
        pin = min(free)
        lo[pin] = hi[pin] = zero
        if pin not in gauges:
            gauges.append(pin)

    B = {}
    for s in ids:
        if lo[s] > hi[s] + tol:
            raise InfeasibleConstantsError([s], float(lo[s] - hi[s]))
        if not math.isinf(hi[s]):
            B[s] = hi[s]
        else:
            B[s] = lo[s]

    max_violation = 0.0
    for coeffs, w in constraints:
        total = sum(c * B[s] for s, c in coeffs)
        max_violation = max(max_violation, float(total - w))
    if max_violation > tol:
        raise InfeasibleConstantsError(ids, max_violation)
    return AdditiveConstants(
        B=B, component_id=dict(components), gauges=gauges,
        max_violation=max_violation,
    )


def composite_B(constants, factors):
    """Additive constant of a scaled composite space: the implied linear
    combination of its factors, exact in rationals."""
    total = Fraction(0)
    for lam, space in factors:
        total += Fraction(lam) * Fraction(constants.B[space])
    return total


GapResult = namedtuple("GapResult", "has_gap width lower upper")


def detect_gap(graph, a, b):
    """Is the difference B(a) - B(b) pinned exactly or only to an interval?

    The admissible interval is [-F(b,a), F(a,b)]; a strict gap leaves the
    additive constant difference under-determined by its width.  has_gap
    means a finite width above the graph's tol: when either F is infinite the
    difference is not bounded at all, and has_gap is False with an infinite
    width.
    """
    fab = compute_F(graph, a, b)
    fba = compute_F(graph, b, a)
    if math.isinf(fab) or math.isinf(fba):
        return GapResult(False, INF, -fba if fba < INF else -INF, fab)
    width = fab + fba
    return GapResult(width > graph.tol, float(width), float(-fba), float(fab))


class OffsetCriterionReport(namedtuple("OffsetCriterionReport",
                                       "checked mismatches")):
    __slots__ = ()

    @property
    def holds(self):
        return not self.mismatches


def check_entropy_offset_criterion(graph, accessible_fn):
    """Cross-space accessibility must coincide with the entropy criterion
    S(x) + F(space_x, space_y) <= S(y).

    accessible_fn(space_x, state_x, space_y, state_y) answers ground-truth
    accessibility (typically a closed relation); every pair of states of the
    graph's simple spaces must agree with the offset inequality, taken
    within the graph's tol.
    """
    ids = graph.simple_ids()
    pairs = [
        (a, x, b, y)
        for a in ids for b in ids
        for x in graph.nodes[a].entropy
        for y in graph.nodes[b].entropy
    ]
    mismatches = []
    checked = 0
    for a, x, b, y in pairs:
        f = compute_F(graph, a, b)
        lhs = accessible_fn(a, x, b, y)
        s_x = graph.nodes[a].entropy[x]
        s_y = graph.nodes[b].entropy[y]
        rhs = f < INF and s_x + f <= s_y + graph.tol
        checked += 1
        if lhs != rhs:
            mismatches.append((a, x, b, y, lhs, rhs))
    return OffsetCriterionReport(checked, mismatches)


def matrix_json(graph):
    """D/E/F matrices as JSON-ready dicts; infinities become the string "inf"."""
    ids = graph.simple_ids()

    def render(value):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(value)

    out = {"spaces": ids, "D": {}, "E": {}, "F": {}}
    for a in ids:
        for b in ids:
            key = "%s->%s" % (a, b)
            out["D"][key] = render(compute_D(graph, a, b))
            out["E"][key] = render(compute_E(graph, a, b))
            out["F"][key] = render(compute_F(graph, a, b))
    return out
