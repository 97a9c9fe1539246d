"""Entropy differences between state spaces and the additive constants.

Mixing and reaction processes connect different state spaces.  The cheapest
entropy cost of a one-step process gives D; chaining steps through
intermediate spaces gives E; running the chain next to a recoverable catalyst
space gives F.  The additive constants B then have to satisfy the difference
bounds -F(b,a) <= B(a) - B(b) <= F(a,b), a finite feasibility problem solved
with shortest-path potentials; composite spaces carry the implied linear
combination of their factors instead of a variable of their own.

Every one-step cost comes from a table keyed by (left signature, right
signature) that a StateSpaceGraph builds once, at construction.  Chains are
bounded by the graph's own max_chain.  The graph caches the table, the D
matrices built from it and every E and F value once computed, so it must not
be mutated after construction; dataclasses.replace builds a fresh graph.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InfeasibleConstantsError, InputFormatError
from .rational import parse_number

INF = math.inf


@dataclass(frozen=True)
class SpaceNode:
    """A state space with its (already multiplicatively calibrated) entropy
    table and element content."""

    space_id: str
    composition: tuple
    entropy: dict


def _signature(side):
    """Multiset of space ids on one side of a fact, as a sorted tuple."""
    return tuple(sorted(sp for sp, _st in side))


@dataclass
class StateSpaceGraph:
    """Declared spaces, cross-space facts, and the catalyst catalog.

    A fact side is a tuple of (space, state) pairs (unit scale each); sides
    with two or more parts live in the composite space of their factors.
    max_chain is the chain-length bound the instance declares.

    Construction builds `steps`, the one-step table: per (left signature,
    right signature) pair of the facts, the least side_entropy(right) -
    side_entropy(left), ties going to the first declared fact.  The graph
    caches it, the D matrices built from it and the E and F values per
    (a, b) pair, so it must not be mutated after construction.
    """

    nodes: dict
    facts: list
    catalysts: list = field(default_factory=list)
    max_chain: int = 4

    def __post_init__(self):
        self.steps = {}
        self._d_matrices = {}
        self._e = {}
        self._f = {}
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


def _fact_side(side, declared):
    parts = tuple((sp, st) for sp, st in side)
    if parts and declared.issuperset(parts):
        return parts
    raise InputFormatError(
        "fact side %r is empty or names an undeclared space or state"
        % (side,)
    )


def graph_from_json(doc):
    """Build a StateSpaceGraph from its JSON form; malformed entries and
    undeclared spaces or states raise InputFormatError."""
    try:
        max_chain = int(doc.get("max_chain", 4))
        nodes = {
            entry["id"]: SpaceNode(
                space_id=entry["id"],
                composition=tuple(
                    parse_number(c) for c in entry["composition"]
                ),
                entropy={
                    st: parse_number(v) for st, v in entry["entropy"].items()
                },
            )
            for entry in doc.get("spaces", [])
        }
        declared = {(sp, st) for sp in nodes for st in nodes[sp].entropy}
        facts = [
            (_fact_side(left, declared), _fact_side(right, declared))
            for left, right in doc.get("facts", [])
        ]
        catalysts = list(doc.get("catalysts", []))
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


def chain_min(d_matrix, node_ids, a, b, max_chain):
    """Cheapest total over chains of at most max_chain spaces linking a to b.

    d_matrix maps ordered node pairs to one-step costs (missing or +inf means
    no step).  The trivial chain gives 0 when a == b.
    """
    dist = {n: INF for n in node_ids}
    dist[a] = 0 if a == b else INF
    frontier = {a: 0}
    for _ in range(max_chain - 1):
        new_frontier = {}
        for u, du in frontier.items():
            for v in node_ids:
                # an infinite step gives an infinite cand, which is never kept
                cand = du + d_matrix.get((u, v), INF)
                if cand < new_frontier.get(v, INF) and cand < dist.get(v, INF):
                    new_frontier[v] = cand
        for v, dv in new_frontier.items():
            if dv < dist[v]:
                dist[v] = dv
        if not new_frontier:
            break
        frontier = new_frontier
    return dist[b]


def _d_matrix(graph, node_ids):
    """Finite one-step costs between the given nodes, built once per graph
    and node list; callers must not modify the returned dict."""
    key = tuple(node_ids)
    matrix = graph._d_matrices.get(key)
    if matrix is None:
        matrix = {}
        for u in node_ids:
            for v in node_ids:
                if len(u) == 1 and len(v) == 1:
                    d = compute_D(graph, u[0], v[0])
                else:
                    d = _signature_D(graph, u, v)
                if d < INF:
                    matrix[(u, v)] = d
        graph._d_matrices[key] = matrix
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
            d_cat = min(compute_D(graph, cat, cat), 0)
            if d < INF:
                best = min(best, d + d_cat)
    return best


def compute_E(graph, a, b):
    """Chained entropy difference over simple spaces, chains of at most
    graph.max_chain spaces; computed once per graph and pair."""
    e = graph._e.get((a, b))
    if e is None:
        nodes = [(s,) for s in graph.simple_ids()]
        e = graph._e[(a, b)] = chain_min(
            _d_matrix(graph, nodes), nodes, (a,), (b,), graph.max_chain)
    return e


def compute_F(graph, a, b):
    """Catalyzed chained difference: the plain chain value or any catalog
    catalyst run alongside the chain, whichever is cheaper.  Each catalyst
    adds its composites with a and b to the chain's nodes for later ones.
    Computed once per graph and pair."""
    best = graph._f.get((a, b))
    if best is not None:
        return best
    best = compute_E(graph, a, b)
    node_ids = graph.node_ids()
    for cat in graph.catalysts:
        src = tuple(sorted((a, cat)))
        dst = tuple(sorted((b, cat)))
        node_ids = sorted(set(node_ids) | {src, dst})
        matrix = _d_matrix(graph, node_ids)
        best = min(best, chain_min(matrix, node_ids, src, dst,
                                   graph.max_chain))
    graph._f[(a, b)] = best
    return best


def detect_negative_cycle(d_matrix, node_ids):
    """Bellman-Ford negative-cycle certificate: (cycle nodes, total) or None."""
    dist = {n: 0 for n in node_ids}
    pred = {n: None for n in node_ids}
    last_changed = None
    for _ in range(len(node_ids)):
        last_changed = None
        for (u, v), w in d_matrix.items():
            if dist[u] + w < dist[v] - 1e-15:
                dist[v] = dist[u] + w
                pred[v] = u
                last_changed = v
    if last_changed is None:
        return None
    # walk back n steps to land inside the cycle, then extract it
    node = last_changed
    for _ in range(len(node_ids)):
        node = pred[node]
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


@dataclass
class SinkReport:
    holds: bool
    asymmetric_pairs: list
    inequality_violations: list
    negative_cycle: object = None


def check_no_sinks(graph):
    """No space may be reachable without a way back.

    Verifies that finiteness of F is symmetric, that -F(b,a) <= F(a,b) on
    finite pairs, and that no negative-total cycle makes the chain infimum
    unbounded below.
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
            elif fab < INF and -fba > fab + 1e-12:
                bad_pairs.append((a, b, fab, fba))
    nodes = [(s,) for s in ids]
    matrix = {
        (u, v): d for (u, v), d in _d_matrix(graph, nodes).items() if u != v
    }
    cycle = detect_negative_cycle(matrix, nodes)
    holds = not asymmetric and not bad_pairs and cycle is None
    return SinkReport(holds, asymmetric, bad_pairs, cycle)


@dataclass
class AdditiveConstants:
    """Solved additive constants with one gauge per connected component."""

    B: dict
    component_id: dict
    gauges: list
    max_violation: float


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
    if any(len(n) > 1 for n in node_ids):
        matrix = _d_matrix(graph, node_ids)
        for u in node_ids:
            for v in node_ids:
                if u == v or (len(u) == 1 and len(v) == 1):
                    continue
                w = chain_min(matrix, node_ids, u, v, graph.max_chain)
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
    of their own.  Infeasibility raises with a negative-cycle certificate.
    """
    ids = graph.simple_ids()
    constraints = _collect_constraints(graph)
    exact = all(
        isinstance(w, (int, Fraction)) for _c, w in constraints
    ) and all(
        isinstance(v, (int, Fraction))
        for node in graph.nodes.values() for v in node.entropy.values()
    )
    zero = Fraction(0) if exact else 0.0

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
        cert = detect_negative_cycle(pair_matrix, [(s,) for s in ids])
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
                        if new_hi < hi[s]:
                            hi[s] = new_hi
                            changed = True
                    else:
                        new_lo = (w - rest) / c
                        if new_lo > lo[s]:
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
        if lo[s] > hi[s] + (0 if exact else 1e-12):
            raise InfeasibleConstantsError([s], float(lo[s] - hi[s]))
        if not math.isinf(hi[s]):
            B[s] = hi[s]
        else:
            B[s] = lo[s]

    max_violation = 0.0
    for coeffs, w in constraints:
        total = sum(c * B[s] for s, c in coeffs)
        max_violation = max(max_violation, float(total - w))
    if max_violation > 1e-9:
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


@dataclass
class GapResult:
    has_gap: bool
    width: float
    lower: float
    upper: float


def detect_gap(graph, a, b):
    """Is the difference B(a) - B(b) pinned exactly or only to an interval?

    The admissible interval is [-F(b,a), F(a,b)]; a strict gap leaves the
    additive constant difference under-determined by its width.  has_gap
    means a finite width above 1e-12: when either F is infinite the difference
    is not bounded at all, and has_gap is False with an infinite width.
    """
    fab = compute_F(graph, a, b)
    fba = compute_F(graph, b, a)
    if math.isinf(fab) or math.isinf(fba):
        return GapResult(False, INF, -fba if fba < INF else -INF, fab)
    width = fab + fba
    return GapResult(width > 1e-12, float(width), float(-fba), float(fab))


@dataclass
class OffsetCriterionReport:
    checked: int
    mismatches: list

    @property
    def holds(self):
        return not self.mismatches


def check_entropy_offset_criterion(graph, accessible_fn, pairs=None):
    """Cross-space accessibility must coincide with the entropy criterion
    S(x) + F(space_x, space_y) <= S(y).

    accessible_fn(space_x, state_x, space_y, state_y) answers ground-truth
    accessibility (typically a closed relation); every sampled pair must
    agree exactly with the offset inequality.
    """
    ids = graph.simple_ids()
    if pairs is None:
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
        rhs = f < INF and s_x + f <= s_y
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
