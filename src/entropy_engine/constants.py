"""Entropy differences between state spaces and the additive constants.

Mixing and reaction processes connect different state spaces.  The cheapest
entropy cost of a one-step process gives D; chaining steps through
intermediate spaces gives E; running the chain next to a recoverable catalyst
space gives F.  The additive constants B then have to satisfy the difference
bounds -F(b,a) <= B(a) - B(b) <= F(a,b), a linear feasibility problem solved
exactly by a simplex over Fractions; composite spaces carry the implied linear
combination of their factors instead of a variable of their own.

Every one-step cost comes from a table keyed by (left signature, right
signature) that a StateSpaceGraph builds once, at construction.  On first use
it builds two tables of chains bounded by its max_chain, one over the simple
spaces (E) and one over its one node set (F and the composite bounds), so it
must not be mutated after construction: for another bound k, build
StateSpaceGraph(g.nodes, g.facts, g.catalysts, k).
"""

import math
from collections import Counter, namedtuple
from functools import cached_property
from fractions import Fraction

from .errors import InfeasibleConstantsError, InputFormatError, expect_list
from .rational import exact, parse_number

INF = math.inf


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

    Construction takes every element amount and entropy as a Fraction
    (rational.exact: a float at the decimal it prints as), so every D, E, F
    and B value is exact and every comparison of them is exact.
    """

    def __init__(self, nodes, facts, catalysts=(), max_chain=4):
        self.nodes = {
            sp: node._replace(
                composition=tuple(map(exact, node.composition)),
                entropy={st: exact(v) for st, v in node.entropy.items()})
            for sp, node in nodes.items()
        }
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
    magnitude, so that the D, E and F values a report prints through
    float() stay inside the float range."""
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


def detect_negative_cycle(d_matrix, node_ids):
    """Bellman-Ford negative-cycle certificate: (cycle nodes, total) or None.

    A cycle is returned only when the predecessor walk closes on one.
    """
    dist = {n: 0 for n in node_ids}
    pred = {n: None for n in node_ids}
    last_changed = None
    for _ in range(len(node_ids)):
        last_changed = None
        for (u, v), w in d_matrix.items():
            cand = dist[u] + w
            if cand < dist[v]:
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
            elif fab < INF and fab < -fba:
                bad_pairs.append((a, b, fab, fba))
    matrix = {(u, v): d for (u, v), d in graph.d_matrix.items() if u != v}
    cycle = detect_negative_cycle(matrix, [(s,) for s in ids])
    holds = not asymmetric and not bad_pairs and cycle is None
    return SinkReport(holds, asymmetric, bad_pairs, cycle)


AdditiveConstants = namedtuple("AdditiveConstants", "B component_id gauges")
AdditiveConstants.__doc__ = """Solved additive constants: B per space, the
component of each space, and the spaces pinned at 0, in id order."""


def _components(ids, constraints):
    """Component number of each id; the spaces of a constraint share one."""
    groups = [{s for s, _c in coeffs} for coeffs, _w in constraints]
    comp = {}
    for s in ids:
        if s not in comp:
            comp[s], stack = max(comp.values(), default=-1) + 1, [s]
            while stack:
                u = stack.pop()
                for group in groups:
                    if u in group:
                        for y in sorted(group - comp.keys()):
                            comp[y] = comp[s]
                            stack.append(y)
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
            net = Counter(u)
            net.subtract(v)
            coeffs = tuple((s, c) for s, c in sorted(net.items()) if c)
            if coeffs:
                constraints.append((coeffs, w))
    return constraints


# A simplex over Fractions on a condensed tableau.  B(space k) = x_k - t, x and
# t >= 0, so one shift column t = n covers every real B; the slack of row i is
# n + 1 + i, the artificial last (Bland's order).  rows: basic -> [{nonbasic:
# coeff}, rhs], an objective [{nonbasic: d}, z]; zeros are not stored.


def _pivot(rows, objective, enter, leave):
    """Swap basic `leave` for `enter`; only the pivot row's nonzeros move."""
    coeffs, rhs = rows.pop(leave)
    p = coeffs.pop(enter)
    new = {j: v / p for j, v in coeffs.items()}
    new[leave] = 1 / p
    rhs /= p
    rows[enter] = [new, rhs]
    for other in (*rows.values(), objective):
        f = other[0].pop(enter, 0)
        if f:
            for j, v in new.items():
                val = other[0].get(j, 0) - f * v
                if val:
                    other[0][j] = val
                else:
                    del other[0][j]
            other[1] -= f * rhs


def _maximize(rows, objective):
    """Pivot by Bland's rule to an optimum; False when unbounded."""
    while True:
        enter = min((j for j, d in objective[0].items() if d < 0),
                    default=None)
        if enter is None:
            return True
        ratios = [(rhs / row[enter], leave) for leave, (row, rhs)
                  in rows.items() if row.get(enter, 0) > 0]
        if not ratios:
            return False
        _pivot(rows, objective, enter, min(ratios)[1])


def _objective(rows, costs):
    """Objective row of sum(cost * var), from the rows of costed vars only."""
    coeffs, value = {}, Fraction(0)
    for var, c in costs.items():
        row, rhs = rows.get(var, ({var: -1}, 0))
        value += c * rhs
        for j, v in row.items():
            coeffs[j] = coeffs.get(j, 0) + c * v
    return [{j: d for j, d in coeffs.items() if d}, value]


def _feasible_rows(constraints, index):
    """Phase 1: rows of a feasible basis for constraints ((space, c), ...), w,
    index giving each space's variable.  One artificial column, -1 in every
    row, enters at the most negative row.  Infeasible, the objective row at
    the nonbasic slacks is a Farkas certificate."""
    t = len(index)
    rows = {}
    for i, (coeffs, w) in enumerate(constraints):
        row = {index[s]: Fraction(c) for s, c in coeffs}
        if sum(c for _s, c in coeffs):
            row[t] = Fraction(-sum(c for _s, c in coeffs))
        rows[t + 1 + i] = [row, Fraction(w)]
    low = min(rows, key=lambda i: (rows[i][1], i), default=None)
    if low is None or rows[low][1] >= 0:
        return rows
    art = t + 1 + len(constraints)
    for row, _rhs in rows.values():
        row[art] = Fraction(-1)
    objective = _objective(rows, {art: -1})
    _pivot(rows, objective, art, low)
    _maximize(rows, objective)
    if objective[1] < 0:
        certificate = [(objective[0][t + 1 + i], coeffs, w)
                       for i, (coeffs, w) in enumerate(constraints)
                       if objective[0].get(t + 1 + i, 0) > 0]
        raise InfeasibleConstantsError(
            certificate, sum(y * w for y, _c, w in certificate))
    if art in rows and rows[art][0]:  # basic at 0: pivot it out
        _pivot(rows, objective, min(rows[art][0]), art)
    rows.pop(art, None)  # still basic: its row is empty
    for row, _rhs in rows.values():
        row.pop(art, None)
    return rows


def solve_additive_constants(graph):
    """B values meeting every bound sum(c * B(space)) <= w, exactly.

    Spaces are taken in id order.  Each gets the largest B the bounds allow
    with the earlier values fixed, else the least, else it is pinned at 0 and
    listed in `gauges`: on differences bounded both ways, the shortest-path
    potentials from each component's first space.  After an optimum the
    tableau keeps only its optimal face (columns of nonzero reduced cost
    dropped); after a pin it is rebuilt with the fixed values substituted.
    Infeasible bounds raise InfeasibleConstantsError from phase 1.
    """
    ids = graph.simple_ids()
    constraints = _collect_constraints(graph)
    index = {s: k for k, s in enumerate(ids)}
    B, gauges, rows = {}, [], None
    for s in ids:
        if rows is None:  # substitute the values fixed so far
            rest = [(tuple((sp, c) for sp, c in coeffs if sp not in B),
                     w - sum(c * B[sp] for sp, c in coeffs if sp in B))
                    for coeffs, w in constraints]
            rows = _feasible_rows([r for r in rest if r[0]], index)
        for sign in (1, -1):
            objective = _objective(rows, {index[s]: sign, len(ids): -sign})
            if _maximize(rows, objective):
                B[s] = sign * objective[1]
                for row, _rhs in rows.values():  # keep the optimal face
                    for j in objective[0]:  # every d > 0 here
                        row.pop(j, None)
                break
        else:
            B[s] = Fraction(0)
            gauges.append(s)
            rows = None
    return AdditiveConstants(B, _components(ids, constraints), gauges)


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
    means a positive finite width: when either F is infinite the difference
    is not bounded at all, and has_gap is False with an infinite width.
    """
    fab = compute_F(graph, a, b)
    fba = compute_F(graph, b, a)
    if math.isinf(fab) or math.isinf(fba):
        return GapResult(False, INF, -fba if fba < INF else -INF, fab)
    width = fab + fba
    return GapResult(width > 0, float(width), float(-fba), float(fab))


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
    graph's simple spaces must agree with the offset inequality.
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
