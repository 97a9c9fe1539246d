"""Frozen reference implementation of the D/E/F calibration layer.

These are the fact-scanning versions of compute_D, _signature_D, _d_matrix,
compute_E, compute_F, check_no_sinks, _collect_constraints,
solve_additive_constants, detect_gap and matrix_json that the one-step table
in entropy_engine.constants replaced.  Every value starts from a full scan of
graph.facts, so they are slow but obviously correct.  They read only the
graph's nodes, facts and catalysts; differential tests compare the package
against them.  Do not optimise this module.
"""

import math
from collections import namedtuple
from fractions import Fraction

from entropy_engine.constants import GapResult, SinkReport
from entropy_engine.errors import EngineError

INF = math.inf


# the package's solver result and error as they were when this module froze
AdditiveConstants = namedtuple("AdditiveConstants",
                               "B component_id gauges max_violation")


class InfeasibleConstantsError(EngineError):
    def __init__(self, cycle, total):
        super().__init__(
            "infeasible constraint system: cycle %s has total bound %s < 0"
            % (" -> ".join(str(n) for n in cycle), total)
        )
        self.cycle = cycle
        self.total = total


def _signature(side):
    return tuple(sorted(sp for sp, _st in side))


def side_entropy(graph, side):
    return sum(graph.nodes[sp].entropy[st] for sp, st in side)


def simple_ids(graph):
    return sorted(graph.nodes)


def node_ids(graph):
    ids = set(map(lambda s: (s,), simple_ids(graph)))
    for left, right in graph.facts:
        ids.add(_signature(left))
        ids.add(_signature(right))
    return sorted(ids)


def compute_D(graph, a, b):
    best = INF
    if a == b:
        best = 0
    sig_a, sig_b = (a,), (b,)
    for left, right in graph.facts:
        if _signature(left) == sig_a and _signature(right) == sig_b:
            diff = side_entropy(graph, right) - side_entropy(graph, left)
            if diff < best:
                best = diff
    return best


def chain_min(d_matrix, node_ids, a, b, max_chain):
    dist = {n: INF for n in node_ids}
    dist[a] = 0 if a == b else INF
    best = 0 if a == b else INF
    frontier = {a: 0}
    for _ in range(max_chain - 1):
        new_frontier = {}
        for u, du in frontier.items():
            for v in node_ids:
                w = d_matrix.get((u, v), INF)
                if w == INF or du == INF:
                    continue
                cand = du + w
                if cand < new_frontier.get(v, INF) and cand < dist.get(v, INF):
                    new_frontier[v] = cand
        for v, dv in new_frontier.items():
            if dv < dist[v]:
                dist[v] = dv
        if not new_frontier:
            break
        frontier = new_frontier
        if dist[b] < best:
            best = dist[b]
    return min(best, dist[b])


def _d_matrix(graph, node_ids):
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
    best = INF
    for left, right in graph.facts:
        if _signature(left) == sig_u and _signature(right) == sig_v:
            diff = side_entropy(graph, right) - side_entropy(graph, left)
            best = min(best, diff)
    if sig_u == sig_v:
        best = min(best, 0)
    if len(sig_u) == 2 and len(sig_v) == 2:
        for cat in set(sig_u) & set(sig_v):
            rest_u = list(sig_u); rest_u.remove(cat)
            rest_v = list(sig_v); rest_v.remove(cat)
            d = compute_D(graph, rest_u[0], rest_v[0])
            d_cat = min(compute_D(graph, cat, cat), 0)
            if d < INF:
                best = min(best, d + d_cat)
    return best


def compute_E(graph, a, b, max_chain=4):
    nodes = [(s,) for s in simple_ids(graph)]
    matrix = {
        (u, v): compute_D(graph, u[0], v[0]) for u in nodes for v in nodes
    }
    matrix = {k: v for k, v in matrix.items() if v < INF}
    return chain_min(matrix, nodes, (a,), (b,), max_chain)


def compute_F(graph, a, b, max_chain=4):
    best = compute_E(graph, a, b, max_chain)
    ids = node_ids(graph)
    matrix = None
    for cat in graph.catalysts:
        if matrix is None:
            matrix = _d_matrix(graph, ids)
        src = tuple(sorted((a, cat)))
        dst = tuple(sorted((b, cat)))
        if src not in ids or dst not in ids:
            extra = [n for n in (src, dst) if n not in ids]
            ids = sorted(set(ids) | set(extra))
            matrix = _d_matrix(graph, ids)
        val = chain_min(matrix, ids, src, dst, max_chain)
        if val < best:
            best = val
    return best


def detect_negative_cycle(d_matrix, node_ids):
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


def check_no_sinks(graph, max_chain=4):
    ids = simple_ids(graph)
    f = {(a, b): compute_F(graph, a, b, max_chain) for a in ids for b in ids}
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
    matrix = {}
    for u in nodes:
        for v in nodes:
            d = compute_D(graph, u[0], v[0])
            if d < INF and u != v:
                matrix[(u, v)] = d
    cycle = detect_negative_cycle(matrix, nodes)
    holds = not asymmetric and not bad_pairs and cycle is None
    return SinkReport(holds, asymmetric, bad_pairs, cycle)


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


def _collect_constraints(graph, max_chain):
    ids = simple_ids(graph)
    constraints = []
    for a in ids:
        for b in ids:
            if a == b:
                continue
            w = compute_F(graph, a, b, max_chain)
            if w < INF:
                constraints.append((((a, 1), (b, -1)), w))
    all_ids = node_ids(graph)
    if any(len(n) > 1 for n in all_ids):
        matrix = _d_matrix(graph, all_ids)
        for u in all_ids:
            for v in all_ids:
                if u == v or (len(u) == 1 and len(v) == 1):
                    continue
                w = chain_min(matrix, all_ids, u, v, max_chain)
                if w is INF:
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


def solve_additive_constants(graph, max_chain=4):
    ids = simple_ids(graph)
    constraints = _collect_constraints(graph, max_chain)
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


def detect_gap(graph, a, b, max_chain=4, tol=1e-12):
    fab = compute_F(graph, a, b, max_chain)
    fba = compute_F(graph, b, a, max_chain)
    if fab is INF or fba is INF:
        return GapResult(False, INF, -fba if fba < INF else -INF, fab)
    width = fab + fba
    return GapResult(width > tol, float(width), float(-fba), float(fab))


def matrix_json(graph, max_chain=4):
    ids = simple_ids(graph)

    def render(value):
        if value is INF:
            return "inf"
        if value is -INF:
            return "-inf"
        return float(value)

    out = {"spaces": ids, "D": {}, "E": {}, "F": {}}
    for a in ids:
        for b in ids:
            key = "%s->%s" % (a, b)
            out["D"][key] = render(compute_D(graph, a, b))
            out["E"][key] = render(compute_E(graph, a, b, max_chain))
            out["F"][key] = render(compute_F(graph, a, b, max_chain))
    return out
