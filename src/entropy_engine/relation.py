"""Finite adiabatic-accessibility relations and their closure.

Every Relation holds its facts in one fact store, interned from a fact list
when the relation is built and filled by the rules when it is closed.  close()
saturates a relation under the structural rules: reflexivity, transitivity,
consistency (facts compose side by side), scaling invariance over a finite
rational grid, splitting/recombination of parts, and the cancellation law.
Closure is bounded by the grid and by a maximum part count, which keeps it
decidable; a fact budget guards against blow-up.

The fact store (store._FactStore) holds the facts as Python-int bitset rows
by state id, forward and backward, with each rule map memoized per id.  close()
is semi-naive evaluation on those rows (Bancilhon; Warshall): it queues
states with their delta rows, the facts each gained since it was last popped,
so transitivity is an OR of rows, every rule adds its results as a row mask,
and cancellation reads `holders`, per part bundle the mask of the states that
hold it.  The relation close() returns keeps close()'s store and memos, and
builds CompoundState maps only on demand.  run_axiom_scan(),
check_comparison_hypothesis() and verify_entropy_principle() read the rows of
a relation's store, so hand-built relations are scanned as they stand, on
their own universe.

OracleRelation is the second backend: it answers the same queries lazily from
a per-state entropy assignment and is used to generate ground-truth relations
over grids far too large to materialize.  Both backends answer
rel.accessible(x, y).
"""

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations_with_replacement, product

from .errors import (
    DEFAULT_BUDGET,
    ClosureBudgetError,
    CompositionMismatchError,
    InputFormatError,
    RelationSpecError,
    UnclosedRelationError,
    expect_list,
)
from .rational import parse_rational
from .states import (
    check_membership,
    compound,
    make_space,
    signed_sides,
    single,
)
from .store import _bits, _FactStore

EQUIVALENT = "equivalent"
STRICTLY_PRECEDES = "strictly_precedes"
STRICTLY_FOLLOWS = "strictly_follows"
INCOMPARABLE = "incomparable"


EpsilonFamily = namedtuple("EpsilonFamily", "X Y Z0 Z1 epsilons")
EpsilonFamily.__doc__ = """A stability family: facts (X, eps*Z0) < (Y, eps*Z1)
for shrinking eps."""


class Relation:
    """An accessibility relation over declared state spaces.

    Its facts live only in `store`, a _FactStore: the given (left, right)
    pairs are interned there, states in first-seen order, left before right,
    unless close() passes the store it filled.  Queries and every scan read
    the store; `successors` (each state of the universe mapped to the set of
    states it reaches) and `facts` (a frozenset of pairs) are built from it
    only when asked for.  A relation is immutable by convention.
    """

    search_mode = "grid"  # how construct_entropy searches this backend
    __slots__ = ("spaces", "lambda_grid", "closed", "epsilon_families", "store",
                 "_successors", "_facts")

    def __init__(self, spaces, lambda_grid, facts=(), closed=False,
                 epsilon_families=(), store=None):
        self.spaces = spaces
        self.lambda_grid = lambda_grid
        self.closed = closed
        self.epsilon_families = epsilon_families
        if store is None:
            facts = list(facts)
            store = _FactStore(lambda_grid, dict.fromkeys(
                state for pair in facts for state in pair))
            index, succ, pred = store.index, store.succ, store.pred
            for left, right in facts:
                succ[index[left]] |= 1 << index[right]
                pred[index[right]] |= 1 << index[left]
        self.store = store
        self._successors = self._facts = None

    @property
    def successors(self):
        if self._successors is None:
            store = self.store
            state, succ = store.state, store.succ
            self._successors = {x: {state(n) for n in _bits(succ[sid])}
                                for x, sid in store.index.items()}
        return self._successors

    @property
    def facts(self):
        if self._facts is None:
            self._facts = frozenset((x, y) for x, reach in self.successors.items()
                                    for y in reach)
        return self._facts

    def fact_count(self):
        store = self.store
        return sum(store.succ[sid].bit_count() for sid in store.index.values())

    @property
    def universe(self):
        return set(self.store.index)

    def has(self, x, y):
        """Is (x, y) a fact, whether or not the relation is closed?"""
        index = self.store.index
        left, right = index.get(x), index.get(y)
        return left is not None and right is not None and bool(
            self.store.has(left, right))

    def accessible(self, x, y):
        """Is (x, y) a fact?  Raises UnclosedRelationError before close()."""
        if not self.closed:
            raise UnclosedRelationError(
                "accessible() on an unclosed relation would give false negatives"
            )
        return self.has(x, y)


def build_relation(spaces, facts, lambda_grid, epsilon_families=()):
    """Assemble an unclosed relation from declared spaces, facts, grid and
    stability families.

    The result contains exactly the given facts plus a reflexive fact for
    every declared single state and every state mentioned in a fact.  Every
    state of a family must be declared, and its epsilons nonempty and
    positive.
    """
    space_map = {}
    comp_len = None
    for sp in spaces:
        if sp.space_id in space_map:
            raise RelationSpecError("duplicate space id %r" % sp.space_id)
        if comp_len is None:
            comp_len = len(sp.composition)
        elif len(sp.composition) != comp_len:
            raise RelationSpecError(
                "space %r has %d element amounts, expected %d"
                % (sp.space_id, len(sp.composition), comp_len)
            )
        space_map[sp.space_id] = sp

    grid = frozenset(Fraction(g) for g in lambda_grid)
    if any(g <= 0 for g in grid):
        raise RelationSpecError("lambda grid entries must be positive")
    if Fraction(1) not in grid:
        raise RelationSpecError("lambda grid must contain 1")

    families = tuple(epsilon_families)
    for fam in families:
        for state in (fam.X, fam.Y, fam.Z0, fam.Z1):
            check_membership(space_map, state)
        if not fam.epsilons:
            raise RelationSpecError("an epsilon family needs at least one epsilon")
        for eps in fam.epsilons:
            if eps <= 0:
                raise RelationSpecError(
                    "epsilon family epsilons must be positive, got %s" % eps)

    pairs = []
    for sp in space_map.values():
        for st in sp.state_ids:
            x = single(sp.space_id, st)
            pairs.append((x, x))
    for left, right in facts:
        check_membership(space_map, left)
        check_membership(space_map, right)
        if left.composition(space_map) != right.composition(space_map):
            raise CompositionMismatchError(
                "fact %s -> %s does not conserve element content"
                % (left, right)
            )
        pairs += [(left, left), (right, right), (left, right)]
    return Relation(spaces=space_map, lambda_grid=grid, facts=pairs,
                    epsilon_families=families)


def close(rel, max_parts=3, budget=DEFAULT_BUDGET):
    """Saturate the relation under the structural rules.

    Returns a new, closed relation whose states have at most max_parts parts,
    with scales in the lambda grid.  Raises ClosureBudgetError when the fact
    count exceeds `budget`, naming the rule and the part counts of the fact
    past it, a row's new bits counted lowest first.

    The queue holds states with their delta rows, the bits each succ row
    gained since it was last popped.  Every delta bit meets every rule, since
    the bounded rules do not commute with transitivity.  Consistency composes
    facts with spectator states, as Lieb-Yngvason derive A3 from its case
    Y = Y': (l, r) takes Z when max(len(l), len(r)) + len(Z) <= max_parts.
    If (X, Y) -> (X', Y') fits, so does (X', Y) or (X, Y'), and transitivity
    passes through it.  A popped delta meets every state seen so far, and a
    newly seen state every fact popped before it.  The rule maps are one to
    one, so the sums of bits below are ORs.
    """
    given = rel.store
    store = _FactStore(rel.lambda_grid, given.index)
    keys, succ, pred, combine = store.keys, store.succ, store.pred, store.combine
    scaled, remainders, holders = store.scaled, store.remainders, store.holders
    queue = []  # (part count, id): popping fewer-part states first pops least
    pending = {}  # queued id -> its delta row
    seen = count = 0
    fits = [0] * max_parts  # k -> mask of the seen states with at most k parts

    def add(left, mask, rule):
        nonlocal count
        new = mask & ~succ[left]
        if new:
            if count + new.bit_count() > budget:
                right = _bits(new)[budget - count]
                raise ClosureBudgetError(budget, budget + 1, rule,
                                         (len(keys[left]), len(keys[right])))
            count += new.bit_count()
            succ[left] |= new
            if left not in pending:
                heappush(queue, (len(keys[left]), left))
            pending[left] = pending.get(left, 0) | new

    def meet(sid):
        """Once per state: reflexive, split and held, and beside popped facts."""
        add(sid, 1 << sid, "reflexive")
        for variant in store.variants(sid, max_parts):
            add(sid, 1 << variant, "split")
            add(variant, 1 << sid, "split")
        store.hold(sid)
        size = len(keys[sid])
        if size < max_parts:
            room = max_parts - size
            for a in _bits(fits[room]):
                done = succ[a] & ~pending.get(a, 0) & fits[room]
                # left's delta meets sid in the consistency step below
                done = _bits(done & ~delta if a == left else done)
                if done:
                    add(combine(a, sid), sum(1 << combine(b, sid) for b in done),
                        "consistency")
            for k in range(size, max_parts):
                fits[k] |= 1 << sid

    # the input rows by ascending id, so that no order depends on hashing
    ids = dict(zip(given.index.values(), store.index.values()))
    for sid in given.index.values():
        add(ids[sid], sum(1 << ids[rid] for rid in _bits(given.succ[sid])), "input")

    while queue:
        left = heappop(queue)[1]
        delta = pending.pop(left)
        fresh = (delta | 1 << left) & ~seen
        seen |= fresh
        for sid in _bits(fresh):
            meet(sid)
        rights = _bits(delta)
        for r in rights:
            pred[r] |= 1 << left
        # consistency: the new facts beside every state seen so far
        size = len(keys[left])
        if size < max_parts:
            fit = [_bits(delta & mask) for mask in fits]
            for z in _bits(fits[max_parts - size]):
                rs = fit[max_parts - len(keys[z])]
                if rs:
                    add(combine(left, z), sum(1 << combine(r, z) for r in rs), "consistency")
        # transitivity: on through the new facts, and back through popped ones
        reach = 0
        for r in rights:
            reach |= succ[r]
        add(left, reach, "transitivity")
        for prev in _bits(pred[left]):
            add(prev, delta, "transitivity")
        # scaling invariance over the grid
        for k, a in enumerate(scaled(left)):
            if a is not None:
                add(a, sum(1 << b for b in (scaled(r)[k] for r in rights) if b is not None),
                    "scaling")
        # cancellation law: drop a part bundle that both sides hold
        for sub, x in remainders(left).items():
            hits = delta & holders[sub]
            if hits:
                add(x, sum(1 << remainders(r)[sub] for r in _bits(hits)), "cancellation")

    store.index = {store.state(sid): sid for sid in _bits(seen)}
    store.held = True  # meet() entered every seen state in `holders`
    return Relation(
        spaces=dict(rel.spaces),
        lambda_grid=rel.lambda_grid,
        closed=True,
        epsilon_families=tuple(rel.epsilon_families),
        store=store,
    )


def accessible_signed(rel, left, right):
    """Query with signed scales, normalized via the side-swap convention."""
    lhs, rhs = signed_sides(left, right)
    return rel.accessible(lhs, rhs)


def classify(rel, x, y):
    """One of equivalent / strictly_precedes / strictly_follows / incomparable."""
    fwd = rel.accessible(x, y)
    back = rel.accessible(y, x)
    if fwd and back:
        return EQUIVALENT
    if fwd:
        return STRICTLY_PRECEDES
    if back:
        return STRICTLY_FOLLOWS
    return INCOMPARABLE


CHResult = namedtuple("CHResult", "holds witness pairs_checked universe_size",
                      defaults=(None, 0, 0))


def check_comparison_hypothesis(rel):
    """Scan the relation's universe of compound states for an incomparable pair.

    The universe is taken in string order.  Only pairs with equal per-space
    scale totals are required to be comparable (states of different total
    content never are).  Returns the first incomparable pair as a witness on
    failure.  A state is comparable with the ids of its succ and pred rows.
    """
    if not rel.closed:
        raise UnclosedRelationError("the comparison hypothesis needs a closed relation")
    store = rel.store
    index, succ, pred = store.index, store.succ, store.pred
    by_signature = {}
    for state in sorted(index, key=str):
        by_signature.setdefault(store.signature(index[state]), []).append(state)
    checked = 0
    for group in by_signature.values():
        ids = [index[state] for state in group]
        rest = sum(1 << sid for sid in ids)  # ids still to come
        n = len(ids)
        for i, x in enumerate(ids):
            near = succ[x] | pred[x]
            rest ^= 1 << x
            if rest & ~near:
                j = next(j for j in range(i + 1, n) if not near >> ids[j] & 1)
                checked += i * (2 * n - i - 1) // 2 + j - i
                return CHResult(False, (group[i], group[j]), checked, len(index))
        checked += n * (n - 1) // 2
    return CHResult(True, None, checked, len(index))


class AxiomReport(namedtuple("AxiomReport", "name checked violations")):
    __slots__ = ()

    @property
    def holds(self):
        return not self.violations


def _reflexivity(store, ids):
    viol = [store.state(sid) for sid in ids if not store.has(sid, sid)]
    return AxiomReport("reflexivity", len(ids), viol)


def _transitivity(store, ids):
    succ, state = store.succ, store.state
    viol = []
    checked = 0
    for left in ids:
        row = succ[left]
        for right in _bits(row):
            reach = succ[right]
            checked += reach.bit_count()
            if reach & ~row:
                viol += [(state(left), state(right), state(n)) for n in _bits(reach & ~row)]
    return AxiomReport("transitivity", checked, viol)


def _consistency(store, ids, max_parts):
    """Compose each unordered pair of facts once.  Side-by-side composition
    commutes, so a pair of two distinct facts counts as two checks and
    reports its violation in both orders, as a scan of ordered pairs would.
    Every pair is composed: a hand-built relation need not be transitive.
    Facts a -> b and c -> d meet per unordered pair of left sides, so the
    row of their composite answers every (b, d)."""
    keys, succ, combine, state = store.keys, store.succ, store.combine, store.state
    viol = []
    checked = 0
    groups = {}  # part count -> the states with room for another part
    for sid in ids:
        if len(keys[sid]) < max_parts:
            groups.setdefault(len(keys[sid]), []).append(sid)
    fit = [sum(1 << sid for n in groups if n <= k for sid in groups[n])
           for k in range(max_parts)]
    # per state with room and per k: its successors with at most k parts
    rows = {sid: [_bits(succ[sid] & mask) for mask in fit]
            for group in groups.values() for sid in group}
    for la, lc in combinations_with_replacement(sorted(groups), 2):
        if la + lc > max_parts:
            continue
        lefts = (combinations_with_replacement(groups[la], 2) if la == lc
                 else product(groups[la], groups[lc]))
        for a, c in lefts:
            row = succ[combine(a, c)]
            for b in rows[a][max_parts - 1]:
                ds = rows[c][max_parts - len(keys[b])]
                if a == c:
                    ds = ds[bisect_left(ds, b):]
                checked += 2 * len(ds) - (a == c and ds[:1] == [b])
                for d in ds:
                    if not row >> combine(b, d) & 1:
                        x, y = (state(a), state(b)), (state(c), state(d))
                        viol += [(x, y), (y, x)] if x != y else [(x, y)]
    return AxiomReport("consistency", checked, viol)


def _scaling_invariance(store, ids):
    succ, scaled, state = store.succ, store.scaled, store.state
    viol = []
    checked = 0
    for a in ids:
        rights = _bits(succ[a])
        for k, ((lam, _num), x) in enumerate(zip(store.factors, scaled(a))):
            if x is not None:
                images = [(b, y) for b in rights if (y := scaled(b)[k]) is not None]
                checked += len(images)
                viol += [((state(a), state(b)), lam) for b, y in images
                         if not succ[x] >> y & 1]
    return AxiomReport("scaling_invariance", checked, viol)


def _splitting(store, ids, max_parts):
    """Split/merge variants within max_parts."""
    has, state = store.has, store.state
    viol = []
    checked = 0
    for sid in ids:
        for variant in store.variants(sid, max_parts):
            checked += 1
            if not (has(sid, variant) and has(variant, sid)):
                viol.append((state(sid), state(variant)))
    return AxiomReport("splitting_recombination", checked, viol)


def _cancellation(store, ids):
    succ, remainders, state = store.succ, store.remainders, store.state
    holders = store.index_holders()
    viol = []
    checked = 0
    for a in ids:
        for sub, x in remainders(a).items():
            hits = _bits(succ[a] & holders[sub])
            checked += len(hits)
            viol += [((state(a), state(b)), (state(x), state(y))) for b in hits
                     if not succ[x] >> (y := remainders(b)[sub]) & 1]
    return AxiomReport("cancellation", checked, viol)


def check_stability(rel):
    """Flag the relation's epsilon families whose limit fact is missing.

    A family asserts (X, eps Z0) < (Y, eps Z1) for every listed eps; if all
    those facts are present, the limit fact X < Y must have been declared too.
    """
    viol = []
    checked = 0
    for fam in rel.epsilon_families:
        if not all(rel.has(fam.X.combine(fam.Z0.scale(eps)),
                           fam.Y.combine(fam.Z1.scale(eps)))
                   for eps in fam.epsilons):
            continue
        checked += 1
        if not rel.has(fam.X, fam.Y):
            viol.append(fam)
    return AxiomReport("stability", checked, viol)


def run_axiom_scan(rel, max_parts=3):
    """Run every structural check plus stability; returns reports by name.

    The six structural rules are checked on rel's fact store, for a closed
    relation close()'s own with its rule memos filled.  A rule result outside
    the relation's universe holds no facts, so it counts as a violation.
    """
    store = rel.store
    ids = list(store.index.values())
    reports = [
        _reflexivity(store, ids),
        _transitivity(store, ids),
        _consistency(store, ids, max_parts),
        _scaling_invariance(store, ids),
        _splitting(store, ids, max_parts),
        _cancellation(store, ids),
        check_stability(rel),
    ]
    return {rep.name: rep for rep in reports}


class OracleRelation:
    """Accessibility decided lazily from a per-state entropy assignment.

    A pair is a fact when per-space scale totals agree on both sides and the
    scale-weighted entropy sum does not decrease, compared exactly.  The
    relation is closed by construction.
    """

    search_mode = "bisect"

    def __init__(self, spaces, sigma, lambda_grid=(Fraction(1),)):
        self.spaces = {sp.space_id: sp for sp in spaces}
        self.sigma = dict(sigma)
        self.lambda_grid = frozenset(Fraction(g) for g in lambda_grid)
        self.closed = True
        self._memo = {}

    def _weights(self, state):
        cached = self._memo.get(state)
        if cached is not None:
            return cached
        totals = state.total_scale_by_space()
        value = Fraction(0)
        for sp, st, lam in state.parts:
            value += lam * self.sigma[(sp, st)]
        cached = (tuple(sorted(totals.items())), value)
        self._memo[state] = cached
        return cached

    def accessible(self, x, y):
        tx, vx = self._weights(x)
        ty, vy = self._weights(y)
        if tx != ty:
            return False
        return vx <= vy


def _parse_compound(doc):
    if not isinstance(doc, list) or not doc or not all(isinstance(p, dict) for p in doc):
        raise InputFormatError(
            "a compound state must be a nonempty list of parts, got %r" % (doc,)
        )
    return compound([
        (parse_rational(p["lambda"]), p["space"], p["state"]) for p in doc
    ])


def _parse_fact(doc):
    if not isinstance(doc, list) or len(doc) != 2:
        raise InputFormatError(
            "a relation fact must be a [left, right] pair, got %r" % (doc,)
        )
    return _parse_compound(doc[0]), _parse_compound(doc[1])


def relation_from_json(doc):
    """Load a relation instance from its JSON document form."""
    try:
        spaces = [
            make_space(
                s["id"],
                [parse_rational(c) for c in
                 expect_list(s["composition"], "space %r composition" % (s["id"],))],
                expect_list(s["states"], "space %r states" % (s["id"],)),
            )
            for s in expect_list(doc["spaces"], "spaces")
        ]
        facts = [_parse_fact(f) for f in expect_list(doc.get("facts", []), "facts")]
        grid = [parse_rational(g) for g in
                expect_list(doc.get("lambda_grid", ["1"]), "lambda_grid")]
        families = tuple(
            EpsilonFamily(
                X=_parse_compound(f["X"]),
                Y=_parse_compound(f["Y"]),
                Z0=_parse_compound(f["Z0"]),
                Z1=_parse_compound(f["Z1"]),
                epsilons=tuple(parse_rational(e) for e in
                               expect_list(f["epsilons"], "epsilon family epsilons")),
            )
            for f in expect_list(doc.get("epsilon_families", []), "epsilon_families")
        )
    except KeyError as exc:
        raise RelationSpecError("missing relation field %s" % exc) from exc
    except TypeError as exc:
        raise RelationSpecError("malformed relation (%s)" % exc) from exc
    return build_relation(spaces, facts, grid, families)
