"""Finite adiabatic-accessibility relations and their closure.

Every Relation holds its facts in one fact store, interned from a fact list
when the relation is built and filled by the rules when it is closed.  close()
saturates a relation under the structural rules: reflexivity, transitivity,
consistency (facts compose side by side), scaling invariance over a finite
rational grid, splitting/recombination of parts, and the cancellation law.
Closure is bounded by the grid and by a maximum part count, which keeps it
decidable; a fact budget guards against blow-up.

close() applies consistency with spectator states, as in Lieb-Yngvason's
derivation of axiom A3 from its special case Y = Y': each fact X -> X' is
composed with every state Z that leaves both sides within the part bound,
giving (X, Z) -> (X', Z).  This reaches the closure of composing every pair
of facts.  If (X, Y) -> (X', Y') fits, the four part counts sum to at most
2 * max_parts, so (X', Y) or (X, Y') fits as well, and transitivity passes
through it.  The work grows with facts times states, not facts squared.

The fact store (_FactStore) numbers the states in first-seen order, keyed
by their parts with every scale written as an integer numerator over the
least common denominator of the grid and of the scales in the input facts.
The facts are held as Python-int bitset rows, forward and backward, so
transitivity is a row OR as in Warshall/Purdom closure, and each rule
(scaling, side-by-side combination, split/merge variants, cancellation
remainders) is a map memoized per id.  The relation close() returns keeps
close()'s store, rows and memos, and builds CompoundState maps only on
demand.  run_axiom_scan(), check_comparison_hypothesis() and
verify_entropy_principle() read the rows of a relation's store, so hand-built
relations are scanned as they stand, on their own universe.  The
scan's consistency check composes every pair of facts, not spectators, since
a hand-built relation need not be transitive; as side by side composition
commutes, it composes each unordered pair once.

OracleRelation is the second backend: it answers the same queries lazily from
a per-state entropy assignment and is used to generate ground-truth relations
over grids far too large to materialize.  Both backends answer
rel.accessible(x, y).
"""

from collections import deque, namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import lcm

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
    CompoundState,
    check_membership,
    compound,
    make_space,
    signed_sides,
    single,
)

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
            for left, right in facts:
                store.add(store.index[left], store.index[right])
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


def _bits(mask):
    """Indices of the set bits of a Python-int bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _FactStore:
    """Interned compound states and facts between them, by integer id.

    A state's key is its part tuple with each scale replaced by its integer
    numerator over `den`, the least common denominator of the grid and of
    every scale the store was built from.  No rule makes a scale outside
    that set, and the numerators sort like the Fractions they stand for.
    The facts are held once, as Python-int bitset rows indexed by id: succ
    forward and pred backward.  Each rule map is memoized per id.  `index`
    maps each state of the relation's universe to its id, in id order; the
    rules may intern further ids, which hold no facts.
    """

    def __init__(self, grid, states):
        den = lcm(*(q.denominator for q in grid),
                  *(lam.denominator for s in states for _sp, _st, lam in s.parts))

        def num(q):
            return q.numerator * (den // q.denominator)

        self.den = den
        self.grid = {num(g) for g in grid}
        # (scale, numerator) for each grid scale other than 1
        self.factors = [(g, num(g)) for g in sorted(grid) if g != 1]
        self.keys = []
        self.ids = {}
        self.states = []
        self.succ = []
        self.pred = []
        self._scaled = {}
        self._variants = {}
        self._combined = {}
        self._remainders = {}
        self.index = {}
        for state in states:
            key = tuple((sp, st, num(lam)) for sp, st, lam in state.parts)
            self.index[state] = self.intern(key, state)

    def intern(self, key, state=None):
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.states.append(state)
            self.succ.append(0)
            self.pred.append(0)
        return sid

    def state(self, sid):
        """The canonical CompoundState of an id, built once."""
        state = self.states[sid]
        if state is None:
            den = self.den
            state = self.states[sid] = CompoundState(tuple(
                (sp, st, Fraction(n, den)) for sp, st, n in self.keys[sid]
            ))
        return state

    def has(self, left, right):
        return self.succ[left] >> right & 1

    def signature(self, sid):
        """The per-space scale totals of a state, in space order, as integer
        numerators over `den`."""
        totals = {}
        for sp, _st, mu in self.keys[sid]:
            totals[sp] = totals.get(sp, 0) + mu
        return tuple(totals.items())

    def add(self, left, right):
        """Record the fact left -> right; False when it was already known."""
        if self.has(left, right):
            return False
        self.succ[left] |= 1 << right
        self.pred[right] |= 1 << left
        return True

    def scaled(self, sid):
        """Per entry of `factors`: the id of the state scaled by it, or None
        when a part scale leaves the grid."""
        out = self._scaled.get(sid)
        if out is None:
            den, grid = self.den, self.grid
            out = []
            for _lam, g in self.factors:
                parts = []
                for sp, st, mu in self.keys[sid]:
                    q, rem = divmod(mu * g, den)
                    if rem or q not in grid:
                        parts = None
                        break
                    parts.append((sp, st, q))
                out.append(None if parts is None else self.intern(tuple(sorted(parts))))
            out = self._scaled[sid] = tuple(out)
        return out

    def variants(self, sid, max_parts):
        """Ids of all one-part splits and merges allowed by grid and size,
        one entry per way of reaching each."""
        memo = self._variants.setdefault(max_parts, {})
        out = memo.get(sid)
        if out is None:
            den, grid, parts = self.den, self.grid, self.keys[sid]
            keys = []
            if len(parts) < max_parts:
                for i, (sp, st, mu) in enumerate(parts):
                    rest = parts[:i] + parts[i + 1:]
                    for _lam, g in self.factors:
                        if g >= den:
                            continue
                        a, rem_a = divmod(mu * g, den)
                        b, rem_b = divmod(mu * (den - g), den)
                        if not (rem_a or rem_b) and a in grid and b in grid:
                            keys.append(tuple(sorted(rest + ((sp, st, a), (sp, st, b)))))
            for i, j in combinations(range(len(parts)), 2):
                (sp, st, mu), (sp2, st2, nu) = parts[i], parts[j]
                if sp == sp2 and st == st2 and mu + nu in grid:
                    rest = tuple(p for k, p in enumerate(parts) if k not in (i, j))
                    keys.append(tuple(sorted(rest + ((sp, st, mu + nu),))))
            out = memo[sid] = [self.intern(k) for k in keys]
        return out

    def combine(self, a, b):
        """Id of the two states side by side (multiset union of parts)."""
        pair = (a, b) if a <= b else (b, a)
        sid = self._combined.get(pair)
        if sid is None:
            sid = self._combined[pair] = self.intern(
                tuple(sorted(self.keys[a] + self.keys[b]))
            )
        return sid

    def remainders(self, sid):
        """Each nonempty proper sub-multiset of the parts, as a part tuple,
        mapped to the id of the parts left over."""
        out = self._remainders.get(sid)
        if out is None:
            parts = self.keys[sid]
            n = len(parts)
            out = {}
            for r in range(1, n):
                for combo in combinations(range(n), r):
                    sub = tuple(parts[k] for k in combo)
                    if sub not in out:
                        out[sub] = self.intern(tuple(sorted(
                            p for k, p in enumerate(parts) if k not in combo
                        )))
            self._remainders[sid] = out
        return out

    def cancelled(self, left, right):
        """Facts the cancellation law derives from left -> right: drop a
        part bundle the two sides share, keeping both sides nonempty."""
        rem_left = self.remainders(left)
        if not rem_left:
            return ()
        rem_right = self.remainders(right)
        return [(x, rem_right[sub]) for sub, x in rem_left.items() if sub in rem_right]


def close(rel, max_parts=3, budget=DEFAULT_BUDGET):
    """Saturate the relation under the structural rules.

    Returns a new, closed relation.  Generated compound states are restricted
    to at most max_parts parts with scales inside the lambda grid; rule
    applications that would leave those bounds are skipped.  Raises
    ClosureBudgetError, naming the rule and the part counts of the fact that
    overflowed, when the fact count exceeds `budget`.

    Consistency composes facts with spectator states, not with other facts:
    a fact (l, r) takes a spectator Z when max(len(l), len(r)) + len(Z) <=
    max_parts.  Each popped fact meets every state seen so far, and each
    newly seen state meets every fact popped so far, so every such pair is
    composed once.  Only facts and states with room for another part are
    kept for this.
    """
    given = rel.store
    store = _FactStore(rel.lambda_grid, given.index)
    keys, succ, pred, combine = store.keys, store.succ, store.pred, store.combine
    queue = deque()
    seen = set()
    spectators = {}  # part count -> states seen so far
    popped = {}  # part count of the larger side -> facts popped so far
    count = 0

    def derive(left, right, rule):
        nonlocal count
        if not store.add(left, right):
            return
        count += 1
        if count > budget:
            raise ClosureBudgetError(budget, count, rule,
                                     (len(keys[left]), len(keys[right])))
        queue.append((left, right))

    # the input rows by ascending id, so that no order depends on hashing
    ids = dict(zip(given.index.values(), store.index.values()))
    for sid in given.index.values():
        for rid in _bits(given.succ[sid]):
            derive(ids[sid], ids[rid], "input")

    while queue:
        left, right = queue.popleft()
        # reflexivity and splitting/recombination once per state, and the
        # state as a spectator beside every fact popped before it
        for sid in (left, right):
            if sid not in seen:
                seen.add(sid)
                derive(sid, sid, "reflexive")
                for variant in store.variants(sid, max_parts):
                    derive(sid, variant, "split")
                    derive(variant, sid, "split")
                size = len(keys[sid])
                if size < max_parts:
                    for n in popped:
                        if n + size <= max_parts:
                            for a, b in popped[n]:
                                derive(combine(a, sid), combine(b, sid), "consistency")
                    spectators.setdefault(size, []).append(sid)
        # transitivity through both endpoints, new pairs only
        for nxt in _bits(succ[right] & ~succ[left]):
            derive(left, nxt, "transitivity")
        for prev in _bits(pred[left] & ~pred[right]):
            derive(prev, right, "transitivity")
        # scaling invariance over the grid
        for a, b in zip(store.scaled(left), store.scaled(right)):
            if a is not None and b is not None:
                derive(a, b, "scaling")
        # consistency: the fact beside every state seen so far
        n = max(len(keys[left]), len(keys[right]))
        if n < max_parts:
            for size in spectators:
                if n + size <= max_parts:
                    for z in spectators[size]:
                        derive(combine(left, z), combine(right, z), "consistency")
            popped.setdefault(n, []).append((left, right))
        # cancellation law
        for a, b in store.cancelled(left, right):
            derive(a, b, "cancellation")

    store.index = {store.state(sid): sid for sid in sorted(seen)}
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


def _transitivity(store, pairs):
    succ, state = store.succ, store.state
    viol = []
    checked = 0
    for left, right in pairs:
        reach = succ[right]
        checked += reach.bit_count()
        for nxt in _bits(reach & ~succ[left]):
            viol.append((state(left), state(right), state(nxt)))
    return AxiomReport("transitivity", checked, viol)


def _consistency(store, pairs, max_parts):
    """Compose each unordered pair of facts once.  Side-by-side composition
    commutes, so a pair of two distinct facts counts as two checks and
    reports its violation in both orders, as a scan of ordered pairs would.
    Every pair is composed: a hand-built relation need not be transitive."""
    has, keys, combine, state = store.has, store.keys, store.combine, store.state
    viol = []
    checked = 0
    buckets = {}
    for pair in pairs:
        buckets.setdefault((len(keys[pair[0]]), len(keys[pair[1]])), []).append(pair)
    groups = list(buckets.items())
    for i, ((l1, r1), bucket1) in enumerate(groups):
        for (l2, r2), bucket2 in groups[i:]:
            if l1 + l2 > max_parts or r1 + r2 > max_parts:
                continue
            if bucket1 is bucket2:
                fact_pairs = combinations_with_replacement(bucket1, 2)
            else:
                fact_pairs = product(bucket1, bucket2)
            for first, second in fact_pairs:
                (a, b), (c, d) = first, second
                left, right = combine(a, c), combine(b, d)
                twice = first != second
                checked += 1 + twice
                if not has(left, right):
                    x, y = (state(a), state(b)), (state(c), state(d))
                    viol.append((x, y))
                    if twice:
                        viol.append((y, x))
    return AxiomReport("consistency", checked, viol)


def _scaling_invariance(store, pairs):
    has, scaled, state = store.has, store.scaled, store.state
    lams = [lam for lam, _num in store.factors]
    viol = []
    checked = 0
    for a, b in pairs:
        for lam, x, y in zip(lams, scaled(a), scaled(b)):
            if x is None or y is None:
                continue
            checked += 1
            if not has(x, y):
                viol.append(((state(a), state(b)), lam))
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


def _cancellation(store, pairs):
    has, state = store.has, store.state
    viol = []
    checked = 0
    for a, b in pairs:
        for x, y in store.cancelled(a, b):
            checked += 1
            if not has(x, y):
                viol.append(((state(a), state(b)), (state(x), state(y))))
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
    pairs = [(left, right) for left in ids for right in _bits(store.succ[left])]
    reports = [
        _reflexivity(store, ids),
        _transitivity(store, pairs),
        _consistency(store, pairs, max_parts),
        _scaling_invariance(store, pairs),
        _splitting(store, ids, max_parts),
        _cancellation(store, pairs),
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
