"""Finite adiabatic-accessibility relations and their closure.

A Relation holds its facts once, in a successor map from each state of its
universe to the states it reaches; add_fact adds a fact and rel.facts is a
read-only view of the map as pairs.  close() saturates a relation under the
structural rules: reflexivity, transitivity, consistency (facts compose side
by side), scaling invariance over a finite rational grid,
splitting/recombination of parts, and the cancellation law.  Closure is
bounded by the grid and by a maximum part count, which keeps it decidable; a
fact budget guards against blow-up.

close() and the axiom scan apply the rules on a private fact store
(_FactStore).  It numbers the states in successor-map order, keyed by their
parts with every scale written as an integer numerator over the least common
denominator of the grid and of the scales in the input facts.  The facts are
held as Python-int bitset rows, forward and backward, so transitivity is a
row OR as in Warshall/Purdom closure, and each rule (scaling, side-by-side
combination, split/merge variants, cancellation remainders) is a map
memoized per id.  close() writes one canonical CompoundState per id into its
result's successor map.  run_axiom_scan() interns a relation once and checks
every structural rule on that one store, so hand-built relations are still
scanned as they stand.

OracleRelation is the second backend: it answers the same queries lazily from
a per-state entropy assignment and is used to generate ground-truth relations
over grids far too large to materialize.  Both backends answer
rel.accessible(x, y).
"""

from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import (
    ClosureBudgetError,
    CompositionMismatchError,
    InputFormatError,
    RelationSpecError,
    UnclosedRelationError,
    UnknownStateError,
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

DEFAULT_BUDGET = 10 ** 6


def dyadic_grid(max_denominator=128):
    """All dyadic rationals p/2^k in (0, 1] with 2^k <= max_denominator.

    The default scale grid: exact, decidable, and fine enough for 1/128
    resolution entropy sweeps.
    """
    grid = set()
    q = 1
    while q <= max_denominator:
        grid.update(Fraction(p, q) for p in range(1, q + 1))
        q *= 2
    return frozenset(grid)


@dataclass(frozen=True)
class EpsilonFamily:
    """A stability family: facts (X, eps*Z0) < (Y, eps*Z1) for shrinking eps."""

    X: CompoundState
    Y: CompoundState
    Z0: CompoundState
    Z1: CompoundState
    epsilons: tuple


class _FactView(Set):
    """A successor map read as a set of (left, right) pairs, without add."""

    _from_iterable = set  # so & | - ^ return plain sets

    def __init__(self, successors):
        self._successors = successors

    def __len__(self):
        return sum(map(len, self._successors.values()))

    def __iter__(self):
        for left, reach in self._successors.items():
            for right in reach:
                yield left, right

    def __contains__(self, pair):
        left, right = pair
        return right in self._successors.get(left, ())


@dataclass
class Relation:
    """An accessibility relation over declared state spaces.

    successors maps each state of the universe to the set of states it
    reaches; facts is a read-only view of it as ordered pairs.  After close()
    the relation is immutable by convention and all queries are pure.
    """

    search_mode = "grid"  # construct_entropy's default for this backend
    spaces: dict
    lambda_grid: frozenset
    closed: bool = False
    epsilon_families: tuple = ()
    successors: dict = field(default_factory=dict, repr=False)

    @property
    def facts(self):
        return _FactView(self.successors)

    @property
    def universe(self):
        return set(self.successors)

    def in_universe(self, state):
        return state in self.successors

    def add_fact(self, left, right):
        """Record left -> right; both states join the universe."""
        self.successors.setdefault(left, set()).add(right)
        self.successors.setdefault(right, set())

    def accessible(self, x, y):
        """Is (x, y) a fact?  Raises UnclosedRelationError before close()."""
        if not self.closed:
            raise UnclosedRelationError(
                "accessible() on an unclosed relation would give false negatives"
            )
        return y in self.successors.get(x, ())


def build_relation(spaces, facts, lambda_grid=None):
    """Assemble an unclosed relation from declared spaces, facts and grid.

    The result contains exactly the given facts plus a reflexive fact for
    every declared single state and every state mentioned in a fact.  With
    no grid given, the dyadics with denominator up to 128 are used.
    """
    if lambda_grid is None:
        lambda_grid = dyadic_grid()
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

    rel = Relation(spaces=space_map, lambda_grid=grid)
    for sp in space_map.values():
        for st in sp.state_ids:
            x = single(sp.space_id, st)
            rel.add_fact(x, x)
    for left, right in facts:
        check_membership(space_map, left)
        check_membership(space_map, right)
        if left.composition(space_map) != right.composition(space_map):
            raise CompositionMismatchError(
                "fact %s -> %s does not conserve element content"
                % (left, right)
            )
        rel.add_fact(left, left)
        rel.add_fact(right, right)
        rel.add_fact(left, right)
    return rel


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
    forward and pred backward.  Each rule map is memoized per id.
    """

    def __init__(self, grid, states, max_parts=None):
        den = lcm(*(q.denominator for q in grid),
                  *(lam.denominator for s in states for _sp, _st, lam in s.parts))

        def num(q):
            return q.numerator * (den // q.denominator)

        self.den = den
        self.max_parts = max_parts
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
        for state in states:
            self.intern(tuple((sp, st, num(lam)) for sp, st, lam in state.parts), state)

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

    def variants(self, sid):
        """Ids of all one-part splits and merges allowed by grid and size,
        one entry per way of reaching each."""
        out = self._variants.get(sid)
        if out is None:
            den, grid, parts = self.den, self.grid, self.keys[sid]
            keys = []
            if len(parts) < self.max_parts:
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
            out = self._variants[sid] = [self.intern(k) for k in keys]
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


def _store_of(rel, max_parts=None):
    """A fresh store interning the states of rel's successor map in map order.

    Returns the store, the facts as id pairs (not yet added to the store),
    each row by ascending id so that no order depends on string hashing, and
    the range of universe ids.  rel's CompoundStates are kept as the states.
    """
    index = {state: sid for sid, state in enumerate(rel.successors)}
    pairs = [(sid, rid) for sid, reach in enumerate(rel.successors.values())
             for rid in sorted(index[y] for y in reach)]
    return _FactStore(rel.lambda_grid, list(index), max_parts), pairs, range(len(index))


def _scan_store(rel, max_parts=None):
    """_store_of with rel's facts added: what the axiom checks read."""
    store, pairs, universe = _store_of(rel, max_parts)
    for left, right in pairs:
        store.add(left, right)
    return store, pairs, universe


def close(rel, max_parts=3, budget=DEFAULT_BUDGET):
    """Saturate the relation under the structural rules.

    Returns a new, closed relation.  Generated compound states are restricted
    to at most max_parts parts with scales inside the lambda grid; rule
    applications that would leave those bounds are skipped.  Raises
    ClosureBudgetError, naming the rule and the part counts of the fact that
    overflowed, when the fact count exceeds `budget`.
    """
    store, pairs, _universe = _store_of(rel, max_parts)
    keys, succ, pred = store.keys, store.succ, store.pred
    queue = deque()
    size_buckets = {}
    seen = set()
    count = 0

    def add_fact(left, right, rule):
        nonlocal count
        if not store.add(left, right):
            return
        count += 1
        sizes = (len(keys[left]), len(keys[right]))
        if count > budget:
            raise ClosureBudgetError(budget, count, rule, sizes)
        pair = (left, right)
        size_buckets.setdefault(sizes, []).append(pair)
        queue.append(pair)

    for left, right in pairs:
        add_fact(left, right, "input")

    while queue:
        left, right = queue.popleft()
        # reflexivity and splitting/recombination, once per state
        for sid in (left, right):
            if sid not in seen:
                seen.add(sid)
                add_fact(sid, sid, "reflexive")
                for variant in store.variants(sid):
                    add_fact(sid, variant, "split")
                    add_fact(variant, sid, "split")
        # transitivity through both endpoints, new pairs only
        for nxt in _bits(succ[right] & ~succ[left]):
            add_fact(left, nxt, "transitivity")
        for prev in _bits(pred[left] & ~pred[right]):
            add_fact(prev, right, "transitivity")
        # scaling invariance over the grid
        for a, b in zip(store.scaled(left), store.scaled(right)):
            if a is not None and b is not None:
                add_fact(a, b, "scaling")
        # consistency: compose with every size-compatible fact
        n_left, n_right = len(keys[left]), len(keys[right])
        for (ls, rs), bucket in list(size_buckets.items()):
            if n_left + ls > max_parts or n_right + rs > max_parts:
                continue
            for other_left, other_right in list(bucket):
                add_fact(store.combine(left, other_left),
                         store.combine(right, other_right), "consistency")
        # cancellation law
        for a, b in store.cancelled(left, right):
            add_fact(a, b, "cancellation")

    out = Relation(
        spaces=dict(rel.spaces),
        lambda_grid=rel.lambda_grid,
        closed=True,
        epsilon_families=tuple(rel.epsilon_families),
    )
    # the bitset rows hold every fact: free the bucketed id pairs before
    # building the output
    size_buckets.clear()
    state = store.state
    for sid in sorted(seen):
        out.successors[state(sid)] = {state(n) for n in _bits(succ[sid])}
    return out


def accessible(rel, x, y):
    """Membership query: is (x, y) a fact of the relation?

    Works on either backend; an unclosed Relation raises
    UnclosedRelationError.
    """
    return rel.accessible(x, y)


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


def adiabats(rel, space_id):
    """Partition the unscaled states of a space into mutual-accessibility classes.

    Classes are ordered by their first member in the declared state order,
    which also fixes the canonical representative.
    """
    if space_id not in rel.spaces:
        raise UnknownStateError("unknown space %r" % space_id)
    order = rel.spaces[space_id].state_ids
    seen = set()
    classes = []
    for st in order:
        if st in seen:
            continue
        x = single(space_id, st)
        cls = [st]
        seen.add(st)
        for other in order:
            if other in seen:
                continue
            y = single(space_id, other)
            if rel.accessible(x, y) and rel.accessible(y, x):
                cls.append(other)
                seen.add(other)
        classes.append(cls)
    return classes


@dataclass
class CHResult:
    holds: bool
    witness: tuple = None
    pairs_checked: int = 0
    universe_size: int = 0


def check_comparison_hypothesis(rel, universe=None):
    """Scan a universe of compound states for an incomparable pair.

    The universe defaults to rel's own, in string order.  Only pairs with
    equal per-space scale totals are required to be comparable (states of
    different total content never are).  Returns the first incomparable pair
    as a witness on failure.
    """
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


@dataclass
class AxiomReport:
    name: str
    checked: int
    violations: list

    @property
    def holds(self):
        return not self.violations


def _reflexivity(store, universe):
    viol = [store.state(sid) for sid in universe if not store.has(sid, sid)]
    return AxiomReport("reflexivity", len(universe), viol)


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


def _consistency(store, pairs, universe, max_parts, universe_only):
    has, keys, combine, state = store.has, store.keys, store.combine, store.state
    viol = []
    checked = 0
    buckets = {}
    for pair in pairs:
        buckets.setdefault((len(keys[pair[0]]), len(keys[pair[1]])), []).append(pair)
    for (l1, r1), bucket1 in buckets.items():
        for (l2, r2), bucket2 in buckets.items():
            if l1 + l2 > max_parts or r1 + r2 > max_parts:
                continue
            for a, b in bucket1:
                for c, d in bucket2:
                    left, right = combine(a, c), combine(b, d)
                    if universe_only and not (left in universe and right in universe):
                        continue
                    checked += 1
                    if not has(left, right):
                        viol.append(((state(a), state(b)), (state(c), state(d))))
    return AxiomReport("consistency", checked, viol)


def _scaling_invariance(store, pairs, universe, universe_only):
    has, scaled, state = store.has, store.scaled, store.state
    lams = [lam for lam, _num in store.factors]
    viol = []
    checked = 0
    for a, b in pairs:
        for lam, x, y in zip(lams, scaled(a), scaled(b)):
            if x is None or y is None:
                continue
            if universe_only and not (x in universe and y in universe):
                continue
            checked += 1
            if not has(x, y):
                viol.append(((state(a), state(b)), lam))
    return AxiomReport("scaling_invariance", checked, viol)


def _splitting(store, universe, universe_only):
    """Split/merge variants within the store's max_parts."""
    has, state = store.has, store.state
    viol = []
    checked = 0
    for sid in universe:
        for variant in store.variants(sid):
            if universe_only and variant not in universe:
                continue
            checked += 1
            if not (has(sid, variant) and has(variant, sid)):
                viol.append((state(sid), state(variant)))
    return AxiomReport("splitting_recombination", checked, viol)


def _cancellation(store, pairs, universe, universe_only):
    has, state = store.has, store.state
    viol = []
    checked = 0
    for a, b in pairs:
        for x, y in store.cancelled(a, b):
            if universe_only and not (x in universe and y in universe):
                continue
            checked += 1
            if not has(x, y):
                viol.append(((state(a), state(b)), (state(x), state(y))))
    return AxiomReport("cancellation", checked, viol)


def check_cancellation(rel):
    """Verify the cancellation law on every fact with a shared part bundle."""
    return _cancellation(*_scan_store(rel), False)


def check_stability(rel, families=None):
    """Flag epsilon families whose limit fact is missing from the relation.

    A family asserts (X, eps Z0) < (Y, eps Z1) for every listed eps; if all
    those facts are present, the limit fact X < Y must have been declared too.
    """
    if families is None:
        families = rel.epsilon_families
    viol = []
    checked = 0
    for fam in families:
        prem = True
        for eps in fam.epsilons:
            left = fam.X.combine(fam.Z0.scale(eps))
            right = fam.Y.combine(fam.Z1.scale(eps))
            if (left, right) not in rel.facts:
                prem = False
                break
        if not prem:
            continue
        checked += 1
        if (fam.X, fam.Y) not in rel.facts:
            viol.append(fam)
    return AxiomReport("stability", checked, viol)


def run_axiom_scan(rel, max_parts=3, universe_only=False):
    """Run every structural check plus stability; returns reports by name.

    rel is interned once; the six structural rules are checked on that one
    store.  With universe_only=True, rule results falling outside the
    relation's own universe are skipped; use it for relations materialized on
    a hand-picked universe rather than produced by close().
    """
    store, pairs, universe = _scan_store(rel, max_parts)
    reports = [
        _reflexivity(store, universe),
        _transitivity(store, pairs),
        _consistency(store, pairs, universe, max_parts, universe_only),
        _scaling_invariance(store, pairs, universe, universe_only),
        _splitting(store, universe, universe_only),
        _cancellation(store, pairs, universe, universe_only),
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

    def in_universe(self, state):
        return all((sp, st) in self.sigma for sp, st, _lam in state.parts)

    def accessible(self, x, y):
        tx, vx = self._weights(x)
        ty, vy = self._weights(y)
        if tx != ty:
            return False
        return vx <= vy


def relation_from_oracle(spaces, sigma, universe, lambda_grid=(Fraction(1),)):
    """Materialize the oracle relation on an explicit universe of states.

    Every ordered pair inside `universe` that the entropy assignment admits
    becomes a fact; the result is closed under the structural rules restricted
    to that universe, so it is returned with the closed flag set.
    """
    oracle = OracleRelation(spaces, sigma, lambda_grid)
    rel = Relation(spaces=dict(oracle.spaces), lambda_grid=oracle.lambda_grid)
    universe = list(universe)
    for x in universe:
        for y in universe:
            if oracle.accessible(x, y):
                rel.add_fact(x, y)
    rel.closed = True
    return rel


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
                [parse_rational(c) for c in s["composition"]],
                s["states"],
            )
            for s in doc["spaces"]
        ]
        facts = [_parse_fact(f) for f in doc.get("facts", [])]
        grid = [parse_rational(g) for g in doc.get("lambda_grid", ["1"])]
        families = tuple(
            EpsilonFamily(
                X=_parse_compound(f["X"]),
                Y=_parse_compound(f["Y"]),
                Z0=_parse_compound(f["Z0"]),
                Z1=_parse_compound(f["Z1"]),
                epsilons=tuple(parse_rational(e) for e in f["epsilons"]),
            )
            for f in doc.get("epsilon_families", [])
        )
    except KeyError as exc:
        raise RelationSpecError("missing relation field %s" % exc) from exc
    except TypeError as exc:
        raise RelationSpecError("malformed relation (%s)" % exc) from exc
    rel = build_relation(spaces, facts, grid)
    rel.epsilon_families = families
    return rel
