"""State spaces, scaled compound states and their multiset algebra.

A compound state is a finite multiset of (scale, space, state) parts.  Parts
are kept in a canonical sort order so that equal multisets compare equal and
products of spaces commute.  Zero-scale parts are dropped; negative scales are
only ever used transiently, by moving the part to the other side of a query.
"""

from fractions import Fraction

from .errors import RelationSpecError, UnknownStateError


class StateSpace:
    """A declared state space: identifier, element content, finite state list."""

    __slots__ = ("space_id", "composition", "state_ids")

    def __init__(self, space_id, composition, state_ids):
        if len(set(state_ids)) != len(state_ids):
            raise RelationSpecError("duplicate state ids in space %r" % space_id)
        for c in composition:
            if c < 0:
                raise RelationSpecError(
                    "negative element amount in space %r" % space_id
                )
        self.space_id = space_id
        self.composition = composition
        self.state_ids = state_ids

    def _key(self):
        return self.space_id, self.composition, self.state_ids

    def __eq__(self, other):
        return type(other) is StateSpace and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "StateSpace(space_id=%r, composition=%r, state_ids=%r)" % self._key()


def make_space(space_id, composition, state_ids):
    return StateSpace(
        space_id=str(space_id),
        composition=tuple(Fraction(c) for c in composition),
        state_ids=tuple(str(s) for s in state_ids),
    )


class CompoundState:
    """Canonical multiset of (space, state, scale) parts, scale > 0."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, CompoundState) and self.parts == other.parts

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return "CompoundState(parts=%r)" % (self.parts,)

    def __str__(self):
        return "(" + ", ".join(
            "%s %s.%s" % (lam, sp, st) for sp, st, lam in self.parts
        ) + ")"

    def scale(self, lam):
        """Return the lam-scaled copy (every part scale multiplied by lam)."""
        lam = Fraction(lam)
        if lam <= 0:
            raise RelationSpecError("scale factor must be positive, got %s" % lam)
        return CompoundState(
            tuple(sorted((sp, st, mu * lam) for sp, st, mu in self.parts))
        )

    def combine(self, other):
        """Multiset union: the state of the two systems side by side."""
        return CompoundState(tuple(sorted(self.parts + other.parts)))

    def total_scale_by_space(self):
        totals = {}
        for sp, _st, lam in self.parts:
            totals[sp] = totals.get(sp, Fraction(0)) + lam
        return totals

    def composition(self, spaces):
        """Total element content: sum of part scale times space composition."""
        total = None
        for sp, _st, lam in self.parts:
            comp = spaces[sp].composition
            if total is None:
                total = [lam * c for c in comp]
            else:
                for i, c in enumerate(comp):
                    total[i] += lam * c
        return tuple(total) if total is not None else ()


def compound(parts):
    """Build a canonical CompoundState from (scale, space, state) triples.

    Zero-scale parts are dropped.  Negative scales are rejected here; use
    signed_sides() to move them across a query instead.
    """
    kept = []
    for lam, sp, st in parts:
        lam = Fraction(lam)
        if lam == 0:
            continue
        if lam < 0:
            raise RelationSpecError(
                "negative scale %s in a compound state" % lam
            )
        kept.append((str(sp), str(st), lam))
    if not kept:
        raise RelationSpecError("a compound state needs at least one part")
    return CompoundState(tuple(sorted(kept)))


def single(space_id, state_id, lam=Fraction(1)):
    return compound([(lam, space_id, state_id)])


def signed_sides(left, right):
    """Normalize a query with signed scales into two positive compound states.

    Each side is a list of (scale, space, state) with any real rational scale.
    Zero parts vanish and a part with scale -mu on one side becomes a part
    with scale mu on the other side, so "(X, -Y) precedes Z" turns into
    "X precedes (Y, Z)".
    """
    pos_left, pos_right = [], []
    for lam, sp, st in left:
        lam = Fraction(lam)
        if lam > 0:
            pos_left.append((lam, sp, st))
        elif lam < 0:
            pos_right.append((-lam, sp, st))
    for lam, sp, st in right:
        lam = Fraction(lam)
        if lam > 0:
            pos_right.append((lam, sp, st))
        elif lam < 0:
            pos_left.append((-lam, sp, st))
    if not pos_left or not pos_right:
        raise RelationSpecError("a query side normalized to the empty state")
    return compound(pos_left), compound(pos_right)


def check_membership(spaces, state):
    """Raise UnknownStateError unless every part of `state` is declared."""
    for sp, st, _lam in state.parts:
        if sp not in spaces:
            raise UnknownStateError("unknown space %r" % sp)
        if st not in spaces[sp].state_ids:
            raise UnknownStateError("unknown state %r in space %r" % (st, sp))
