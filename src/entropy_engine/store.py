"""The fact store: compound states interned as integer ids, and the facts
between them as Python-int bitset rows.

A relation's facts live in one _FactStore (see `relation`); `_bits` lists the
ids of a row.  This module holds the store's format and its rule maps, and
imports no layer.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from .states import CompoundState


def _bits(mask):
    """Indices of the set bits of a Python-int bitset, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
        self.holders = {}
        self.held = False  # does `holders` cover every state of `index`?
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

    def hold(self, sid):
        """Enter sid in `holders`: each part bundle mapped to the mask of the
        entered states that hold it as a proper sub-bundle."""
        for sub in self.remainders(sid):
            self.holders[sub] = self.holders.get(sub, 0) | 1 << sid

    def index_holders(self):
        """`holders` for every state of `index`, entered once per store."""
        if not self.held:
            for sid in self.index.values():
                self.hold(sid)
            self.held = True
        return self.holders

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
