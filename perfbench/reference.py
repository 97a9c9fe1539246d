"""Fixed reference load that gauges the host's current speed.

run.py starts this script as a child between the timed invocations of the
CLI, and scales their times by how long it took.  It imports nothing from
the program, so a change to the program never moves it.  Its mix follows
the CLI's: interpreter start, exact Fraction arithmetic over sets and dicts
of tuples, and pure-Python float integration.

    python3 perfbench/reference.py      # prints a checksum
"""

import math
from fractions import Fraction

GRID = 24
ROUNDS = 36
STEPS = 6000


def exact_part():
    """Transitive closure of an order on Fraction points, with mixtures."""
    points = [Fraction(i, GRID) for i in range(GRID + 1)]
    facts = {(a, a + 1) for a in range(GRID)}
    while True:
        succ = {}
        for a, b in facts:
            succ.setdefault(a, []).append(b)
        new = {(a, c) for a, bs in succ.items() for b in bs
               for c in succ.get(b, ()) if (a, c) not in facts}
        if not new:
            break
        facts |= new
    mixes = {}
    for a, b in sorted(facts):
        mid = points[a] / 2 + points[b] / 2
        mixes[mid] = mixes.get(mid, 0) + 1
    return len(facts) + len(mixes)


def float_part():
    """RK4 along a van der Waals adiabat, dV/dT = -C_v (V - b) / T."""
    cv, b = 1.5, 0.02
    t, v, h = 1.0, 1.0, 1.0 / STEPS

    def slope(t, v):
        return -cv * (v - b) / t

    for _ in range(STEPS):
        k1 = slope(t, v)
        k2 = slope(t + h / 2, v + h * k1 / 2)
        k3 = slope(t + h / 2, v + h * k2 / 2)
        k4 = slope(t + h, v + h * k3)
        v += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        t += h
    return v + math.log(t)


def main():
    total = 0.0
    for _ in range(ROUNDS):
        total += exact_part() + float_part()
    print("%.12g" % total)


if __name__ == "__main__":
    main()
