"""Seeded generator for the linear A_n ladder.

Rung n is the path algebra of 1 -> 2 -> ... -> n over GF(32003): the file
declares ``vertices n`` and ``arrow x<i> i i+1`` for i = 1..n-1.  Its seed
complex is the arrow complex ``P2 --c*x1--> P1``, which is presilting over
the hereditary algebra A_n; ``silt complete`` turns it into the silting
complex that the other commands take as input.

The workload seed picks the nonzero scalar ``c``.  Every choice gives an
isomorphic complex, so the work per rung does not depend on the seed while
the bytes the engine reads, and the scalars it computes with, do.  Picking
the kind of seed summand instead (an arrow complex, a stalk ``P_k`` or
``P_k[1]``) changes the work up to forty-fold: ``theorem`` on the completed
A3 rung takes from 0.7 s to 26 s depending on the summand (Python 3.11 on
one core of a 2.1 GHz Xeon VM).
"""

import random

P = 32003


def algebra_text(n):
    lines = ["# Linear A%d: 1 -> 2 -> ... -> %d." % (n, n),
             "field %d" % P, "vertices %d" % n]
    lines += ["arrow x%d %d %d" % (i, i, i + 1) for i in range(1, n)]
    return "\n".join(lines) + "\n"


def seed_complex_text(n, seed):
    """Complex file of the seed complex of rung n for a workload seed."""
    c = random.Random("ladder-%d-%d" % (seed, n)).randrange(1, P)
    return ("complex a%d_seed\nsummand\n  deg -1 P2\n  deg 0 P1\n"
            "  d[1,1] %d*x1\n" % (n, c))
