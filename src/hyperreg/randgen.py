"""Seeded random square-free ideals for sweeps and property suites.

Generator supports are drawn uniformly from the nonempty subsets of the
alphabet; a draw whose supports are not a duplicate-free antichain is
rejected wholesale and redrawn, keeping the distribution simple.
"""

from __future__ import annotations

import math
import random
import string

from .monomials import Alphabet, MonomialIdeal, _canonical_key

_MAX_ATTEMPTS = 200_000


def variable_names(count: int) -> tuple[str, ...]:
    """Single letters a..z, then z00, z01, ... of one width, sorting after z."""
    if count <= 26:
        return tuple(string.ascii_lowercase[:count])
    width = max(2, len(str(count - 27)))
    return tuple(string.ascii_lowercase) + tuple(
        f"z{k:0{width}d}" for k in range(count - 26))


def max_antichain(num_vars: int) -> int:
    return math.comb(num_vars, num_vars // 2)


def random_ideal(rng: random.Random, num_vars: int, num_gens: int) -> MonomialIdeal:
    """Draw a minimally generated ideal with exactly ``num_gens`` generators."""
    if num_vars < 1 or num_gens < 1:
        raise ValueError("need at least one variable and one generator")
    if num_gens > max_antichain(num_vars):
        raise ValueError(
            f"{num_gens} generators exceed the maximal antichain size "
            f"{max_antichain(num_vars)} on {num_vars} variables")
    alphabet = Alphabet(variable_names(num_vars))
    top = 1 << num_vars
    for _ in range(_MAX_ATTEMPTS):
        masks = [rng.randrange(1, top) for _ in range(num_gens)]
        # a pair with i != j and a == b is comparable too, so this also rejects duplicates
        if any(i != j and a & ~b == 0
               for i, a in enumerate(masks) for j, b in enumerate(masks)):
            continue
        return MonomialIdeal(alphabet, tuple(sorted(masks, key=_canonical_key)))
    raise RuntimeError("rejection sampling did not converge; parameters too tight")
