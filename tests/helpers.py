"""Shared helpers for the test suite."""

from hyperreg.monomials import MonomialIdeal, _bits, _support_key, parse_ideal
from hyperreg.oracle import _maximal_masks


def word_ideal(words: str) -> MonomialIdeal:
    """Build an ideal from space-separated words of single-letter variables."""
    return parse_ideal("\n".join(" ".join(w) for w in words.split()))


def brute_force_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """Independent transversal oracle: scan all subsets of the alphabet."""
    n = len(ideal.alphabet)
    assert n <= 12, "brute-force dual oracle is for small alphabets"
    gens = ideal.generator_masks
    transversals = [m for m in range(1, 1 << n) if all(m & g for g in gens)]
    minimal = [m for m in transversals
               if not any(t != m and t & ~m == 0 for t in transversals)]
    return MonomialIdeal(ideal.alphabet, tuple(sorted(minimal, key=_support_key)))


def dense_rank(rows: list[list[int]], p: int) -> int:
    """Independent rank oracle: dense Gaussian elimination over GF(p)."""
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        row = [a % p for a in row]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots.append((lead, [(a * inv) % p for a in row]))
    return len(pivots)


def restart_strong_collapse(facets: list[int]) -> list[int]:
    """Reference strong collapse: delete one dominated vertex at a time,
    re-maximalize the facets and restart the scan."""
    facets = _maximal_masks(facets)
    changed = True
    while changed:
        changed = False
        union = 0
        for f in facets:
            union |= f
        for v in _bits(union):
            bit = 1 << v
            common = ~0
            for f in facets:
                if f & bit:
                    common &= f
            if common & ~bit & union:
                facets = _maximal_masks([f & ~bit for f in facets])
                changed = True
                break
    return facets
