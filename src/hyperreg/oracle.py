"""Exact multigraded Betti numbers of square-free monomial ideals over GF(p).

Two independent routes compute the same table for R/I:

* :func:`betti_table` places, at every lcm-lattice degree b, the divisibility
  complex whose faces are the variable subsets t of b with the monomial on
  b minus t lying in I, and reads Betti numbers off its reduced homology.
* :func:`taylor_strand_betti` restricts the Taylor complex to each
  multidegree, reducing differential entries to scalars, and takes homology
  of the resulting strands.

Both routes build their boundary rows the same way and share one exact
rank kernel: bit-mask rows when p = 2, sparse ``{column: residue}`` rows
otherwise, since a boundary row has at most |b| nonzero entries, all of
them +1 or -1.  Ranks are taken from the top dimension down with clearing:
a face that the differential above pivots on gets no row of its own.  Each
divisibility complex is first shrunk by deleting dominated vertices in
passes (a strong collapse, which preserves homotopy type and hence all
homology ranks).  A core that is a point or the boundary of a simplex has
known homology and builds no faces; only other cores reach the boundary
matrices.  The raw no-collapse path is kept and cross-checked by the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, Sequence

from .monomials import Alphabet, CapExceededError, Monomial, MonomialIdeal, _bits, _support_key

MAX_LATTICE_GENERATORS = 20
MAX_TAYLOR_GENERATORS = 16
MAX_COMPLEX_FACES = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(p) used for all homology ranks."""

    characteristic: int

    def __post_init__(self) -> None:
        p = self.characteristic
        if not (2 <= p < (1 << 16)) or not _is_prime(p):
            raise ValueError(f"characteristic must be a prime below 2^16, got {p}")


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


# ---------------------------------------------------------------------------
# GF(p) ranks

def _rank_gf2(rows: list[int]) -> AbstractSet[int]:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row ^= piv
    return pivots.keys()


def _rank_sparse(rows: Iterable[dict[int, int]], p: int) -> AbstractSet[int]:
    """Pivot columns over GF(p), as many as the rank, of rows given as
    ``{column: nonzero residue}``.

    Pivots on the highest column of each row, as :func:`_rank_gf2` does;
    each pivot row is stored scaled to a leading 1.  The rows are reduced
    in place.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = max(row)
            f = row[lead]
            piv = pivots.get(lead)
            if piv is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    row = {c: a * inv % p for c, a in row.items()}
                pivots[lead] = row
                break
            for c, a in piv.items():
                # f * a is nonzero, so a column missing from row never cancels
                x = (row.get(c, 0) - f * a) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return pivots.keys()


def _boundary_rank(rows: list[tuple[int, int]], p: int) -> AbstractSet[int]:
    """Pivot columns over GF(p), as many as the rank, of a matrix whose
    nonzero entries are all +1 or -1.

    A row is a pair of column masks: its support, and the subset of the
    support holding -1.
    """
    if p == 2:
        return _rank_gf2([support for support, _ in rows])
    sparse = []
    for support, negative in rows:
        row = {}
        while support:
            low = support & -support
            support ^= low
            row[low.bit_length() - 1] = p - 1 if negative & low else 1
        sparse.append(row)
    return _rank_sparse(sparse, p)


# ---------------------------------------------------------------------------
# Simplicial complexes

class SimplicialComplex:
    """Finite abstract simplicial complex with explicit faces by dimension.

    Faces are stored as bit masks over ``vertices``; the empty face has
    dimension -1.  A complex with no faces at all is void and carries no
    homology, while the complex whose only face is empty has reduced
    homology of rank 1 in dimension -1.
    """

    def __init__(self, vertices: tuple, faces_by_dim: dict[int, tuple[int, ...]]):
        self.vertices = vertices
        self.faces_by_dim = faces_by_dim

    @classmethod
    def from_faces(cls, vertices: Iterable, faces: Iterable[Iterable]) -> "SimplicialComplex":
        """Build from explicit faces, validating downward closure."""
        verts = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(verts)}
        masks: set[int] = set()
        for f in faces:
            mask = 0
            for v in f:
                mask |= 1 << index[v]
            masks.add(mask)
        if len(masks) > MAX_COMPLEX_FACES:
            raise CapExceededError(f"complex has more than {MAX_COMPLEX_FACES} faces")
        for mask in masks:
            for b in _bits(mask):
                if mask ^ (1 << b) not in masks:
                    raise ValueError("face set is not downward closed")
        return cls(verts, _group_by_dim(masks))

    @classmethod
    def from_facets(cls, vertices: Iterable, facets: Iterable[Iterable]) -> "SimplicialComplex":
        """Build the downward closure of the given faces."""
        verts = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(verts)}
        facet_masks = []
        for f in facets:
            mask = 0
            for v in f:
                mask |= 1 << index[v]
            facet_masks.append(mask)
        return cls(verts, _faces_of_facets(_maximal_masks(facet_masks)))

    @property
    def is_void(self) -> bool:
        return not self.faces_by_dim

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("void complex has no dimension")
        return max(self.faces_by_dim)

    @property
    def num_faces(self) -> int:
        return sum(len(layer) for layer in self.faces_by_dim.values())


def _group_by_dim(masks: Iterable[int]) -> dict[int, tuple[int, ...]]:
    grouped: dict[int, list[int]] = {}
    for m in masks:
        grouped.setdefault(m.bit_count() - 1, []).append(m)
    return {d: tuple(sorted(layer)) for d, layer in sorted(grouped.items())}


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    ordered = sorted(set(masks), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in ordered:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return kept


def _strong_collapse(facets: list[int]) -> list[int]:
    """Delete dominated vertices, in passes, until none remain.

    ``facets`` must be an antichain; the facets of the core are returned.
    A vertex is dominated when some other vertex belongs to every facet
    containing it; deleting it preserves the homotopy type, so all reduced
    homology ranks are unchanged.  Each pass takes, for every vertex v, the
    intersection common[v] of the facets containing v, and deletes in vertex
    order each v whose common[v] holds a vertex other than v not yet deleted
    in the pass.  That vertex lies in every facet containing v of the complex
    left by the earlier deletions, so each deletion is a strong collapse.
    """
    while True:
        union = 0
        for f in facets:
            union |= f
        removed = 0
        rest = union
        while rest:
            bit = rest & -rest
            rest ^= bit
            common = union
            for f in facets:
                if f & bit:
                    common &= f
            if common & ~removed & ~bit:
                removed |= bit
        if not removed:
            return facets
        facets = _maximal_masks([f & ~removed for f in facets])


def _faces_of_facets(facets: list[int]) -> dict[int, tuple[int, ...]]:
    faces: set[int] = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if len(faces) > MAX_COMPLEX_FACES:
                raise CapExceededError(f"complex has more than {MAX_COMPLEX_FACES} faces")
            if sub == 0:
                break
            sub = (sub - 1) & f
    return _group_by_dim(faces)


def _chain_ranks(layers: Mapping[int, Sequence[int]], p: int) -> dict[int, int]:
    """Homology ranks over GF(p) of the chain complex with basis ``layers[d]``.

    The differential sends a mask to the alternating sum of the masks one
    bit smaller, keeping those present in ``layers[d - 1]``.  On the faces of
    a downward-closed complex, keyed by dimension, this is the reduced
    simplicial chain complex; on a Taylor strand, keyed by subset size, it
    is the strand's differential.

    Ranks are taken from the top down, and a d-mask that is a pivot column
    of the differential on ``layers[d + 1]`` gets no row (clearing): the
    reduced row leading there is a boundary, whose boundary is zero, so the
    mask's row is a combination of the rows before it in ``layers[d]``.
    This needs the rows of one differential and the columns of the next in
    the same ``layers[d]`` order.
    """
    pivots: dict[int, AbstractSet[int]] = {}
    for d in sorted(layers, reverse=True):
        column = {m: 1 << k for k, m in enumerate(layers.get(d - 1, ()))}
        if not column:
            continue
        cleared = pivots.get(d + 1, ())
        rows = []
        for k, m in enumerate(layers[d]):
            if k in cleared:
                continue
            support = negative = sign = 0
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                bit = column.get(m ^ low, 0)
                support |= bit
                negative |= bit & sign  # sign flips between 0 and ~0
                sign = ~sign
            rows.append((support, negative))
        pivots[d] = _boundary_rank(rows, p)
    ranks: dict[int, int] = {}
    for d in sorted(layers):
        r = len(layers[d]) - len(pivots.get(d, ())) - len(pivots.get(d + 1, ()))
        if r:
            ranks[d] = r
    return ranks


def _union_homology(facets: list[int], p: int) -> dict[int, int]:
    """Reduced homology ranks of the union of the given full simplices.

    ``facets`` must be an antichain.  After the strong collapse, a single
    facet is a point and n facets of size n - 1 on n vertices are the
    boundary of a simplex, a sphere of dimension n - 2; anything else goes
    through the chain complex.
    """
    if not facets:
        return {}
    if len(facets) == 1:
        return {-1: 1} if facets == [0] else {}
    facets = _strong_collapse(facets)
    n = len(facets)
    if n == 1:
        return {}
    union = 0
    for f in facets:
        union |= f
    if union.bit_count() == n and all(f.bit_count() == n - 1 for f in facets):
        return {n - 2: 1}
    return _chain_ranks(_faces_of_facets(facets), p)


def reduced_homology_ranks(
        complex_: SimplicialComplex, field: FieldSpec, precollapse: bool = True) -> list[int]:
    """Ranks of reduced homology over GF(p), listed for dimensions -1..dim.

    With ``precollapse`` the complex is first strong-collapsed (same
    homotopy type, hence same ranks); without it the boundary matrices of
    the complex are eliminated as given.
    """
    if complex_.is_void:
        return []
    top = complex_.dim
    if precollapse:
        flat = [m for layer in complex_.faces_by_dim.values() for m in layer]
        hom = _union_homology(_maximal_masks(flat), field.characteristic)
    else:
        if complex_.num_faces > MAX_COMPLEX_FACES:
            raise CapExceededError(f"complex has more than {MAX_COMPLEX_FACES} faces")
        hom = _chain_ranks(complex_.faces_by_dim, field.characteristic)
    return [hom.get(d, 0) for d in range(-1, top + 1)]


# ---------------------------------------------------------------------------
# Betti tables

@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of R/I over GF(p).

    ``entries`` maps (homological index i, square-free multidegree mask) to
    a positive rank; regularity and projective dimension are read off it.
    The table and its entries are read-only, so a table cached by
    :func:`betti_table` stays intact.
    """

    field: FieldSpec
    alphabet: Alphabet
    entries: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(sorted(
            self.entries.items(), key=lambda kv: (kv[0][0], _support_key(kv[0][1]))))))

    @property
    def regularity(self) -> int:
        return max(mask.bit_count() - i for i, mask in self.entries)

    @property
    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def coarse(self) -> dict[tuple[int, int], int]:
        """Graded table: (i, total degree j) -> rank."""
        out: dict[tuple[int, int], int] = {}
        for (i, mask), rank in self.entries.items():
            key = (i, mask.bit_count())
            out[key] = out.get(key, 0) + rank
        return out

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.characteristic,
            "entries": [
                {"i": i, "degree": list(self.alphabet.names_of(mask)), "rank": rank}
                for (i, mask), rank in self.entries.items()
            ],
            "reg": self.regularity,
            "pd": self.projective_dimension,
        }

    def render_text(self) -> str:
        """Betti triangle: column i, row j - i, as computer algebra systems print it."""
        coarse = self.coarse()
        pd = self.projective_dimension
        reg = self.regularity
        cols = range(pd + 1)
        totals = [sum(r for (i, _), r in coarse.items() if i == c) for c in cols]
        width = max(3, max(len(str(t)) for t in totals) + 1)
        head = "      " + "".join(str(c).rjust(width) for c in cols)
        lines = [head, "total:" + "".join(str(t).rjust(width) for t in totals)]
        for row in range(reg + 1):
            cells = []
            for c in cols:
                rank = coarse.get((c, c + row), 0)
                cells.append((str(rank) if rank else ".").rjust(width))
            lines.append(f"{row}:".rjust(6) + "".join(cells))
        return "\n".join(lines) + "\n"


def lcm_lattice(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """All lcms of nonempty generator subsets, deduplicated and sorted."""
    mu = ideal.num_generators
    if mu > MAX_LATTICE_GENERATORS:
        raise CapExceededError(f"lcm lattice capped at {MAX_LATTICE_GENERATORS} generators")
    return tuple(Monomial(ideal.alphabet, m)
                 for m in sorted(_lattice_masks(ideal), key=_support_key))


def _lattice_masks(ideal: MonomialIdeal) -> set[int]:
    return set(_subset_lcms(ideal)[1:])


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Divisibility complex of I at multidegree b.

    Faces are the variable subsets t of b whose complementary monomial
    (on b minus t) lies in I; equivalently the union of the simplices on
    b minus supp(g) over generators g dividing b.  Void when the monomial
    on b is not in I.
    """
    if b.alphabet != ideal.alphabet:
        raise ValueError("degree over a different alphabet")
    vert_bits = list(_bits(b.mask))
    local = {bit: i for i, bit in enumerate(vert_bits)}
    facets = []
    for g in ideal.generator_masks:
        if g & ~b.mask == 0:
            mask = 0
            for bit in _bits(b.mask & ~g):
                mask |= 1 << local[bit]
            facets.append(mask)
    vertices = ideal.alphabet.names_of(b.mask)
    if not facets:
        return SimplicialComplex(vertices, {})
    return SimplicialComplex(vertices, _faces_of_facets(_maximal_masks(facets)))


@lru_cache(maxsize=8192)
def betti_table(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> BettiTable:
    """Full multigraded Betti table of R/I via divisibility-complex homology.

    Degrees are enumerated over the lcm lattice only, where all Betti
    numbers of a monomial ideal live.  Tables are cached per ideal and field.
    """
    if ideal.num_generators > MAX_LATTICE_GENERATORS:
        raise CapExceededError(f"Betti table capped at {MAX_LATTICE_GENERATORS} generators")
    gens = ideal.generator_masks
    p = field_spec.characteristic
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for b in _lattice_masks(ideal):  # BettiTable sorts the entries
        # minimal generators make the facets b & ~g an antichain
        hom = _union_homology([b & ~g for g in gens if g & ~b == 0], p)
        for d, rank in sorted(hom.items()):
            entries[(d + 2, b)] = rank
    return BettiTable(field_spec, ideal.alphabet, entries)


def regularity(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> int:
    """Castelnuovo-Mumford regularity of R/I over GF(p)."""
    return betti_table(ideal, field_spec).regularity


def projective_dimension(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> int:
    return betti_table(ideal, field_spec).projective_dimension


# ---------------------------------------------------------------------------
# Taylor complex

@dataclass(frozen=True)
class TaylorComplex:
    """Taylor complex of an ideal: one basis element per generator subset.

    The basis element for subset F sits in homological degree |F| with
    multidegree lcm(F); the differential removes one generator at a time
    with alternating sign and a monomial coefficient.  The composition of
    consecutive differentials is verified to vanish at construction.
    """

    ideal: MonomialIdeal
    subset_lcms: tuple[int, ...] = field(compare=False)

    @property
    def num_generators(self) -> int:
        return self.ideal.num_generators

    def rank(self, i: int) -> int:
        return sum(1 for s in range(1 << self.num_generators) if s.bit_count() == i)

    def basis(self, i: int) -> list[int]:
        return [s for s in range(1 << self.num_generators) if s.bit_count() == i]

    def multidegree(self, subset: int) -> Monomial:
        return Monomial(self.ideal.alphabet, self.subset_lcms[subset])

    def differential(self, subset: int) -> list[tuple[int, int, int]]:
        """Terms (smaller subset, sign, monomial mask of the coefficient)."""
        out = []
        lcm_f = self.subset_lcms[subset]
        for k, b in enumerate(_bits(subset), start=1):
            smaller = subset ^ (1 << b)
            sign = -1 if k % 2 else 1
            out.append((smaller, sign, lcm_f & ~self.subset_lcms[smaller]))
        return out

    def verify_squares_zero(self) -> None:
        """Symbolically compose consecutive differentials; must cancel."""
        for s in range(1 << self.num_generators):
            if s.bit_count() < 2:
                continue
            acc: dict[tuple[int, int], int] = {}
            for mid, sign1, q1 in self.differential(s):
                for target, sign2, q2 in self.differential(mid):
                    key = (target, q1 | q2)
                    acc[key] = acc.get(key, 0) + sign1 * sign2
            if any(acc.values()):
                raise AssertionError(f"differential does not square to zero at {s:#b}")


def taylor_complex(ideal: MonomialIdeal) -> TaylorComplex:
    mu = ideal.num_generators
    if mu > MAX_TAYLOR_GENERATORS:
        raise CapExceededError(f"Taylor complex capped at {MAX_TAYLOR_GENERATORS} generators")
    complex_ = TaylorComplex(ideal, tuple(_subset_lcms(ideal)))
    complex_.verify_squares_zero()
    return complex_


def _subset_lcms(ideal: MonomialIdeal) -> list[int]:
    gens = ideal.generator_masks
    lcms = [0] * (1 << len(gens))
    for s in range(1, 1 << len(gens)):
        low = s & -s
        lcms[s] = lcms[s ^ low] | gens[low.bit_length() - 1]
    return lcms


def taylor_strand_betti(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> BettiTable:
    """Betti table from the multidegree strands of the Taylor complex.

    At each multidegree b the strand has one basis element per generator
    subset with lcm equal to b; a differential entry survives (as +1 or
    -1) exactly when dropping the generator keeps the lcm, and homology of
    the strand gives the Betti numbers at b.  It shares only the rank
    kernel with :func:`betti_table`, which it must match entry for entry.
    """
    mu = ideal.num_generators
    if mu > MAX_TAYLOR_GENERATORS:
        raise CapExceededError(f"Taylor strands capped at {MAX_TAYLOR_GENERATORS} generators")
    p = field_spec.characteristic
    lcms = _subset_lcms(ideal)
    strands: dict[int, dict[int, list[int]]] = {}
    for s in range(1 << mu):
        strands.setdefault(lcms[s], {}).setdefault(s.bit_count(), []).append(s)
    entries = {(i, b): rank for b, layers in strands.items()
               for i, rank in _chain_ranks(layers, p).items()}
    return BettiTable(field_spec, ideal.alphabet, entries)


def is_taylor_minimal(ideal: MonomialIdeal) -> bool:
    """True iff no Taylor differential entry is a unit.

    Checks, for every generator subset F and every j in F, that the lcm
    drops when j is removed.
    """
    mu = ideal.num_generators
    if mu > MAX_TAYLOR_GENERATORS:
        raise CapExceededError(f"Taylor minimality capped at {MAX_TAYLOR_GENERATORS} generators")
    lcms = _subset_lcms(ideal)
    for s in range(1 << mu):
        if s.bit_count() < 2:
            continue
        for b in _bits(s):
            if lcms[s] == lcms[s ^ (1 << b)]:
                return False
    return True
