"""Exact algebra of square-free monomials and monomial ideals.

A square-free monomial is identified with its variable support and stored
as a bit mask over a fixed, sorted alphabet, so divisibility, lcm, colon
and sum are single word operations.  Ideals always hold a minimal
generating set in a canonical order (degree first, then position-wise
lexicographic on the support), which makes structural equality of ideals
meaningful.  ``_canonical_key`` is that order as a sort key,
``_minimal_masks`` builds that set, and the constructor checks every
:class:`MonomialIdeal` against it.

The unit ideal is never a value of :class:`MonomialIdeal`; operations that
would produce it raise :class:`UnitIdealError` instead, because every
downstream formula assumes a proper ideal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Iterable, Iterator, Sequence

_TOKEN_RE = re.compile(r"\w+", re.ASCII)
_FLIP = str.maketrans("01", "10")
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
MAX_TRANSVERSALS = 1 << 10


class IdealFormatError(ValueError):
    """Malformed ideal text; carries 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class UnitIdealError(ValueError):
    """Raised when an operation would yield the unit ideal (1 lies in it)."""


class CapExceededError(RuntimeError):
    """A hard resource cap was hit; results are never silently truncated."""


@dataclass(frozen=True)
class Alphabet:
    """Sorted tuple of distinct variable names; the index of a name is its bit."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("alphabet must contain at least one variable")
        for name in self.names:
            if not _TOKEN_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
        if list(self.names) != sorted(set(self.names)):
            raise ValueError("alphabet names must be sorted and distinct")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    @classmethod
    def of(cls, names: Iterable[str]) -> "Alphabet":
        return cls(tuple(sorted(set(names))))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"variable {name!r} not in alphabet") from None

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        # the bits of mask from bit 0 up, as bytes 0 and 1, select the names
        return tuple(compress(self.names, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(masks: Sequence[int]) -> list[int]:
    """The columns of the bit matrix whose rows are ``masks``: for each bit
    set in some mask, from the lowest up, the mask of the positions i with
    that bit in ``masks[i]``.  Bits that no mask holds give no column."""
    columns = [0] * max(map(int.bit_length, masks), default=0)
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            columns[low.bit_length() - 1] |= bit
            m ^= low
    return [c for c in columns if c]


def _canonical_key(mask: int) -> tuple[int, str]:
    """Sort key of the canonical generator order: degree, then lexicographic
    on the ascending bit positions.

    The string is the mask's bits from bit 0 up with 0 and 1 swapped.  Of two
    masks of one degree, the one holding the lowest bit where they differ
    reads 0 there and comes first.  Neither string is a prefix of the
    other: then the masks would agree up to the shorter one's top bit, and
    the longer one would hold a further bit and have a higher degree.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP))


@dataclass(frozen=True)
class Monomial:
    """Square-free monomial: a subset of the alphabet, the empty set being 1."""

    alphabet: Alphabet
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> len(self.alphabet):
            raise ValueError("support mask outside alphabet")

    @classmethod
    def of(cls, alphabet: Alphabet, names: Iterable[str]) -> "Monomial":
        return cls(alphabet, alphabet.mask_of(names))

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def is_one(self) -> bool:
        return self.mask == 0

    @property
    def support(self) -> tuple[str, ...]:
        return self.alphabet.names_of(self.mask)

    def __str__(self) -> str:
        return "*".join(self.support) if self.mask else "1"


def lcm(monomials: Iterable[Monomial]) -> Monomial:
    """Least common multiple: the union of the supports."""
    monomials = list(monomials)
    if not monomials:
        raise ValueError("lcm of an empty collection")
    alphabet = monomials[0].alphabet
    mask = 0
    for m in monomials:
        if m.alphabet != alphabet:
            raise ValueError("monomials live over different alphabets")
        mask |= m.mask
    return Monomial(alphabet, mask)


@dataclass(frozen=True)
class MonomialIdeal:
    """Proper square-free monomial ideal with canonical minimal generators.

    ``generator_masks`` must equal their own ``_minimal_masks``: minimal,
    duplicate-free and canonically ordered; use :func:`minimalize` to
    normalize arbitrary input.
    """

    alphabet: Alphabet
    generator_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        masks = self.generator_masks
        if not masks:
            raise ValueError("ideal needs at least one generator")
        top = (1 << len(self.alphabet)) - 1
        for m in masks:
            if m == 0:
                raise UnitIdealError("1 is a generator")
            if m & ~top:
                raise ValueError("generator support outside alphabet")
        if list(masks) != _minimal_masks(masks):
            raise ValueError("generators not minimal, distinct and in canonical order")

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return tuple(Monomial(self.alphabet, m) for m in self.generator_masks)

    @property
    def num_generators(self) -> int:
        return len(self.generator_masks)

    @property
    def variables_used(self) -> int:
        """Mask of variables appearing in some generator."""
        mask = 0
        for m in self.generator_masks:
            mask |= m
        return mask

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def minimalize(monomials: Iterable[Monomial]) -> MonomialIdeal:
    """Drop every monomial whose support contains another's; canonicalize.

    Raises :class:`ValueError` on an empty input; when some input equals 1,
    it is the only minimal mask and the constructor raises :class:`UnitIdealError`.
    """
    monomials = list(monomials)
    if not monomials:
        raise ValueError("no generators given")
    alphabet = monomials[0].alphabet
    for m in monomials:
        if m.alphabet != alphabet:
            raise ValueError("monomials live over different alphabets")
    return MonomialIdeal(alphabet, tuple(_minimal_masks(m.mask for m in monomials)))


def colon_by_monomial(ideal: MonomialIdeal, z: Monomial) -> MonomialIdeal:
    """Ideal quotient I : z for a square-free z over I's alphabet.

    Each generator's support loses the variables of z; the result is
    minimalized.  Raises :class:`UnitIdealError` when some generator
    divides z (then 1 lies in the quotient).
    """
    if z.alphabet != ideal.alphabet:
        raise ValueError("z over a different alphabet")
    quotients = []
    for m in ideal.generator_masks:
        q = m & ~z.mask
        if q == 0:
            raise UnitIdealError(f"generator divides {z}")
        quotients.append(Monomial(ideal.alphabet, q))
    return minimalize(quotients)


def add_generator(ideal: MonomialIdeal, z: Monomial) -> MonomialIdeal:
    """The ideal I + (z), minimalized.  z must not be 1."""
    if z.alphabet != ideal.alphabet:
        raise ValueError("z over a different alphabet")
    if z.is_one:
        raise UnitIdealError("adding 1 yields the unit ideal")
    return minimalize(list(ideal.generators) + [z])


def alexander_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """Alexander dual: generated by the minimal transversals of the supports.

    A transversal is a set of variables meeting every generator's support;
    only the inclusion-minimal ones are kept.  Computed exactly by an
    incremental product with pruning.  Raises :class:`CapExceededError`
    when a step yields more than ``MAX_TRANSVERSALS`` candidates, before
    their quadratic minimalization (k disjoint edges have 2^k transversals).
    """
    transversals = [0]
    for g in ideal.generator_masks:
        grown: list[int] = []
        for t in transversals:
            if t & g:
                grown.append(t)
            else:
                grown.extend(t | (1 << v) for v in _bits(g))
        if len(grown) > MAX_TRANSVERSALS:
            raise CapExceededError(
                f"Alexander dual capped at {MAX_TRANSVERSALS} candidate transversals")
        transversals = _minimal_masks(grown)
    return MonomialIdeal(ideal.alphabet, tuple(transversals))


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """The canonical generator set of some masks: duplicates dropped, sorted
    by :func:`_canonical_key`, and every mask that another divides dropped.

    A proper divisor has a lower degree, so it is kept before any mask it
    divides is reached.
    """
    kept: list[int] = []
    for m in sorted(set(masks), key=_canonical_key):
        for k in kept:
            if k & ~m == 0:
                break
        else:
            kept.append(m)
    return kept


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse ideal text: one generator per line, whitespace-separated variables.

    Lines whose first non-blank character is ``#`` are comments; blank lines
    are skipped; a line starting with ``vars:`` declares extra alphabet
    variables that need not appear in any generator.  A variable name is
    ASCII letters, digits and ``_``.  The first bad name, or the first name
    repeated within one generator, raises :class:`IdealFormatError` with its
    line and column.

    Each line is split once; a line whose names were all seen before and
    has no repeat is accepted without a per-name check, and the masks are
    built from each name's bit once the alphabet is known.
    """
    names: set[str] = set()
    generators: list[list[str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "vars:":
            if not names.issuperset(tokens[1:]):
                _check_names(names, line, lineno, tokens, header=True)
            continue
        if not names.issuperset(tokens) or len(set(tokens)) < len(tokens):
            _check_names(names, line, lineno, tokens, header=False)
        generators.append(tokens)
    if not generators:
        raise IdealFormatError("no generators in ideal text")
    alphabet = Alphabet.of(names)
    bit = {name: 1 << i for i, name in enumerate(alphabet.names)}.__getitem__
    masks = [sum(map(bit, tokens)) for tokens in generators]
    return MonomialIdeal(alphabet, tuple(_minimal_masks(masks)))


def _check_names(names: set[str], line: str, lineno: int, tokens: list[str],
                 header: bool) -> None:
    """Check the names of one line in order and add each valid one to
    ``names``; raise at the first invalid name, or at the first repeat in a
    generator, with the column of that token in ``line``.  The tokens of a
    ``vars:`` header start with ``vars:`` and may repeat."""
    seen: set[str] = set()
    for k in range(header, len(tokens)):
        tok = tokens[k]
        if tok not in names:
            if not _TOKEN_RE.fullmatch(tok):
                raise IdealFormatError(f"invalid variable name {tok!r}", lineno, _column(line, k))
            names.add(tok)
        if not header:
            if tok in seen:
                raise IdealFormatError(
                    f"variable {tok!r} repeated within one generator (not square-free)",
                    lineno, _column(line, k))
            seen.add(tok)


def _column(line: str, k: int) -> int:
    """1-based column of the k-th whitespace-separated token of a line."""
    return next(islice(re.finditer(r"\S+", line), k, None)).start() + 1
