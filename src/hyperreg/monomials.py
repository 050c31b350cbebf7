"""Exact algebra of square-free monomials and monomial ideals.

A square-free monomial is identified with its variable support and stored
as a bit mask over a fixed, sorted alphabet, so divisibility, lcm, colon
and sum are single word operations.  Ideals always hold a minimal
generating set in a canonical order (degree first, then position-wise
lexicographic on the support), which makes structural equality of ideals
meaningful.

The unit ideal is never a value of :class:`MonomialIdeal`; operations that
would produce it raise :class:`UnitIdealError` instead, because every
downstream formula assumes a proper ideal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

_TOKEN_RE = re.compile(r"\w+", re.ASCII)
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
        return tuple(self.names[i] for i in _bits(mask))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _support_key(mask: int) -> tuple[int, tuple[int, ...]]:
    # canonical generator order: degree, then lexicographic on bit positions
    return (mask.bit_count(), tuple(_bits(mask)))


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

    def divides(self, other: "Monomial") -> bool:
        return self.mask & ~other.mask == 0

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

    ``generator_masks`` must already be minimal (an antichain under
    containment), duplicate-free and canonically ordered; use
    :func:`minimalize` to normalize arbitrary input.
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
        if list(masks) != sorted(set(masks), key=_support_key):
            raise ValueError("generators not in canonical order")
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a & ~b == 0 or b & ~a == 0:
                    raise ValueError("generating set is not minimal")

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

    def contains(self, m: Monomial) -> bool:
        """Membership test for a square-free monomial: some generator divides it."""
        if m.alphabet != self.alphabet:
            raise ValueError("monomial over a different alphabet")
        return any(g & ~m.mask == 0 for g in self.generator_masks)

    def monomial(self, names: Iterable[str]) -> Monomial:
        return Monomial.of(self.alphabet, names)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def minimalize(monomials: Iterable[Monomial]) -> MonomialIdeal:
    """Drop every monomial whose support contains another's; canonicalize.

    Raises :class:`UnitIdealError` when some input equals 1 and
    :class:`ValueError` on an empty input.
    """
    monomials = list(monomials)
    if not monomials:
        raise ValueError("no generators given")
    alphabet = monomials[0].alphabet
    for m in monomials:
        if m.alphabet != alphabet:
            raise ValueError("monomials live over different alphabets")
        if m.is_one:
            raise UnitIdealError("1 among the generators")
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
    return MonomialIdeal(ideal.alphabet, tuple(sorted(transversals, key=_support_key)))


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    ordered = sorted(set(masks), key=_support_key)
    kept: list[int] = []
    for m in ordered:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse ideal text: one generator per line, whitespace-separated variables.

    Lines whose first non-blank character is ``#`` are comments; blank lines
    are skipped; a line starting with ``vars:`` declares extra alphabet
    variables that need not appear in any generator.
    """
    extra_vars: set[str] = set()
    raw_generators: list[tuple[int, list[tuple[str, int]]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if tokens[0][0] == "vars:":
            for tok, col in tokens[1:]:
                if not _TOKEN_RE.fullmatch(tok):
                    raise IdealFormatError(f"invalid variable name {tok!r}", lineno, col)
                extra_vars.add(tok)
            continue
        seen: set[str] = set()
        for tok, col in tokens:
            if not _TOKEN_RE.fullmatch(tok):
                raise IdealFormatError(f"invalid variable name {tok!r}", lineno, col)
            if tok in seen:
                raise IdealFormatError(
                    f"variable {tok!r} repeated within one generator (not square-free)",
                    lineno, col)
            seen.add(tok)
        raw_generators.append((lineno, tokens))
    if not raw_generators:
        raise IdealFormatError("no generators in ideal text")
    names: set[str] = set(extra_vars)
    for _, tokens in raw_generators:
        names.update(tok for tok, _ in tokens)
    alphabet = Alphabet.of(names)
    gens = [Monomial.of(alphabet, [tok for tok, _ in tokens]) for _, tokens in raw_generators]
    return minimalize(gens)
