import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _support_key,
    brute_force_dual,
    reference_generator_check,
    reference_parse,
    reference_transpose,
    word_ideal,
)
from hyperreg import oracle
from hyperreg.monomials import (
    MAX_TRANSVERSALS,
    Alphabet,
    CapExceededError,
    IdealFormatError,
    Monomial,
    MonomialIdeal,
    UnitIdealError,
    _bits,
    _canonical_key,
    _minimal_masks,
    _transpose,
    add_generator,
    alexander_dual,
    colon_by_monomial,
    lcm,
    minimalize,
    parse_ideal,
)
from hyperreg.randgen import random_ideal


def mono(ideal, letters):
    return Monomial.of(ideal.alphabet, list(letters))


class TestParse:
    def test_four_generator_corpus_file(self):
        text = "e f h k\na e f g i j\nb c h i j\nd g h i j"
        ideal = parse_ideal(text)
        assert ideal.num_generators == 4
        assert len(ideal.alphabet) == 11

    def test_containment_is_minimalized(self):
        ideal = parse_ideal("a b\na b c")
        assert [str(g) for g in ideal.generators] == ["a*b"]

    def test_repeated_variable_rejected(self):
        with pytest.raises(IdealFormatError) as exc:
            parse_ideal("a a b")
        assert exc.value.line == 1
        assert exc.value.column == 3

    def test_bad_token_reports_position(self):
        with pytest.raises(IdealFormatError) as exc:
            parse_ideal("a b\nc d$e")
        assert exc.value.line == 2

    def test_bad_name_in_vars_header(self):
        with pytest.raises(IdealFormatError) as exc:
            parse_ideal("a b\nvars: c\td-e")
        assert str(exc.value) == "invalid variable name 'd-e' (line 2, column 9)"

    def test_repeat_after_tabs(self):
        with pytest.raises(IdealFormatError) as exc:
            parse_ideal("b\t\ta\t c a")
        assert (exc.value.line, exc.value.column) == (1, 9)
        assert "'a' repeated" in str(exc.value)

    def test_empty_input_rejected(self):
        with pytest.raises(IdealFormatError):
            parse_ideal("# only a comment\n\n")

    def test_comments_blanks_and_vars_header(self):
        ideal = parse_ideal("# header\nvars: z y\n\na b\n  # another\nc\n")
        assert ideal.alphabet.names == ("a", "b", "c", "y", "z")
        assert [str(g) for g in ideal.generators] == ["c", "a*b"]

    def test_multicharacter_names(self):
        ideal = parse_ideal("x1 x2\nx10")
        assert ideal.alphabet.names == ("x1", "x10", "x2")

    def test_alphabets_beyond_sixty_four_variables(self):
        names = [f"x{k:03d}" for k in range(70)]
        ideal = parse_ideal("\n".join(
            f"{names[k]} {names[k + 1]}" for k in range(0, 70, 2)))
        assert len(ideal.alphabet) == 70
        assert ideal.num_generators == 35


class TestCanonicalForm:
    def test_generators_sorted_by_degree_then_support(self):
        ideal = word_ideal("bc a cd ab")  # minimalizes away bc? no: a absorbs ab
        assert [str(g) for g in ideal.generators] == ["a", "b*c", "c*d"]

    def test_structural_equality(self):
        assert word_ideal("ab cd") == word_ideal("cd ab")
        assert word_ideal("ab cd") != parse_ideal("vars: e\na b\nc d")

    def test_noncanonical_constructor_input_rejected(self):
        alphabet = Alphabet.of("ab")
        with pytest.raises(ValueError):
            MonomialIdeal(alphabet, (3, 1))  # ab contains a


class TestMinimalize:
    def test_superset_dropped(self):
        ideal = word_ideal("f b ef")
        assert [str(g) for g in ideal.generators] == ["b", "f"]

    def test_incomparable_kept(self):
        assert word_ideal("ab cd").num_generators == 2

    def test_unit_input_signaled(self):
        alphabet = Alphabet.of("ab")
        for masks in [(0, 1), (1, 2, 0), (0,), (0, 3, 0)]:  # 1 first, last, alone, twice
            with pytest.raises(UnitIdealError):
                minimalize([Monomial(alphabet, m) for m in masks])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            minimalize([])

    def test_dropping_any_generator_keeps_rest_minimal(self):
        rng = random.Random(5)
        for _ in range(25):
            ideal = random_ideal(rng, 6, 4)
            for skip in range(4):
                rest = [g for i, g in enumerate(ideal.generators) if i != skip]
                assert minimalize(rest).num_generators == 3


class TestLcm:
    def test_containment(self):
        ideal = word_ideal("ab b")  # minimalizes to (b); use raw monomials instead
        a = Monomial.of(ideal.alphabet, "ab")
        b = Monomial.of(ideal.alphabet, "b")
        assert str(lcm([a, b])) == "a*b"

    def test_disjoint_union(self):
        ideal = word_ideal("ab cd")
        assert str(lcm(ideal.generators)) == "a*b*c*d"

    def test_triangle_union(self):
        ideal = word_ideal("ab ac bc")
        assert str(lcm(ideal.generators)) == "a*b*c"


class TestColon:
    def test_demo_quotient(self):
        # J = (ef, fg, bce, ab) inside k[a..g]; J : ade = (b, f)
        big = word_ideal("ef fg bce ab ade")
        J = minimalize([g for g in big.generators if str(g) != "a*d*e"])
        result = colon_by_monomial(J, mono(big, "ade"))
        assert result == minimalize([mono(big, "b"), mono(big, "f")])

    def test_colon_by_one_is_identity(self):
        ideal = word_ideal("ab cd")
        assert colon_by_monomial(ideal, Monomial(ideal.alphabet, 0)) == ideal

    def test_generator_dividing_z_signals_unit(self):
        ideal = word_ideal("ab cd")
        with pytest.raises(UnitIdealError):
            colon_by_monomial(ideal, mono(ideal, "ab"))

    def test_composition_over_disjoint_supports(self):
        rng = random.Random(11)
        for _ in range(30):
            ideal = random_ideal(rng, 7, 4)
            n = len(ideal.alphabet)
            z = rng.randrange(1, 1 << n)
            w = rng.randrange(1, 1 << n) & ~z
            if not w:
                continue
            zm, wm = Monomial(ideal.alphabet, z), Monomial(ideal.alphabet, w)
            zw = Monomial(ideal.alphabet, z | w)
            try:
                joint = colon_by_monomial(ideal, zw)
            except UnitIdealError:
                with pytest.raises(UnitIdealError):
                    colon_by_monomial(colon_by_monomial(ideal, zm), wm)
                continue
            assert joint == colon_by_monomial(colon_by_monomial(ideal, zm), wm)


class TestAddGenerator:
    def test_disjoint_new_generator(self):
        ideal = parse_ideal("vars: e\na b\nc d")
        result = add_generator(ideal, mono(ideal, "e"))
        assert [str(g) for g in result.generators] == ["e", "a*b", "c*d"]

    def test_absorbing_generator(self):
        ideal = word_ideal("ab cd")
        result = add_generator(ideal, mono(ideal, "a"))
        assert [str(g) for g in result.generators] == ["a", "c*d"]

    def test_adding_one_signaled(self):
        ideal = word_ideal("ab")
        with pytest.raises(UnitIdealError):
            add_generator(ideal, Monomial(ideal.alphabet, 0))


class TestAlexanderDual:
    def test_single_generator(self):
        assert alexander_dual(word_ideal("ab")) == word_ideal("a b")

    def test_eleven_generator_dual(self):
        dual = alexander_dual(word_ideal("abc def adg beg"))
        assert dual == word_ideal("bd ae cde abf adg cdg beg ceg afg bfg cfg")

    def test_matches_brute_force_and_involution(self):
        rng = random.Random(99)
        for _ in range(5):
            ideal = random_ideal(rng, 6, 4)
            dual = alexander_dual(ideal)
            assert dual == brute_force_dual(ideal)
            assert alexander_dual(dual) == ideal

    @staticmethod
    def disjoint_edges(k):
        return parse_ideal("\n".join(f"x{i} y{i}" for i in range(k)))

    def test_transversal_cap_boundary(self):
        # k disjoint edges have 2^k minimal transversals
        assert MAX_TRANSVERSALS == 1 << 10
        assert alexander_dual(self.disjoint_edges(10)).num_generators == 1 << 10
        with pytest.raises(CapExceededError):
            alexander_dual(self.disjoint_edges(11))

    def test_transversal_cap_fires_fast(self):
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            alexander_dual(self.disjoint_edges(16))
        assert time.perf_counter() - start < 1.0

    def test_oracle_reexports_the_cap_error(self):
        assert oracle.CapExceededError is CapExceededError


# hypothesis strategies: alphabets of 2..7 letters, nonempty support masks
_letters = st.integers(min_value=2, max_value=7)


@st.composite
def monomial_sets(draw):
    n = draw(_letters)
    alphabet = Alphabet.of("abcdefg"[:n])
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=6))
    return [Monomial(alphabet, m) for m in masks]


@st.composite
def generator_tuples(draw):
    """Tuples of masks for a 5-variable alphabet: often a canonical set, then
    perhaps disturbed by a swap, a duplicate or an arbitrary mask from -1 to
    63, which may be 0, comparable to another or outside the alphabet."""
    masks = draw(st.lists(st.integers(-1, 63), max_size=6))
    if draw(st.booleans()):
        masks = _minimal_masks(m for m in masks if 0 < m < 32)
        change = draw(st.sampled_from(["none", "swap", "duplicate", "insert"]))
        if change == "swap" and len(masks) > 1:
            i, j = draw(st.lists(st.integers(0, len(masks) - 1),
                                 min_size=2, max_size=2, unique=True))
            masks[i], masks[j] = masks[j], masks[i]
        elif change == "duplicate" and masks:
            masks.insert(draw(st.integers(0, len(masks))), draw(st.sampled_from(masks)))
        elif change == "insert":
            masks.insert(draw(st.integers(0, len(masks))), draw(st.integers(-1, 63)))
    return tuple(masks)


@given(generator_tuples())
@settings(max_examples=400, deadline=None)
def test_constructor_decides_like_the_reference_rule(masks):
    alphabet = Alphabet(tuple("abcde"))
    expected = reference_generator_check(len(alphabet), masks)
    if expected is None:
        assert MonomialIdeal(alphabet, masks).generator_masks == masks
    else:
        with pytest.raises(expected) as exc:
            MonomialIdeal(alphabet, masks)
        assert type(exc.value) is expected


@given(monomial_sets())
@settings(max_examples=150, deadline=None)
def test_minimalize_idempotent_and_order_independent(monomials):
    ideal = minimalize(monomials)
    assert minimalize(list(ideal.generators)) == ideal
    assert minimalize(list(reversed(monomials))) == ideal


@given(monomial_sets())
@settings(max_examples=100, deadline=None)
def test_dual_is_an_involution(monomials):
    ideal = minimalize(monomials)
    dual = alexander_dual(ideal)
    assert dual == brute_force_dual(ideal)
    assert alexander_dual(dual) == ideal


_PARSE_NAMES = ["a", "b", "c", "x1", "y_2", "Z", "9", "_"]
_PARSE_JUNK = ["a#b", "b$", "$", "#c", "\u00e9", "\u00e41", "vars:", "a*b"]
_SPACES = [" ", "  ", "\t", "\xa0", "\x0c", "\u2003"]


@st.composite
def parse_texts(draw):
    """Ideal texts with comments, blank lines, ``vars:`` headers, tabs, NBSP,
    form feeds and other whitespace, CR, LF and CRLF line ends, ``#`` or
    ``$`` inside tokens, repeated names and non-ASCII letters."""
    name = st.sampled_from(_PARSE_NAMES)
    token = st.sampled_from(_PARSE_NAMES * 4 + _PARSE_JUNK)
    space = st.sampled_from(_SPACES)
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["generator"] * 4 + ["tokens", "vars", "comment", "blank"]))
        if kind == "generator":
            words = draw(st.lists(name, min_size=1, max_size=4))
        elif kind == "tokens":
            words = draw(st.lists(token, min_size=1, max_size=5))
        elif kind == "vars":
            words = ["vars:"] + draw(st.lists(token, max_size=3))
        elif kind == "comment":
            words = ["#" + draw(st.text(alphabet="ab #$", max_size=5))]
        else:
            words = []
        line = draw(st.sampled_from(["", " ", "\t", "\xa0"]))
        for w in words:
            line += w + draw(space)
        lines.append(line)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@given(parse_texts())
@settings(max_examples=600, deadline=None)
def test_parse_matches_the_reference_parser(text):
    assert _parse_outcome(parse_ideal, text) == _parse_outcome(reference_parse, text)


@st.composite
def mask_lists(draw):
    """Masks over 1 to 70 variables, single bits among them, with duplicates."""
    n = draw(st.integers(1, 70))
    mask = st.one_of(st.integers(1, (1 << n) - 1), st.integers(0, n - 1).map(lambda k: 1 << k))
    masks = draw(st.lists(mask, max_size=30))
    return masks + draw(st.lists(st.sampled_from(masks), max_size=5)) if masks else masks


@given(mask_lists())
@settings(max_examples=300, deadline=None)
def test_canonical_key_sorts_like_the_support_key(masks):
    assert sorted(masks, key=_canonical_key) == sorted(masks, key=_support_key)


# masks over up to 40 bits, zero and single bits among them
row_lists = st.lists(st.one_of(st.just(0), st.integers(0, (1 << 40) - 1),
                               st.integers(0, 39).map(lambda k: 1 << k)), max_size=20)


@given(row_lists)
@example([])
@example([0])
@example([0, 0b101, 0, 0b100])
@settings(max_examples=200, deadline=None)
def test_transpose_matches_the_double_loop(masks):
    assert _transpose(masks) == reference_transpose(masks)


@given(row_lists)
@settings(max_examples=200, deadline=None)
def test_transpose_twice_compresses_onto_the_union(masks):
    # with no zero mask every row has a column, so it comes back, on the
    # bits of the union renumbered from 0
    masks = [m for m in masks if m]
    union = 0
    for m in masks:
        union |= m
    used = list(_bits(union))
    compressed = [sum(1 << j for j, k in enumerate(used) if m >> k & 1) for m in masks]
    assert _transpose(_transpose(masks)) == compressed
