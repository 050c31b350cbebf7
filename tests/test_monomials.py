import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_dual, word_ideal
from hyperreg import oracle
from hyperreg.monomials import (
    MAX_TRANSVERSALS,
    Alphabet,
    CapExceededError,
    IdealFormatError,
    Monomial,
    MonomialIdeal,
    UnitIdealError,
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
        with pytest.raises(UnitIdealError):
            minimalize([Monomial(alphabet, 0), Monomial.of(alphabet, "a")])

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
