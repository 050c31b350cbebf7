"""Built-in corpus of worked ideals with expected invariants.

Each entry records an ideal and the values its hypergraph methods and the
homology oracle must reproduce, tagged with provenance: ``source`` values
are quoted from the source material, ``derived`` ones were computed with
an independent oracle, ``trivial`` ones follow directly from definitions.
Claims that our own computation contradicts are stored separately and
reported as flagged discrepancies rather than failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds as bounds_mod
from . import hypergraph as hg
from . import oracle
from .monomials import Monomial, MonomialIdeal, alexander_dual, parse_ideal


@dataclass(frozen=True)
class Expectation:
    value: object
    provenance: str  # "source" | "derived" | "trivial"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    ideal_text: str
    expected: tuple[tuple[str, Expectation], ...]
    claims: tuple[tuple[str, Expectation], ...] = ()


@dataclass(frozen=True)
class CheckResult:
    entry: str
    check: str
    expected: object
    actual: object
    status: str  # "ok" | "fail" | "flagged"
    provenance: str

    def line(self) -> str:
        if self.status == "ok":
            return f"[ok]      {self.entry} :: {self.check} = {self.actual}"
        if self.status == "flagged":
            return (f"[flagged] {self.entry} :: {self.check}: claimed "
                    f"{self.expected}, computed {self.actual} (known discrepancy)")
        return (f"[FAIL]    {self.entry} :: {self.check}: expected "
                f"{self.expected}, got {self.actual}")


def _words(words: str) -> str:
    return "\n".join(" ".join(w) for w in words.split())


def _e(pairs: dict[str, tuple[object, str]]) -> tuple[tuple[str, Expectation], ...]:
    return tuple((k, Expectation(v, tag)) for k, (v, tag) in pairs.items())


CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "collision-pair-small", _words("ac bc"),
        _e({"reg": (1, "source"), "label_count": (3, "trivial"),
            "num_vertices": (2, "trivial")})),
    CorpusEntry(
        "collision-pair-large", _words("acd bcd"),
        _e({"reg": (2, "source"), "label_count": (4, "trivial"),
            "num_vertices": (2, "trivial")})),
    CorpusEntry(
        # vertex ids follow the canonical generator order, a permutation of
        # the source listing: 1=efh 2=bchij 3=dghij 4=aefgij
        "walkthrough", _words("efh aefgij bchij dghij"),
        _e({"edges": ([[2], [3], [4], [1, 4], [3, 4], [1, 2, 3], [2, 3, 4]], "derived"),
            "label_count": (10, "source"), "num_vertices": (4, "source"),
            "open_vertices": ([1], "source"), "dim": (2, "source"),
            "saturated": (False, "source"), "simple_edges": ([], "derived"),
            "reg": (6, "derived")})),
    CorpusEntry(
        "saturated-four-gens", _words("efhk aefgij bchij dghij"),
        _e({"saturated": (True, "source"), "reg": (7, "source"), "pd": (4, "source"),
            "label_count": (11, "source"), "num_vertices": (4, "source"),
            "taylor_minimal": (True, "source")})),
    CorpusEntry(
        "single-open-vertex", _words("efh cefgij abhij dghij"),
        _e({"iso_applicable": (True, "source"), "iso_bound": (6, "source"),
            "reg": (6, "source")})),
    CorpusEntry(
        "multilabel-slack", _words("ab acd bef"),
        _e({"iso_applicable": (True, "source"), "iso_bound": (3, "source"),
            "reg": (2, "source")})),
    CorpusEntry(
        "triangle", _words("ab ac bc"),
        _e({"iso_applicable": (False, "source"), "reg": (1, "source"),
            "fill_t": (2, "derived"), "fill_bound": (2, "derived"),
            "taylor_bound": (1, "derived"), "taylor_minimal": (False, "derived"),
            "match_applicable": (False, "derived")})),
    CorpusEntry(
        # canonical vertex 7 is the degree-4 generator fgij, the one the
        # source closes with a fresh variable
        "fill-one-vertex", _words("di ade bij fgij efg jh ch"),
        _e({"fill_t": (1, "source"), "fill_bound": (4, "source"),
            "fill_set": ([7], "derived"), "reg": (4, "source")})),
    CorpusEntry(
        "fill-one-vertex-closed", _words("di ade bij fgijk efg jh ch"),
        _e({"iso_applicable": (True, "source"), "iso_bound": (4, "source")})),
    CorpusEntry(
        # canonical order puts the six quadratics first: the two simple
        # edges are the a-edge {1,2} and the g-edge {3,4,5}
        "two-simple-edges", _words("ab bcdef ac eg fg gh hi"),
        _e({"simple_applicable": (True, "source"),
            "simple_edges": ([[1, 2], [3, 4, 5]], "derived"),
            "simple_value": (5, "source"), "reg": (5, "source")})),
    CorpusEntry(
        "two-triangle-net", _words("abc def adg beg"),
        _e({"simple_applicable": (True, "source"), "simple_value": (4, "source"),
            "fill_t": (1, "source"), "fill_bound": (4, "source"), "reg": (4, "source"),
            "alexander_dual": ("bd ae cde abf adg cdg beg ceg afg bfg cfg", "source")})),
    CorpusEntry(
        "all-cubics-on-four", _words("abc abd acd bcd"),
        _e({"saturated": (False, "trivial")}),
        claims=(("fill_bound", Expectation(5, "source")),)),
    CorpusEntry(
        # the witness vertices are the generators aef and bgh, which the
        # canonical order places third and fourth
        "one-dim-matched", _words("aef bgh ei hk cgij dfjk"),
        _e({"dim": (1, "source"), "match_applicable": (True, "source"),
            "match_value": (5, "source"), "match_witness": ([3, 4], "derived"),
            "reg": (5, "source")})),
    CorpusEntry(
        "path-unmatched", _words("ab bc cde ef fghi ij jklm mn no"),
        _e({"dim": (1, "source"), "match_applicable": (False, "source"),
            "reg": (5, "source")})),
    CorpusEntry(
        "path-matched", _words("ab bc cdef fg ghi ij jklm mn no"),
        _e({"dim": (1, "source"), "match_applicable": (True, "source"),
            "match_value": (6, "source"), "reg": (6, "source")})),
)


_KOSZUL_SPOT_MAX_VARS = 12


def _computed_values(ideal: MonomialIdeal, primes: tuple[int, ...]
                     ) -> tuple[dict[str, object], dict[str, bool]]:
    """Evaluate every check, deterministically: the values an entry may
    reference, and the generic invariants checked on every entry."""
    report = bounds_mod.best_bounds(ideal)
    hypergraph = report.hypergraph
    taylor_minimal = oracle.is_taylor_minimal(ideal)
    fields = [oracle.FieldSpec(p) for p in primes]
    tables = {f.characteristic: oracle.betti_table(ideal, f) for f in fields}
    strand_tables = {f.characteristic: oracle.taylor_strand_betti(ideal, f) for f in fields}
    regs = {p: t.regularity for p, t in tables.items()}
    reg0 = regs[primes[0]]

    def method(name: str) -> bounds_mod.MethodResult:
        return report.result(name)

    values: dict[str, object] = {
        "label_count": hypergraph.label_count,
        "num_vertices": hypergraph.num_vertices,
        "dim": report.dim,
        "edges": [sorted(e) for e in hypergraph.edges],
        "open_vertices": sorted(hg.open_vertices(hypergraph)),
        "saturated": hg.is_saturated(hypergraph),
        "taylor_minimal": taylor_minimal,
        "reg": reg0,
        "pd": tables[primes[0]].projective_dimension,
        "taylor_bound": method("taylor_bound").value,
        "iso_applicable": method("isolated_open_bound").applicable,
        "iso_bound": method("isolated_open_bound").value,
        "fill_t": method("fill_bound").witness["t"],
        "fill_set": method("fill_bound").witness["fill_set"],
        "fill_bound": method("fill_bound").value,
        "simple_applicable": method("simple_edge_formula").applicable,
        "simple_value": method("simple_edge_formula").value,
        "simple_edges": sorted((sorted(e) for e in hg.simple_edges(hypergraph)),
                               key=lambda e: (len(e), e)),
        "match_applicable": method("matching_lower").applicable,
        "match_value": method("matching_lower").value,
        "match_witness": (None if method("matching_lower").witness is None
                          else method("matching_lower").witness["closed_vertices"]),
        "alexander_dual": str(alexander_dual(ideal)),
    }
    generic = {
        "dual_oracle_equal": all(tables[p] == strand_tables[p] for p in primes),
        "reg_char_independent": len(set(regs.values())) == 1,
        "round_trip": hg.ideal_of(hypergraph, ideal.alphabet) == ideal,
        "taylor_minimal_iff_saturated": taylor_minimal == hg.is_saturated(hypergraph),
        "upper_bounds_hold": all(
            method(m).value >= reg0 for m in bounds_mod.UPPER_METHODS
            if method(m).applicable),
        "lower_bounds_hold": all(
            method(m).value <= reg0 for m in bounds_mod.LOWER_METHODS
            if method(m).applicable),
        "exact_methods_match": all(
            method(m).value == reg0 for m in bounds_mod.EXACT_METHODS
            if method(m).applicable),
        "taylor_squares_zero": _taylor_squares_zero(ideal),
        "koszul_spot": _koszul_spot(ideal, tables[primes[0]], fields[0]),
    }
    return values, generic


def _taylor_squares_zero(ideal: MonomialIdeal) -> bool:
    try:
        oracle.taylor_complex(ideal)  # raises if the composition does not vanish
    except AssertionError:
        return False
    return True


def _koszul_spot(ideal: MonomialIdeal, table: oracle.BettiTable,
                 field: oracle.FieldSpec) -> bool:
    """Cross-check the table at the lattice's maximum against the chain
    complex of all the faces of its divisibility complex."""
    if len(ideal.alphabet) > _KOSZUL_SPOT_MAX_VARS:
        return True
    top = Monomial(ideal.alphabet, ideal.variables_used)  # the lattice's maximum
    ranks = oracle._chain_ranks(
        oracle.upper_koszul(ideal, top).faces_by_dim, field.characteristic)
    return ({(d + 2, top.mask): r for d, r in ranks.items()}
            == {key: r for key, r in table.entries.items() if key[1] == top.mask})


def evaluate_entry(entry: CorpusEntry, primes: tuple[int, ...] = (2, 3)) -> list[CheckResult]:
    ideal = parse_ideal(entry.ideal_text)
    values, generic = _computed_values(ideal, primes)
    results = []
    for check, expectation in entry.expected:
        actual = values[check]
        expected = expectation.value
        if check == "alexander_dual":
            expected = str(parse_ideal(_words(expected)))
        status = "ok" if actual == expected else "fail"
        results.append(CheckResult(entry.name, check, expected, actual,
                                   status, expectation.provenance))
    for check, expectation in entry.claims:
        results.append(CheckResult(entry.name, check, expectation.value,
                                   values[check], "flagged", expectation.provenance))
    for check, holds in generic.items():
        results.append(CheckResult(entry.name, check, True, holds,
                                   "ok" if holds is True else "fail", "derived"))
    return results


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "fail")

    @property
    def flagged(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.status == "flagged")

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [r.line() for r in self.results]
        lines.append(
            f"{len(self.results)} checks: {len(self.results) - len(self.failures) - len(self.flagged)} ok, "
            f"{len(self.failures)} failed, {len(self.flagged)} flagged (reported, not failed)")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "checks": [
                {
                    "entry": r.entry, "check": r.check,
                    "expected": r.expected, "actual": r.actual,
                    "status": r.status, "provenance": r.provenance,
                }
                for r in self.results
            ],
            "failures": len(self.failures),
            "flagged": len(self.flagged),
        }


def verify_corpus(entries: tuple[CorpusEntry, ...] = CORPUS,
                  primes: tuple[int, ...] = (2, 3)) -> CorpusReport:
    """Evaluate every entry; mismatches fail unless flagged as discrepancies."""
    results: list[CheckResult] = []
    for entry in entries:
        results.extend(evaluate_entry(entry, primes))
    return CorpusReport(tuple(results))
