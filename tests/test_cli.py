import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import counting_union_homology, draws_at_the_lattice_cap, ideal_text
from hyperreg import cli, oracle
from hyperreg.bounds import LOWER_METHODS, UPPER_METHODS, best_bounds
from hyperreg.corpus import CORPUS, CorpusEntry, Expectation, verify_corpus
from hyperreg.hypergraph import LabeledHypergraph
from hyperreg.monomials import Alphabet, parse_ideal
from hyperreg.oracle import GF3, TaylorComplex, betti_table
from hyperreg.randgen import max_antichain, random_ideal, variable_names


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.ideal"
    path.write_text("a b\na c\nb c\n")
    return str(path)


@pytest.fixture
def saturated_file(tmp_path):
    path = tmp_path / "saturated.ideal"
    path.write_text("e f h k\na e f g i j\nb c h i j\nd g h i j\n")
    return str(path)


class TestAnalyze:
    def test_text_report(self, capsys, saturated_file):
        assert cli.main(["analyze", saturated_file]) == 0
        out = capsys.readouterr().out
        assert "reg=7" in out and "pd=4" in out
        assert "saturated_formula: 7" in out
        assert "saturated_formula: tight" in out

    def test_triangle_slack(self, capsys, triangle_file):
        assert cli.main(["analyze", triangle_file]) == 0
        out = capsys.readouterr().out
        assert "fill_bound: 2" in out
        assert "reg=1" in out
        assert "fill_bound: slack 1" in out

    def test_json_report(self, capsys, triangle_file):
        assert cli.main(["analyze", triangle_file, "--json", "--field", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle"]["reg"] == 1
        assert doc["oracle"]["field"] == 3
        assert doc["best_upper"] == {"id": "taylor_bound", "value": 1}
        assert doc["hypergraph_detail"]["vertices"] == [1, 2, 3]

    def test_no_oracle(self, capsys, triangle_file):
        assert cli.main(["analyze", triangle_file, "--no-oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle" not in out and "bounds:" in out

    def test_missing_file(self, capsys):
        assert cli.main(["analyze", "/nonexistent.ideal"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_syntax(self, capsys, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("a a b\n")
        assert cli.main(["analyze", str(path)]) == 1
        assert "square-free" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, triangle_file):
        path = tmp_path / "bom.ideal"
        path.write_bytes(b"\xef\xbb\xbf" + Path(triangle_file).read_bytes())
        assert cli.main(["analyze", str(path)]) == 0
        with_bom = capsys.readouterr()
        assert cli.main(["analyze", triangle_file]) == 0
        assert with_bom == capsys.readouterr()

    def test_undecodable_file_names_its_path(self, capsys, tmp_path):
        path = tmp_path / "latin1.ideal"
        path.write_bytes("a b\nc \xe9\n".encode("latin-1"))
        assert cli.main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.ideal"
        path.write_text("")
        assert cli.main(["analyze", str(path)]) == 1

    def test_bad_field(self, capsys, triangle_file):
        assert cli.main(["analyze", triangle_file, "--field", "4"]) == 1

    def test_oracle_cap_degrades_to_bounds(self, capsys, tmp_path):
        path = tmp_path / "big.ideal"
        path.write_text("\n".join("abcdefghijklmnopqrstu"))  # 21 generators
        assert cli.main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: oracle skipped: lcm lattice capped at 20 generators\n"
        assert "fill_bound" in captured.out
        assert "reg=" not in captured.out

    def test_json_report_at_the_lattice_cap(self, tmp_path):
        # 20 generators on 26 variables: the oracle answers with nothing on
        # stderr, and the applicable bounds hold its regularity between them
        path = tmp_path / "cap.ideal"
        path.write_text(ideal_text(draws_at_the_lattice_cap()[0]))
        code, out, err = _run(["analyze", str(path), "--json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        reg = doc["oracle"]["reg"]
        applicable = {m["id"]: m["value"] for m in doc["methods"] if m["applicable"]}
        assert set(applicable) & set(UPPER_METHODS)
        for method, value in applicable.items():
            if method in UPPER_METHODS:
                assert value >= reg
            if method in LOWER_METHODS:
                assert value <= reg

    def test_matching_cap_no_oracle(self, capsys, tmp_path):
        path = tmp_path / "onedim.ideal"
        path.write_text("\n".join(
            [f"x{i} y{i - 1} y{i}" for i in range(1, 23)] + ["y0 y22"]) + "\n")
        assert cli.main(["analyze", str(path), "--no-oracle"]) == 0
        captured = capsys.readouterr()
        assert "matching_lower: not applicable" in captured.out
        assert "Traceback" not in captured.err


class TestVerifyPaper:
    def test_passes_with_one_flagged_discrepancy(self, capsys):
        assert cli.main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "1 flagged" in out
        assert "[flagged] all-cubics-on-four :: fill_bound" in out
        assert "[FAIL]" not in out

    def test_json_mode(self, capsys):
        assert cli.main(["verify-paper", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == 0
        assert doc["flagged"] == 1

    def test_perturbed_expectation_fails(self, capsys, monkeypatch):
        bad = CorpusEntry(
            "perturbed", CORPUS[0].ideal_text,
            (("reg", Expectation(3, "trivial")),))
        monkeypatch.setattr(cli, "CORPUS", (bad,))
        assert cli.main(["verify-paper"]) == 2
        assert "expected 3, got 1" in capsys.readouterr().out

    def test_taylor_check_failure_is_reported(self, capsys, monkeypatch):
        differential = TaylorComplex.differential
        monkeypatch.setattr(TaylorComplex, "differential", lambda self, subset: [
            (smaller, 1, q) for smaller, _, q in differential(self, subset)])
        assert cli.main(["verify-paper"]) == 2
        out, err = capsys.readouterr()
        assert ":: taylor_squares_zero: expected True, got False" in out
        assert "Traceback" not in out + err

    def test_taylor_check_failure_at_one_subset_is_reported(self, capsys, monkeypatch):
        # one sign flipped at the full subset of four generators breaks d o d
        # there only, so exactly the four-generator entries fail the check
        differential = TaylorComplex.differential

        def flipped(self, subset):
            terms = differential(self, subset)
            if self.num_generators == 4 and subset == 0b1111:
                smaller, sign, q = terms[0]
                terms[0] = (smaller, -sign, q)
            return terms

        monkeypatch.setattr(TaylorComplex, "differential", flipped)
        assert cli.main(["verify-paper"]) == 2
        out, err = capsys.readouterr()
        failed = [line.split()[1] for line in out.splitlines()
                  if line.endswith(":: taylor_squares_zero: expected True, got False")]
        four = [e.name for e in CORPUS if parse_ideal(e.ideal_text).num_generators == 4]
        assert failed == four and len(four) == 5
        assert out.count("[FAIL]") == len(four)
        assert "Traceback" not in out + err

    def test_perturbed_corpus_api_reports_diff(self):
        bad = CorpusEntry(
            "perturbed", CORPUS[0].ideal_text,
            (("reg", Expectation(3, "trivial")),))
        report = verify_corpus(entries=(bad,), primes=(2,))
        assert not report.ok
        assert report.failures[0].expected == 3
        assert report.failures[0].actual == 1


class TestRandom:
    ARGS = ["random", "--vars", "6", "--gens", "4", "--count", "5", "--seed", "7"]

    def test_deterministic_output(self, capsys):
        assert cli.main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert cli.main(self.ARGS) == 0
        assert capsys.readouterr().out == first
        assert "aggregate over 5 instances" in first

    def test_json_lines(self, capsys):
        assert cli.main(self.ARGS + ["--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["instance"] for r in records[:-1]] == list(range(5))
        assert "aggregate" in records[-1]
        for r in records[:-1]:
            assert r["reg"] <= r["best_upper"]["value"]

    def test_sweep_takes_fewer_homologies_than_the_tables(self, capsys):
        # the pinned GF(3) sweep reads reg and pd by the scan, not by full tables
        argv = ["random", "--vars", "12", "--gens", "10", "--count", "15", "--seed", "3",
                "--field", "3", "--json"]
        with counting_union_homology() as scan:
            assert cli.main(argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        rng = random.Random(3)
        with counting_union_homology() as full:
            for r in records:
                table = betti_table(random_ideal(rng, 12, 10), GF3)
                assert (r["reg"], r["pd"]) == (table.regularity, table.projective_dimension)
        assert 0 < scan[0] < full[0]

    def test_records_match_the_full_report(self, capsys):
        # each record holds the fields of best_bounds' JSON report it prints
        assert cli.main(["random", "--vars", "6", "--gens", "3", "--count", "30",
                         "--seed", "3", "--no-oracle", "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        rng = random.Random(3)
        for r in records:
            ideal = random_ideal(rng, 6, 3)
            doc = best_bounds(ideal).to_json_dict(ideal)
            assert r == {"instance": r["instance"], "gens": doc["ideal"]["gens"],
                         **doc["hypergraph"], "best_upper": doc["best_upper"],
                         "best_lower": doc["best_lower"]}
        assert len(records) == 30
        assert sum(r["best_lower"] is not None for r in records) >= 10

    def test_infeasible_parameters(self, capsys):
        # random_ideal's own rules, with their own messages
        assert cli.main(["random", "--vars", "3", "--gens", "9",
                         "--count", "1", "--seed", "1"]) == 1
        assert "antichain" in capsys.readouterr().err
        assert cli.main(["random", "--vars", "0", "--gens", "1",
                         "--count", "1", "--seed", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: need at least one variable and one generator\n")

    def test_oracle_cap_exit_code(self, capsys):
        # the lattice's generator cap fires at instance 0, before any output
        assert cli.main(["random", "--vars", "30", "--gens", "21",
                         "--count", "1", "--seed", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: lcm lattice capped at 20 generators\n"

    def test_oracle_at_the_lattice_cap(self, capsys):
        assert cli.main(["random", "--vars", "26", "--gens", "20", "--count", "3",
                         "--seed", "5", "--field", "3", "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert len(records) == 3
        for r, ideal in zip(records, draws_at_the_lattice_cap()):
            table = betti_table(ideal, GF3)
            assert r["gens"] == [list(ideal.alphabet.names_of(g)) for g in ideal.generator_masks]
            assert (r["reg"], r["pd"]) == (table.regularity, table.projective_dimension)

    def test_no_oracle_lifts_cap(self, capsys):
        assert cli.main(["random", "--vars", "15", "--gens", "4", "--count", "2",
                         "--seed", "1", "--no-oracle"]) == 0
        out = capsys.readouterr().out
        assert "reg=" not in out

    def test_variable_names_sort_past_z(self):
        assert variable_names(26) == tuple("abcdefghijklmnopqrstuvwxyz")
        for count in (27, 30, 126, 127):
            names = variable_names(count)
            assert Alphabet(names).names[:26] == variable_names(26)
            assert len(names) == count

    @pytest.mark.parametrize("num_vars", [27, 30])
    def test_more_than_26_variables(self, capsys, num_vars):
        assert cli.main(["random", "--vars", str(num_vars), "--gens", "3", "--count", "2",
                         "--seed", "0", "--no-oracle"]) == 0
        assert "instance 1:" in capsys.readouterr().out

    def test_names_past_z_are_separated(self, capsys):
        assert cli.main(["random", "--vars", "27", "--gens", "3", "--count", "2",
                         "--seed", "0", "--no-oracle"]) == 0
        names = set(variable_names(27))
        for line in capsys.readouterr().out.splitlines():
            gens = line.split("gens=(", 1)[1].split(")", 1)[0]
            for g in gens.split(","):
                assert set(g.split("*")) <= names

    def test_rejection_sampling_cap_exit_code(self, capsys):
        assert cli.main(["random", "--vars", "5", "--gens", "9", "--count", "1",
                         "--seed", "1", "--no-oracle"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: rejection sampling")
        assert "Traceback" not in err


class TestPinnedBytes:
    """sha256 of stdout for commands whose bytes a refactor must not move;
    equal under PYTHONHASHSEED 0, 1 and 12345."""

    # one-dimensional; open vertices 1, 2, 3, 6; fill set {1, 3}; matching witness {4, 5}
    ONE_DIMENSIONAL = "d e k\nc g i j l\nb e j\nc d h k\na b f g\nf i l\n"

    @pytest.mark.parametrize("argv, digest", [
        (["verify-paper", "--json"],
         "24ffa08af042ce9ebc42eef9e695dc3b93540b5cf0b2b3f398235f1f34c197c0"),
        (["random", "--vars", "12", "--gens", "10", "--count", "15", "--seed", "3",
          "--field", "3", "--json"],
         "3a5059b1ec8495b36de59b49ba9bf460cad083cd4a4fa12135b7949d2a5b8bb2"),
        # the GF(2) sweep shape where the oracle's scan skips most hard degrees
        (["random", "--vars", "14", "--gens", "10", "--count", "15", "--seed", "3",
          "--field", "2", "--json"],
         "9c6c1ff58c64d3c296bf918ffce75c8582e9ab963fd312538a18bcf2560b7446"),
        (["random", "--vars", "26", "--gens", "20", "--count", "15", "--seed", "3",
          "--no-oracle", "--json"],
         "d13ddf13c94de012e4f71cfde7966acc424eebcea1ec8873c8d90fd9629e6d55"),
        # text mode: every method applicable somewhere, three with slack in the aggregate
        (["random", "--vars", "6", "--gens", "3", "--count", "30", "--seed", "3"],
         "be63d5abfe9cf6efc6a7dca4c17c48c97e096234fe1e7b1389827b4b50033935"),
        # text mode: a sweep so small that most of its 200 ideals were drawn before
        (["random", "--vars", "4", "--gens", "3", "--count", "200", "--seed", "1"],
         "cdab90186cbe7bf256fb749bcc967d1690a73edc91170fe2f17a02a493954435"),
    ], ids=["verify-paper", "random-gf3", "random-gf2", "random-no-oracle", "random-text",
        "random-repeats"])
    def test_command(self, capsys, argv, digest):
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_verify_paper_twice_in_one_process(self, capsys):
        # the second run recomputes every corpus table the first one computed
        digests = []
        for _ in range(2):
            assert cli.main(["verify-paper", "--json"]) == 0
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert digests == [
            "24ffa08af042ce9ebc42eef9e695dc3b93540b5cf0b2b3f398235f1f34c197c0"] * 2

    def test_analyze_one_dimensional(self, capsys, tmp_path):
        path = tmp_path / "onedim.ideal"
        path.write_text(self.ONE_DIMENSIONAL)
        assert cli.main(["analyze", str(path), "--json", "--no-oracle"]) == 0
        out = capsys.readouterr().out
        methods = {m["id"]: m for m in json.loads(out)["methods"]}
        assert methods["fill_bound"]["witness"] == {"t": 2, "fill_set": [1, 3]}
        assert methods["matching_lower"]["witness"] == {"closed_vertices": [4, 5]}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "838250af7b87417145e53172607b0c00b7a14969f9436f40154687079a8537dd")

    @pytest.mark.parametrize("text, taylor, digest", [
        # the Taylor bound is the best upper bound
        ("a b\na c\nb c\n", {"id": "taylor_bound", "applicable": True, "value": 1,
                              "witness": None},
         "8eef3d81a0dca5d05ca93570177957d5cf3fec246c44b0f6251e2cfe58340e99"),
        # the cycle C21: past 20 generators the Taylor bound (it would be 10) does not apply
        ("".join(f"x{i:02d} x{(i + 1) % 21:02d}\n" for i in range(21)),
         {"id": "taylor_bound", "applicable": False, "value": None, "witness": None},
         "a1dbd3300ca7875ade991b4fb2df268a28c0f59114e0c39e93c12706ed0a19d9"),
    ], ids=["triangle", "cycle-21"])
    def test_analyze_taylor_bound_across_the_cap(self, capsys, tmp_path, text, taylor, digest):
        path = tmp_path / "input.ideal"
        path.write_text(text)
        assert cli.main(["analyze", str(path), "--no-oracle", "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["methods"][1] == taylor
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_analyze_one_dimensional_text_with_oracle(self, capsys, tmp_path):
        path = tmp_path / "onedim.ideal"
        path.write_text(self.ONE_DIMENSIONAL)
        assert cli.main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tightness:\n  taylor_bound: slack 1\n" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a84b80757ebb8b3dcf10342b832e84890099ee86f7598c756a19ee89cd733998")


@pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
def test_pinned_random_bytes_under_hash_seeds(hashseed):
    """The random-gf3 bytes of ``TestPinnedBytes``, in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "hyperreg", "random", "--vars", "12", "--gens", "10",
         "--count", "15", "--seed", "3", "--field", "3", "--json"],
        capture_output=True, env=env, check=False)
    assert (run.returncode, run.stderr) == (0, b"")
    assert hashlib.sha256(run.stdout).hexdigest() == (
        "3a5059b1ec8495b36de59b49ba9bf460cad083cd4a4fa12135b7949d2a5b8bb2")


class TestOneHypergraph:
    """Each ideal's hypergraph is built once, by ``best_bounds``, and read
    from its report by the CLI and the corpus."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # the constructor and build_hypergraph both set a hypergraph up by _init
        calls = []
        init = LabeledHypergraph._init

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LabeledHypergraph, "_init", counting_init)
        return calls

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--no-oracle"], ["--json", "--no-oracle"]])
    def test_analyze_builds_once(self, capsys, builds, saturated_file, extra):
        assert cli.main(["analyze", saturated_file] + extra) == 0
        assert len(builds) == 1

    def test_corpus_builds_once_per_entry(self, builds):
        assert verify_corpus(CORPUS, primes=(2,)).ok
        assert len(builds) == len(CORPUS)


class TestOneLattice:
    """The oracle builds each ideal's lcm lattice once per table or scan and
    keeps none; ``best_bounds`` and every ``--no-oracle`` command build none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        lattice = oracle._lattice

        def counted(ideal):
            calls.append(ideal)
            return lattice(ideal)

        monkeypatch.setattr(oracle, "_lattice", counted)
        return lambda: len(calls)

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--field", "3"]])
    def test_analyze_builds_once(self, capsys, builds, saturated_file, extra):
        assert cli.main(["analyze", saturated_file] + extra) == 0
        assert builds() == 1

    def test_random_builds_once_per_ideal(self, capsys, builds):
        assert cli.main(["random", "--vars", "6", "--gens", "4", "--count", "5",
                         "--seed", "3", "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
        assert len({json.dumps(r["gens"]) for r in records}) == 5
        assert builds() == 5

    def test_corpus_builds_once_per_entry(self, builds):
        assert verify_corpus(CORPUS, primes=(2,)).ok
        assert builds() == len(CORPUS)

    def test_corpus_builds_once_per_entry_and_prime(self, builds):
        assert verify_corpus(CORPUS, primes=(2, 3)).ok
        assert builds() == 2 * len(CORPUS)

    def test_best_bounds_builds_none(self, builds):
        assert best_bounds(parse_ideal("a b\na c\nb c\n")).best_upper == ("taylor_bound", 1)
        assert builds() == 0

    @pytest.mark.parametrize("argv", [
        ["analyze", "FILE", "--no-oracle"],
        ["analyze", "FILE", "--no-oracle", "--json"],
        ["random", "--vars", "6", "--gens", "4", "--count", "5", "--seed", "3", "--no-oracle"],
        ["random", "--vars", "6", "--gens", "4", "--count", "5", "--seed", "3", "--no-oracle",
         "--json"],
    ])
    def test_no_oracle_builds_none(self, capsys, builds, saturated_file, argv):
        assert cli.main([saturated_file if a == "FILE" else a for a in argv]) == 0
        assert builds() == 0


_NAMES = ["a", "b", "c", "d", "e", "x1", "y_2", "Z", "9"]
_JUNK = ["a*b", "-", "é", "a,", "#x", "vars:", "(c)", "x.y"]


@st.composite
def ideal_texts(draw):
    """Up to eight lines of generators, ``vars:`` lines, comments and blanks,
    over a few valid names and some tokens the parser must reject."""
    name = st.sampled_from(_NAMES)
    token = st.sampled_from(_NAMES * 3 + _JUNK)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        # generators dominate so that about half the texts parse
        kind = draw(st.sampled_from(["generator"] * 4 + ["tokens", "vars", "comment", "blank"]))
        if kind == "generator":
            text = " ".join(draw(st.lists(name, min_size=1, max_size=4, unique=True)))
        elif kind == "tokens":
            text = " ".join(draw(st.lists(token, min_size=1, max_size=5)))
        elif kind == "vars":
            text = " ".join(["vars:"] + draw(st.lists(token, max_size=3)))
        elif kind == "comment":
            text = "#" + draw(st.text(alphabet="ab #*", max_size=6))
        else:
            text = ""
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + text)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def random_argvs(draw):
    """``random`` arguments: up to nine variables, counts and fields in and
    out of range, and at three or fewer variables more generators than an
    antichain holds."""
    num_vars = draw(st.integers(0, 9))
    # past three variables rejection sampling can run for seconds before exit 3
    most_gens = num_vars if num_vars >= 4 else max_antichain(num_vars) + 3
    field = draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 9, 65521, 65537]))
    argv = ["random", "--vars", str(num_vars),
            "--gens", str(draw(st.integers(1, most_gens))),
            "--count", str(draw(st.integers(-1, 4))),
            "--seed", str(draw(st.integers())), "--field", str(field)]
    return argv + draw(st.sampled_from([[], ["--json"]])) + draw(
        st.sampled_from([[], ["--no-oracle"]]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    """Any ideal text ends in exit code 0, 1 or 3, with no traceback, and a
    rerun prints the same bytes."""

    @given(text=ideal_texts(), field=st.sampled_from(["2", "3"]))
    @settings(max_examples=60, deadline=None)
    def test_analyze_and_render(self, tmp_path_factory, text, field):
        path = tmp_path_factory.mktemp("fuzz") / "input.ideal"
        path.write_text(text, encoding="utf-8")
        runs = [["analyze", str(path), "--field", field] + json + oracle
                for json in ([], ["--json"]) for oracle in ([], ["--no-oracle"])]
        runs += [["render", str(path), "--format", fmt] for fmt in ("dot", "tikz")]
        for argv in runs:
            first = _run(argv)
            assert first[0] in (0, 1, 3), (argv, first)
            assert "Traceback" not in first[2]
            assert _run(argv) == first

    @given(argv=random_argvs())
    @settings(max_examples=600, deadline=None)
    def test_random(self, argv):
        first = _run(argv)
        assert first[0] in (0, 1, 3), (argv, first)
        assert "Traceback" not in first[2]
        assert _run(argv) == first


class TestRender:
    def test_dot_to_stdout(self, capsys, saturated_file):
        assert cli.main(["render", saturated_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph hypergraph {")
        assert out.count("shape=point") == 2

    def test_dot_to_file(self, tmp_path, saturated_file):
        out_path = tmp_path / "graph.dot"
        assert cli.main(["render", saturated_file, "--format", "dot",
                         "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("graph hypergraph {")

    def test_tikz(self, capsys, triangle_file):
        assert cli.main(["render", triangle_file, "--format", "tikz"]) == 0
        assert "tikzpicture" in capsys.readouterr().out

    def test_unsupported_format(self, capsys, triangle_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["render", triangle_file, "--format", "svg"])
        assert exc.value.code == 1

    def test_missing_file(self, capsys):
        assert cli.main(["render", "/nonexistent.ideal", "--format", "dot"]) == 1
