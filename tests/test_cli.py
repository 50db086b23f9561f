import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

import nilgraph.cli as cli
import nilgraph.spectra as spectra
from nilgraph.catalog import CATALOG
from nilgraph.cli import main
from nilgraph.graphs import complete_graph, disjoint_union, empty_graph, simplicial_join
from nilgraph.nilgroup import Presentation

C5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
N22 = {"n": 2, "edges": []}
K1 = {"n": 1, "edges": []}
K2 = {"n": 2, "edges": [[0, 1]]}
P3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
FIG2 = {"n": 4, "edges": [[0, 1], [1, 2]]}
STAR = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def not_utf8(tmp_path):
    """Path of a graph file that is not UTF-8."""
    path = tmp_path / "g.json"
    path.write_bytes(b'{"n": 2, "edges": []}\xff')
    return str(path)


def parse_error(capsys, *argv):
    """Exit code 2 and a one-line ``error:`` on stderr."""
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def capped_main(argv, gigabytes: int, timeout: float = 60):
    """``main(argv)`` in a child process whose address space is capped,
    killed after ``timeout`` seconds (``subprocess.TimeoutExpired``)."""
    cap = gigabytes << 30
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from nilgraph.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout)


def usage_error(capsys, *argv):
    """stderr of a command line that argparse rejects with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestAnalyze:
    def test_cycle5_rule_line(self, write, capsys):
        code, out = run(capsys, "analyze", write("g.json", C5))
        assert code == 0
        assert "R-infinity: yes (CycleAtLeast5)" in out

    def test_star_spectrum(self, write, capsys):
        code, out = run(capsys, "analyze", write("g.json", STAR))
        assert code == 0
        assert "2(2N0-1) ∪ 8N0 ∪ {inf}" in out

    def test_single_vertex_spectrum(self, write, capsys):
        code, out = run(capsys, "analyze", write("g.json", K1))
        assert code == 0
        assert "{2, inf}" in out

    def test_json_mode(self, write, capsys):
        code, out = run(capsys, "analyze", write("g.json", P3), "--output", "json")
        data = json.loads(out)
        assert data["center_rank"] == 2 and data["N"] == 1
        assert data["spectrum"] == "4N0 ∪ {inf}"

    def test_line_format_input(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        code, out = run(capsys, "analyze", str(path))
        assert code == 0 and "CycleAtLeast5" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": [[0, 0]]}')
        assert main(["analyze", str(path)]) == 2


    @pytest.mark.parametrize(
        "graph",
        [
            {"n": 2, "edges": [[0, 1.0]]},
            {"n": 2, "edges": [[0, True]]},
            {"n": True, "edges": []},
            {"n": 2, "edges": 5},
        ],
    )
    def test_non_integer_graph_exit_2(self, write, capsys, graph):
        assert main(["analyze", write("g.json", graph)]) == 2

    def test_graph_not_utf8_exit_2(self, tmp_path, capsys):
        parse_error(capsys, "analyze", not_utf8(tmp_path))

    def test_composite_spectrum(self, write, capsys):
        """The join of K2 plus a point with one edge plus two points keeps
        the product of the two factor spectra."""
        by_key = {e.key: e.graph for e in CATALOG}
        g = simplicial_join(by_key["K2_plus_point"], by_key["one_edge"])
        code, out = run(capsys, "analyze", write("g.json", g.to_json()), "--output", "json")
        assert code == 0
        assert json.loads(out)["spectrum"] == (
            "(2N0^2 ∪ 2|N^2-4| ∪ {inf}) · ({2|nm(n+m)^2|, 2|nm(n^2-m^2-4m)| : n,m in Z} ∪ {inf})"
        )


class TestGraphSizeGuard:
    """A graph whose presentation would list more than 10^6 non-edges (the
    size limit of ``oracle``) is refused with exit 5 before it is listed."""

    def test_20000_isolated_vertices_exit_5(self, tmp_path):
        """N = 199,990,000 under a 2 GB address-space cap, for ``analyze``
        and for ``search --budget 10``, each within a few seconds."""
        path = tmp_path / "g.txt"
        path.write_text("20000\n")
        for argv in (["analyze", str(path)], ["search", str(path), "--budget", "10"]):
            done = capped_main(argv, 2)
            assert done.returncode == 5, done.stderr
            assert done.stderr == "error: graph has N = 199990000 non-edges, over the limit 1000000\n"

    def test_300_isolated_vertices_analyze(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("300\n")
        code, out = run(capsys, "analyze", str(path), "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 44850 and data["spectrum"] == "N0 ∪ {inf}"


class LoadErrors:
    """Exit codes of a subcommand that reads a graph and an automorphism;
    subclasses name the subcommand."""

    command: str

    def test_relation_violation_exit_3(self, write, capsys):
        g = write("g.json", P3)
        a = write("a.json", {"matrix": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]})
        assert main([self.command, g, a]) == 3

    @pytest.mark.parametrize(
        "matrix",
        [[[1.9, 1], [1, 0]], [["1", 1], [1, 0]], [[True, 1], [1, 0]], 5, [1, 0]],
        ids=["float", "string", "bool", "not-a-list", "not-rows"],
    )
    def test_non_integer_entry_exit_2(self, write, capsys, matrix):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": matrix})
        assert main([self.command, g, a]) == 2
        assert "list of rows of integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "images", [[{"z": [1, 0.0]}, {"z": [0, 1]}], [{"z": 5}, {"z": [0, 1]}], 5],
        ids=["float", "not-a-list", "images-not-a-list"],
    )
    def test_non_integer_image_exit_2(self, write, capsys, images):
        g = write("g.json", N22)
        a = write("a.json", {"images": images})
        assert main([self.command, g, a]) == 2

    def test_not_automorphism_exit_4(self, write, capsys):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": [[2, 0], [0, 1]]})
        assert main([self.command, g, a]) == 4

    def test_graph_not_utf8_exit_2(self, write, tmp_path, capsys):
        a = write("a.json", {"matrix": [[1, 1], [1, 0]]})
        parse_error(capsys, self.command, not_utf8(tmp_path), a)


class TestReid(LoadErrors):
    command = "reid"

    def test_rank2_example(self, write, capsys):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": [[1, 1], [1, 0]]})
        code, out = run(capsys, "reid", g, a)
        assert code == 0
        assert "r=2" in out

    def test_identity_infinite(self, write, capsys):
        g = write("g.json", P3)
        a = write("a.json", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        code, out = run(capsys, "reid", g, a)
        assert code == 0
        assert "r=inf" in out

    def test_json_output(self, write, capsys):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": [[1, 1], [1, 0]]})
        code, out = run(capsys, "reid", g, a, "--output", "json")
        assert json.loads(out) == {"r1": 1, "r2": 2, "r": 2}

    def test_mirror_path_is_infinite(self, write, capsys):
        # the plain mirror fixes the middle vertex, so the vertex layer has
        # eigenvalue 1 and the count is infinite
        g = write("g.json", P3)
        a = write("a.json", {"matrix": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]})
        code, out = run(capsys, "reid", g, a, "--output", "json")
        data = json.loads(out)
        assert data["r1"] == "inf" and data["r"] == "inf"

    def test_twisted_mirror_path(self, write, capsys):
        # mirror combined with inverting the middle vertex: 2 * 2 = 4
        g = write("g.json", P3)
        a = write("a.json", {"matrix": [[1, 0, 1], [0, -1, 0], [1, 0, 0]]})
        code, out = run(capsys, "reid", g, a, "--output", "json")
        assert json.loads(out) == {"r1": 2, "r2": 2, "r": 4}


class TestSearch:
    def test_path3_multiples_of_four(self, write, capsys):
        code, out = run(capsys, "search", write("g.json", P3), "--bound", "2", "--output", "json")
        data = json.loads(out)
        assert 4 in data["observed"]
        assert all(v % 4 == 0 for v in data["observed"])

    def test_r_infinity_graph_empty(self, write, capsys):
        code, out = run(capsys, "search", write("g.json", FIG2), "--bound", "1", "--output", "json")
        data = json.loads(out)
        assert data["observed"] == []
        assert data["classification"] == {"kind": "r_infinity_rule", "rule": "MaxDegreeOnce"}

    def test_k2_realizes_one(self, write, capsys):
        from nilgraph.exactlin import IntMatrix, det

        code, out = run(capsys, "search", write("g.json", K2), "--bound", "2", "--output", "json")
        data = json.loads(out)
        assert 1 in data["observed"]
        w = IntMatrix.from_rows(data["witnesses"]["1"])
        assert abs(det(IntMatrix.identity(2) - w)) == 1 and det(w) in (1, -1)

    def test_deterministic_output(self, write, capsys):
        g = write("g.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        _, out1 = run(capsys, "search", g, "--bound", "1", "--output", "json")
        _, out2 = run(capsys, "search", g, "--bound", "1", "--output", "json")
        assert out1 == out2

    def test_text_output(self, write, capsys):
        code, out = run(capsys, "search", write("g.json", {"n": 3, "edges": [[0, 1]]}), "--bound", "1")
        assert code == 0
        assert out.splitlines() == [
            "classification: closed form 2N0^2 ∪ 2|N^2-4| ∪ {inf}",
            "bound: 1",
            "observed: [2, 6, 8]",
            "witness 2: [[-1, -1, -1], [-1, 0, -1], [0, 0, -1]]",
            "witness 6: [[-1, 1, -1], [-1, 0, -1], [0, 0, -1]]",
            "witness 8: [[0, 1, -1], [-1, 0, -1], [0, 0, -1]]",
        ]
        code, out = run(capsys, "search", write("g.json", FIG2), "--bound", "1")
        assert code == 0
        assert out.splitlines() == ["classification: R-infinity by rule MaxDegreeOnce", "bound: 1", "observed: []"]

    def test_value_outside_closed_form_exit_1(self, write, capsys, monkeypatch):
        """K2 realizes 1 at bound 1; with its spectrum claimed to be {2, inf}
        the report's consistency check fails and names the value."""
        monkeypatch.setattr(spectra, "spectrum_by_decomposition", lambda g: spectra.Z1)
        assert main(["search", write("g.json", K2), "--bound", "1"]) == 1
        assert capsys.readouterr().err == "error: search realized 1, outside {2, inf}\n"

    def test_budget_guard_exit_5(self, write, capsys):
        g = write("g.json", {"n": 3, "edges": []})
        assert main(["search", g, "--bound", "2", "--budget", "10"]) == 5

    @staticmethod
    def _search_40_vertices(write, budget: int):
        """``search --budget`` on a random 40-vertex graph in a child process
        whose address space is capped at 3 GB."""
        rng = random.Random(40)
        edges = [[i, j] for i in range(40) for j in range(i + 1, 40) if rng.random() < 0.5]
        g = write("g.json", {"n": 40, "edges": edges})
        return capped_main(["search", g, "--budget", str(budget)], 3)

    def test_budget_guard_before_memory_on_40_vertices(self, write):
        """The walk allocates nothing of size 2^n before its first budget
        charge: on a random 40-vertex graph, with the address space capped
        at 3 GB, ``search --budget 10`` exits 5, not with a MemoryError."""
        done = self._search_40_vertices(write, 10)
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    def test_budget_charges_the_minors_on_40_vertices(self, write):
        """The minors of k placed columns are charged before they are built:
        C(n, k) k for the table of expansion terms and C(n, k) per
        candidate.  On the same graph, ``search --budget 1000000`` stays
        within the budget of its columns while it builds ever larger
        tables, until they exhaust the capped memory after about a minute;
        with the minors charged it exits 5 at once."""
        done = self._search_40_vertices(write, 1_000_000)
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    @pytest.mark.parametrize(
        "text, seconds",
        [
            ("1000\n" + "".join(f"{i} {i + 1}\n" for i in range(999)), None),
            ("1100\n", 1),
            ("500\n" + "".join(f"{i} {(i + 1) % 500}\n" for i in range(500)), 10),
        ],
        ids=["path-1000", "isolated-1100", "cycle-500"],
    )
    def test_budget_guard_after_the_group_on_1000_vertices(self, tmp_path, text, seconds):
        """The report finds the graph's automorphisms before the first budget
        charge, by an isomorphism search that keeps no Python frame per
        vertex: on a path of 1,000 vertices and on 1,100 isolated vertices
        (both under the size limit), with the address space capped at 2 GB,
        ``search --budget 10`` exits 5, not with a RecursionError.  The
        isolated vertices are twins, so their 1100! automorphisms are known
        to exceed the cap without drawing any, and the search builds one row
        tuple per degree: that run ends within a second (2.1 s when it drew
        5,041 maps and built the rows and neighbour depths pair by pair).
        The 1,000 automorphisms of a 500-cycle are drawn within 10 s, as
        each vertex with a placed neighbour tries only the two neighbours
        of that neighbour's image (about 30 s when it tried all 500)."""
        path = tmp_path / "g.txt"
        path.write_text(text)
        t0 = perf_counter()
        done = capped_main(["search", str(path), "--budget", "10"], 2)
        assert seconds is None or perf_counter() - t0 < seconds
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    def test_budget_reaches_the_first_leaf_but_not_the_key_kernel(self, write, capsys, monkeypatch):
        """The edgeless key kernel is charged sum_k C(n-1, k) C(n, k) k units
        at the first leaf, before it is generated: 60 on N4 at bound 1.  A
        budget that reaches the first leaf but not the charge exits 5 without
        generating the kernel; one unit more generates it (and runs out
        later in the walk)."""
        g = empty_graph(4)
        search = spectra._Search(Presentation.of(g), 1, True, 10**18)
        next(search.leaves(spectra._SignedGroup(g)))
        first_leaf = 10**18 - search.left
        kernel, built = spectra._charpoly_kernel, []

        def counting(*args):
            built.append(args)
            return kernel(*args)

        monkeypatch.setattr(spectra, "_charpoly_kernel", counting)
        path = write("g.json", g.to_json())
        for budget, kernels in ((first_leaf + 59, 0), (first_leaf + 60, 1)):
            built.clear()
            assert main(["search", path, "--budget", str(budget)]) == 5
            assert "budget" in capsys.readouterr().err
            assert len(built) == kernels

    def test_budget_reaches_the_first_leaf_but_not_the_cofactor_kernel(self, write, capsys, monkeypatch):
        """The cofactor kernel of a complete graph is charged its Laplace
        terms at the first leaf, before it is generated: 24 on K4 at bound
        1.  A budget that reaches the first leaf but not the charge exits 5
        without generating the kernel; one unit more generates it (and runs
        out later in the walk)."""
        g = complete_graph(4)
        search = spectra._Search(Presentation.of(g), 1, True, 10**18)
        next(search.leaves(spectra._SignedGroup(g)))
        first_leaf = 10**18 - search.left
        kernel, built = spectra._cofactor_kernel, []

        def counting(*args):
            built.append(args)
            return kernel(*args)

        monkeypatch.setattr(spectra, "_cofactor_kernel", counting)
        path = write("g.json", g.to_json())
        assert spectra._cofactor_terms(4) == 24
        for budget, kernels in ((first_leaf + 23, 0), (first_leaf + 24, 1)):
            built.clear()
            assert main(["search", path, "--budget", str(budget)]) == 5
            assert "budget" in capsys.readouterr().err
            assert len(built) == kernels

    def test_budget_charges_leaf_evaluation(self, write):
        """Each direct evaluation of a leaf is charged before any
        determinant: n^3 for the cofactors, and per solution n for det(1 - M1)
        and N^3 for det(1 - M2).  Four disjoint triangles have one degree
        class, so every leaf is evaluated directly, each with a 54 x 54
        det(1 - M2); ``search --budget 100000`` ran for more than a minute
        on those uncharged evaluations, and now exits 5 within a second."""
        g = write("g.json", disjoint_union(*[complete_graph(3)] * 4).to_json())
        t0 = perf_counter()
        done = capped_main(["search", g, "--budget", "100000"], 2)
        assert perf_counter() - t0 < 1
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    def test_budget_counts_a_last_column_pool_before_building_it(self, write):
        """A last column that is the first to ask for the support pool of its
        rows and dimension counts the pool before building it, and exits 5
        when the count exceeds the units left.  On paw at ``--bound 60``
        the first leaf is reached with about 8.8e7 of 1e8 units left, and
        its pool would hold 1.06e8 vectors: with the address space capped
        at 2 GB, that pool ended in a MemoryError after about 5 s."""
        paw = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2]]}
        t0 = perf_counter()
        done = capped_main(["search", write("g.json", paw), "--bound", "60", "--budget", "100000000"], 2)
        assert perf_counter() - t0 < 5
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    def test_huge_bound_exit_5(self, write):
        """The pool size the budget charges is computed only when charged,
        and not at all when its lower bound already exceeds the units left:
        K2 at ``--bound 10000000`` with ``--budget 10`` exits 5 at once."""
        t0 = perf_counter()
        done = capped_main(["search", write("g.json", K2), "--bound", "10000000", "--budget", "10"], 2)
        assert perf_counter() - t0 < 2
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    def test_large_bound_counts_the_pool_without_mu(self, write):
        """The pool size the budget charges is counted per support size in
        O(B^(3/4)) steps, not from mu(d) for every d <= B: K2 at ``--bound
        10000000`` with ``--budget 1000000000``, whose pool size (about
        1.2e14) exceeds the budget while its lower bound 4e7 does not,
        exits 5 at once.  With mu by trial factoring it ran past 60 s."""
        t0 = perf_counter()
        argv = ["search", write("g.json", K2), "--bound", "10000000", "--budget", "1000000000"]
        done = capped_main(argv, 2, timeout=5)
        assert perf_counter() - t0 < 5
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    def test_huge_bound_bounds_each_support_count_first(self, write):
        """Before the pool size is counted, its lower bound from one
        closed-form bound per support size is compared with the units left:
        K2 at ``--bound 1000000000`` with ``--budget 10000000000``, whose
        two-row supports alone hold over 5e17 vectors, exits 5 at once.
        Counted exactly first, in O(B^(3/4)) steps, it took over 4 s."""
        t0 = perf_counter()
        argv = ["search", write("g.json", K2), "--bound", "1000000000", "--budget", "10000000000"]
        done = capped_main(argv, 2, timeout=5)
        assert perf_counter() - t0 < 1
        assert done.returncode == 5, done.stderr
        assert "budget" in done.stderr

    def test_bound_zero_exit_2(self, write, capsys):
        err = usage_error(capsys, "search", write("g.json", N22), "--bound", "0")
        assert "error: argument --bound: must be >= 1, got 0" in err

    def test_negative_budget_exit_2(self, write, capsys):
        err = usage_error(capsys, "search", write("g.json", N22), "--budget", "-1")
        assert "error: argument --budget: must be >= 0, got -1" in err

    def test_graph_not_utf8_exit_2(self, tmp_path, capsys):
        parse_error(capsys, "search", not_utf8(tmp_path))

    def test_witness_roundtrip(self, write, capsys):
        from nilgraph.exactlin import ExtNat, IntMatrix
        from nilgraph.graphs import graph_from_json
        from nilgraph.morphism import endo_from_matrix, reidemeister_number
        from nilgraph.nilgroup import Presentation

        code, out = run(capsys, "search", write("g.json", N22), "--bound", "2", "--output", "json")
        data = json.loads(out)
        p = Presentation.of(graph_from_json(data["graph"]))
        for key, rows in data["witnesses"].items():
            e = endo_from_matrix(p, IntMatrix.from_rows(rows))
            assert reidemeister_number(e).r == ExtNat(int(key))


class TestVerifyTables:
    def test_selected_rows_pass(self, capsys):
        code, out = run(
            capsys, "verify-tables", "--only", "N22", "--only", "C4", "--only", "P4"
        )
        assert code == 0
        assert out.count("PASS") == 4  # three rows plus the summary line
        assert "3 graph classes checked" in out

    def test_json_shape(self, capsys):
        code, out = run(capsys, "verify-tables", "--only", "K1", "--output", "json")
        data = json.loads(out)
        assert data["ok"] is True and data["classes"] == 1
        assert data["rows"][0]["observed"] == [2]

    @pytest.mark.parametrize(
        "key, observed, problem",
        [
            ("K1", (2, 3), "values [3] outside {2, inf}"),
            ("P4", (2,), "expected no finite values, found [2]"),
            ("K1", (), "expected witnesses for [2]"),
        ],
    )
    def test_failed_row(self, capsys, monkeypatch, key, observed, problem):
        """Each problem a report can show fails its row, the summary and
        the exit code; the report is patched to show it."""
        report = SimpleNamespace(observed=observed)
        monkeypatch.setattr(cli, "compute_spectrum_report", lambda g, bound: report)
        code, out = run(capsys, "verify-tables", "--only", key, "--output", "json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        (row,) = data["rows"]
        assert row["status"] == "FAIL" and row["observed"] == list(observed)
        assert problem in row["problems"]
        code, out = run(capsys, "verify-tables", "--only", key)
        assert code == 1
        assert out.startswith(f"FAIL {key}: observed {list(observed)}") and problem in out
        assert out.endswith("FAIL: 1 graph classes checked\n")

    def test_consistency_error_fails_the_row(self, capsys, monkeypatch):
        def fail(g, bound):
            raise spectra.SpectrumConsistencyError("degree filtration violated at entry (0, 1)")

        monkeypatch.setattr(cli, "compute_spectrum_report", fail)
        code, out = run(capsys, "verify-tables", "--only", "C4", "--output", "json")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert data["rows"][0]["status"] == "FAIL" and data["rows"][0]["observed"] is None
        assert data["rows"][0]["problems"] == ["degree filtration violated at entry (0, 1)"]

    def test_unknown_key(self, capsys):
        assert main(["verify-tables", "--only", "nope"]) == 2

    def test_bound_zero_exit_2(self, capsys):
        err = usage_error(capsys, "verify-tables", "--bound", "0")
        assert "error: argument --bound: must be >= 1, got 0" in err


class TestOracle(LoadErrors):
    command = "oracle"

    def test_match(self, write, capsys):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": [[1, 1], [1, 0]]})
        code, out = run(capsys, "oracle", g, a, "--mod", "4")
        assert code == 0
        assert "oracle=2 formula=2 OK" in out

    def test_abelian_match(self, write, capsys):
        g = write("g.json", K2)
        a = write("a.json", {"matrix": [[2, 1], [1, 1]]})
        code, out = run(capsys, "oracle", g, a, "--mod", "2")
        assert code == 0
        assert "oracle=1 formula=1 OK" in out

    def test_infinite_skips(self, write, capsys):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": [[1, 0], [0, 1]]})
        code, out = run(capsys, "oracle", g, a, "--mod", "4")
        assert code == 0
        assert "formula=inf, oracle skipped" in out

    def test_default_modulus_is_twice_r(self, write, capsys):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": [[1, 1], [1, 0]]})
        code, out = run(capsys, "oracle", g, a, "--output", "json")
        data = json.loads(out)
        assert data == {"formula": 2, "modulus": 4, "ok": True, "oracle": 2}

    def test_size_guard_exit_5(self, write, capsys):
        g = write("g.json", {"n": 3, "edges": []})
        a = write("a.json", {"matrix": [[1, 1, 0], [1, 0, 0], [0, 0, -1]]})
        assert main(["oracle", g, a, "--mod", "100"]) == 5

    def test_modulus_one_exit_2(self, write, capsys):
        g = write("g.json", N22)
        a = write("a.json", {"matrix": [[1, 1], [1, 0]]})
        err = usage_error(capsys, "oracle", g, a, "--mod", "1")
        assert "error: argument --mod: must be >= 2, got 1" in err
