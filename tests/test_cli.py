import json

import pytest

from nilgraph.cli import main

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

    def test_budget_guard_exit_5(self, write, capsys):
        g = write("g.json", {"n": 3, "edges": []})
        assert main(["search", g, "--bound", "2", "--budget", "10"]) == 5

    def test_bound_zero_exit_2(self, write, capsys):
        err = usage_error(capsys, "search", write("g.json", N22), "--bound", "0")
        assert "error: argument --bound: must be >= 1, got 0" in err

    def test_negative_budget_exit_2(self, write, capsys):
        err = usage_error(capsys, "search", write("g.json", N22), "--budget", "-1")
        assert "error: argument --budget: must be >= 0, got -1" in err

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
