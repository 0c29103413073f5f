import json

import pytest

from polycount.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tutte_k3(capsys):
    code, out, _ = run(capsys, "tutte", "--graph", "k3", "--x", "2")
    assert code == 0
    assert "answer: 7" in out


def test_tutte_rejects_x_equal_one(capsys):
    code, _, err = run(capsys, "tutte", "--graph", "k3", "--x", "1")
    assert code == 1
    assert "x - 1" in err


def test_forest_poly_k3(capsys):
    code, out, _ = run(capsys, "forest-poly", "--graph", "k3")
    assert code == 0
    assert "coefficients: 1 3 3" in out
    assert "forest count: 7" in out


def test_forest_core_vertex_guard_exit_code(capsys, tmp_path):
    path = tmp_path / "k17.txt"
    pairs = [(u, v) for u in range(17) for v in range(u + 1, 17)]
    path.write_text(f"p graph 17 {len(pairs)}\n" + "".join(f"e {u} {v}\n" for u, v in pairs))
    for argv in (("tutte", "--x", "2"), ("forest-poly", "--at", "1")):
        code, _, err = run(capsys, argv[0], "--graph", str(path), *argv[1:])
        assert code == 3
        assert "17 vertices exceeds the vertex guard of 16" in err


def test_forest_poly_at_point(capsys):
    code, out, _ = run(capsys, "forest-poly", "--graph", "c4", "--at", "1/2")
    assert code == 0
    # 1 + 4*(1/2) + 6*(1/4) + 4*(1/8): all proper subsets of the 4-cycle
    assert "answer: 5" in out


def test_reduce_pm_agree(capsys, tmp_path):
    transcript = tmp_path / "t.jsonl"
    code, out, _ = run(
        capsys, "reduce", "pm", "--graph", "c4", "--C", "2", "--x", "2",
        "--transcript", str(transcript),
    )
    assert code == 0
    assert "answer: 2" in out
    assert "verdict: AGREE" in out
    assert "queries: 81" in out
    lines = transcript.read_text().strip().splitlines()
    assert len(lines) == 81
    json.loads(lines[0])


def test_reduce_pm_odd_warns(capsys):
    code, out, _ = run(capsys, "reduce", "pm", "--graph", "k3", "--C", "2", "--x", "2")
    assert code == 0
    assert "answer: 0" in out
    assert "odd vertex count" in out


def test_reduce_pm_x_one_usage_error(capsys):
    code, _, err = run(capsys, "reduce", "pm", "--graph", "c4", "--C", "2", "--x", "1")
    assert code == 1


def test_reduce_pm_unstretched_k_usage_error(capsys):
    # k = 1 would send multigraphs to the simple-graph oracle
    for k in ("1", "2"):
        code, out, err = run(capsys, "reduce", "pm", "--graph", "c4", "--C", "2", "--k", k)
        assert code == 1
        assert "odd integer >= 3" in err
        assert "AGREE" not in out


def test_reduce_pm_over_budget_skips_pipeline(capsys, tmp_path, monkeypatch):
    path = tmp_path / "m9.txt"
    path.write_text("p graph 18 9\n" + "".join(f"e {2 * i} {2 * i + 1}\n" for i in range(9)))
    calls = []
    monkeypatch.setattr("polycount.cli.count_pm", lambda *args: calls.append(args))
    code, _, err = run(capsys, "reduce", "pm", "--graph", str(path), "--C", "18")
    assert code == 3
    assert "18 vertices exceeds the matching budget of 16" in err
    assert calls == []


def test_reduce_bis_agree(capsys):
    code, out, _ = run(capsys, "reduce", "bis", "--graph", "k3", "--d", "3")
    assert code == 0
    assert "answer: 4" in out
    assert "verdict: AGREE" in out


def test_reduce_bis_edgeless(capsys, tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("p graph 3 0\n")
    transcript = tmp_path / "t.jsonl"
    code, out, _ = run(
        capsys, "reduce", "bis", "--graph", str(path), "--d", "1", "--transcript", str(transcript),
    )
    assert code == 0
    assert "answer: 8" in out
    assert "verdict: AGREE" in out
    (line,) = transcript.read_text().splitlines()
    assert json.loads(line)["query"]["oracle"] == "side-enumeration"


def test_oracle_commands(capsys):
    for kind, graph, expected in (
        ("pm", "c4", 2),
        ("is", "c4", 7),
        ("vc", "k3", 4),
        ("forests", "k4", 38),
    ):
        code, out, _ = run(capsys, "oracle", kind, "--graph", graph)
        assert code == 0
        assert f"answer: {expected}" in out


def test_graph_file_loading(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("c two triangles sharing nothing\np graph 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    code, out, _ = run(capsys, "oracle", "is", "--graph", str(path))
    assert code == 0 and "answer: 4" in out


def test_unknown_graph_is_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "is", "--graph", "nosuch")
    assert code == 1
    assert "nosuch" in err


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p graph 2 1\ne 0 0\n")
    code, _, err = run(capsys, "oracle", "is", "--graph", str(path))
    assert code == 1
    assert "line 2" in err


def test_budget_exit_code(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("p graph 26 0\n")
    code, _, err = run(capsys, "oracle", "is", "--graph", str(path))
    assert code == 3
    assert "budget" in err.lower()


def test_csp_classify_and_count(capsys, tmp_path):
    affine = {
        "relations": [{"arity": 3, "tuples": ["000", "110", "101", "011"]}],
        "n": 4,
        "constraints": [[0, [0, 1, 2]], [0, [1, 2, 3]]],
    }
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(affine))
    code, out, _ = run(capsys, "csp", "classify", "--input", str(path))
    assert code == 0 and "AllAffine" in out
    code, out, _ = run(capsys, "csp", "count", "--input", str(path))
    assert code == 0
    assert "method: gf2-elimination" in out
    assert "verdict: AGREE" in out

    mixed = {
        "relations": [{"arity": 2, "tuples": ["01", "10", "11"]}],
        "n": 2,
        "constraints": [[0, [0, 1]]],
    }
    path2 = tmp_path / "mixed.json"
    path2.write_text(json.dumps(mixed))
    code, out, _ = run(capsys, "csp", "classify", "--input", str(path2))
    assert code == 0
    assert "ContainsNonAffine" in out
    assert "size constant: 2" in out
    code, out, _ = run(capsys, "csp", "count", "--input", str(path2))
    assert code == 0 and "answer: 3" in out


def test_csp_count_cross_check_budget(capsys, tmp_path):
    parity3 = {"arity": 3, "tuples": ["000", "110", "101", "011"]}
    for n, checked in ((22, True), (30, False)):
        chain = {"relations": [parity3], "n": n, "constraints": [[0, [i, i + 1, i + 2]] for i in range(n - 2)]}
        path = tmp_path / f"parity{n}.json"
        path.write_text(json.dumps(chain))
        code, out, _ = run(capsys, "csp", "count", "--input", str(path))
        assert code == 0 and "answer: 4" in out
        assert ("verdict: AGREE" in out) == checked
        assert ("note: oracle answer skipped (budget)" in out) == (not checked)


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "gadget", "--seed", "1")
    assert code == 0
    assert "PASS gadget" in out


def test_reports_have_no_floats(capsys):
    code, out, _ = run(capsys, "reduce", "bis", "--graph", "k2", "--d", "1")
    assert code == 0
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key in ("answer", "oracle answer", "queries", "wall-ms"):
            assert "." not in value, line


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "bis", "--graph", "k2", "--d", "0"),
        ("reduce", "pm", "--graph", "MULTI", "--C", "2"),
        ("reduce", "bis", "--graph", "MULTI", "--d", "1"),
        ("oracle", "pm", "--graph", "MULTI"),
    ],
    ids=["bis-d0", "pm-multigraph", "bis-multigraph", "oracle-pm-multigraph"],
)
def test_rejected_input_is_usage_error(capsys, tmp_path, argv):
    # the library raises ValueError; the CLI reports it without a traceback
    path = tmp_path / "multi.txt"
    path.write_text("p graph 2 1\ne 0 1 2\n")
    code, out, err = run(capsys, *(str(path) if a == "MULTI" else a for a in argv))
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in out + err


def test_reduce_bis_unknown_oracle_mode(capsys):
    code, _, err = run(capsys, "reduce", "bis", "--graph", "k2", "--d", "1", "--oracle", "brute")
    assert code == 1
    assert "invalid choice" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "reduce", "pm", "--graph", "c4")  # missing --C
    assert code == 1
