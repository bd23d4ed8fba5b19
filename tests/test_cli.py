import json
import os
import subprocess
import sys
from importlib import resources

import pytest
from jsonschema import Draft202012Validator

import recolouring
from recolouring.cli import build_parser, main
from recolouring.io import load_graph


@pytest.fixture(scope="module")
def schema_validator():
    text = (
        resources.files("recolouring") / "schemas" / "report.schema.json"
    ).read_text()
    schema = json.loads(text)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, validator, *argv):
    code, out = run(capsys, *argv)
    obj = json.loads(out)
    validator.validate(obj)
    return code, obj


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_gen_named_emits_valid_graph(capsys, schema_validator):
    code, obj = run_json(capsys, schema_validator, "gen", "named", "--name", "cycle", "--n", "5")
    assert code == 0
    assert obj["n"] == 5 and len(obj["edges"]) == 5


def test_gen_gk_writes_graph_and_report(tmp_path, capsys, schema_validator):
    out = tmp_path / "g3.json"
    code, report = run_json(
        capsys,
        schema_validator,
        "gen", "gk", "--k", "3", "-o", str(out),
    )
    assert code == 0
    assert report["report"] == "gen_gk"
    assert report["n"] == 10 and report["edge_count"] == 22
    assert report["frozen_search_exhausted"] is True
    assert report["frozen_colouring"] is not None
    graph_obj = json.loads(out.read_text())
    schema_validator.validate(graph_obj)
    assert graph_obj["labels"]["0"] == "x"


def test_gen_gk_large_k(tmp_path, capsys, schema_validator):
    # the base colouring once came from a search that recursed per vertex
    out = tmp_path / "g300.json"
    code, report = run_json(
        capsys, schema_validator, "gen", "gk", "--k", "300", "-o", str(out)
    )
    assert code == 0
    g = load_graph(str(out))
    assert report["n"] == g.n == 4 * 299 + 2
    frozen = recolouring.Colouring(tuple(report["frozen_colouring"]), 301)
    assert recolouring.is_frozen(g, frozen)


def test_gen_random_deterministic(tmp_path, capsys):
    outs = []
    for _ in range(2):
        code, text = run(capsys, "gen", "random", "--n", "9", "--seed", "4")
        assert code == 0
        outs.append(text)
    assert outs[0] == outs[1]
    code, text = run(
        capsys, "gen", "random", "--n", "9", "--seed", "4", "--class", "cochordal"
    )
    assert code == 0


def test_recognize_report(tmp_path, capsys, schema_validator):
    path = write_json(tmp_path / "c6.json", {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]})
    code, obj = run_json(capsys, schema_validator, "recognize", path)
    assert code == 0
    assert obj["weakly_chordal"] is False
    assert obj["co_chordal"] is False
    assert obj["chromatic_number"] == 2
    assert obj["compact"]["verdict"] is False
    assert obj["compact"]["witness"]["failing_subset"] == [0, 1, 2, 3, 4, 5]
    assert obj["two_pairs"] == []


def test_recognize_compact_certificate(tmp_path, capsys, schema_validator):
    path = write_json(tmp_path / "p4.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    code, obj = run_json(capsys, schema_validator, "recognize", path)
    assert code == 0
    assert obj["compact"]["verdict"] is True
    events = obj["compact"]["witness"]["certificate"]
    assert events[-1]["kind"] == "complete_base"


def test_recognize_respects_compact_limit(tmp_path, capsys, schema_validator):
    path = write_json(tmp_path / "p4.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    code, obj = run_json(
        capsys, schema_validator, "recognize", path, "--compact-limit", "3"
    )
    assert code == 0
    assert obj["compact"]["verdict"] is None


def test_reconfig_report_with_frozen(tmp_path, capsys, schema_validator):
    path = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]})
    code, obj = run_json(
        capsys,
        schema_validator,
        "reconfig", path, "--k", "4", "--diameter", "--frozen",
    )
    assert code == 0
    assert obj["colouring_count"] == 24
    assert obj["component_count"] == 1
    assert obj["diameter"] == 4
    assert obj["frozen_colouring_indices"] == []
    assert obj["frozen_colourings"] == []


def test_reconfig_dump_dot(tmp_path, capsys, schema_validator):
    path = write_json(tmp_path / "k2.json", {"n": 2, "edges": [[0, 1]]})
    dot = tmp_path / "r.dot"
    code, obj = run_json(
        capsys, schema_validator,
        "reconfig", path, "--k", "3", "--dump-dot", str(dot),
    )
    assert code == 0
    # R_3(K2) is a 6-cycle; nodes are labelled by their colourings
    assert dot.read_text() == (
        "graph R3 {\n"
        '  0 [label="01"];\n'
        '  1 [label="02"];\n'
        '  2 [label="10"];\n'
        '  3 [label="12"];\n'
        '  4 [label="20"];\n'
        '  5 [label="21"];\n'
        "  0 -- 1;\n"
        "  0 -- 5;\n"
        "  1 -- 3;\n"
        "  2 -- 3;\n"
        "  2 -- 4;\n"
        "  4 -- 5;\n"
        "}\n"
    )
    assert obj["colouring_count"] == 6


def test_reconfig_capacity_exit_code(tmp_path, capsys):
    path = write_json(tmp_path / "e.json", {"n": 8, "edges": []})
    code, out = run(capsys, "reconfig", path, "--k", "8", "--cap", "100")
    assert code == 1 and out == ""


def test_reconfig_long_path(tmp_path, capsys, schema_validator):
    # R_2(P_1500): two frozen colourings; the enumeration once recursed per
    # vertex and overflowed the recursion limit
    n = 1500
    path = write_json(
        tmp_path / "p.json", {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    )
    code, obj = run_json(
        capsys, schema_validator,
        "reconfig", path, "--k", "2", "--frozen", "--diameter",
    )
    assert code == 0
    assert obj["colouring_count"] == 2
    assert obj["component_count"] == 2
    assert obj["component_diameters"] == [0, 0]
    assert obj["frozen_colouring_indices"] == [0, 1]


def test_recolour_then_validate_round_trip(tmp_path, capsys, schema_validator):
    graph = write_json(tmp_path / "p4.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]})
    src = write_json(tmp_path / "a.json", [0, 1, 0, 1])
    dst = write_json(tmp_path / "b.json", {"assignment": [1, 0, 1, 0]})
    seq_path = tmp_path / "seq.json"
    code, out = run(
        capsys,
        "recolour", graph, "--k", "3", "--from", src, "--to", dst,
        "-o", str(seq_path),
    )
    assert code == 0 and out == ""
    seq = json.loads(seq_path.read_text())
    schema_validator.validate(seq)
    assert seq["start"] == [0, 1, 0, 1] and seq["end"] == [1, 0, 1, 0]

    code, rep = run_json(
        capsys, schema_validator,
        "validate", graph, "--seq", str(seq_path), "--from", src,
    )
    assert code == 0
    assert rep["ok"] is True
    assert rep["max_per_vertex"] <= 8


def test_validate_infers_palette_and_fails_on_bad_sequence(
    tmp_path, capsys, schema_validator
):
    graph = write_json(tmp_path / "k2.json", {"n": 2, "edges": [[0, 1]]})
    bad = write_json(
        tmp_path / "bad.json",
        {"start": [0, 1], "steps": [[0, 1]], "end": [1, 1]},
    )
    code, rep = run_json(capsys, schema_validator, "validate", graph, "--seq", bad)
    assert code == 1
    assert rep["ok"] is False and rep["error_index"] == 0


def test_validate_rejects_mismatched_from(tmp_path, capsys):
    graph = write_json(tmp_path / "k2.json", {"n": 2, "edges": [[0, 1]]})
    seq = write_json(tmp_path / "s.json", {"start": [0, 1], "steps": [], "end": [0, 1]})
    other = write_json(tmp_path / "c.json", [1, 0])
    code = main(["validate", graph, "--seq", seq, "--from", other])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"error: {other}: colouring disagrees with the start of {seq}\n"
    )


@pytest.mark.parametrize(
    "seq_obj, message",
    [
        ({"start": [0, 1, 0], "steps": [[1, 2]], "end": "x"}, '"end" must be an integer array'),
        ({"start": [0, 1, 0], "steps": [[1]], "end": [0, 2, 0]}, "step 0 must be [vertex, colour]"),
        ({"start": [0, 1, 0], "steps": [[1, 2], [1, True]], "end": [0, 1, 0]}, "step 1 must be [vertex, colour]"),
        ({"start": [False, True, False], "steps": [], "end": [0, 1, 0]}, '"start" must be an integer array'),
        ({"start": [0, 1, 0], "steps": {}, "end": [0, 1, 0]}, '"steps" must be an array'),
        ({"start": [0, 1, 0], "end": [0, 1, 0]}, 'sequence file lacks "steps"'),
        ([0, 1, 0], "a sequence file must hold a JSON object"),
    ],
)
def test_validate_rejects_malformed_sequence_file(tmp_path, capsys, seq_obj, message):
    graph = write_json(tmp_path / "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    seq = write_json(tmp_path / "s.json", seq_obj)
    code = main(["validate", graph, "--seq", seq])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {seq}: {message}\n"


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"])
def test_validate_rejects_invalid_json(tmp_path, capsys, content):
    graph = write_json(tmp_path / "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    seq = tmp_path / "s.json"
    seq.write_bytes(content)
    code = main(["validate", graph, "--seq", str(seq)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {seq}: invalid JSON: ")


def test_colouring_files_reject_booleans(tmp_path, capsys):
    graph = write_json(tmp_path / "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    good = write_json(tmp_path / "a.json", [1, 0, 1])
    bools = write_json(tmp_path / "b.json", [True, False, True])
    wrapped = write_json(tmp_path / "c.json", {"assignment": [True, False, True]})
    for bad in (bools, wrapped):
        for frm, to in ((bad, good), (good, bad)):
            code = main(["recolour", graph, "--k", "3", "--from", frm, "--to", to])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err == (
                f"error: {bad}: a colouring file must hold an integer array\n"
            )
    # validate --from: [true, false, true] == [1, 0, 1] in Python, yet it is
    # not a colouring
    seq = write_json(tmp_path / "s.json", {"start": [1, 0, 1], "steps": [], "end": [1, 0, 1]})
    code = main(["validate", graph, "--seq", seq, "--from", bools])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {bools}: a colouring file must hold an integer array\n"
    code, out = run(capsys, "validate", graph, "--seq", seq, "--from", good)
    assert code == 0 and json.loads(out)["ok"] is True


def test_recolour_rejects_non_compact_graph(tmp_path, capsys):
    graph = write_json(
        tmp_path / "c6.json",
        {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]},
    )
    src = write_json(tmp_path / "a.json", [0, 1, 0, 1, 0, 1])
    code = main(["recolour", graph, "--k", "3", "--from", src, "--to", src])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"error: {graph}: graph admits no elimination certificate (not compact)\n"
    )


def test_recolour_long_path_round_trip(tmp_path, capsys, schema_validator):
    n = 2000
    graph = write_json(
        tmp_path / "p.json", {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    )
    src = write_json(tmp_path / "a.json", [i % 2 for i in range(n)])
    dst = write_json(tmp_path / "b.json", [1 + i % 2 for i in range(n)])
    seq_path = tmp_path / "seq.json"
    code, out = run(
        capsys,
        "recolour", graph, "--k", "3", "--from", src, "--to", dst,
        "-o", str(seq_path),
    )
    assert code == 0 and out == ""
    code, rep = run_json(
        capsys, schema_validator,
        "validate", graph, "--seq", str(seq_path), "--from", src,
    )
    assert code == 0 and rep["ok"] is True
    assert rep["max_per_vertex"] <= 2 * n


def test_search_h_report(capsys, schema_validator):
    code, obj = run_json(
        capsys, schema_validator,
        "search-h", "--n", "8", "--budget", "120", "--seed", "0",
    )
    assert code == 0
    assert len(obj["candidates"]) == 1
    assert obj["candidates"][0]["chromatic_number"] == 4
    assert obj["candidates"][0]["compact"] is False


def test_search_h_reproducible(capsys):
    outs = []
    for _ in range(2):
        code, text = run(
            capsys, "search-h", "--n", "8", "--budget", "120", "--seed", "1"
        )
        assert code == 0
        # budget_spent is wall-clock time; drop it before comparing
        obj = json.loads(text)
        obj.pop("budget_spent")
        outs.append(obj)
    assert outs[0] == outs[1]


def test_export_dot(tmp_path, capsys):
    graph = write_json(tmp_path / "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    code, out = run(capsys, "export-dot", graph)
    assert code == 0
    assert "0 -- 1;" in out and "1 -- 2;" in out


def test_dimacs_input(tmp_path, capsys, schema_validator):
    path = tmp_path / "p3.col"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    code, obj = run_json(capsys, schema_validator, "recognize", str(path))
    assert code == 0 and obj["n"] == 3


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("bad.col", b"p edge 3x 1\n", "line 1: vertex count '3x' is not an integer"),
        ("e.col", b"p edge 2 1\ne 1 1\n", "line 2: self-loop"),
        ("bad.json", b'{"n": 2}', 'graph JSON requires fields "n" and "edges"'),
        (
            "bin.col",
            b"\xff\xfe",
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        (
            "bin.json",
            b"\xff\xfe",
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    ],
)
def test_graph_format_errors_name_the_file(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    code = main(["recognize", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, "recognize", "/nonexistent/graph.json")
    assert code == 1 and out == ""


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconfig"])  # missing required graph argument
    assert exc.value.code == 2


def test_byte_identical_reports(tmp_path, capsys):
    path = write_json(tmp_path / "c4.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
    a = run(capsys, "recognize", path)
    b = run(capsys, "recognize", path)
    assert a == b


def test_main_reuses_one_parser_across_subcommands(tmp_path, capsys):
    """Runs in one process give the outputs of runs in fresh processes."""
    graph = str(tmp_path / "p5.json")
    a = write_json(tmp_path / "a.json", [0, 1, 0, 1, 2])
    b = write_json(tmp_path / "b.json", [1, 2, 1, 2, 0])
    seq = str(tmp_path / "seq.json")
    commands = [
        ["gen", "named", "--name", "path", "--n", "5", "-o", graph],
        ["recognize", graph],
        ["reconfig", graph, "--k", "3", "--diameter", "--frozen"],
        ["export-dot", graph],
        ["recolour", graph, "--k", "4", "--from", a, "--to", b, "-o", seq],
        ["validate", graph, "--seq", seq, "--from", a],
        ["recognize", str(tmp_path / "missing.json")],
    ]
    in_process = []
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 0, 1]
    assert build_parser() is build_parser()
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(recolouring.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, (code, out, err) in zip(commands, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "recolouring.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv
