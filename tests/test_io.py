import pytest

from conftest import all_labelled_graphs
from recolouring import Graph, random_graph
from recolouring.io import (
    GraphFormatError,
    graph_from_json,
    graph_to_json,
    parse_dimacs,
    to_dot,
)


def test_json_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], labels={0: "a", 3: "d"})
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert back.labels == g.labels


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2}',
        '{"n": -1, "edges": []}',
        '{"n": 2, "edges": [[0, 0]]}',
        '{"n": 2, "edges": [[1, 0]]}',
        '{"n": 2, "edges": [[0, 2]]}',
        '{"n": 2, "edges": [[0, 1], [0, 1]]}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"x": "bad"}}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"5": "oops"}}',
        '{"n": 2, "edges": [[0, 1]], "labels": []}',
        '{"n": 2, "edges": [[0, 1]], "labels": ""}',
        '{"n": 2, "edges": [[0, 1]], "labels": 0}',
        '{"n": 2, "edges": [[0, 1]], "labels": false}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"01": "a"}}',
        '{"n": 2, "edges": [[0, 1]], "labels": {" 1": "a"}}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"+1": "a"}}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"1_0": "a"}}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"-0": "a"}}',
        '{"n": 2, "edges": [[0, 1]], "labels": {"1": "a", "01": "b"}}',
        "not json",
    ],
)
def test_json_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        graph_from_json(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 2, "edges": [[0, 1], [0, 1]]}', "duplicate edge (0, 1)"),
        ('{"n": 2, "edges": [], "labels": {"01": "a"}}', "label key '01' is not a decimal id"),
    ],
)
def test_json_error_messages(text, message):
    with pytest.raises(GraphFormatError) as exc:
        graph_from_json(text)
    assert str(exc.value) == message


def test_json_null_labels_mean_none():
    g = graph_from_json('{"n": 2, "edges": [[0, 1]], "labels": null}')
    assert g == Graph(2, [(0, 1)]) and g.labels == {}


def _dimacs_text(g):
    """DIMACS for g with every edge reversed, the first one repeated and a
    comment line after each record."""
    lines = [f"p edge {g.n} {g.edge_count()}", "c edges follow"]
    for u, v in g.edges():
        lines += [f"e {v + 1} {u + 1}", f"c that was {u}-{v}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()[:1]]
    return "\n".join(lines) + "\n"


def _load_both_ways(g):
    back = graph_from_json(graph_to_json(g))
    assert (back.n, back.adj, back.labels) == (g.n, g.adj, g.labels)
    col = parse_dimacs(_dimacs_text(g))
    assert (col.n, col.adj, col.labels) == (g.n, g.adj, {})


def test_every_small_graph_loads_to_itself():
    for n in range(6):
        for i, plain in enumerate(all_labelled_graphs(n)):
            labels = {v: f'v{v} "{i}"' for v in range(n) if (i >> v) & 1}
            _load_both_ways(Graph(n, plain.edges(), labels=labels))


def test_random_graphs_load_to_themselves():
    for n in range(30, 61):
        plain = random_graph(n, 0.3, seed=n)
        _load_both_ways(Graph(n, plain.edges(), labels={v: str(-v) for v in range(0, n, 3)}))


def test_dimacs_parse():
    text = "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_dimacs(text)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2\n",
        "p edge 2 1\ne 1 1\n",
        "p edge 2 1\ne 1 5\n",
        "p edge 2 1\nq 1 2\n",
        "",
        "p edge -1 0\n",
    ],
)
def test_dimacs_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 3x 1\n", "line 1: vertex count '3x' is not an integer"),
        ("p edge 3 one\n", "line 1: edge count 'one' is not an integer"),
        ("c\np edge 3 1\ne 1 2.0\n", "line 3: vertex id '2.0' is not an integer"),
    ],
)
def test_dimacs_non_integer_is_a_format_error(text, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message


def test_dot_export_mentions_all_edges():
    g = Graph(3, [(0, 1), (1, 2)], labels={0: "x"})
    dot = to_dot(g)
    assert "0 -- 1;" in dot and "1 -- 2;" in dot
    assert 'label="x"' in dot


def test_dot_export_escapes_labels():
    g = Graph(3, [(0, 1)], labels={0: 'a"];evil', 1: "back\\slash", 2: "plain"})
    lines = to_dot(g).splitlines()
    assert lines[1] == '  0 [label="a\\"];evil"];'
    assert lines[2] == '  1 [label="back\\\\slash"];'
    assert lines[3] == '  2 [label="plain"];'
    # labels without quotes or backslashes are written as before
    assert to_dot(Graph(2, [(0, 1)], labels={0: "x y"})) == (
        'graph G {\n  0 [label="x y"];\n  1;\n  0 -- 1;\n}\n'
    )
