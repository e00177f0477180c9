"""End-to-end command checks through main(argv)."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey3 import Hypergraph, check_free, from_json_dict, to_json_dict
from ramsey3.cli import main
from ramsey3.colorengine import EdgeColoring
from ramsey3.gadgets import TaggedGadget
from ramsey3.hypercore import codegree
from ramsey3.randomlab import sample_h3


def write_graph(tmp_path, h, name="h.json", tags=None):
    path = tmp_path / name
    path.write_text(json.dumps(to_json_dict(h, tags=tags)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_arrow_yes_and_json(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(6, 2))
    code, out = run(capsys, "arrow", path, "-t", "3", "-k", "2")
    assert code == 0 and "arrows: yes" in out
    code, out = run(capsys, "arrow", path, "-t", "3", "-k", "2", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["arrows"] is True and doc["witness"] is None
    assert doc["nodes"] > 0 and doc["propagations"] > 0 and doc["conflicts"] > 0
    assert doc["learned"] > 0 and doc["restarts"] == 0


def test_arrow_no_with_witness(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(5, 2))
    code, out = run(capsys, "arrow", path, "-t", "3", "-k", "2", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["arrows"] is False
    col = EdgeColoring.from_json_dict(doc["witness"])
    assert check_free(Hypergraph.complete(5, 2), col, 3) == []


def test_arrow_budget_exit_two(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(6, 2))
    code, out = run(capsys, "arrow", path, "-t", "3", "-k", "2", "--budget", "2")
    assert code == 2 and "unknown" in out


def test_missing_file_exit_three(capsys):
    code, out = run(capsys, "arrow", "/nonexistent/x.json", "-t", "3", "-k", "2")
    assert code == 3 and "io error" in out


def test_usage_error_exit_one(capsys):
    code, _ = run(capsys, "arrow")
    assert code == 1


def test_domain_error_exit_one(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(5, 3))
    code, _ = run(capsys, "cliques", path, "-t", "1")
    assert code == 1


def test_minimalize_round_trip(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(7, 2))
    out_path = tmp_path / "m.json"
    code, _ = run(capsys, "minimalize", path, "-t", "3", "-k", "2",
                  "-o", str(out_path))
    assert code == 0
    m, _ = from_json_dict(json.loads(out_path.read_text()))
    assert m.num_vertices == 6 and m.num_edges == 15


def test_free_coloring_json(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(5, 3))
    code, out = run(capsys, "free-coloring", path, "-t", "4", "-k", "2")
    doc = json.loads(out)
    assert code == 0 and doc["found"] is True
    assert {"nodes", "propagations", "conflicts", "learned", "restarts"} <= set(doc)
    assert all(type(doc[key]) is int for key in ("learned", "restarts"))
    col = EdgeColoring.from_json_dict(doc["coloring"])
    assert check_free(Hypergraph.complete(5, 3), col, 4) == []


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_exhaustion_exits_2(tmp_path, capsys, monkeypatch, exc):
    def exhausted(problem):
        raise exc()

    monkeypatch.setattr("ramsey3.cli.solve_cnf", exhausted)
    path = write_graph(tmp_path, Hypergraph.complete(4, 3))
    code, out = run(capsys, "cnf", path, "-t", "4", "-k", "2", "--solve")
    assert code == 2
    assert "Traceback" not in out and len(out.strip().splitlines()) == 1


def test_cnf_dimacs_and_solve(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(4, 3))
    code, out = run(capsys, "cnf", path, "-t", "4", "-k", "2")
    assert code == 0
    assert any(ln.startswith("p cnf ") for ln in out.splitlines())
    assert any(ln.startswith("c map ") for ln in out.splitlines())
    code, out = run(capsys, "cnf", path, "-t", "4", "-k", "2", "--solve")
    doc = json.loads(out)
    assert code == 0 and doc["satisfiable"] is True
    col = EdgeColoring.from_json_dict(doc["coloring"])
    assert check_free(Hypergraph.complete(4, 3), col, 4) == []


@pytest.mark.parametrize("command", ["arrow", "free-coloring", "cnf"])
def test_zero_colors_exit_1(tmp_path, capsys, command):
    path = write_graph(tmp_path, Hypergraph.complete(4, 3))
    code, out = run(capsys, command, path, "-t", "4", "-k", "0")
    assert code == 1 and "p cnf" not in out


def test_cnf_solve_thousand_edge_sample(tmp_path, capsys):
    h = sample_h3(23, 0.6, 20150205)
    path = write_graph(tmp_path, h)
    code, out = run(capsys, "cnf", path, "-t", "6", "-k", "2", "--solve")
    doc = json.loads(out)
    assert code == 0 and doc["satisfiable"] is True
    assert check_free(h, EdgeColoring.from_json_dict(doc["coloring"]), 6) == []


def test_distance_human_and_unreachable(tmp_path, capsys):
    h = Hypergraph.build(3, [(0, 1, 2), (1, 2, 3), (4, 5, 6)])
    path = write_graph(tmp_path, h)
    code, out = run(capsys, "distance", path, "-e", "0,1,2", "-f", "1,2,3")
    assert code == 0 and "distance: 4" in out
    code, out = run(capsys, "distance", path, "-e", "0,1,2", "-f", "4,5,6",
                    "--json")
    assert code == 0 and json.loads(out)["distance"] is None


def test_cliques_output(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(5, 3))
    code, out = run(capsys, "cliques", path, "-t", "4", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 5


def test_gadget_fprime_fell(tmp_path, capsys):
    code, out = run(capsys, "gadget", "fprime", "-m", "6")
    doc = json.loads(out)
    assert code == 0 and len(doc["edges"]) == 16 and doc["tags"]["S"] == [4, 5]
    code, out = run(capsys, "gadget", "fell", "-m", "6", "--ell", "2")
    assert code == 0 and len(json.loads(out)["edges"]) == 18


def test_gadget_pipeline_hstar_sender(tmp_path, capsys):
    c5 = Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)])
    path = write_graph(tmp_path, c5)
    hs_path = tmp_path / "hs.json"
    code, _ = run(capsys, "gadget", "hstar", path, "--patterns", "1,1",
                  "-o", str(hs_path))
    assert code == 0
    sd_path = tmp_path / "sender.json"
    code, _ = run(capsys, "gadget", "sender", str(hs_path), "-m", "5",
                  "-o", str(sd_path))
    assert code == 0
    g = TaggedGadget.from_json_dict(json.loads(sd_path.read_text()))
    assert g.h.num_vertices == 13
    assert codegree(g.h, g.a, g.b) == 0


def test_gadget_rainbow_equalizer_amplify(tmp_path, capsys):
    eq_path = tmp_path / "eq.json"
    code, out = run(capsys, "gadget", "rainbow", "-k", "3", "--sender", "mock")
    assert code == 0 and len(json.loads(out)["tags"]["rainbow"]) == 3
    code, _ = run(capsys, "gadget", "equalizer", "-k", "2", "--sender", "mock",
                  "-o", str(eq_path))
    assert code == 0
    code, out = run(capsys, "gadget", "amplify", str(eq_path), "-s", "8",
                    "--from-equalizer")
    doc = json.loads(out)
    assert code == 0 and doc["tags"]["dist"] >= 8


def test_gadget_bel_and_apex(tmp_path, capsys):
    host_path = tmp_path / "host.json"
    code, _ = run(capsys, "codegree", "host", "-t", "4", "-o", str(host_path))
    assert code == 0
    host_doc = json.loads(host_path.read_text())
    graph_path = tmp_path / "hostgraph.json"
    graph_path.write_text(json.dumps(host_doc["host"]))
    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps(host_doc["coloring"]))
    code, out = run(capsys, "gadget", "bel", str(graph_path),
                    "--coloring", str(col_path), "-t", "4", "-k", "2")
    doc = json.loads(out)
    assert code == 0 and len(doc["tags"]["rainbow"]) == 2

    small = write_graph(tmp_path, Hypergraph.build(3, [(0, 1, 2)]), "s.json")
    code, out = run(capsys, "gadget", "apex", small, "--base", "0,1,2")
    doc = json.loads(out)
    assert code == 0 and doc["tags"]["apex"] == 3 and len(doc["edges"]) == 4


def test_gadget_bel_rejects_more_colors_than_k(tmp_path, capsys):
    host_path = tmp_path / "host.json"
    run(capsys, "codegree", "host", "-t", "4", "-o", str(host_path))
    host_doc = json.loads(host_path.read_text())
    graph_path = tmp_path / "hostgraph.json"
    graph_path.write_text(json.dumps(host_doc["host"]))
    col = host_doc["coloring"]
    col["k"], col["colors"][0][1] = 3, 3
    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps(col))
    code, out = run(capsys, "gadget", "bel", str(graph_path),
                    "--coloring", str(col_path), "-t", "4", "-k", "2")
    assert code == 1 and "Traceback" not in out


def test_codegree_force_check_and_drop(capsys):
    code, out = run(capsys, "codegree", "force-check", "-t", "4", "--json")
    assert code == 0 and json.loads(out)["forced"] is True
    code, out = run(capsys, "codegree", "force-check", "-t", "4",
                    "--drop", "0", "--json")
    assert code == 0 and json.loads(out)["forced"] is False
    code, out = run(capsys, "codegree", "force-check", "-t", "5",
                    "--budget", "10")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["arrow", None, "-t", "3", "-k", "2", "--budget", "-1"],
    ["codegree", "force-check", "-t", "5", "--budget", "-3"],
], ids=["arrow", "force-check"])
def test_negative_budget_is_an_error(tmp_path, capsys, argv):
    path = write_graph(tmp_path, Hypergraph.complete(6, 2))
    code, out = run(capsys, *(path if a is None else a for a in argv))
    assert code == 1 and "budget" in out and "undecided" not in out


def test_codegree_extend(tmp_path, capsys):
    host_path = tmp_path / "host.json"
    run(capsys, "codegree", "host", "-t", "4", "-o", str(host_path))
    doc = json.loads(host_path.read_text())
    host, tags = from_json_dict(doc["host"])
    a, b = tags["a"], tags["b"]
    withuv = host.plus_edges([(0, a, b), (2, a, b)])
    g_path = write_graph(tmp_path, withuv, "guv.json")
    col_path = tmp_path / "pc.json"
    col_path.write_text(json.dumps(doc["coloring"]))
    code, out = run(capsys, "codegree", "extend", g_path,
                    "--coloring", str(col_path),
                    "-u", str(a), "-v", str(b), "-t", "4")
    ext = json.loads(out)
    assert code == 0
    col = EdgeColoring.from_json_dict(ext["coloring"])
    assert check_free(withuv, col, 4) == []


def test_codegree_expectation(capsys):
    code, out = run(capsys, "codegree", "expectation", "-t", "4", "--json")
    rows = json.loads(out)["expectations"]
    assert code == 0 and rows[0]["numerator"] == 3
    assert rows[0]["denominator"] == 4 and rows[0]["lt_one"] is True
    code, out = run(capsys, "codegree", "expectation", "-t", "4",
                    "--until", "8", "--json")
    rows = json.loads(out)["expectations"]
    assert code == 0 and len(rows) == 5 and all(r["lt_one"] for r in rows)


def test_lab_sample_and_prune(tmp_path, capsys):
    code, out = run(capsys, "lab", "sample", "-n", "10", "-p", "0.2",
                    "--seed", "7")
    assert code == 0 and json.loads(out)["r"] == 3
    fam_path = tmp_path / "fam.json"
    code, _ = run(capsys, "lab", "sample", "-n", "12", "-p", "0.25", "-k", "2",
                  "--seed", "7", "-o", str(fam_path))
    assert code == 0
    assert len(json.loads(fam_path.read_text())["members"]) == 2
    code, out = run(capsys, "lab", "prune", str(fam_path), "-t", "4")
    doc = json.loads(out)
    assert code == 0 and len(doc["members"]) == 2
    # sampling route, no input file
    code, out = run(capsys, "lab", "prune", "-t", "4", "-n", "12", "-p", "0.25",
                    "--seed", "9")
    assert code == 0 and "members" in json.loads(out)


def test_lab_prune_needs_source(capsys):
    code, _ = run(capsys, "lab", "prune", "-t", "4")
    assert code == 1


def test_lab_report_and_fact_bound(capsys):
    code, out = run(capsys, "lab", "report", "-n", "10", "-p", "0.3", "-t", "4",
                    "-k", "2", "--trials", "40", "--seed", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True and len(doc["checks"]) == 3
    code, out = run(capsys, "lab", "fact-bound", "-n", "6", "-k", "2",
                    "--ell", "3", "--seed", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True


def test_lab_paper_params(capsys):
    code, out = run(capsys, "lab", "paper-params", "-k", "2", "-t", "4",
                    "--json")
    doc = json.loads(out)
    assert code == 0 and doc["log2_n"] == "5120" and doc["log2_p"] == "-5070"


_BAD_ITEMS = ["+0,0_1", " 1,2", "0,-1", "1,,2", "\u0663", "0x1", ""]


# an empty --drop drops nothing, so "" is a bad item everywhere else
@pytest.mark.parametrize("flag, items", [(flag, items) for flag in ["-e", "-f", "--base", "--drop", "--patterns"]
                                         for items in _BAD_ITEMS if items or flag != "--drop"])
def test_integer_list_items_must_be_plain_decimal(tmp_path, capsys, flag, items):
    # "+0,0_1" used to be read as 0,1 through int(); every such item now exits 1
    path = write_graph(tmp_path, Hypergraph.build(3, [(0, 1, 2), (1, 2, 3)]))
    argv = {
        "-e": ["distance", path, "-e", items, "-f", "1,2,3"],
        "-f": ["distance", path, "-e", "0,1,2", "-f", items],
        "--base": ["gadget", "apex", path, "--base", items],
        "--drop": ["codegree", "force-check", "-t", "4", "--drop", items],
        "--patterns": ["gadget", "hstar", path, "--patterns", f"1,1;{items}"],
    }[flag]
    code, out = run(capsys, *argv)
    assert code == 1 and out.startswith("error:") and "plain decimal" in out, out


@pytest.mark.parametrize("flag", ["--jobs", "--deterministic"])
def test_removed_root_flags_are_usage_errors(tmp_path, capsys, flag):
    path = write_graph(tmp_path, Hypergraph.complete(5, 2))
    argv = [flag] + (["4"] if flag == "--jobs" else []) + ["arrow", path, "-t", "3", "-k", "2"]
    code, out = run(capsys, *argv)
    assert code == 1 and out.startswith("error:")


@pytest.mark.parametrize("labels", [{" 1": "x"}, {"+2": "x"}, {"01": "x"}, {"0": None}, {"1": [1, 2]}, {"0": 5}])
def test_bad_labels_exit_1(tmp_path, capsys, labels):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"r": 3, "n": 3, "edges": [[0, 1, 2]], "labels": labels}))
    code, out = run(capsys, "cliques", str(path), "-t", "3")
    assert code == 1 and "label" in out and out.startswith("error:"), out


def test_json_with_non_integer_fields_exits_1(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text('{"r": 3, "n": 3.9, "edges": [[0, 1.7, 2]]}')
    code, out = run(capsys, "cliques", str(path), "-t", "3")
    assert code == 1 and "must be an integer" in out


def test_vertex_count_above_the_cap_exits_1(tmp_path, capsys):
    # 37 bytes with n = 10**6 cost 112 MiB before the cap; n near 10**9 would exhaust memory
    path = tmp_path / "h.json"
    path.write_text('{"r": 3, "n": 1048577, "edges": []}')
    code, out = run(capsys, "cliques", str(path), "-t", "3")
    assert code == 1 and out.startswith("error:") and "vertex count" in out and "Traceback" not in out, out


GRAPH = to_json_dict(Hypergraph.complete(4, 3))
COLORING = {"k": 2, "colors": [[list(e), 1] for e in sorted(Hypergraph.complete(4, 3).edges)]}


@pytest.mark.parametrize("command, docs", [
    ("arrow", ["5"]),
    ("arrow", ["null"]),
    ("arrow", ["[1, 2]"]),
    ("cliques", ['"text"']),
    ("gadget bel", [json.dumps(GRAPH), "5"]),
    ("gadget bel", [json.dumps(GRAPH), "null"]),
    ("gadget bel", ["null", json.dumps(COLORING)]),
    ("lab prune", ['{"members": 5}']),
    ("lab prune", ['{"members": null}']),
    ("lab prune", ["7"]),
])
def test_non_object_documents_exit_1(tmp_path, capsys, command, docs):
    paths = []
    for i, text in enumerate(docs):
        paths.append(tmp_path / f"d{i}.json")
        paths[-1].write_text(text)
    argv = {
        "arrow": ["arrow", str(paths[0]), "-t", "3", "-k", "2"],
        "cliques": ["cliques", str(paths[0]), "-t", "3"],
        "gadget bel": ["gadget", "bel", str(paths[0]), "--coloring", str(paths[-1]), "-t", "4", "-k", "2"],
        "lab prune": ["lab", "prune", str(paths[0]), "-t", "4"],
    }[command]
    code, out = run(capsys, *argv)
    assert code == 1 and out.startswith("error:"), out


# -- fuzzed input documents ---------------------------------------------

_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 7),
                     st.floats(-2, 7, allow_nan=False), st.text(max_size=3))
_vertex = st.one_of(st.integers(-1, 6), _scalars)
_edges = st.lists(st.one_of(st.lists(st.integers(-1, 6), min_size=2, max_size=4),
                            st.lists(_vertex, max_size=4), _scalars), max_size=8)
_json_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["r", "n", "k", "edges", "colors", "members", "host",
                                     "coloring", "tags", "labels", "e", "dist"]), inner, max_size=4)),
    max_leaves=10)
_tags = st.dictionaries(st.sampled_from(["a", "b", "e", "f", "S", "dist", "rainbow", "apex", "x"]),
                        st.one_of(st.integers(-1, 6), st.lists(st.integers(-1, 6), max_size=3),
                                  _edges, _scalars), max_size=3)
_graphs = st.fixed_dictionaries(
    {"r": st.one_of(st.sampled_from([2, 3]), st.integers(-1, 5), _scalars),
     "n": st.one_of(st.integers(-1, 7), _scalars),
     "edges": st.one_of(_edges, _scalars)},
    optional={"tags": st.one_of(_tags, _scalars), "labels": _json_values})
_colorings = st.fixed_dictionaries(
    {"k": st.one_of(st.integers(-1, 3), _scalars),
     "colors": st.one_of(st.lists(st.tuples(st.lists(_vertex, max_size=4), st.one_of(st.integers(-1, 3), _scalars)),
                                  max_size=8), _scalars)})
_families = st.fixed_dictionaries({"members": st.one_of(st.lists(st.one_of(_graphs, _json_values), max_size=3),
                                                        _json_values)})
_NOT_JSON = object()
_documents = st.one_of(
    _json_values, _graphs, _colorings, _families,
    st.fixed_dictionaries({"host": _graphs}), st.fixed_dictionaries({"coloring": _colorings}),
    st.just(_NOT_JSON))


@st.composite
def _well_formed(draw):
    """A hypergraph document that parses, a family of it, and a coloring of its edges."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 7))
    edge = st.sets(st.integers(0, n - 1), min_size=r, max_size=r).map(sorted)
    edges = draw(st.lists(edge, unique_by=tuple, max_size=10))
    graph = {"r": r, "n": n, "edges": edges}
    coloring = {"k": draw(st.integers(1, 3)), "colors": [[e, draw(st.integers(0, 3))] for e in edges]}
    return graph, {"members": [graph, graph]}, coloring


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["arrow", "cliques", "gadget bel", "lab prune"]),
    docs=st.one_of(_well_formed(), st.tuples(_documents, _documents, _documents)),
    t=st.integers(1, 4),
    k=st.integers(0, 3),
)
def test_fuzzed_documents_never_traceback(command, docs, t, k):
    # every document the CLI can be given ends in a documented exit code
    # with a one-line message, never in an uncaught exception
    graph, family, coloring = docs
    first, second = (family if command == "lab prune" else graph), coloring
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate((first, second)):
            paths.append(os.path.join(tmp, f"d{i}.json"))
            Path(paths[-1]).write_text("not json {" if doc is _NOT_JSON else json.dumps(doc))
        argv = {
            "arrow": ["arrow", paths[0], "-t", str(t), "-k", str(k), "--budget", "50"],
            "cliques": ["cliques", paths[0], "-t", str(t)],
            "gadget bel": ["gadget", "bel", paths[0], "--coloring", paths[1], "-t", str(t), "-k", str(k)],
            "lab prune": ["lab", "prune", paths[0], "-t", str(t)],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("module", ["ramsey3", "ramsey3.cli"])
def test_python_m_entry(tmp_path, module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, "arrow", "missing.json", "-t", "3", "-k", "2"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "io error" in proc.stderr
