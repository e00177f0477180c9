"""End-to-end command checks through main(argv)."""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ramsey3.cli as cli
from ramsey3 import Hypergraph, check_free, from_json_dict, minimalize, to_json_dict
from ramsey3.cli import main
from ramsey3.codegree import build_partition_host, random_coloring_expectation
from ramsey3.colorengine import EdgeColoring, export_cnf
from ramsey3.gadgets import (TaggedGadget, amplify_distance, build_BEL, build_F_prime, build_far_seed, build_rainbow,
                             mock_sender)
from ramsey3.hypercore import codegree
from ramsey3.randomlab import paper_scale_params, sample_h3


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


def test_repeated_edge_exit_one(tmp_path, capsys):
    # the two listings of one edge used to be merged: count 1, exit 0
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"r": 3, "n": 3, "edges": [[0, 1, 2], [2, 1, 0]]}))
    code, out = run(capsys, "cliques", str(path), "-t", "3")
    assert code == 1 and out == "error: hypergraph document repeats an edge\n"


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

    monkeypatch.setattr("ramsey3.colorengine.solve_cnf", exhausted)
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


@pytest.mark.parametrize("h, t", [
    (Hypergraph.build(3, [], vertices=()), 4),  # the header line alone
    (Hypergraph.complete(4, 3), 4),  # one block of lines
    (sample_h3(23, 0.6, 20150205), 6),  # 4,217 lines: five blocks, the last one short
])
@pytest.mark.parametrize("to_file", [False, True])
def test_cnf_writes_the_document_text(tmp_path, capsys, h, t, to_file):
    path = write_graph(tmp_path, h)
    out_path = tmp_path / "out.cnf"
    code, out = run(capsys, "cnf", path, "-t", str(t), "-k", "2", *(["-o", str(out_path)] if to_file else []))
    assert code == 0
    assert (out_path.read_text() if to_file else out) == export_cnf(h, t, 2).text


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
    # F' is F_ell with no special edge put back
    code, out = run(capsys, "gadget", "fell", "-m", "6", "--ell", "0")
    assert code == 0 and out == json.dumps(build_F_prime(6).to_json_dict()) + "\n"
    doc = json.loads(out)
    assert len(doc["edges"]) == 16 and doc["tags"]["S"] == [4, 5]
    code, out = run(capsys, "gadget", "fell", "-m", "6", "--ell", "2")
    assert code == 0 and len(json.loads(out)["edges"]) == 18


def test_cnf_solve_unsatisfiable(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(6, 2), "K6.json")
    code, out = run(capsys, "cnf", path, "-t", "3", "-k", "2", "--solve")
    assert (code, out) == (0, '{"satisfiable": false, "coloring": null}\n')


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


def test_gadget_bel_reads_a_rainbow_file(tmp_path, capsys):
    # the mock rainbow written by gadget rainbow gives the same carrier as bel's built-in default
    host, rb = str(tmp_path / "host.json"), str(tmp_path / "rb.json")
    assert run(capsys, "codegree", "host", "-t", "4", "-o", host)[0] == 0
    assert run(capsys, "gadget", "rainbow", "-k", "2", "--sender", "mock", "-o", rb)[0] == 0
    bel = ["gadget", "bel", host, "--coloring", host, "-t", "4", "-k", "2", "-o"]
    assert run(capsys, *bel, str(tmp_path / "default.json"))[0] == 0
    assert run(capsys, *bel, str(tmp_path / "given.json"), "--rainbow", rb)[0] == 0
    assert (tmp_path / "given.json").read_bytes() == (tmp_path / "default.json").read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["codegree", "force-check", "-t", "4", "--drop", "99"], "drop index 99 outside"),
    (["codegree", "expectation", "-t", "6", "--until", "5"], "--until must not be below -t"),
    (["gadget", "sender", None, "-m", "5"], "input needs tags a and b"),
])
def test_unusable_arguments_exit_1(tmp_path, capsys, argv, message):
    c5 = write_graph(tmp_path, Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)]))
    code, out = run(capsys, *[c5 if word is None else word for word in argv])
    assert code == 1 and out.startswith("error: ") and message in out, out


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


def test_gadget_bel_rejects_a_color_on_a_non_edge(tmp_path, capsys):
    host_path = tmp_path / "host.json"
    run(capsys, "codegree", "host", "-t", "4", "-o", str(host_path))
    doc = json.loads(host_path.read_text())
    edges = {tuple(e) for e in doc["host"]["edges"]}
    outside = next(g for g in itertools.combinations(range(doc["host"]["n"]), 3) if g not in edges)
    doc["coloring"]["colors"].append([list(outside), 1])
    host_path.write_text(json.dumps(doc))
    code, out = run(capsys, "gadget", "bel", str(host_path), "--coloring", str(host_path), "-t", "4", "-k", "2")
    assert code == 1 and out.startswith("error:") and "outside the host" in out, out


def test_gadget_bel_rejects_a_forged_dist_tag(tmp_path, capsys):
    host_path = tmp_path / "host.json"
    run(capsys, "codegree", "host", "-t", "4", "-o", str(host_path))
    far = Hypergraph.build(3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)])
    far_path = write_graph(tmp_path, far, "far.json", tags={"e": (0, 1, 2), "f": (3, 4, 5), "dist": 7})
    code, out = run(capsys, "distance", far_path, "-e", "0,1,2", "-f", "3,4,5")
    assert code == 0 and "distance: 6" in out
    out_path = tmp_path / "bel.json"
    code, out = run(capsys, "gadget", "bel", str(host_path), "--coloring", str(host_path), "-t", "4", "-k", "2",
                    "--far", far_path, "-o", str(out_path))
    assert code == 1 and out == "error: far gadget tags must sit at distance at least 7\n", out
    assert not out_path.exists()


PARSE_CASES = [
    [], ["-h"], ["--he"], ["nosuch"], ["nosuch", "-h"], ["-t", "3", "arrow"], ["arrow"], ["arrow", "-h"],
    ["arrow", "x.json", "-t", "3"], ["arrow", "x.json", "-t", "a", "-k", "2"],
    ["arrow", "x.json", "-t", "3", "-k", "2", "--bogus"], ["gadget"], ["gadget", "-h"], ["gadget", "nosuch"],
    ["gadget", "-x", "bel"], ["gadget", "bel", "--help"], ["gadget", "amplify", "x", "-s", "3", "--verify", "maybe"],
    ["codegree", "host", "-t", "x"], ["lab", "--help"], ["lab", "prune", "-h"], ["free-coloring", "--h"],
]
# every command's words with --help, and alone
PARSE_CASES += [argv for name, *_ in cli._COMMANDS for argv in ([*name.split(), "--help"], name.split())
                if argv not in PARSE_CASES]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_parser_per_command_words_every_message_alike(monkeypatch, capsys, argv):
    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as stop:  # help
            code = ("exit", stop.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    narrow = outcome()
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv=(): full())
    assert outcome() == narrow


@pytest.mark.parametrize("argv, built", [
    ([], 27), (["-h"], 27), (["arrow", "k6.json", "-t", "3"], 2), (["gadget", "bel", "h.json"], 3),
    (["lab", "prune", "-t", "4"], 3), (["gadget", "-h"], 10), (["nosuch"], 1),
], ids=["argv0-28", "argv1-28", "argv2-2", "argv3-3", "argv4-3", "argv5-11", "argv6-1"])  # the ids of the 28-parser CLI
def test_parser_builds_only_the_command_run(monkeypatch, argv, built):
    # the full parser is the root and 26 subparsers; a group's help needs the group and all its commands
    made = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **kw: made.append(init(self, *a, **kw)))
    cli._build_parser(argv)
    assert len(made) == built


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


@pytest.mark.parametrize("t", ["1", "0", "-3"])
def test_codegree_extend_rejects_t_below_2(tmp_path, capsys, t):
    host_path = tmp_path / "host.json"
    run(capsys, "codegree", "host", "-t", "4", "-o", str(host_path))
    tags = json.loads(host_path.read_text())["host"]["tags"]
    code, out = run(capsys, "codegree", "extend", str(host_path), "--coloring", str(host_path),
                    "-u", str(tags["a"]), "-v", str(tags["b"]), "-t", t)
    assert code == 1 and f"t = {t} is below 2" in out, out


@pytest.mark.parametrize("command", ["gadget bel", "codegree extend"])
def test_input_and_coloring_from_one_stdin(tmp_path, capsys, monkeypatch, command):
    # "-" for both reads stdin once: the one document gives the hypergraph and the coloring
    host_path = tmp_path / "host.json"
    run(capsys, "codegree", "host", "-t", "4", "-o", str(host_path))
    doc = json.loads(host_path.read_text())
    host, tags = from_json_dict(doc["host"])
    a, b = tags["a"], tags["b"]
    if command == "codegree extend":
        doc["host"] = to_json_dict(host.plus_edges([(0, a, b), (2, a, b)]))
        host_path.write_text(json.dumps(doc))
    rest = {"gadget bel": ["-t", "4", "-k", "2"], "codegree extend": ["-u", str(a), "-v", str(b), "-t", "4"]}[command]
    outs = {}
    for form in ("file", "stdin"):
        src = str(host_path) if form == "file" else "-"
        monkeypatch.setattr(sys, "stdin", io.StringIO(host_path.read_text()))
        outs[form] = tmp_path / f"{form}.json"
        code, out = run(capsys, *command.split(), src, "--coloring", src, *rest, "-o", str(outs[form]))
        assert code == 0, out
    assert outs["stdin"].read_bytes() == outs["file"].read_bytes()


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


def test_lab_prune_needs_source(capsys):
    code, _ = run(capsys, "lab", "prune", "-t", "4")
    assert code == 1


@pytest.mark.parametrize("flag, value", [("-n", "12"), ("-p", "0.25"), ("-k", "2"), ("--seed", "9")])
def test_lab_prune_file_rejects_sampling_flags(tmp_path, capsys, flag, value):
    # these were ignored: the file was pruned and the command exited 0
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"members": [to_json_dict(sample_h3(12, 0.25, 7))]}))
    code, out = run(capsys, "lab", "prune", str(path), "-t", "4", flag, value)
    assert code == 1 and out.startswith("error:") and flag in out, out


def test_lab_report_and_fact_bound(capsys):
    code, out = run(capsys, "lab", "report", "-n", "10", "-p", "0.3", "-t", "4",
                    "-k", "2", "--trials", "40", "--seed", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True and len(doc["checks"]) == 3
    code, out = run(capsys, "lab", "fact-bound", "-n", "6", "-k", "2",
                    "--ell", "3", "--seed", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True


@pytest.mark.parametrize("n, k, ell", [(17, 3, 3), (18, 2, 4)])
def test_lab_fact_bound_at_the_ramsey_number(capsys, n, k, ell):
    code, out = run(capsys, "lab", "fact-bound", "-n", str(n), "-k", str(k), "--ell", str(ell), "--seed", "1", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["r"] == n and doc["ok"] is True


@pytest.mark.parametrize("n, k, ell", [(16, 3, 3), (17, 2, 4)])
def test_lab_fact_bound_below_the_ramsey_number(capsys, n, k, ell):
    code, out = run(capsys, "lab", "fact-bound", "-n", str(n), "-k", str(k), "--ell", str(ell), "--seed", "1", "--json")
    assert code == 1 and f"bound needs n >= {n + 1}" in out, out


def test_lab_paper_params(capsys):
    code, out = run(capsys, "lab", "paper-params", "-k", "2", "-t", "4",
                    "--json")
    doc = json.loads(out)
    assert code == 0 and doc["log2_n"] == "5120" and doc["log2_p"] == "-5070"


@pytest.mark.parametrize("argv, flag", [
    ("codegree expectation -t 45", None),
    ("codegree expectation -t 46", "-t 46"),
    ("codegree expectation -t 46 --json", "-t 46"),
    ("codegree expectation -t 4 --until 46", "--until 46"),
    ("lab paper-params -k 2 -t 84", None),
    ("lab paper-params -k 2 -t 85", "-k 2 -t 85"),
    ("lab paper-params -k 2 -t 85 --json", "-k 2 -t 85"),
    ("lab paper-params -k 3 -t 69", None),
    ("lab paper-params -k 3 -t 70", "-k 3 -t 70"),
])
def test_exact_values_past_the_int_digit_limit_exit_1(capsys, argv, flag):
    # these built the whole value, then failed in str() with a message that named no flag
    code, out = run(capsys, *argv.split())
    if flag is None:
        assert code == 0 and not out.startswith("error:"), out[:300]
    else:
        assert code == 1 and out.startswith(f"error: {flag}: ") and len(out) < 300, out[:300]


@pytest.mark.parametrize("limit", [640, 1000, 4300])
def test_int_digit_limit_check_is_exact(capsys, limit):
    # a command exits 1 exactly when printing its value would pass the limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for argv, value in [*((f"codegree expectation -t {t}", lambda t=t: random_coloring_expectation(t).value)
                              for t in range(4, 50)),
                            *((f"lab paper-params -k {k} -t {t}", lambda k=k, t=t: paper_scale_params(k, t).f)
                              for k in (2, 3) for t in range(4, 90))]:
            code, out = run(capsys, *argv.split())
            try:
                str(value())
            except ValueError:
                assert code == 1 and out.startswith("error:"), argv
            else:
                assert code == 0, (argv, out[:300])
    finally:
        sys.set_int_max_str_digits(old)


def test_huge_t_exits_1_before_building_the_value(tmp_path):
    # C(10^6, 3) bits for the denominator alone: the value is never built
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ramsey3", "codegree", "expectation", "-t", "1000000"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1 and proc.stderr.startswith("error: -t 1000000: ") and len(proc.stderr) < 300


@pytest.mark.parametrize("argv, exit_code, digest", [
    ("arrow K6 -t 3 -k 2 --json", 0, "36baf7726fcb"),
    ("arrow K5 -t 3 -k 2 --json", 0, "cbe23e9b306c"),
    ("arrow K6 -t 3 -k 2 --budget 0 --json", 2, "c8387bef8706"),
    ("free-coloring K5 -t 3 -k 2", 0, "fd4119db386d"),
    ("free-coloring K6 -t 3 -k 2", 0, "37c2ea1f259a"),
    ("lab report -n 10 -p 0.3 -t 4 -k 2 --trials 40 --seed 3 --json", 0, "3ff0e2af016c"),
    ("lab fact-bound -n 6 -k 2 --ell 3 --seed 3 --json", 0, "77b067729e4c"),
    ("lab paper-params -k 2 -t 4 --json", 0, "77afa70afc81"),
])
def test_result_documents_unchanged(tmp_path, capsys, argv, exit_code, digest):
    # result records serialize to the same keys and values; only key order may move
    graphs = {f"K{n}": write_graph(tmp_path, Hypergraph.complete(n, 2), name=f"K{n}.json") for n in (5, 6)}
    code = main([graphs.get(a, a) for a in argv.split()])
    doc = json.loads(capsys.readouterr().out)
    assert code == exit_code
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12] == digest


def _dumped(doc):
    return (json.dumps(doc) + "\n").encode()


@pytest.mark.parametrize("t", [4, 5, 6])
def test_written_documents_are_json_dumps_bytes(tmp_path, t):
    # documents go out in slices of edge rows, byte for byte what json.dumps writes
    paths = {name: str(tmp_path / f"{name}.json") for name in ("host", "eq", "far", "bel", "min")}
    assert main(["codegree", "host", "-t", str(t), "-o", paths["host"]]) == 0
    host = build_partition_host(t)
    assert Path(paths["host"]).read_bytes() == _dumped({
        "t": t,
        "host": to_json_dict(host.h, {"a": host.a, "b": host.b}),
        "coloring": host.coloring.to_json_dict(),
        "parts": [sorted(p) for p in host.parts],
    })
    assert main(["gadget", "equalizer", "-k", "2", "--sender", "mock", "-o", paths["eq"]]) == 0
    assert main(["gadget", "amplify", paths["eq"], "--from-equalizer", "-s", "7", "-o", paths["far"]]) == 0
    eq = TaggedGadget.from_json_dict(json.loads(Path(paths["eq"]).read_text()))
    far = amplify_distance(build_far_seed(eq, eq), 7)
    assert Path(paths["far"]).read_bytes() == _dumped(far.to_json_dict())
    assert main(["gadget", "bel", paths["host"], "--coloring", paths["host"], "-t", str(t), "-k", "2",
                 "--far", paths["far"], "-o", paths["bel"]]) == 0
    bel = build_BEL(host.h, host.coloring, 2, t, far, build_rainbow(2, mock_sender()))
    assert Path(paths["bel"]).read_bytes() == _dumped(bel.to_json_dict())
    k = Hypergraph.complete(t + 2, 2)
    assert main(["minimalize", write_graph(tmp_path, k), "-t", "3", "-k", "2", "-o", paths["min"]]) == 0
    assert Path(paths["min"]).read_bytes() == _dumped(to_json_dict(minimalize(k, 3, 2)))


_SPREAD = [tuple(7 * x + 300 for x in e) for e in itertools.combinations(range(26), 3)]  # 2,600 edges, three slices


# the first id still names labels, which a hypergraph no longer holds
@pytest.mark.parametrize("h, tags", [
    (Hypergraph.build(3, _SPREAD), {"e": _SPREAD[0], "f": _SPREAD[-1], "a": 307}),
    (Hypergraph.complete(27, 3), {"S": (0, 1)}),
    (Hypergraph(3, frozenset({0, 4, 9}), frozenset()), {"a": 9}),
    (Hypergraph(2, frozenset(), frozenset()), None),
], ids=["sparse ids, labels and tags", "three slices", "no edges", "empty"])
def test_document_writer_matches_json_dumps(tmp_path, capsys, h, tags):
    want = _dumped(to_json_dict(h, tags))
    out = tmp_path / "doc.json"
    cli._write(argparse.Namespace(output=str(out)), cli._document(h, tags))
    assert out.read_bytes() == want
    cli._write(argparse.Namespace(), cli._document(h, tags))
    assert capsys.readouterr().out.encode() == want


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


@pytest.mark.parametrize("command, option", [("hstar", "-k"), ("sender", "--ell")])
def test_options_the_input_fixes_are_usage_errors(tmp_path, capsys, command, option):
    # k is the part count of --patterns, and ell is the uniformity of H*
    c5 = write_graph(tmp_path, Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)]))
    hs = str(tmp_path / "hs.json")
    assert run(capsys, "gadget", "hstar", c5, "--patterns", "1,1", "-o", hs)[0] == 0
    argv = {"hstar": ["gadget", "hstar", c5, "--patterns", "1,1"], "sender": ["gadget", "sender", hs, "-m", "5"]}
    code, out = run(capsys, *argv[command], option, "2")
    assert code == 1 and out.startswith("error:") and option in out, out


@pytest.mark.parametrize("labels", [{" 1": "x"}, {"+2": "x"}, {"01": "x"}, {"0": None}, {"1": [1, 2]}, {"0": 5}])
def test_bad_labels_exit_1(tmp_path, capsys, labels):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"r": 3, "n": 3, "edges": [[0, 1, 2]], "labels": labels}))
    code, out = run(capsys, "cliques", str(path), "-t", "3")
    assert code == 1 and "label" in out and out.startswith("error:"), out


@pytest.mark.parametrize("tags, named", [
    ({"S": 5}, "tag S"), ({"rainbow": [3]}, "tag rainbow"), ({"rainbow": 5}, "tag rainbow"),
    ({"rainbow": [[0, 1, 5]]}, "tag rainbow"), ({"a": None}, "tag a"), ({"dist": 2.5}, "tag dist"),
    ({"zz": 1}, "tag 'zz'"),
], ids=["S", "rainbow vertex", "rainbow", "rainbow range", "a null", "dist float", "unknown"])
def test_bad_tags_exit_1_naming_the_tag(tmp_path, capsys, tags, named):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"r": 3, "n": 3, "edges": [[0, 1, 2]], "tags": tags}))
    code, out = run(capsys, "cliques", str(path), "-t", "3")
    assert code == 1 and out.startswith("error:") and named in out, out


TRIANGLE = {"r": 3, "n": 4, "edges": [[0, 1, 2]]}


@pytest.mark.parametrize("doc, coloring, named", [
    ({**TRIANGLE, "tags": {"S": "x" * 1_000_000}}, None, "tag S"),
    ({**TRIANGLE, "n": "1" * 1_000_000}, None, "n must be an integer"),
    ({**TRIANGLE, "edges": [[0] * 300_003]}, None, "malformed 3-edge"),
    ({**TRIANGLE, "labels": "x" * 300_000}, None, "labels are not read"),
    ({**TRIANGLE, "tags": {"rainbow": "x" * 300_000}}, None, "tag rainbow"),
    (to_json_dict(Hypergraph.complete(4, 3)), {"k": 2, "colors": [[[0, 1, 2], "x" * 500_000]]}, "of edge (0, 1, 2)"),
], ids=["S", "n", "edge", "labels", "rainbow", "color"])
def test_oversized_values_make_short_errors(tmp_path, capsys, doc, coloring, named):
    # the offending value is shown cut short, so the error line stays small
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    argv = ["cliques", str(path), "-t", "3"]
    if coloring is not None:
        col_path = tmp_path / "col.json"
        col_path.write_text(json.dumps(coloring))
        argv = ["codegree", "extend", str(path), "--coloring", str(col_path), "-u", "0", "-v", "1", "-t", "4"]
    code, out = run(capsys, *argv)
    assert code == 1 and out.startswith("error:") and named in out and len(out.encode()) < 300, out[:300]


def test_oversized_integer_list_makes_a_short_error(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.build(3, [(0, 1, 2), (1, 2, 3)]))
    code, out = run(capsys, "distance", path, "-e", "1," * 50_000 + "x", "-f", "1,2,3")
    assert code == 1 and out.startswith("error: bad vertex list") and len(out.encode()) < 300, out[:300]


@pytest.mark.parametrize("edge", [[0, 1, "2"], [0, None, 2], [0, 1, [2]], 5], ids=["string", "null", "list", "bare id"])
def test_edge_ids_that_do_not_sort_name_the_edge(tmp_path, capsys, edge):
    # these were "malformed hypergraph document: '<' not supported between instances of 'str' and 'int'"
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"r": 3, "n": 3, "edges": [[0, 1, 2], edge]}))
    code, out = run(capsys, "cliques", str(path), "-t", "3")
    assert code == 1 and out.startswith(f"error: malformed 3-edge: {edge!r}") and "Traceback" not in out, out


@pytest.mark.parametrize("colors, message", [
    ([[[0, 1, 2], 1, 5]], "coloring entry [[0, 1, 2], 1, 5] is not an [edge, color] pair"),
    ([[[0, 1, 2]]], "coloring entry [[0, 1, 2]] is not an [edge, color] pair"),
    ({"a": 1}, "colors must be a list"),
    ([[5, 1]], "coloring entry [5, 1] is not an [edge, color] pair"),
], ids=["three items", "one item", "object", "bare id"])
def test_coloring_entries_that_are_not_pairs_are_named(tmp_path, capsys, colors, message):
    # these were "too many values to unpack (expected 2)" or "not enough values to unpack"
    host = write_graph(tmp_path, Hypergraph.complete(4, 3))
    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps({"k": 2, "colors": colors}))
    code, out = run(capsys, "codegree", "extend", host, "--coloring", str(col_path), "-u", "0", "-v", "1", "-t", "4")
    assert code == 1 and out.startswith(f"error: {message}"), out


@pytest.mark.parametrize("command, doc, named", [
    ("cliques", {"r": 3, "n": 3, "edges": 5}, "edges must be a list, got 5"),
    ("cliques", {"host": 5}, "host must be a JSON object, got 5"),
    ("cliques", {"r": 3, "edges": []}, "n must be an integer"),
    ("cliques", {"r": 3, "n": 3, "edges": [[[0], [1], [2]]]}, "malformed 3-edge: [[0], [1], [2]]"),
    ("lab prune", {"members": [[1, 2]]}, "member 0: hypergraph document must be a JSON object, got [1, 2]"),
    ("lab prune", {"members": [TRIANGLE, 7]}, "member 1: hypergraph document must be a JSON object, got 7"),
    ("codegree extend", {"k": 2, "colors": 5}, "colors must be a list, got 5"),
    ("codegree extend", {"colors": []}, "k must be an integer"),
    ("gadget bel", {"k": 2, "colors": [[[0, 1, 2], 1], [[0, 1, 2.5], 2]]}, "coloring entry [[0, 1, 2.5], 2]"),
    ("lab prune", "host", None),
], ids=["edges", "host", "n", "edge", "member", "member index", "colors", "k", "entry", "host document"])
def test_malformed_members_are_named(tmp_path, capsys, monkeypatch, command, doc, named):
    # each of these once exited 1 with Python's own words, such as "'int' object is not iterable" or "'n'";
    # a codegree host document, once refused by lab prune, is read as a one-member family
    k4 = write_graph(tmp_path, Hypergraph.complete(4, 3), "k4.json")
    path = tmp_path / "d.json"
    if doc == "host":
        assert main(["codegree", "host", "-t", "4", "-o", str(path)]) == 0
    else:
        path.write_text(json.dumps(doc))
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    argv = {
        "cliques": ["cliques", str(path), "-t", "3"],
        "lab prune": ["lab", "prune", "-", "-t", "4"],
        "codegree extend": ["codegree", "extend", k4, "--coloring", str(path), "-u", "0", "-v", "1", "-t", "4"],
        "gadget bel": ["gadget", "bel", k4, "--coloring", str(path), "-t", "4", "-k", "2"],
    }[command]
    code, out = run(capsys, *argv)
    if named is None:
        assert code == 0 and len(json.loads(out)["members"]) == 1, out
    else:
        assert code == 1 and out.startswith("error:") and named in out and out.count("\n") == 1, out
        assert "Traceback" not in out


def test_verify_is_on_or_off(capsys):
    code, out = run(capsys, "gadget", "amplify", "eq.json", "-s", "8", "--verify", "auto")
    assert code == 1 and out.startswith("error:") and "invalid choice: 'auto'" in out, out


@pytest.mark.parametrize("shared", [True, False], ids=["one file", "two files"])
@pytest.mark.parametrize("member", ["host", "coloring"])
@pytest.mark.parametrize("command", ["gadget bel", "codegree extend"])
def test_host_and_coloring_members_name_the_file(tmp_path, capsys, monkeypatch, command, member, shared):
    # these once named neither, as "hypergraph document must be a JSON object, got 5"
    monkeypatch.chdir(tmp_path)
    write_graph(tmp_path, Hypergraph.complete(4, 3), "k4.json")
    doc = {"host": TRIANGLE, "coloring": {"k": 2, "colors": [[[0, 1, 2], 1]]}} if shared else {}
    Path("d.json").write_text(json.dumps({**doc, member: 5}))
    src, coloring = ("d.json", "d.json") if shared else {"host": ("d.json", "k4.json"),
                                                         "coloring": ("k4.json", "d.json")}[member]
    rest = {"gadget bel": ["-t", "4", "-k", "2"], "codegree extend": ["-u", "0", "-v", "1", "-t", "4"]}[command]
    code, out = run(capsys, *command.split(), src, "--coloring", coloring, *rest)
    assert code == 1 and out == f"error: d.json: {member} must be a JSON object, got 5\n", out


@pytest.mark.parametrize("member, kind", [("r", "an integer"), ("n", "an integer"), ("k", "an integer"),
                                          ("colors", "a list")])
def test_absent_member_is_named_as_absent(tmp_path, capsys, member, kind):
    # an absent member once read as null: "n must be an integer, got None"
    full = {"k": 2, "colors": []} if member in ("k", "colors") else {"r": 3, "n": 3, "edges": []}
    k4 = write_graph(tmp_path, Hypergraph.complete(4, 3), "k4.json")
    path = tmp_path / "d.json"
    argv = (["codegree", "extend", k4, "--coloring", str(path), "-u", "0", "-v", "1", "-t", "4"]
            if member in ("k", "colors") else ["cliques", str(path), "-t", "3"])
    for doc, named in [({key: v for key, v in full.items() if key != member},
                        f"but the document has no {member} member"), ({**full, member: None}, "got None")]:
        path.write_text(json.dumps(doc))
        code, out = run(capsys, *argv)
        assert code == 1 and out == f"error: {member} must be {kind}, {named}\n", out


# each result form: a gadget document, an informational pair without and with --json, a result record, DIMACS text;
# the second argv of each fails in its handler
@pytest.mark.parametrize("argv, fails", [
    ("gadget rainbow -k 2 --sender mock -o OUT", False),
    ("gadget sender K4 -m 5 -o OUT", True),
    ("cliques K4 -t 3", False),
    ("cliques K4 -t 2", True),
    ("cliques K4 -t 3 --json", False),
    ("cliques K4 -t 2 --json", True),
    ("free-coloring K5 -t 3 -k 2 -o OUT", False),
    ("free-coloring K5 -t 3 -k 0 -o OUT", True),
    ("cnf K5 -t 3 -k 2 -o OUT", False),
    ("cnf K5 -t 1 -k 2 -o OUT", True),
])
def test_each_run_writes_once(tmp_path, capsys, monkeypatch, argv, fails):
    graphs = {"K4": write_graph(tmp_path, Hypergraph.complete(4, 3), "K4.json"),
              "K5": write_graph(tmp_path, Hypergraph.complete(5, 2), "K5.json"), "OUT": str(tmp_path / "out")}
    writes = []
    write = cli._write
    monkeypatch.setattr(cli, "_write", lambda args, text: writes.append(text) or write(args, text))
    code, out = run(capsys, *[graphs.get(a, a) for a in argv.split()])
    if fails:
        assert code == 1 and out.startswith("error:") and out.count("\n") == 1, out
        assert writes == [] and not (tmp_path / "out").exists()
    else:
        assert code == 0 and len(writes) == 1, out
        assert (tmp_path / "out").exists() == ("-o" in argv)


def test_free_coloring_exits_2_without_a_verdict(tmp_path, capsys):
    path = write_graph(tmp_path, Hypergraph.complete(6, 2))
    code, out = run(capsys, "free-coloring", path, "-t", "3", "-k", "2", "--budget", "0")
    assert code == 2 and json.loads(out)["found"] is None, out


@pytest.fixture(scope="module")
def gadget_inputs(tmp_path_factory):
    """The t=4 host, a k=3 rainbow, an untagged K_4^(3), C_5 and an edgeless 2-graph, as files."""
    work = tmp_path_factory.mktemp("gadget_inputs")
    assert main(["codegree", "host", "-t", "4", "-o", str(work / "host4.json")]) == 0
    assert main(["gadget", "rainbow", "-k", "3", "--sender", "mock", "-o", str(work / "rb3.json")]) == 0
    write_graph(work, Hypergraph.complete(4, 3), "k4.json")
    write_graph(work, Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)]), "c5.json")
    write_graph(work, Hypergraph(2, frozenset(range(3)), frozenset()), "empty2.json")
    return work


@pytest.mark.parametrize("argv, message", [
    ("gadget fell -m 5 --ell 9", "ell must lie in 0..3"),
    ("gadget rainbow -k 1 --sender mock", "rainbow needs at least two colors"),
    ("gadget hstar c5.json --patterns 1,2", "patterns describe 3-edges, hypergraph is 2-uniform"),
    ("gadget hstar empty2.json --patterns 1,1", "input has no edges"),
    ("gadget amplify k4.json -s 8", "tagged edges e and f required"),
    ("gadget bel host4.json --coloring host4.json -t 4 -k 2 --rainbow rb3.json", "rainbow gadget carries 3 edges, need 2"),
    ("gadget bel host4.json --coloring host4.json -t 4 -k 2 --far k4.json", "far gadget must carry e and f tags"),
    ("lab sample -n -1 -p 0.5 --seed 1", "need a nonnegative vertex count"),
    ("lab sample -n 5 -p 1.5 --seed 1", "edge probability must lie in [0, 1]"),
    ("lab fact-bound -n 1 -k 2 --ell 3 --seed 1", "need at least two vertices"),
    ("lab fact-bound -n 6 -k 0 --ell 3 --seed 1", "need at least one color"),
    ("lab report -n 10 -p 0.3 -t 2 -k 2 --trials 40 --seed 1", "clique size must be at least 3"),
    ("codegree extend host4.json --coloring host4.json -u 0 -v 0 -t 4", "need two distinct vertices of the hypergraph"),
])
def test_argument_checks_exit_1_with_their_message(gadget_inputs, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(gadget_inputs)
    code, out = run(capsys, *argv.split())
    assert code == 1 and out == f"error: {message}\n", out


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
_vertex = st.one_of(st.integers(-1, 6), _scalars, st.lists(st.integers(0, 3), max_size=2))
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
_graph_fields = {"r": st.one_of(st.sampled_from([2, 3]), st.integers(-1, 5), _scalars),
                 "n": st.one_of(st.integers(-1, 7), _scalars),
                 "edges": st.one_of(_edges, _scalars, _json_values)}


def _dropping(docs, keys):
    """docs, and docs with one of keys left out."""
    return st.one_of(docs, st.tuples(docs, st.sampled_from(keys)).map(
        lambda dk: {k: v for k, v in dk[0].items() if k != dk[1]}))


_graphs = _dropping(st.fixed_dictionaries(_graph_fields, optional={"tags": st.one_of(_tags, _scalars),
                                                                   "labels": _json_values}), ["r", "n"])
_tagged = st.fixed_dictionaries({**_graph_fields, "tags": _tags}, optional={"labels": _json_values})
_colorings = _dropping(st.fixed_dictionaries(
    {"k": st.one_of(st.integers(-1, 3), _scalars),
     "colors": st.one_of(st.lists(st.tuples(st.lists(_vertex, max_size=4), st.one_of(st.integers(-1, 3), _scalars)),
                                  max_size=8), _scalars, _json_values)}), ["k", "colors"])
_families = st.fixed_dictionaries({"members": st.one_of(st.lists(st.one_of(_graphs, _json_values), max_size=3),
                                                        _json_values)})
_NOT_JSON = object()
_documents = st.one_of(
    _json_values, _graphs, _colorings, _families,
    st.fixed_dictionaries({"host": st.one_of(_graphs, _scalars)}),
    st.fixed_dictionaries({"coloring": st.one_of(_colorings, _scalars)}),
    st.just(_NOT_JSON))


@st.composite
def _well_formed(draw):
    """A hypergraph document that parses, a family of it, a coloring of its edges, and it with tags."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 7))
    edge = st.sets(st.integers(0, n - 1), min_size=r, max_size=r).map(sorted)
    edges = draw(st.lists(edge, unique_by=tuple, max_size=10))
    graph = {"r": r, "n": n, "edges": edges}
    coloring = {"k": draw(st.integers(1, 3)), "colors": [[e, draw(st.integers(0, 3))] for e in edges]}
    if edges and draw(st.integers(0, 3)) == 0:
        # one time in four, one entry's edge holds an id that is not an int, behind a valid hypergraph
        entry = draw(st.sampled_from(coloring["colors"]))
        bad = draw(st.one_of(st.floats(0, n - 1, allow_nan=False), st.text(max_size=2), st.none(), st.booleans(),
                             st.lists(st.integers(0, n - 1), max_size=2)))
        entry[0] = [*entry[0][:-1], bad]
    elif draw(st.booleans()):
        # or, half the time, a coloring document of any shape behind a valid hypergraph
        coloring = draw(_colorings)
    vertex, tag_edge = st.integers(0, n - 1), st.one_of(edge, *([st.sampled_from(edges)] if edges else []))
    tags = draw(st.fixed_dictionaries({}, optional={"e": tag_edge, "f": tag_edge, "a": vertex, "b": vertex,
                                                    "dist": st.integers(4, 7)}))
    tagged = {**graph, "tags": tags}
    if r == 3 and n >= 4 and draw(st.booleans()):
        # sender-shaped: e and f share a pair and are the only edges inside e + f
        c1, c2, x, y = draw(st.permutations(range(n)))[:4]
        e, f = sorted((c1, c2, x)), sorted((c1, c2, y))
        rest = [g for g in edges if not set(g) <= {c1, c2, x, y}]
        tagged = {**graph, "edges": rest + [e, f], "tags": {"e": e, "f": f, "a": x, "b": y}}
    return graph, {"members": [graph, graph]}, coloring, tagged


_BAD_ID_GRAPH = {"r": 3, "n": 4, "edges": [[0, 1, 2], [0, 1, 3]]}
_BAD_ID_DOCS = (_BAD_ID_GRAPH, {"members": [_BAD_ID_GRAPH] * 2}, {"k": 2, "colors": [[[0, 1, 2], 1], [[0, 1, 2.5], 2]]},
                {**_BAD_ID_GRAPH, "tags": {}})


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["arrow", "cliques", "gadget bel", "lab prune", "gadget amplify",
                             "gadget amplify --from-equalizer", "gadget sender", "gadget apex",
                             "gadget rainbow", "codegree extend", "distance", "minimalize",
                             "free-coloring", "cnf --solve"]),
    docs=st.one_of(_well_formed(), st.tuples(_documents, _documents, _documents,
                                              st.one_of(_tagged, _documents))),
    t=st.integers(1, 4),
    k=st.integers(0, 3),
)
# the two commands that read a coloring, each given one whose edge holds a float id
@example(command="gadget bel", docs=_BAD_ID_DOCS, t=3, k=2)
@example(command="codegree extend", docs=_BAD_ID_DOCS, t=4, k=2)
# members of the wrong kind, or missing, behind documents that are otherwise whole
@example(command="codegree extend", docs=(_BAD_ID_GRAPH, {}, {"k": 2, "colors": 5}, {}), t=4, k=2)
@example(command="gadget bel", docs=(_BAD_ID_GRAPH, {}, {"colors": [[[0, 1, [2]], 1]]}, {}), t=4, k=2)
@example(command="cliques", docs=({"host": 5}, {}, {}, {}), t=3, k=2)
@example(command="arrow", docs=({"r": 3, "n": 3, "edges": [[[0], [1], [2]]]}, {}, {}, {}), t=3, k=2)
@example(command="distance", docs=({"r": 3, "n": 4, "edges": 5}, {}, {}, {}), t=3, k=2)
@example(command="lab prune", docs=({}, {"members": [_BAD_ID_GRAPH, 7]}, {}, {}), t=4, k=2)
def test_fuzzed_documents_never_traceback(command, docs, t, k):
    # every document the CLI can be given ends in a documented exit code
    # with a one-line message, never in an uncaught exception
    graph, family, coloring, tagged = docs
    first = family if command == "lab prune" else graph
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate((first, coloring, tagged)):
            paths.append(os.path.join(tmp, f"d{i}.json"))
            Path(paths[-1]).write_text("not json {" if doc is _NOT_JSON else json.dumps(doc))
        argv = {
            "arrow": ["arrow", paths[0], "-t", str(t), "-k", str(k), "--budget", "50"],
            "cliques": ["cliques", paths[0], "-t", str(t)],
            "gadget bel": ["gadget", "bel", paths[0], "--coloring", paths[1], "-t", str(t), "-k", str(k)],
            "lab prune": ["lab", "prune", paths[0], "-t", str(t)],
            "gadget amplify": ["gadget", "amplify", paths[2], "-s", "6"],
            "gadget amplify --from-equalizer": ["gadget", "amplify", paths[2], "-s", "6", "--from-equalizer"],
            "gadget sender": ["gadget", "sender", paths[2], "-m", str(t + 3)],
            "gadget apex": ["gadget", "apex", paths[2], "--base", "0,1,2"],
            "gadget rainbow": ["gadget", "rainbow", "-k", str(k), "--sender", paths[2]],
            "codegree extend": ["codegree", "extend", paths[0], "--coloring", paths[1], "-u", "0", "-v", "1",
                                "-t", str(t)],
            "distance": ["distance", paths[0], "-e", "0,1,2", "-f", "1,2,3"],
            "minimalize": ["minimalize", paths[0], "-t", str(t), "-k", str(k), "--budget", "50"],
            "free-coloring": ["free-coloring", paths[0], "-t", str(t), "-k", str(k), "--budget", "50"],
            "cnf --solve": ["cnf", paths[0], "-t", str(t), "-k", str(k), "--solve"],
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
