"""Layers load on first use: the package surface, and which layers each entry point runs.

The entry-point checks run in fresh interpreters, so that the layers this
test process has already imported cannot hide a load.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey3
from ramsey3.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
LAYERS = ("hypercore", "colorengine", "gadgets", "codegree", "randomlab")

# Imports `module`, runs the command line on argv when there is one, then
# prints the layers whose module body has run (a layer registered for a
# lazy load but never read keeps its lazy module type) and whether OpenSSL's
# hash module was loaded, and exits with the command line's exit code.
PROBE = """
import contextlib, io, json, sys, types
import {module}
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ramsey3.cli.main(sys.argv[1:])
print(json.dumps([[n for n in {layers!r} if type(sys.modules.get("ramsey3." + n)) is types.ModuleType],
                  "_hashlib" in sys.modules]))
sys.exit(code)
"""


def fresh(args, cwd, module="ramsey3.cli"):
    code = PROBE.format(module=module, layers=LAYERS)
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    k5 = ramsey3.to_json_dict(ramsey3.Hypergraph.complete(5, 3))
    (work / "k5.json").write_text(json.dumps(k5))
    assert main(["codegree", "host", "-t", "4", "-o", str(work / "host4.json")]) == 0
    (work / "repeated.json").write_text(json.dumps({"r": 3, "n": 3, "edges": [[0, 1, 2], [2, 1, 0]]}))
    c5 = ramsey3.to_json_dict(ramsey3.Hypergraph.build(2, [(i, (i + 1) % 5) for i in range(5)]))
    (work / "c5.json").write_text(json.dumps(c5))
    assert main(["gadget", "hstar", str(work / "c5.json"), "--patterns", "1,1", "-o", str(work / "hs.json")]) == 0
    assert main(["lab", "sample", "-n", "8", "-p", "0.5", "-k", "2", "--seed", "1", "-o", str(work / "fam.json")]) == 0
    return work


BASE = ["hypercore", "colorengine"]
CASES = [
    ("ramsey3", [], []),
    ("ramsey3.cli", [], []),
    ("ramsey3.cli", ["cliques", "k5.json", "-t", "4"], ["hypercore"]),
    ("ramsey3.cli", ["free-coloring", "k5.json", "-t", "4", "-k", "2"], BASE),
    ("ramsey3.cli", ["arrow", "k5.json", "-t", "4", "-k", "2"], BASE),
    ("ramsey3.cli", ["cnf", "k5.json", "-t", "4", "-k", "2", "--solve"], BASE),
    ("ramsey3.cli", ["gadget", "rainbow", "-k", "2", "--sender", "mock"], BASE + ["gadgets"]),
    ("ramsey3.cli", ["gadget", "bel", "host4.json", "--coloring", "host4.json", "-t", "4", "-k", "2"],
     BASE + ["gadgets"]),
    ("ramsey3.cli", ["gadget", "hstar", "c5.json", "--patterns", "1,1"], BASE + ["gadgets"]),
    ("ramsey3.cli", ["gadget", "sender", "hs.json", "-m", "5"], BASE + ["gadgets"]),
    ("ramsey3.cli", ["codegree", "host", "-t", "4"], BASE + ["codegree"]),
    ("ramsey3.cli", ["lab", "paper-params", "-k", "2", "-t", "4"], BASE + ["randomlab"]),
    # the lab commands below load randomlab, which derives substream seeds by blake2b
    ("ramsey3.cli", ["lab", "sample", "-n", "6", "-p", "0.5", "--seed", "1"], BASE + ["randomlab"]),
    ("ramsey3.cli", ["lab", "sample", "-n", "6", "-p", "0.5", "-k", "2", "--seed", "1"], BASE + ["randomlab"]),
    ("ramsey3.cli", ["lab", "prune", "fam.json", "-t", "4"], BASE + ["randomlab"]),
    ("ramsey3.cli", ["lab", "report", "-n", "8", "-p", "0.3", "-t", "4", "-k", "2", "--trials", "30",
                     "--seed", "1"], BASE + ["randomlab"]),
]


def case_ids(cases):
    """Each case's command and subcommand, or its whole argv when an earlier case has the same two."""
    ids = []
    for module, argv, _ in cases:
        name = " ".join(argv[:2]) or f"import {module}"
        ids.append(" ".join(argv) if name in ids else name)
    return ids


@pytest.mark.parametrize("module, argv, loaded", CASES, ids=case_ids(CASES))
def test_entry_point_runs_only_its_layers(inputs, module, argv, loaded):
    proc = fresh(argv, inputs, module)
    assert proc.returncode == 0, proc.stderr
    layers, openssl = json.loads(proc.stdout)
    assert sorted(layers) == sorted(loaded)
    # blake2b comes from CPython's own module; loading OpenSSL would cost 3.6 MiB of RSS
    assert not openssl


@pytest.mark.parametrize("argv", [["cliques", "repeated.json", "-t", "3"],
                                  ["distance", "k5.json", "-e", "0,1,2", "-f", "0,1,7"]],
                         ids=["cliques", "distance"])
def test_failing_hypercore_command_runs_only_hypercore(inputs, argv):
    # the exit-code clauses name colorengine's BudgetExceeded last, so an error exit never loads it
    proc = fresh(argv, inputs)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == [["hypercore"], False]


def test_public_names_are_their_layers_objects():
    assert len(ramsey3.__all__) == len(set(ramsey3.__all__)) == 31
    for name in ramsey3.__all__:
        layer = importlib.import_module(f"ramsey3.{ramsey3._LAYER_OF[name]}")
        assert getattr(ramsey3, name) is getattr(layer, name)


def test_star_import_and_unknown_name():
    ns: dict = {}
    exec("from ramsey3 import *", ns)
    assert set(ns) - {"__builtins__"} == set(ramsey3.__all__)
    with pytest.raises(AttributeError):
        ramsey3.no_such_name
    with pytest.raises(ImportError):
        exec("from ramsey3 import no_such_name", {})


@pytest.mark.parametrize(
    "argv, code, word",
    [
        (["no-such-command"], 1, "error"),
        (["codegree", "force-check", "-t", "5", "--budget", "10"], 2, "undecided"),
        (["arrow", "missing.json", "-t", "3", "-k", "2"], 3, "io error"),
    ],
    ids=["unknown command", "budget exceeded", "missing input"],
)
def test_fresh_process_exit_codes(tmp_path, argv, code, word):
    proc = subprocess.run([sys.executable, "-m", "ramsey3", *argv], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert word in proc.stderr and "Traceback" not in proc.stderr


# Prefixed to each script that run_fresh runs: ran() lists the layers whose body has run.
RAN = """
import sys, types
def ran():
    return [n for n in {layers!r} if type(sys.modules.get("ramsey3." + n)) is types.ModuleType]
""".format(layers=LAYERS)


def run_fresh(script):
    proc = subprocess.run([sys.executable, "-c", RAN + script], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_layer_read_from_the_package_is_lazy():
    run_fresh("""
from ramsey3 import gadgets
assert ran() == [], ran()
assert gadgets.mock_sender().h.num_edges == 2
assert sorted(ran()) == ["colorengine", "gadgets", "hypercore"], ran()
""")


def test_import_finds_the_layer_the_package_registered():
    # a later import, and a package read of a layer that sys.modules holds, return the same module
    run_fresh("""
import ramsey3.cli
import ramsey3.hypercore
assert ramsey3.hypercore is ramsey3.cli.hc
held = sys.modules["ramsey3.colorengine"]
del ramsey3.colorengine
from ramsey3 import colorengine
assert colorengine is held is ramsey3.cli.ce
""")


def test_patch_on_a_layer_reaches_every_alias():
    # read an attribute first, as monkeypatch does: it runs the body, which then never runs again
    run_fresh("""
import ramsey3.cli
from ramsey3 import hypercore
assert callable(hypercore.glue)
marker = object()
hypercore.glue = marker
import ramsey3.hypercore
assert ramsey3.cli.hc.glue is ramsey3.hypercore.glue is marker
""")
