"""assemble: the gadget pipeline, run as ramsey3 command-line processes.

Partition hosts, rainbow and equalizer gadgets, distance amplification
and BEL carriers, then clique, colouring, arrowing and CNF questions on
the sparse t=4 carrier.  The work is glue and codegree scans, clique
enumeration on large sparse hypergraphs, and JSON handling; the searches
themselves are trivial.  Processes start one at a time.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracle
from bench import SRC, Pass

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
TIMEOUT_S = 150
HOST_T = (4, 5, 6)
K = 2
PASS_S = 40.0  # nominal seconds of one pass


def _spawn(work: Path, argv: list[str], env_extra: dict) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), **env_extra)
    env["PERFBENCH_T_SPAWN"] = repr(time.perf_counter())
    return subprocess.run(
        [sys.executable, str(LAUNCHER), *argv],
        cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def setup(rng: random.Random, work: Path) -> tuple:
    """Start-up of one command-line process, then this pass's inputs."""
    proc = _spawn(work, ["--probe"], {})
    if proc.returncode != 0:
        raise RuntimeError(f"ramsey3.cli does not import: {proc.stderr.strip()[-300:]}")
    return work, make_inputs(work, rng)


def make_inputs(work: Path, rng: random.Random) -> dict:
    """A seeded relabelling of each partition host before it is pinned."""
    perms = {}
    for t in HOST_T:
        perm = list(range((t - 2) ** 2 + 2))
        rng.shuffle(perm)
        perms[t] = perm
    return {"perms": perms, "moved": rng.getrandbits(32)}


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _colouring(doc: dict) -> dict:
    return {tuple(e): c for e, c in doc["colors"]}


def _permute_host(src: Path, dst: Path, perm: list[int]) -> set:
    """Write the host document with vertex v renamed perm[v]; returns its edges."""
    doc = _load(src)
    relabel = lambda e: sorted(perm[v] for v in e)  # noqa: E731
    host = doc["host"]
    host["edges"] = sorted(relabel(e) for e in host["edges"])
    host["tags"] = {key: perm[v] for key, v in host["tags"].items()}
    doc["coloring"]["colors"] = sorted([relabel(e), c] for e, c in doc["coloring"]["colors"])
    doc["parts"] = [relabel(p) for p in doc["parts"]]
    dst.write_text(json.dumps(doc))
    return {tuple(e) for e in host["edges"]}


class _Cli:
    """Starts one command-line process per call and keeps the byte counts."""

    def __init__(self, p: Pass, work: Path) -> None:
        self.p, self.work = p, work
        p.extra["cli.bytes_in"] = p.extra["cli.bytes_out"] = 0

    def __call__(self, *argv: str, reads: tuple[str, ...] = ()) -> str:
        extra, span_file = {}, self.work / "spans.json"
        if self.p.tracer:
            extra["PERFBENCH_TRACE_OUT"] = str(span_file)
        proc = _spawn(self.work, list(argv), extra)
        if self.p.tracer and span_file.exists():
            self.p.tracer.adopt(span_file)
            span_file.unlink()
        out = argv[argv.index("-o") + 1] if "-o" in argv else None
        self.p.extra["cli.bytes_in"] += sum((self.work / f).stat().st_size for f in reads)
        self.p.extra["cli.bytes_out"] += len(proc.stdout.encode())
        if out and (self.work / out).exists():
            self.p.extra["cli.bytes_out"] += (self.work / out).stat().st_size
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout


def _rainbow_problem(doc: dict) -> str | None:
    tags = doc.get("tags", {})
    star, pair = [tuple(e) for e in tags.get("rainbow", [])], set(tags.get("S", []))
    es = {tuple(e) for e in doc["edges"]}
    if len(star) != K or len(pair) != 2 or not set(star) <= es:
        return "rainbow tags missing or not edges"
    if any(set(x) & set(y) != pair for i, x in enumerate(star) for y in star[i + 1:]):
        return "star edges do not meet exactly in the shared pair"
    span = {v for e in star for v in e}
    if len([e for e in es if set(e) <= span]) != K:
        return "extra edges inside the star"
    return None


def _sender_problem(doc: dict, min_dist: int) -> str | None:
    tags = doc.get("tags", {})
    e, f = tuple(tags.get("e", ())), tuple(tags.get("f", ()))
    es = {tuple(x) for x in doc["edges"]}
    if e not in es or f not in es:
        return "tags e and f are not edges"
    if min_dist == 0:  # an equalizer: e and f share exactly one pair
        if len(set(e) & set(f)) != 2 or len([x for x in es if set(x) <= set(e) | set(f)]) != 2:
            return "equalizer tags do not share exactly a pair"
        return None
    if tags.get("dist", 0) < min_dist or set(e) & set(f):
        return f"amplified tags at distance {tags.get('dist')} < {min_dist}, or touching"
    return None


def run_pass(p: Pass, work: Path, inp: dict) -> None:
    for stale in work.iterdir():  # a failed step must not find the last pass's file
        stale.unlink()
    cli = _Cli(p, work)
    hosts: dict[int, set] = {}
    for t in HOST_T:
        def host_ok(_, t=t) -> str | None:
            doc = _load(work / f"host{t}.json")
            host = doc["host"]
            return oracle.host_problem(t, doc["parts"], host["tags"]["a"], host["tags"]["b"],
                                       host["edges"], _colouring(doc["coloring"]))

        if p.op(f"host_t{t}", lambda t=t: cli("codegree", "host", "-t", str(t), "-o", f"host{t}.json"),
                host_ok) is not None:
            hosts[t] = _permute_host(work / f"host{t}.json", work / f"host{t}p.json", inp["perms"][t])

    p.op("rainbow", lambda: cli("gadget", "rainbow", "-k", str(K), "--sender", "mock", "-o", "rb.json"),
         lambda _: _rainbow_problem(_load(work / "rb.json")))
    p.op("equalizer", lambda: cli("gadget", "equalizer", "-k", str(K), "--sender", "mock", "-o", "eq.json"),
         lambda _: _sender_problem(_load(work / "eq.json"), 0))
    p.op("amplify_s7", lambda: cli("gadget", "amplify", "eq.json", "--from-equalizer", "-s", "7",
                                   "-o", "far7.json", reads=("eq.json",)),
         lambda _: _sender_problem(_load(work / "far7.json"), 7))
    # verification is forced only up to s=8: at s=9 path_distance exhausted memory
    p.op("amplify_s8", lambda: cli("gadget", "amplify", "eq.json", "--from-equalizer", "-s", "8",
                                   "--verify", "on", "-o", "far8.json", reads=("eq.json",)),
         lambda _: _sender_problem(_load(work / "far8.json"), 8))

    far8 = _load(work / "far8.json") if (work / "far8.json").exists() else {"edges": [], "tags": {}}
    e, f = far8["tags"].get("e", [0, 1, 2]), far8["tags"].get("f", [0, 1, 2])

    def distance_ok(out: str) -> str | None:
        d = json.loads(out)["distance"]
        if d is None or d < far8["tags"].get("dist", 0):
            return f"distance {d} below the verified tag {far8['tags'].get('dist')}"
        return oracle.distance_problem([tuple(x) for x in far8["edges"]], e, f, d)

    p.op("distance_s8", lambda: cli("distance", "far8.json", "-e", ",".join(map(str, e)),
                                    "-f", ",".join(map(str, f)), "--json", reads=("far8.json",)),
         distance_ok)

    def bel(t: int, far: str, out: str) -> None:
        host = f"host{t}p.json"
        return cli("gadget", "bel", host, "--coloring", host, "-t", str(t), "-k", str(K),
                   "--far", far, "--rainbow", "rb.json", "-o", out, reads=(host, host, far, "rb.json"))

    def bel_ok(t: int, far: str, out: str, moved: bool = False) -> str | None:
        n_h, doc = (t - 2) ** 2 + 2, _load(work / out)
        rb_n, far_n = _load(work / "rb.json")["n"], _load(work / far)["n"]
        problem = oracle.bel_problem(hosts[t], n_h, doc, rb_n, far_n)
        if problem is None and moved:
            bent = oracle.moved_edge(hosts[t], n_h, doc, random.Random(inp["moved"]))
            if oracle.bel_problem(hosts[t], n_h, bent, rb_n, far_n) is None:
                return "checker accepted a carrier with one edge moved"
        return problem

    for t in HOST_T:
        p.op(f"bel_t{t}", lambda t=t: bel(t, "far7.json", f"bel{t}.json"),
             lambda _, t=t: bel_ok(t, "far7.json", f"bel{t}.json", moved=t == HOST_T[0]))
    p.op("carrier", lambda: bel(4, "far8.json", "carrier.json"),
         lambda _: bel_ok(4, "far8.json", "carrier.json"))

    carrier = _load(work / "carrier.json") if (work / "carrier.json").exists() else {"edges": []}
    edges = [tuple(x) for x in carrier["edges"]]
    reads = ("carrier.json",)

    def cliques_ok(out: str) -> str | None:
        got, want = json.loads(out), oracle.cliques(3, edges, 4)
        if got["count"] != len(want) or [tuple(q) for q in got["cliques"]] != want:
            return f"{got['count']} K_4s reported, {len(want)} found"
        return None

    def witness_ok(doc: dict | None, key: str) -> str | None:
        if doc is None or not doc.get(key):
            return f"no free colouring reported ({key}={doc and doc.get(key)}), but one exists"
        return oracle.colouring_problem(3, edges, _colouring(doc["coloring"]), 4, K)

    p.op("cliques", lambda: cli("cliques", "carrier.json", "-t", "4", "--json", reads=reads), cliques_ok)
    p.op("free_coloring", lambda: cli("free-coloring", "carrier.json", "-t", "4", "-k", str(K),
                                      "-o", "free.json", reads=reads),
         lambda _: witness_ok(_load(work / "free.json"), "found"))

    def arrow_ok(out: str) -> str | None:
        doc = json.loads(out)
        if doc["arrows"] is not False or doc["witness"] is None:
            return f"arrows={doc['arrows']}, but a free colouring exists"
        return oracle.colouring_problem(3, edges, _colouring(doc["witness"]), 4, K)

    p.op("arrow", lambda: cli("arrow", "carrier.json", "-t", "4", "-k", str(K), "--json", reads=reads),
         arrow_ok)
    p.op("cnf_solve", lambda: cli("cnf", "carrier.json", "-t", "4", "-k", str(K), "--solve",
                                  "-o", "cnf.json", reads=reads),
         lambda _: witness_ok(_load(work / "cnf.json"), "satisfiable"))
