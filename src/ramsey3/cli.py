"""Command line front end.

Exit codes: 0 success, 1 domain or usage error, 2 undecided within
budget (a search node budget ran out, or the interpreter ran out of
memory or recursion depth; the searches and the CNF solver are
iterative and clique enumeration recurses only t deep, so the latter
would be a fault), 3 input/output error.  Hypergraph-valued results are
always emitted as JSON documents; purely informational commands print a human
summary unless --json is given.  Commands that consume randomness
require an explicit --seed.  Integer lists given as text (vertex lists,
--drop, --patterns) take plain decimal items only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import codegree as cd
from . import gadgets as gd
from . import randomlab as rl
from .colorengine import (
    BudgetExceeded,
    EdgeColoring,
    PatternSet,
    arrows,
    export_cnf,
    find_free_coloring,
    minimalize,
    solve_cnf,
)
from .hypercore import Hypergraph, enumerate_cliques, from_json_dict, path_distance, to_json_dict

__all__ = ["main", "entrypoint"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_doc(path: str) -> dict:
    doc = json.loads(_read_text(path))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _load_hypergraph(path: str) -> Hypergraph:
    doc = _load_doc(path)
    if "host" in doc:
        doc = doc["host"]
    h, _tags = from_json_dict(doc)
    return h


def _load_gadget(path: str) -> gd.TaggedGadget:
    doc = _load_doc(path)
    if "host" in doc:
        doc = doc["host"]
    return gd.TaggedGadget.from_json_dict(doc)


def _load_coloring(path: str) -> EdgeColoring:
    doc = _load_doc(path)
    if "coloring" in doc:
        doc = doc["coloring"]
    return EdgeColoring.from_json_dict(doc)


def _write(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "output", None)
    if out and out != "-":
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _emit(args: argparse.Namespace, doc: dict, human: Optional[str] = None) -> None:
    if human is not None and not getattr(args, "json", False):
        _write(args, human)
    else:
        _write(args, json.dumps(doc))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated ASCII decimal items; signs, spaces and "_" exit 1."""
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise _UsageError(f"bad {what} {text!r}: items must be plain decimal integers")
    return tuple(map(int, parts))


def _parse_patterns(text: str) -> PatternSet:
    groups = [_parse_ints(chunk, "pattern") for chunk in text.split(";")]
    k = len(groups[0])
    ell = sum(groups[0])
    return PatternSet(ell, k, frozenset(groups))


def _coloring_doc(coloring: Optional[EdgeColoring]) -> Optional[dict]:
    return None if coloring is None else coloring.to_json_dict()


# ---------------------------------------------------------------- commands


def _cmd_arrow(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    verdict = arrows(h, args.t, args.k, budget=args.budget)
    doc = {
        "arrows": verdict.arrows,
        "status": verdict.status,
        "nodes": verdict.nodes,
        "propagations": verdict.propagations,
        "conflicts": verdict.conflicts,
        "learned": verdict.learned,
        "restarts": verdict.restarts,
        "witness": _coloring_doc(verdict.witness),
    }
    if verdict.arrows is None:
        _emit(args, doc, f"unknown after {verdict.nodes} nodes")
        return 2
    word = "yes" if verdict.arrows else "no"
    _emit(args, doc, f"arrows: {word} (nodes={verdict.nodes})")
    return 0


def _cmd_minimalize(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    result = minimalize(h, args.t, args.k, budget=args.budget)
    _write(args, json.dumps(to_json_dict(result)))
    return 0


def _cmd_free_coloring(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    res = find_free_coloring(h, args.t, args.k, budget=args.budget)
    doc = {
        "found": res.found,
        "nodes": res.nodes,
        "propagations": res.propagations,
        "conflicts": res.conflicts,
        "learned": res.learned,
        "restarts": res.restarts,
        "coloring": _coloring_doc(res.coloring),
    }
    _write(args, json.dumps(doc))
    return 2 if res.found is None else 0


def _cmd_cnf(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    doc = export_cnf(h, args.t, args.k)
    if args.solve:
        model = solve_cnf(doc)
        if model is None:
            _write(args, json.dumps({"satisfiable": False, "coloring": None}))
        else:
            coloring = doc.decode(model)
            _write(args, json.dumps({"satisfiable": True, "coloring": coloring.to_json_dict()}))
        return 0
    _write(args, doc.text.rstrip("\n"))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    dist = path_distance(h, _parse_ints(args.e, "vertex list"), _parse_ints(args.f, "vertex list"))
    unreachable = dist == float("inf")
    doc = {"distance": None if unreachable else int(dist)}
    _emit(args, doc, "distance: unreachable" if unreachable else f"distance: {int(dist)}")
    return 0


def _cmd_cliques(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    qs = enumerate_cliques(h, args.t)
    doc = {"count": len(qs), "cliques": [list(q) for q in qs]}
    human = "\n".join([f"count: {len(qs)}"] + [" ".join(map(str, q)) for q in qs])
    _emit(args, doc, human)
    return 0


def _cmd_gadget_fprime(args: argparse.Namespace) -> int:
    g = gd.build_F_prime(args.m, r=args.r)
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _cmd_gadget_fell(args: argparse.Namespace) -> int:
    g = gd.build_F_ell(args.m, args.ell, r=args.r)
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _cmd_gadget_hstar(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    ps = _parse_patterns(args.patterns)
    if args.k is not None and args.k != ps.k:
        raise ValueError(f"-k {args.k} conflicts with {ps.k}-part patterns")
    hstar, x, y = gd.build_Hstar(h, ps, ps.k)
    _write(args, json.dumps(to_json_dict(hstar, {"a": x, "b": y})))
    return 0


def _cmd_gadget_sender(args: argparse.Namespace) -> int:
    doc = _load_doc(args.input)
    h, tags = from_json_dict(doc)
    if "a" not in tags or "b" not in tags:
        raise ValueError("input needs tags a and b marking the separated pair")
    ell = args.ell if args.ell is not None else h.r
    g = gd.assemble_signal_sender(h, tags["a"], tags["b"], args.m, ell)
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _sender_from_flag(value: str) -> gd.TaggedGadget:
    if value == "mock":
        return gd.mock_sender()
    return _load_gadget(value)


def _cmd_gadget_rainbow(args: argparse.Namespace) -> int:
    g = gd.build_rainbow(args.k, _sender_from_flag(args.sender))
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _cmd_gadget_equalizer(args: argparse.Namespace) -> int:
    rb = gd.build_rainbow(args.k, _sender_from_flag(args.sender))
    g = gd.build_equalizer(rb)
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _verify_flag(value: str) -> Optional[bool]:
    return {"auto": None, "on": True, "off": False}[value]


def _cmd_gadget_amplify(args: argparse.Namespace) -> int:
    g = _load_gadget(args.input)
    if args.from_equalizer:
        g = gd.build_far_seed(g, g)
    g = gd.amplify_distance(g, args.s, verify=_verify_flag(args.verify))
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _mock_far(k: int, dist: int = 7) -> gd.TaggedGadget:
    eq = gd.build_equalizer(gd.build_rainbow(k, gd.mock_sender()))
    return gd.amplify_distance(gd.build_far_seed(eq, eq), dist)


def _cmd_gadget_bel(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    coloring = _load_coloring(args.coloring)
    far = _mock_far(args.k) if args.far is None else _load_gadget(args.far)
    rainbow = (
        gd.build_rainbow(args.k, gd.mock_sender())
        if args.rainbow is None
        else _load_gadget(args.rainbow)
    )
    g = gd.build_BEL(h, coloring, args.k, args.t, far, rainbow)
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _cmd_gadget_apex(args: argparse.Namespace) -> int:
    g = _load_gadget(args.input)
    g = gd.attach_apex(g, _parse_ints(args.base, "vertex list"))
    _write(args, json.dumps(g.to_json_dict()))
    return 0


def _cmd_codegree_host(args: argparse.Namespace) -> int:
    host = cd.build_partition_host(args.t)
    doc = {
        "t": host.t,
        "host": to_json_dict(host.h, {"a": host.a, "b": host.b}),
        "coloring": host.coloring.to_json_dict(),
        "parts": [sorted(p) for p in host.parts],
    }
    _write(args, json.dumps(doc))
    return 0


def _cmd_codegree_force_check(args: argparse.Namespace) -> int:
    host = cd.build_partition_host(args.t)
    bundle = list(cd.apex_bundle(host))
    if args.drop:
        for i in sorted(set(_parse_ints(args.drop, "drop list")), reverse=True):
            if not 0 <= i < len(bundle):
                raise ValueError(f"drop index {i} outside 0..{len(bundle) - 1}")
            del bundle[i]
    forced = cd.forced_pattern_check(host, bundle, budget=args.budget)
    doc = {"t": args.t, "apex_edges": len(bundle), "forced": forced}
    _emit(args, doc, f"forced: {'yes' if forced else 'no'} ({len(bundle)} apex edges)")
    return 0


def _cmd_codegree_extend(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.input)
    coloring = _load_coloring(args.coloring)
    cert = cd.extend_coloring_lower_bound(h, args.u, args.v, coloring, args.t)
    doc = {
        "u": cert.u,
        "v": cert.v,
        "b_sets": [sorted(bs) for bs in cert.b_sets],
        "coloring": cert.extended.to_json_dict(),
    }
    _write(args, json.dumps(doc))
    return 0


def _cmd_codegree_expectation(args: argparse.Namespace) -> int:
    until = args.until if args.until is not None else args.t
    if until < args.t:
        raise ValueError("--until must not be below -t")
    rows = []
    lines = []
    for t in range(args.t, until + 1):
        exp = cd.random_coloring_expectation(t)
        rows.append(
            {
                "t": t,
                "numerator": exp.value.numerator,
                "denominator": exp.value.denominator,
                "lt_one": exp.lt_one,
            }
        )
        marker = "< 1" if exp.lt_one else ">= 1"
        lines.append(f"t={t}: {exp.value} {marker}")
    _emit(args, {"expectations": rows}, "\n".join(lines))
    return 0


def _cmd_lab_sample(args: argparse.Namespace) -> int:
    if args.k == 1:
        h = rl.sample_h3(args.n, args.p, args.seed)
        _write(args, json.dumps(to_json_dict(h)))
    else:
        fam = rl.sample_family(args.n, args.p, args.k, args.seed)
        _write(args, json.dumps({"members": [to_json_dict(h) for h in fam]}))
    return 0


def _load_family(path: str) -> tuple[Hypergraph, ...]:
    doc = _load_doc(path)
    if "members" in doc:
        if not isinstance(doc["members"], list):
            raise ValueError(f"{path}: members must be a list of hypergraphs")
        return tuple(from_json_dict(m)[0] for m in doc["members"])
    return (from_json_dict(doc)[0],)


def _cmd_lab_prune(args: argparse.Namespace) -> int:
    if args.input is not None:
        family = _load_family(args.input)
    else:
        if args.n is None or args.p is None or args.seed is None:
            raise _UsageError("lab prune: need an input file or -n, -p and --seed")
        family = rl.sample_family(args.n, args.p, args.k, args.seed)
    pruned = rl.prune(family, args.t)
    doc = {
        "members": [to_json_dict(h) for h in pruned],
        "removed": [f.num_edges - p.num_edges for f, p in zip(family, pruned)],
    }
    _write(args, json.dumps(doc))
    return 0


def _cmd_lab_report(args: argparse.Namespace) -> int:
    rep = rl.expectation_report(args.n, args.p, args.t, args.k, args.trials, args.seed)
    doc = {
        "n": rep.n,
        "p": rep.p,
        "t": rep.t,
        "k": rep.k,
        "trials": rep.trials,
        "ok": rep.ok,
        "checks": [
            {
                "name": c.name,
                "observed": c.observed,
                "expected": c.expected,
                "se": c.se,
                "ok": c.ok,
            }
            for c in rep.checks
        ],
    }
    lines = [
        f"{c.name}: observed {c.observed:.4f}, expected {c.expected:.4f}, "
        f"se {c.se:.4f}, {'ok' if c.ok else 'OFF'}"
        for c in rep.checks
    ]
    lines.append(f"overall: {'ok' if rep.ok else 'FAILED'} ({rep.trials} trials)")
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_lab_fact_bound(args: argparse.Namespace) -> int:
    psi = rl.random_complete_graph_coloring(args.n, args.k, args.seed)
    rep = rl.fact_count_bound(psi, args.ell)
    doc = {
        "n": rep.n,
        "ell": rep.ell,
        "k": rep.k,
        "r": rep.r,
        "bound": str(rep.bound),
        "counts": list(rep.counts),
        "best": rep.best,
        "ok": rep.ok,
    }
    human = (
        f"bound {rep.bound} with r={rep.r}; counts {list(rep.counts)}; "
        f"best {rep.best}; {'ok' if rep.ok else 'VIOLATED'}"
    )
    _emit(args, doc, human)
    return 0


def _cmd_lab_paper_params(args: argparse.Namespace) -> int:
    params = rl.paper_scale_params(args.k, args.t)
    doc = {
        "k": params.k,
        "t": params.t,
        "log2_n": str(params.log2_n),
        "log2_C": str(params.log2_C),
        "log2_p": str(params.log2_p),
        "log2_f": str(params.log2_f),
        "f": str(params.f),
        "n": params.n,
        "p": params.p,
        "C": params.C,
    }
    human = "\n".join(
        [
            f"log2 n = {params.log2_n}",
            f"log2 C = {params.log2_C}",
            f"log2 p = {params.log2_p}",
            f"log2 f = {params.log2_f}",
            f"f = {params.f}",
            "n, p, C exceed machine range and stay symbolic",
        ]
    )
    _emit(args, doc, human)
    return 0


# ----------------------------------------------------------------- parser


def _add_tk(p: argparse.ArgumentParser, budget: bool = True) -> None:
    p.add_argument("-t", type=int, required=True, help="clique size")
    p.add_argument("-k", type=int, required=True, help="number of colors")
    if budget:
        p.add_argument("--budget", type=int, default=None, help="search node budget")


def _build_parser() -> _Parser:
    root = _Parser(prog="ramsey3", description=__doc__)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arrow", help="decide arrowing")
    p.add_argument("input")
    _add_tk(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_arrow)

    p = sub.add_parser("minimalize", help="greedy edge-minimal arrowing subhypergraph")
    p.add_argument("input")
    _add_tk(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_minimalize)

    p = sub.add_parser("free-coloring", help="find a coloring without monochromatic cliques")
    p.add_argument("input")
    _add_tk(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_free_coloring)

    p = sub.add_parser("cnf", help="export the free-coloring question as DIMACS")
    p.add_argument("input")
    _add_tk(p, budget=False)
    p.add_argument("--solve", action="store_true", help="solve with the built-in DPLL instead")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_cnf)

    p = sub.add_parser("distance", help="interval distance between two edges")
    p.add_argument("input")
    p.add_argument("-e", required=True, help="first edge, e.g. 0,1,2")
    p.add_argument("-f", required=True, help="second edge")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("cliques", help="enumerate complete t-sets")
    p.add_argument("input")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cliques)

    g = sub.add_parser("gadget", help="gadget builders").add_subparsers(
        dest="gadget", required=True
    )

    p = g.add_parser("fprime", help="complete hypergraph minus one pair bundle")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-r", type=int, default=3, choices=(2, 3))
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_fprime)

    p = g.add_parser("fell", help="fprime with ell special edges restored")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("-r", type=int, default=3, choices=(2, 3))
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_fell)

    p = g.add_parser("hstar", help="separating auxiliary hypergraph")
    p.add_argument("input")
    p.add_argument("--patterns", required=True, help="pattern set, e.g. 1,1;2,0")
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_hstar)

    p = g.add_parser("sender", help="signal sender from an hstar document")
    p.add_argument("input")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_sender)

    p = g.add_parser("rainbow", help="star forced to use every color once")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--sender", required=True, help="sender gadget file, or 'mock'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_rainbow)

    p = g.add_parser("equalizer", help="positive sender from two rainbow copies")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--sender", required=True, help="sender gadget file, or 'mock'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_equalizer)

    p = g.add_parser("amplify", help="chain an equalizer to a target tag distance")
    p.add_argument("input")
    p.add_argument("-s", type=int, required=True, help="target distance")
    p.add_argument("--from-equalizer", action="store_true", help="build the distance-5 seed from two copies of the input first")
    p.add_argument("--verify", choices=("auto", "on", "off"), default="auto")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_amplify)

    p = g.add_parser("bel", help="pin a host coloring with rainbow plus far equalizers")
    p.add_argument("input", help="host hypergraph")
    p.add_argument("--coloring", required=True)
    _add_tk(p, budget=False)
    p.add_argument("--far", default=None, help="far equalizer gadget file (default: built from mocks)")
    p.add_argument("--rainbow", default=None, help="rainbow gadget file (default: built from mocks)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_bel)

    p = g.add_parser("apex", help="join a new vertex to every pair of a base set")
    p.add_argument("input")
    p.add_argument("--base", required=True, help="base vertices, e.g. 0,1,2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gadget_apex)

    c = sub.add_parser("codegree", help="partition host and extension checks").add_subparsers(
        dest="codegree", required=True
    )

    p = c.add_parser("host", help="build the partition host and its coloring")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_codegree_host)

    p = c.add_parser("force-check", help="is a monochromatic clique forced")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--drop", default=None, help="apex bundle indices to delete, e.g. 0,3")
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_codegree_force_check)

    p = c.add_parser("extend", help="extend a free coloring over one pair's edges")
    p.add_argument("input")
    p.add_argument("--coloring", required=True)
    p.add_argument("-u", type=int, required=True)
    p.add_argument("-v", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_codegree_extend)

    p = c.add_parser("expectation", help="expected monochromatic cliques, exact")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--until", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_codegree_expectation)

    lab = sub.add_parser("lab", help="randomized experiments").add_subparsers(
        dest="lab", required=True
    )

    p = lab.add_parser("sample", help="sample a random 3-graph or family")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, required=True)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_lab_sample)

    p = lab.add_parser("prune", help="drop clique and shared edges from a family")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-p", type=float, default=None)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_lab_prune)

    p = lab.add_parser("report", help="Monte Carlo first-moment checks")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lab_report)

    p = lab.add_parser("fact-bound", help="counting bound on a random pair coloring")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lab_fact_bound)

    p = lab.add_parser("paper-params", help="construction exponents at true scale")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-t", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lab_paper_params)

    return root


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BudgetExceeded as err:
        print(f"undecided: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("undecided: recursion depth exhausted", file=sys.stderr)
        return 2
    except MemoryError:
        print("undecided: out of memory", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return 3
    except (ValueError, AssertionError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
