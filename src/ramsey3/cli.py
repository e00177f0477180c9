"""Command line front end.

Exit codes: 0 success, 1 domain or usage error, 2 undecided within
budget (a search node budget ran out, or the interpreter ran out of
memory or recursion depth; the searches and the CNF solver are
iterative and clique enumeration recurses only t deep, so the latter
would be a fault), 3 input/output error.  Hypergraph-valued results are
always emitted as JSON documents; purely informational commands print a human
summary unless --json is given.  A JSON result of arrow, free-coloring,
lab report, lab fact-bound or lab paper-params lists its result record's
fields in field order.  Commands that consume randomness
require an explicit --seed.  Integer lists given as text (vertex lists,
--drop, --patterns) take plain decimal items only.

Layers load on first use: importing this module runs none of them, and
a command runs only the layers it touches.

Each command is one row of _COMMANDS: its words, help, handler and
arguments.  A process builds the parser from the rows on its command's
path alone; a usage error is worded again by the full parser.  A handler
returns its result and writes nothing; main writes it by the one output
rule and maps it to an exit code.  Document pieces (_document's, or
cnf's DIMACS blocks) are written as they are, an (informational result,
human summary) pair as its summary unless --json is given, and any other
result as json.dumps(result, default=_record).  A record whose verdict
is None (arrow's, free-coloring's) exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

# lazy: the package registers each layer unrun, and its body runs on first use
from . import codegree as cd, colorengine as ce, gadgets as gd, hypercore as hc, randomlab as rl

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


def _member(path: str, doc: dict, key: Optional[str]) -> dict:
    """doc's member key, taken out of doc, when it has one (as a codegree host document does), else doc itself."""
    return hc.json_value(doc.pop(key), dict, f"{path}: {key}") if key in doc else doc


def _load_doc(path: str, key: Optional[str] = None) -> dict:
    """The JSON object in path, or its member key when it has one."""
    return _member(path, hc.json_value(json.loads(_read_text(path)), dict, f"{path}: document"), key)


def _load_hypergraph(path: str) -> hc.Hypergraph:
    return hc.from_json_dict(_load_doc(path, "host"))[0]


def _load_gadget(path: str) -> gd.TaggedGadget:
    return gd.TaggedGadget.from_json_dict(_load_doc(path, "host"))


def _load_host_and_coloring(args: argparse.Namespace) -> tuple[hc.Hypergraph, ce.EdgeColoring]:
    """args.input's hypergraph and args.coloring's coloring; one path named by both, "-" too, is parsed once."""
    doc = _load_doc(args.input)
    h = hc.from_json_dict(_member(args.input, doc, "host"))[0]  # a host member is dropped once read
    if args.coloring != args.input:
        doc = _load_doc(args.coloring)
    return h, ce.EdgeColoring.from_json_dict(_member(args.coloring, doc, "coloring"))


def _write(args: argparse.Namespace, text: Union[str, Iterable[str]]) -> None:
    """Write text, or its pieces in order, and a newline to --output, or to stdout without one or with "-"."""
    out = getattr(args, "output", None)
    pieces = iter([text] if isinstance(text, str) else text)
    first = next(pieces, "")  # an error in making the text raises here, before the output is opened
    with open(out, "w") if out and out != "-" else contextlib.nullcontext(sys.stdout) as f:
        f.write(first)
        f.writelines(pieces)
        f.write("\n")


_ROWS = 1024  # edge rows, or DIMACS lines, per piece of a written document; making a piece is the write's one transient


def _document(h: hc.Hypergraph, tags: Optional[dict] = None,
              wrap: Callable[[dict], dict] = lambda doc: doc) -> Iterator[str]:
    """The text of json.dumps(wrap(hc.to_json_dict(h, tags))), in pieces.

    The document is made for h without edges, and its "edges": [] is
    filled with h's sorted edges, renumbered as to_json_dict renumbers
    them, _ROWS rows to a piece, each piece one json.dumps of the edge
    tuples: no list per edge and no whole-document string is built.
    """
    head, tail = json.dumps(wrap(hc.to_json_dict(h.spanning_subgraph(()), tags))).split('"edges": []', 1)
    yield head + '"edges": ['
    edges = sorted(h.edges)
    rename = None if h.is_dense() else {v: i for i, v in enumerate(sorted(h.vertices))}.__getitem__
    for i in range(0, len(edges), _ROWS):
        rows = edges[i:i + _ROWS]
        if rename:
            rows = [tuple(map(rename, e)) for e in rows]
        yield (", " if i else "") + json.dumps(rows)[1:-1]
    yield "]" + tail


def _gadget(g: gd.TaggedGadget) -> Iterator[str]:
    return _document(g.h, g.tags())


def _check_printable(bits: int, flags: str) -> None:
    """Raise, before a value holding 2^bits is built, when it would print past Python's int digit limit.

    The limit (4300 digits by default) guards against quadratic conversion, so it is kept, not raised.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before Python 3.10.7
    if limit and bits >= (10**limit).bit_length():  # 2^bits >= 10^limit: more than limit digits
        raise ValueError(f"{flags}: the exact value holds 2^{bits}, past Python's {limit}-digit int printing limit")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated ASCII decimal items; signs, spaces and "_" exit 1."""
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise _UsageError(f"bad {what} {hc.brief(text)}: items must be plain decimal integers")
    return tuple(map(int, parts))


def _parse_patterns(text: str) -> ce.PatternSet:
    groups = [_parse_ints(chunk, "pattern") for chunk in text.split(";")]
    k = len(groups[0])
    ell = sum(groups[0])
    return ce.PatternSet(ell, k, frozenset(groups))


def _record(x: object) -> object:
    """json.dumps's default: a result record's fields in field order, an EdgeColoring's document, a Fraction's text."""
    if isinstance(x, ce.EdgeColoring):
        return x.to_json_dict()
    if isinstance(x, Fraction):
        return str(x)
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}  # anything else: TypeError, as json's own


# ---------------------------------------------------------------- commands


def _cmd_arrow(args: argparse.Namespace) -> object:
    verdict = ce.arrows(_load_hypergraph(args.input), args.t, args.k, budget=args.budget)
    if verdict.arrows is None:
        return verdict, f"unknown after {verdict.nodes} nodes"
    return verdict, f"arrows: {'yes' if verdict.arrows else 'no'} (nodes={verdict.nodes})"


def _cmd_minimalize(args: argparse.Namespace) -> object:
    return _document(ce.minimalize(_load_hypergraph(args.input), args.t, args.k, budget=args.budget))


def _cmd_free_coloring(args: argparse.Namespace) -> object:
    return ce.find_free_coloring(_load_hypergraph(args.input), args.t, args.k, budget=args.budget)


def _cmd_cnf(args: argparse.Namespace) -> object:
    doc = ce.export_cnf(_load_hypergraph(args.input), args.t, args.k)
    if args.solve:
        model = ce.solve_cnf(doc)
        return {"satisfiable": model is not None, "coloring": None if model is None else doc.decode(model)}
    lines = doc.lines()
    blocks = iter(lambda: "\n".join(itertools.islice(lines, _ROWS)), "")  # no line is empty
    return (("\n" if i else "") + block for i, block in enumerate(blocks))


def _cmd_distance(args: argparse.Namespace) -> object:
    h = _load_hypergraph(args.input)
    dist = hc.path_distance(h, _parse_ints(args.e, "vertex list"), _parse_ints(args.f, "vertex list"))
    d = None if dist == float("inf") else int(dist)
    return {"distance": d}, f"distance: {'unreachable' if d is None else d}"


def _cmd_cliques(args: argparse.Namespace) -> object:
    qs = hc.enumerate_cliques(_load_hypergraph(args.input), args.t)
    return {"count": len(qs), "cliques": qs}, "\n".join([f"count: {len(qs)}"] + [" ".join(map(str, q)) for q in qs])


def _cmd_gadget_fell(args: argparse.Namespace) -> object:
    return _gadget(gd.build_F_ell(args.m, args.ell, r=args.r))


def _cmd_gadget_hstar(args: argparse.Namespace) -> object:
    ps = _parse_patterns(args.patterns)
    hstar, x, y = gd.build_Hstar(_load_hypergraph(args.input), ps, ps.k)
    return _gadget(gd.TaggedGadget(h=hstar, a=x, b=y))


def _cmd_gadget_sender(args: argparse.Namespace) -> object:
    hs = _load_gadget(args.input)
    if hs.a is None or hs.b is None:
        raise ValueError("input needs tags a and b marking the separated pair")
    return _gadget(gd.assemble_signal_sender(hs.h, hs.a, hs.b, args.m))


def _sender_from_flag(value: str) -> gd.TaggedGadget:
    if value == "mock":
        return gd.mock_sender()
    return _load_gadget(value)


def _cmd_gadget_rainbow(args: argparse.Namespace) -> object:
    return _gadget(gd.build_rainbow(args.k, _sender_from_flag(args.sender)))


def _cmd_gadget_equalizer(args: argparse.Namespace) -> object:
    return _gadget(gd.build_equalizer(gd.build_rainbow(args.k, _sender_from_flag(args.sender))))


def _cmd_gadget_amplify(args: argparse.Namespace) -> object:
    g = _load_gadget(args.input)
    if args.from_equalizer:
        g = gd.build_far_seed(g, g)
    return _gadget(gd.amplify_distance(g, args.s, verify=args.verify == "on"))


def _mock_far(k: int) -> gd.TaggedGadget:
    eq = gd.build_equalizer(gd.build_rainbow(k, gd.mock_sender()))
    return gd.amplify_distance(gd.build_far_seed(eq, eq), 7)


def _cmd_gadget_bel(args: argparse.Namespace) -> object:
    h, coloring = _load_host_and_coloring(args)
    far = _mock_far(args.k) if args.far is None else _load_gadget(args.far)
    rainbow = (
        gd.build_rainbow(args.k, gd.mock_sender())
        if args.rainbow is None
        else _load_gadget(args.rainbow)
    )
    return _gadget(gd.build_BEL(h, coloring, args.k, args.t, far, rainbow))


def _cmd_gadget_apex(args: argparse.Namespace) -> object:
    return _gadget(gd.attach_apex(_load_gadget(args.input), _parse_ints(args.base, "vertex list")))


def _cmd_codegree_host(args: argparse.Namespace) -> object:
    host = cd.build_partition_host(args.t)
    return _document(host.h, {"a": host.a, "b": host.b}, lambda doc: {
        "t": host.t,
        "host": doc,
        "coloring": host.coloring.to_json_dict(),
        "parts": [sorted(p) for p in host.parts],
    })


def _cmd_codegree_force_check(args: argparse.Namespace) -> object:
    host = cd.build_partition_host(args.t)
    bundle = list(cd.apex_bundle(host))
    if args.drop:
        for i in sorted(set(_parse_ints(args.drop, "drop list")), reverse=True):
            if not 0 <= i < len(bundle):
                raise ValueError(f"drop index {i} outside 0..{len(bundle) - 1}")
            del bundle[i]
    forced = cd.forced_pattern_check(host, bundle, budget=args.budget)
    doc = {"t": args.t, "apex_edges": len(bundle), "forced": forced}
    return doc, f"forced: {'yes' if forced else 'no'} ({len(bundle)} apex edges)"


def _cmd_codegree_extend(args: argparse.Namespace) -> object:
    h, coloring = _load_host_and_coloring(args)
    cert = cd.extend_coloring_lower_bound(h, args.u, args.v, coloring, args.t)
    return {"u": cert.u, "v": cert.v, "b_sets": [sorted(bs) for bs in cert.b_sets], "coloring": cert.extended}


def _cmd_codegree_expectation(args: argparse.Namespace) -> object:
    until = args.until if args.until is not None else args.t
    if until < args.t:
        raise ValueError("--until must not be below -t")
    _check_printable(cd.expectation_denominator_log2(until), f"{'-t' if args.until is None else '--until'} {until}")
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
    return {"expectations": rows}, "\n".join(lines)


def _cmd_lab_sample(args: argparse.Namespace) -> object:
    if args.k == 1:
        return _document(rl.sample_h3(args.n, args.p, args.seed))
    return {"members": [hc.to_json_dict(h) for h in rl.sample_family(args.n, args.p, args.k, args.seed)]}


def _load_family(path: str) -> tuple[hc.Hypergraph, ...]:
    """The members of a family document, or a lone hypergraph (a codegree host document's host) as one member."""
    doc = _load_doc(path, "host")
    if "members" not in doc:
        return (hc.from_json_dict(doc)[0],)
    family = []
    for i, member in enumerate(hc.json_value(doc["members"], list, f"{path}: members")):
        try:
            family.append(hc.from_json_dict(member)[0])
        except ValueError as err:
            raise ValueError(f"{path}: member {i}: {err}") from None
    return tuple(family)


def _cmd_lab_prune(args: argparse.Namespace) -> object:
    family = _load_family(args.input)
    pruned = rl.prune(family, args.t)
    return {
        "members": [hc.to_json_dict(h) for h in pruned],
        "removed": [f.num_edges - p.num_edges for f, p in zip(family, pruned)],
    }


def _cmd_lab_report(args: argparse.Namespace) -> object:
    rep = rl.expectation_report(args.n, args.p, args.t, args.k, args.trials, args.seed)
    lines = [
        f"{c.name}: observed {c.observed:.4f}, expected {c.expected:.4f}, "
        f"se {c.se:.4f}, {'ok' if c.ok else 'OFF'}"
        for c in rep.checks
    ]
    lines.append(f"overall: {'ok' if rep.ok else 'FAILED'} ({rep.trials} trials)")
    return rep, "\n".join(lines)


def _cmd_lab_fact_bound(args: argparse.Namespace) -> object:
    rep = rl.fact_count_bound(rl.random_complete_graph_coloring(args.n, args.k, args.seed), args.ell)
    return rep, (f"bound {rep.bound} with r={rep.r}; counts {list(rep.counts)}; "
                 f"best {rep.best}; {'ok' if rep.ok else 'VIOLATED'}")


def _cmd_lab_paper_params(args: argparse.Namespace) -> object:
    _check_printable(args.k * args.t**2, f"-k {args.k} -t {args.t}")
    params = rl.paper_scale_params(args.k, args.t)
    return params, "\n".join(
        [
            f"log2 n = {params.log2_n}",
            f"log2 C = {params.log2_C}",
            f"log2 p = {params.log2_p}",
            f"log2 f = {params.log2_f}",
            f"f = {params.f}",
            "n, p, C exceed machine range and stay symbolic",
        ]
    )


# ----------------------------------------------------------------- parser


def _arg(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict]:
    """One add_argument call: its flags and keyword arguments."""
    return flags, kwargs


def _int(flag: str, **kwargs: Any) -> tuple[tuple[str, ...], dict]:
    return _arg(flag, type=int, required=True, **kwargs)


_INPUT = _arg("input")
_OUTPUT = _arg("-o", "--output")
_JSON = _arg("--json", action="store_true")
_T = _int("-t", help="clique size")
_K = _int("-k", help="number of colors")
_BUDGET = _arg("--budget", type=int, default=None, help="search node budget")
_SEED = _int("--seed")
_M = _int("-m")
_R = _arg("-r", type=int, default=3, choices=(2, 3))
_SENDER = _arg("--sender", required=True, help="sender gadget file, or 'mock'")
_COLORING = _arg("--coloring", required=True)

_GROUPS = {"gadget": "gadget builders", "codegree": "partition host and extension checks",
           "lab": "randomized experiments"}

# one row per command, in listing order: its words, help, handler, and arguments in usage order
_COMMANDS = (
    ("arrow", "decide arrowing", _cmd_arrow, (_INPUT, _T, _K, _BUDGET, _JSON)),
    ("minimalize", "greedy edge-minimal arrowing subhypergraph", _cmd_minimalize,
     (_INPUT, _T, _K, _BUDGET, _OUTPUT)),
    ("free-coloring", "find a coloring without monochromatic cliques", _cmd_free_coloring,
     (_INPUT, _T, _K, _BUDGET, _OUTPUT)),
    ("cnf", "export the free-coloring question as DIMACS", _cmd_cnf,
     (_INPUT, _T, _K, _arg("--solve", action="store_true", help="solve with the built-in DPLL instead"), _OUTPUT)),
    ("distance", "interval distance between two edges", _cmd_distance,
     (_INPUT, _arg("-e", required=True, help="first edge, e.g. 0,1,2"), _arg("-f", required=True, help="second edge"),
      _JSON)),
    ("cliques", "enumerate complete t-sets", _cmd_cliques, (_INPUT, _int("-t"), _JSON)),
    ("gadget fell", "complete hypergraph minus one pair bundle, ell of its edges put back; --ell 0 is F'",
     _cmd_gadget_fell, (_M, _int("--ell"), _R, _OUTPUT)),
    ("gadget hstar", "separating auxiliary hypergraph", _cmd_gadget_hstar,
     (_INPUT, _arg("--patterns", required=True, help="pattern set, e.g. 1,1;2,0; its part count is k"), _OUTPUT)),
    ("gadget sender", "signal sender from an hstar document; ell is H*'s uniformity", _cmd_gadget_sender,
     (_INPUT, _M, _OUTPUT)),
    ("gadget rainbow", "star forced to use every color once", _cmd_gadget_rainbow, (_int("-k"), _SENDER, _OUTPUT)),
    ("gadget equalizer", "positive sender from two rainbow copies", _cmd_gadget_equalizer,
     (_int("-k"), _SENDER, _OUTPUT)),
    ("gadget amplify", "chain an equalizer to a target tag distance", _cmd_gadget_amplify,
     (_INPUT, _int("-s", help="target distance"),
      _arg("--from-equalizer", action="store_true",
           help="build the distance-5 seed from two copies of the input first"),
      _arg("--verify", choices=("on", "off"), default="off",
           help="on also checks every step's bound by the exact A* search on its table; off relies on the bound"),
      _OUTPUT)),
    ("gadget bel", "pin a host coloring with rainbow plus far equalizers", _cmd_gadget_bel,
     (_arg("input", help="host hypergraph"), _COLORING, _T, _K,
      _arg("--far", default=None, help="far equalizer gadget file (default: built from mocks)"),
      _arg("--rainbow", default=None, help="rainbow gadget file (default: built from mocks)"), _OUTPUT)),
    ("gadget apex", "join a new vertex to every pair of a base set", _cmd_gadget_apex,
     (_INPUT, _arg("--base", required=True, help="base vertices, e.g. 0,1,2"), _OUTPUT)),
    ("codegree host", "build the partition host and its coloring", _cmd_codegree_host, (_int("-t"), _OUTPUT)),
    ("codegree force-check", "is a monochromatic clique forced", _cmd_codegree_force_check,
     (_int("-t"), _arg("--drop", default=None, help="apex bundle indices to delete, e.g. 0,3"), _BUDGET, _JSON)),
    ("codegree extend", "extend a free coloring over one pair's edges", _cmd_codegree_extend,
     (_INPUT, _COLORING, _int("-u"), _int("-v"), _int("-t"), _OUTPUT)),
    ("codegree expectation", "expected monochromatic cliques, exact", _cmd_codegree_expectation,
     (_int("-t"), _arg("--until", type=int, default=None), _JSON)),
    ("lab sample", "sample a random 3-graph or family", _cmd_lab_sample,
     (_int("-n"), _arg("-p", type=float, required=True), _arg("-k", type=int, default=1), _SEED, _OUTPUT)),
    ("lab prune", "drop clique and shared edges from a family", _cmd_lab_prune,
     (_arg("input", help="family or hypergraph file; - reads stdin"), _int("-t"), _OUTPUT)),
    ("lab report", "Monte Carlo first-moment checks", _cmd_lab_report,
     (_int("-n"), _arg("-p", type=float, required=True), _int("-t"), _int("-k"), _int("--trials"), _SEED, _JSON)),
    ("lab fact-bound", "counting bound on a random pair coloring", _cmd_lab_fact_bound,
     (_int("-n"), _int("-k"), _int("--ell"), _SEED, _JSON)),
    ("lab paper-params", "construction exponents at true scale", _cmd_lab_paper_params,
     (_int("-k"), _int("-t"), _JSON)),
)


def _build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The ramsey3 parser, holding only the _COMMANDS rows that argv can run.

    argv's words before its first option, at most two (a group and its
    command), select the rows; with none, all are built.  A group's
    subparser is added with the first of its rows built.  A row is built
    the same either way, so it parses alike, but a usage error may list
    the commands, and only the full parser lists them all.
    """
    path = tuple(itertools.takewhile(lambda word: not word.startswith("-"), argv[:2]))
    # the docstring's last paragraph is about this code, not for --help; -OO strips the docstring
    root = _Parser(prog="ramsey3", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    subs = {(): root.add_subparsers(dest="command", required=True)}
    for name, text, func, specs in _COMMANDS:
        words = tuple(name.split())
        if path[: len(words)] != words[: len(path)]:
            continue
        group = words[:-1]
        if group not in subs:
            (word,) = group
            subs[group] = subs[()].add_parser(word, help=_GROUPS[word]).add_subparsers(dest=word, required=True)
        p = subs[group].add_parser(words[-1], help=text)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return root


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _build_parser(argv).parse_args(argv)
        except _UsageError:  # worded by the full parser, whose listings it may name
            args = _build_parser().parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        result = args.func(args)
        value, human = result if isinstance(result, tuple) else (result, None)
        if human is not None and not getattr(args, "json", False):
            _write(args, human)
        else:
            _write(args, value if isinstance(value, Iterator) else json.dumps(value, default=_record))
        # arrow's and free-coloring's records hold no verdict when it is None
        return 2 if any(getattr(value, field, False) is None for field in ("arrows", "found")) else 0
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
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
    except ce.BudgetExceeded as err:  # last, as naming it loads colorengine, which hypercore-only commands skip
        print(f"undecided: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
