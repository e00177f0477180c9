"""Hypergraph Ramsey toolkit: arrowing, gadget assembly, codegree forcing.

The package splits into five layers.  hypercore holds the immutable
hypergraph model, colorengine decides arrowing questions by complete
search, gadgets assembles senders and their derived machinery, codegree
carries the partition-host forcing and extension arguments, and
randomlab runs the seeded sampling experiments.  cli exposes all of it
as the ramsey3 command.

Layers load on first use, through this package alone: `import ramsey3`
runs no layer module, the first read of a public name below imports its
layer, and `from ramsey3 import gadgets` gives the layer unrun.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "colorengine": (
        "ArrowVerdict", "BudgetExceeded", "CnfDocument", "EdgeColoring", "PatternSet",
        "SearchResult", "VertexColoring", "admissible_patterns", "admissible_vertex_coloring",
        "arrows", "check_free", "export_cnf", "find_free_coloring", "is_minimal_ramsey",
        "minimalize", "solve_cnf",
    ),
    "hypercore": (
        "Edge", "GlueResult", "Hypergraph", "degree", "enumerate_cliques", "fano_plane",
        "from_json_dict", "glue", "induced", "is_linear", "link", "min_ell_degree",
        "min_positive_codegree", "path_distance", "to_json_dict",
    ),
}

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name: str) -> object:
    if name in _LAYER_OF:
        return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    if name not in ("codegree", "colorengine", "gadgets", "hypercore", "randomlab"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:  # a lazy module: its body runs on the first attribute read
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    globals()[name] = sys.modules[fullname]  # registered here too, as an import would do
    return sys.modules[fullname]
