"""Hypergraph Ramsey toolkit: arrowing, gadget assembly, codegree forcing.

The package splits into five layers.  hypercore holds the immutable
hypergraph model, colorengine decides arrowing questions by complete
search, gadgets assembles senders and their derived machinery, codegree
carries the partition-host forcing and extension arguments, and
randomlab runs the seeded sampling experiments.  cli exposes all of it
as the ramsey3 command.

Layers load on first use: `import ramsey3` runs no layer module, and
the first read of a public name below imports that name's layer.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "colorengine": (
        "ArrowVerdict", "BudgetExceeded", "CnfDocument", "EdgeColoring", "PatternSet",
        "SearchResult", "VertexColoring", "admissible_patterns", "admissible_vertex_coloring",
        "arrows", "check_free", "export_cnf", "find_free_coloring", "is_minimal_ramsey",
        "minimalize", "solve_cnf",
    ),
    "hypercore": (
        "Edge", "GlueMap", "GlueResult", "Hypergraph", "degree", "disjoint_union",
        "enumerate_cliques", "fano_plane", "from_json_dict", "glue", "induced", "is_linear",
        "link", "min_ell_degree", "min_positive_codegree", "path_distance", "to_json_dict",
    ),
}

_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name: str) -> object:
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
