"""Broad posets, dendroidally ordered sets, and operadic tree combinatorics.

The package namespace is lazy: each public name, a submodule or a name one
defines, is imported when it is first read, so ``import dendro`` loads no
submodule and a command line run loads only the modules its command uses.
"""

from sys import modules as _modules

# each submodule with the public names it defines
_EXPORTS = {
    "core": (
        "BroadPoset", "BroadWord", "FinitePoset", "Flavour", "MonotoneMap", "ValidationReport",
        "abelianize", "check_isomorphism", "compose", "corolla", "embed_poset", "enumerate_monotone",
        "find_isomorphism", "forget_symmetry", "generate_broad_poset", "identity", "internal_hom",
        "is_monotone", "product", "pushout", "star", "tensor", "underlying_poset", "validate", "word",
        "word_leq",
    ),
    "structure": (
        "DendroReport", "EdgeClassification", "EdgeKind", "classify_edge", "degree", "descendant_order",
        "inner_edges", "is_dendroidal", "join", "leaves", "links", "outer_clusters", "parent", "root",
        "root_corolla", "stumps", "subtree_at", "vertices",
    ),
    "terms": (
        "TreeTerm", "are_isomorphic", "canonical_code", "enumerate_trees", "full_graft", "graft",
        "parse_term", "print_term", "to_broad", "to_term", "tree_isomorphisms",
    ),
    "category": (
        "Face", "FaceKind", "FaceType", "Factorization", "MapKind", "all_faces", "classify_map",
        "classify_maximal", "degeneracies", "degeneracy", "enumerate_subtrees", "factorize", "graft_map",
        "inner_face", "maximal_subtrees", "outer_face", "root_face",
    ),
    "errors": (),
}  # fmt: skip
# each public name with the submodule that defines it, a submodule with itself
_HOMES = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines a public name on its first read."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = f"{__name__}.{_HOMES[name]}"
    __import__(home)  # as an import statement does, so ``-X importtime`` reports it
    module = _modules[home]
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)  # read once
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
