"""Tree structure carried by a broad poset.

An element b is a descendant of a when b occurs in some word below a.
Under this reading the root of a tree is the maximum of the descendant
order: every edge descends from the root, and leaves are minimal.

A broad poset is dendroidally ordered (a tree) when it is a valid finite
broad poset that is simple (no word relates a repeated letter), has a
root, and in which every non-leaf has children, meaning the words
strictly below it admit a maximum.  Such a maximum of length zero is a
stump, the shape of a constant.
"""

from __future__ import annotations

from enum import Enum

from .core import (
    BroadPoset,
    BroadWord,
    MonotoneMap,
    Pair,
    _TREE,
    _Frozen,
    _canonical,
    _canonical_word,
    _chunk_candidates,
    _descendant_pairs,
    _held,
    _kept,
    _maxima_map,
    _relation_pairs,
    _top_down,
    _word_leq,
    pair_str,
    validate,
)
from .errors import IdentifierError, NoParent, NotDendroidal


class EdgeKind(str, Enum):
    LEAF = "leaf"
    STUMP = "stump"
    HAS_CHILDREN = "has_children"


class EdgeClassification(_Frozen):
    """Leaf, stump, or a vertex together with its word of children."""

    __slots__ = ("kind", "children")

    def __init__(self, kind: EdgeKind, children: BroadWord | None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "children", children)

    @property
    def is_leaf(self) -> bool:
        return self.kind is EdgeKind.LEAF


class DendroReport(_Frozen):
    __slots__ = ("is_dendroidal", "simple", "has_root", "children_axiom", "root", "violations")

    def __init__(
        self, is_dendroidal: bool, simple: bool, has_root: bool, children_axiom: bool, root: str | None,
        violations: tuple[str, ...],
    ):
        object.__setattr__(self, "is_dendroidal", is_dendroidal)
        object.__setattr__(self, "simple", simple)
        object.__setattr__(self, "has_root", has_root)
        object.__setattr__(self, "children_axiom", children_axiom)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "violations", violations)

    def to_json(self) -> dict:
        return {
            "is_dendroidal": self.is_dendroidal,
            "simple": self.simple,
            "has_root": self.has_root,
            "children_axiom": self.children_axiom,
            "root": self.root,
            "violations": list(self.violations),
        }


def descendant_order(poset: BroadPoset) -> frozenset[tuple[str, str]]:
    """The descendant relation as reflexive pairs ``(below, above)``.

    On a transitively closed relation a single scan already yields a
    preorder, so no further closure is taken.
    """
    return _descendant_pairs(poset)


def descendant_leq(poset: BroadPoset, below: str, above: str) -> bool:
    for x in (below, above):
        if x not in poset.carrier:
            raise IdentifierError(f"{x!r} not in carrier")
    return below == above or (below, above) in _descendant_pairs(poset)


def classify_all(poset: BroadPoset) -> dict[str, EdgeClassification]:
    """Classification of every element in one pass."""
    maxima, _ = _maxima_map(poset)
    out: dict[str, EdgeClassification] = {}
    for element in poset.carrier:
        if element not in maxima:
            out[element] = EdgeClassification(EdgeKind.LEAF, None)
            continue
        top = maxima[element]
        if top is None:
            out[element] = EdgeClassification(EdgeKind.HAS_CHILDREN, None)  # no maximum
        else:
            kind = EdgeKind.HAS_CHILDREN if top else EdgeKind.STUMP
            out[element] = EdgeClassification(kind, _canonical_word(poset.flavour, top))
    return out


def classify_edge(poset: BroadPoset, element: str) -> EdgeClassification:
    """Classify one element; raises when a non-empty set of words below it
    has no maximum."""
    _require_edge(poset, element)
    result = classify_all(poset)[element]
    if result.kind is EdgeKind.HAS_CHILDREN and result.children is None:
        raise NotDendroidal(f"words below {element!r} have no maximum")
    return result


def leaves(poset: BroadPoset) -> frozenset[str]:
    """The elements with no word below them: the carrier less the targets,
    or, in a tree that holds its vertex map, less the map's edges."""
    vertices, top = poset._known.get(_TREE, ({}, None))
    return poset.carrier.difference(vertices if top is not None else [t for _, t in _relation_pairs(poset)])


def stumps(poset: BroadPoset) -> frozenset[str]:
    return frozenset(
        x
        for x, cls in classify_all(poset).items()
        if cls.kind is EdgeKind.STUMP
    )


def _descendant_maxima(poset: BroadPoset) -> list[str]:
    """The elements every element descends from, sorted."""
    descend = _descendant_pairs(poset)
    return sorted(x for x in poset.carrier if all((y, x) in descend for y in poset.carrier))


def root(poset: BroadPoset) -> str:
    """The maximum of the descendant order."""
    the_root = _maxima_map(poset)[1]
    tops = _descendant_maxima(poset) if the_root is None else [the_root]
    if len(tops) != 1:
        raise NotDendroidal(f"expected a unique root, found {tops}")
    return tops[0]


def _require_edge(poset: BroadPoset, element: str) -> None:
    if element not in poset.carrier:
        raise IdentifierError(f"{element!r} is not an edge of the tree")


def parent(poset: BroadPoset, element: str) -> str:
    """The unique edge having ``element`` among its children."""
    top = _tree(poset)[1]
    _require_edge(poset, element)
    if element == top:
        raise NoParent(f"{element!r} is the root")
    return _parents(poset)[element]


def join(poset: BroadPoset, left: str, right: str) -> str:
    """Least common ancestor: the first edge on the path up from ``right``
    that lies on the path up from ``left``."""
    _require_edge(poset, left)
    _require_edge(poset, right)
    top = _tree(poset)[1]
    up = _parents(poset)
    above_left = {left}
    while left != top:
        left = up[left]
        above_left.add(left)
    while right not in above_left:
        right = up[right]
    return right


def is_dendroidal(poset: BroadPoset) -> DendroReport:
    """Check the three tree axioms on top of broad poset validity.

    A tree passes them all, so nothing more is checked.
    """
    maxima, the_root = _maxima_map(poset)
    if the_root is not None:
        return DendroReport(True, True, True, True, the_root, ())
    violations: list[str] = []
    report = validate(poset)
    if not report.ok:
        violations.extend(report.violations)

    simple = True
    for pair in sorted(_relation_pairs(poset), key=lambda p: (p[1], p[0])):
        if len(set(pair[0])) != len(pair[0]):
            simple = False
            violations.append(f"repeated letter in {pair_str(pair)}")

    tops = _descendant_maxima(poset)
    has_root = len(tops) == 1
    the_root = tops[0] if has_root else None
    if not has_root:
        violations.append(f"no unique root: maximal elements {tops}")

    children_axiom = True
    for element, top in sorted(maxima.items()):
        if top is None:
            children_axiom = False
            violations.append(f"words below {element!r} have no maximum")

    ok = report.ok and simple and has_root and children_axiom
    return DendroReport(ok, simple, has_root, children_axiom, the_root, tuple(violations))


def _tree(poset: BroadPoset) -> tuple[dict[str, tuple[str, ...]], str]:
    """A tree's vertex map, each non-leaf edge with the canonical letters
    of its children, and its root; a broad poset that is not a tree raises
    :class:`NotDendroidal` with the violations :func:`is_dendroidal` finds."""
    vertices, top = _maxima_map(poset)
    if top is None:
        raise NotDendroidal("; ".join(is_dendroidal(poset).violations))
    return vertices, top


@_kept
def _parents(poset: BroadPoset) -> dict[str, str]:
    """Each edge of a tree but the root, with the edge whose vertex holds it."""
    return {c: x for x, kids in _tree(poset)[0].items() for c in kids}


def links(poset: BroadPoset) -> frozenset[Pair]:
    """Covering pairs: words strictly below a target with nothing between.

    In a tree every link is a vertex, one per non-leaf edge.  Below a
    target with no maximum, each word is searched against the others.
    """
    maxima, _ = _maxima_map(poset)
    flavour = poset.flavour
    out = [(top, target) for target, top in maxima.items() if top is not None]
    for target in [target for target, top in maxima.items() if top is None]:
        candidates = _chunk_candidates(poset)
        below = [c for c in candidates[target] if c != (target,)]
        out += [(w, target) for w in below if not any(v != w and _word_leq(candidates, flavour, w, v) for v in below)]
    return frozenset([(_canonical_word(flavour, w), target) for w, target in out])


def degree(poset: BroadPoset) -> int:
    """The number of links."""
    return len(links(poset))


def vertices(poset: BroadPoset) -> frozenset[Pair]:
    """Links of a dendroidally ordered set."""
    return frozenset([(_canonical_word(poset.flavour, kids), x) for x, kids in _tree(poset)[0].items()])


# the three ways _cut takes a smaller tree out of a tree
CONTRACT, PRUNE, SUBTREE = "contract", "prune", "subtree"


def _cut(poset: BroadPoset, how: str, edge: str) -> BroadPoset:
    """The tree cut out of a tree at ``edge``, by an edit of its vertex map.

    CONTRACT removes the edge and splices its children into its parent's
    word; at the root, which must then be unary, the child becomes the
    root.  PRUNE deletes the vertex of an edge all of whose children are
    leaves, and those children, so the edge becomes a leaf.  SUBTREE keeps
    the edge's descendants, rooted at it.  The map of a tree edited this
    way needs no check, and its pairs are written only when they are read.
    """
    vertices, top = _maxima_map(poset)
    carrier = poset.carrier
    if how == SUBTREE:
        order = _top_down(vertices, edge)
        vertices = {x: vertices[x] for x in order if x in vertices}
        carrier, top = frozenset(order), edge
    else:
        vertices = dict(vertices)
        kids = vertices.pop(edge)
        if how == PRUNE:
            carrier = carrier.difference(kids)
        else:
            carrier = carrier - {edge}
            if edge == top:
                (top,) = kids
            else:
                up = _parents(poset)[edge]
                spliced = [c for x in vertices[up] for c in (kids if x == edge else (x,))]
                vertices[up] = _canonical(poset.flavour, tuple(spliced))
    return _held(poset.flavour, carrier, None, known={_TREE: (vertices, top)})


def inner_edges(poset: BroadPoset) -> frozenset[str]:
    """Edges with a vertex at each end: neither the root nor a leaf."""
    the_root = root(poset)
    return frozenset(
        x
        for x, cls in classify_all(poset).items()
        if x != the_root and cls.kind is not EdgeKind.LEAF
    )


def outer_clusters(poset: BroadPoset) -> frozenset[Pair]:
    """Vertices all of whose children are leaves, including stumps."""
    maxima, _ = _maxima_map(poset)
    return frozenset([
        (_canonical_word(poset.flavour, kids), x)
        for x, kids in maxima.items()
        if kids is not None and maxima.keys().isdisjoint(kids)
    ])


def subtree_at(poset: BroadPoset, element: str) -> BroadPoset:
    """The induced broad poset on the descendants of ``element``."""
    _tree(poset)
    _require_edge(poset, element)
    return _cut(poset, SUBTREE, element)


def root_corolla(poset: BroadPoset) -> BroadPoset:
    """The root together with its children, as a corolla."""
    vertices, top = _tree(poset)
    if top not in vertices:
        return BroadPoset.build(poset.flavour, [top])
    children = vertices[top]
    return BroadPoset.build(poset.flavour, {top, *children}, [(children, top)])


def inclusion(sub: BroadPoset, ambient: BroadPoset) -> MonotoneMap:
    """The identity-assignment map of a sub broad poset into its ambient.

    When the flavours agree and the carriers nest, this is the map the
    constructor would build from the pairs sorted once, so it is built
    past the constructor's checks, which it passes: every face and every
    step of a factorization makes one.  Otherwise the constructor builds
    it, and raises as it does for any map.
    """
    keys = sorted(sub.carrier)
    pairs = tuple(zip(keys, keys))
    if sub.flavour is not ambient.flavour or not sub.carrier <= ambient.carrier:
        return MonotoneMap(sub, ambient, pairs)
    included = object.__new__(MonotoneMap)
    for name, value in (("domain", sub), ("codomain", ambient), ("pairs", pairs), ("_map", dict(pairs))):
        object.__setattr__(included, name, value)
    return included
