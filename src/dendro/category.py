"""Arrows between trees: faces, degeneracies, and their factorization.

A maximal subtree has degree one less than its ambient tree.  Each one
arises in exactly one of three ways: contracting an inner edge, pruning
an outer cluster (a vertex all of whose children are leaves, including
the empty stump case), or removing the root vertex towards the one
branch that carries the remaining structure.  The corresponding
inclusions are the face maps.  Degeneracy maps collapse a unary vertex
onto its child.  Every monotone map between trees factors as degeneracy
maps, then an isomorphism, then face maps.
"""

from __future__ import annotations

import itertools
from collections import Counter
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
    _int_argument,
    _held,
    _is_isomorphism,
    _kept,
    _maxima_map,
    _relation_pairs,
    _top_down,
    _tree_poset,
    _words_below,
    compose,
    is_monotone,
    pair_str,
)
from .errors import (
    BudgetExceeded,
    FactorizationError,
    GraftUndefined,
    InvalidArgument,
    NoRootFace,
    NotInnerEdge,
    NotMaximal,
    NotMonotone,
    NotOuterCluster,
    NotUnaryVertex,
)
from .structure import (
    CONTRACT,
    PRUNE,
    SUBTREE,
    _cut,
    _tree,
    inclusion,
    leaves,
    root,
)
from .terms import graft


class FaceType(str, Enum):
    INNER = "inner"
    OUTER = "outer"
    ROOT = "root"


class FaceKind(_Frozen):
    """Which face a maximal subtree is, with its identifying datum."""

    __slots__ = ("type", "edge", "cluster", "branch")

    def __init__(self, type: FaceType, edge: str | None = None, cluster: Pair | None = None, branch: str | None = None):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "branch", branch)

    def describe(self) -> str:
        if self.type is FaceType.INNER:
            return f"inner face at edge {self.edge}"
        if self.type is FaceType.OUTER:
            return f"outer face pruning {pair_str(self.cluster)}"
        return f"root face towards branch {self.branch}"

    def sort_key(self) -> tuple:
        ident = self.edge or self.branch or (self.cluster and self.cluster[1]) or ""
        return (ident, self.type.value)

    def to_json(self) -> dict:
        data: dict = {"type": self.type.value}
        if self.edge is not None:
            data["edge"] = self.edge
        if self.cluster is not None:
            data["cluster"] = {
                "children": list(self.cluster[0].letters),
                "vertex": self.cluster[1],
            }
        if self.branch is not None:
            data["branch"] = self.branch
        return data


class Face(_Frozen):
    __slots__ = ("kind", "domain", "map")

    def __init__(self, kind: FaceKind, domain: BroadPoset, map: MonotoneMap):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "map", map)


class MapKind(str, Enum):
    ISOMORPHISM = "isomorphism"
    INNER_FACE = "inner_face"
    OUTER_FACE = "outer_face"
    ROOT_FACE = "root_face"
    DEGENERACY = "degeneracy"
    OTHER = "other"


# ---------------------------------------------------------------------------
# Face constructors


def inner_face(poset: BroadPoset, edge: str) -> MonotoneMap:
    """Inclusion of the subtree obtained by contracting an inner edge."""
    vertices, top = _tree(poset)
    if not (isinstance(edge, str) and edge in vertices and edge != top):
        raise NotInnerEdge(f"{edge!r} is not an inner edge")
    return inclusion(_cut(poset, CONTRACT, edge), poset)


def outer_face(poset: BroadPoset, cluster: Pair) -> MonotoneMap:
    """Inclusion of the subtree obtained by pruning an outer cluster: the
    tree without the cluster's vertex and its children, so that the
    vertex's edge becomes a leaf."""
    if not (isinstance(cluster, tuple) and len(cluster) == 2 and isinstance(cluster[0], BroadWord)):
        raise InvalidArgument(f"cluster must be a (word, edge) pair, not {cluster!r}")
    vertices, _ = _tree(poset)
    kids, edge = cluster
    is_vertex = isinstance(edge, str) and kids.flavour is poset.flavour and vertices.get(edge) == kids.letters
    if not (is_vertex and vertices.keys().isdisjoint(kids.letters)):
        raise NotOuterCluster(f"{pair_str(cluster)} is not an outer cluster")
    return inclusion(_cut(poset, PRUNE, edge), poset)


def root_face(poset: BroadPoset, branch: str) -> MonotoneMap:
    """Inclusion of the branch left after removing the root vertex."""
    vertices, top = _tree(poset)
    kids = vertices.get(top, ())
    if not (isinstance(branch, str) and branch in kids and vertices.keys().isdisjoint(set(kids) - {branch})):
        raise NoRootFace(f"{branch!r} is not a child of the root whose other children are all leaves")
    return inclusion(_cut(poset, SUBTREE, branch), poset)


# how _cut cuts out a face of each type, at the face's identifying edge
_HOW = {FaceType.INNER: CONTRACT, FaceType.OUTER: PRUNE, FaceType.ROOT: SUBTREE}


@_kept
def _faces(poset: BroadPoset) -> tuple[tuple[FaceType, str], ...]:
    """Every face of a tree in order, as its type and identifying edge:
    an inner face's edge, an outer face's vertex and a root face's branch.
    Kept on the tree, as it holds no tree and no word."""
    vertices, top = _tree(poset)
    out = [(FaceType.INNER, edge) for edge in sorted(vertices.keys() - {top})]
    out += [(FaceType.OUTER, vertex) for vertex, kids in sorted(vertices.items()) if vertices.keys().isdisjoint(kids)]
    kids = vertices.get(top, ())
    out += [(FaceType.ROOT, branch) for branch in sorted(kids) if vertices.keys().isdisjoint(set(kids) - {branch})]
    return tuple(out)


def _face_kind(poset: BroadPoset, type: FaceType, edge: str) -> FaceKind:
    """The kind of the face of a tree with the given type and identifying
    edge; an outer face's cluster is its vertex's word and edge."""
    if type is FaceType.INNER:
        return FaceKind(type, edge=edge)
    if type is FaceType.ROOT:
        return FaceKind(type, branch=edge)
    return FaceKind(type, cluster=(_canonical_word(poset.flavour, _tree(poset)[0][edge]), edge))


def all_faces(poset: BroadPoset) -> list[Face]:
    """Every face of a tree, in a deterministic order."""
    return [Face(kind, domain, inclusion(domain, poset)) for kind, domain in _face_domains(poset)]


def _face_domains(poset: BroadPoset) -> list[tuple[FaceKind, BroadPoset]]:
    """Every face of a tree with its domain, each cut out of the tree."""
    return [(_face_kind(poset, t, edge), _cut(poset, _HOW[t], edge)) for t, edge in _faces(poset)]


# ---------------------------------------------------------------------------
# Subtree enumeration


MAX_SUBTREE_CARRIER = 16


def enumerate_subtrees(poset: BroadPoset, cap: int = MAX_SUBTREE_CARRIER) -> list[BroadPoset]:
    """All trees contained in the given one.

    A subtree is a dendroidally ordered broad poset whose carrier is a
    subset of the ambient carrier and whose relation pairs all hold in the
    ambient tree.  Each one is the tree built from a choice of root vertex
    word together with subtrees below its letters; note that a subtree may keep
    an edge while dropping the vertex above it, so subtrees are not always
    induced on their carrier.  The words below each edge are written from
    the tree's vertex map, so the tree's relation is not written.  The
    subtrees rooted at each edge, children first, are held as carrier and
    vertex map, and each subtree holds its map: its relation is part of
    the tree's, so it is within the budget and is written only when it is
    read.
    """
    _int_argument("cap", cap)
    vertices, top = _tree(poset)
    if len(poset.carrier) > cap:
        raise BudgetExceeded(f"carrier larger than {cap}")
    flavour = poset.flavour
    bottom_up = list(reversed(_top_down(vertices, top)))
    below = _words_below(vertices, [x for x in bottom_up if x in vertices])
    rooted: dict[str, list[tuple[frozenset[str], tuple[tuple[str, tuple[str, ...]], ...]]]] = {}
    for x in bottom_up:
        pieces = rooted[x] = [(frozenset([x]), ())]
        for letters in sorted([_canonical(flavour, w) for w in below.get(x, ())], key=lambda w: (len(w), w)):
            for combo in itertools.product(*(rooted[c] for c in letters)):
                carrier = frozenset([x]).union(*(c for c, _ in combo))
                pieces.append((carrier, sum((v for _, v in combo), ((x, letters),))))
    return _subtree_order([
        _held(flavour, carrier, None, known={_TREE: (dict(verts), x)})
        for x in sorted(poset.carrier)
        for carrier, verts in rooted[x]
    ])


def _subtree_order(subtrees: list[BroadPoset]) -> list[BroadPoset]:
    """Subtrees sorted by carrier size, then by sorted carrier; the
    relation breaks ties only among subtrees sharing a carrier."""
    shared = Counter(s.carrier for s in subtrees)
    return sorted(
        subtrees,
        key=lambda s: (
            len(s.carrier),
            sorted(s.carrier),
            sorted(map(pair_str, _relation_pairs(s))) if shared[s.carrier] > 1 else [],
        ),
    )


def maximal_subtrees(poset: BroadPoset) -> list[BroadPoset]:
    """The subtrees with one vertex fewer than the tree: each is the domain
    of exactly one face, so they are cut out as the faces are, and sorted
    as :func:`enumerate_subtrees` sorts."""
    return _subtree_order([_cut(poset, _HOW[t], edge) for t, edge in _faces(poset)])


def classify_maximal(poset: BroadPoset, sub: BroadPoset) -> FaceKind:
    """The face kind realising a maximal subtree, unique since distinct
    faces have distinct domains.  A tree is written from its vertex map, so
    faces are matched by map; a non-tree has no root and matches none.
    Equal maps and roots mean equal carriers, so only the faces that keep
    the subtree's carrier are cut.  What a face drops is read off the
    vertex map: an inner face its edge, an outer face the vertex's
    children, a root face the root and its other children."""
    faces = _faces(poset)
    if sub.flavour is poset.flavour and sub.carrier <= poset.carrier:
        vertices, top = _tree(poset)
        lost = len(poset.carrier) - len(sub.carrier)
        for kind_type, edge in faces:
            if kind_type is FaceType.INNER:
                dropped = (edge,)
            elif kind_type is FaceType.OUTER:
                dropped = vertices[edge]
            else:
                dropped = (top, *(c for c in vertices[top] if c != edge))
            same_carrier = len(dropped) == lost and sub.carrier.isdisjoint(dropped)
            if same_carrier and _maxima_map(_cut(poset, _HOW[kind_type], edge)) == _maxima_map(sub):
                return _face_kind(poset, kind_type, edge)
    raise NotMaximal("the subtree is not the domain of any face")


# ---------------------------------------------------------------------------
# Degeneracies


def degeneracy(poset: BroadPoset, vertex: tuple[str, str]) -> MonotoneMap:
    """Collapse the unary vertex ``(child, edge)`` onto its child.

    The codomain is the induced tree without the collapsed edge; the map
    is the identity elsewhere and surjective.
    """
    vertices, _ = _tree(poset)
    child, edge = vertex
    if (edge, child) not in _unary(vertices):
        raise NotUnaryVertex(f"({child}, {edge}) is not a unary vertex")
    return _collapse(poset, child, edge)


def _collapse(poset: BroadPoset, child: str, edge: str) -> MonotoneMap:
    assignment = {x: (child if x == edge else x) for x in poset.carrier}
    return MonotoneMap.from_dict(poset, _cut(poset, CONTRACT, edge), assignment)


def degeneracies(poset: BroadPoset) -> list[MonotoneMap]:
    """All degeneracy maps out of a tree, ordered by collapsed edge."""
    return [_collapse(poset, child, edge) for edge, child in _unary(_tree(poset)[0])]


def _unary(vertices: dict[str, tuple[str, ...]]) -> list[tuple[str, str]]:
    """The unary vertices of a tree's vertex map, each edge with its
    child, sorted."""
    return sorted([(edge, kids[0]) for edge, kids in vertices.items() if len(kids) == 1])


# ---------------------------------------------------------------------------
# Classification of arbitrary maps


def classify_map(mapping: MonotoneMap) -> MapKind:
    """Isomorphism, face, degeneracy, or other; faces and degeneracies by vertex map."""
    domain, codomain = mapping.domain, mapping.codomain
    if len(domain.carrier) == len(codomain.carrier) and _is_isomorphism(domain, codomain, mapping.mapping):
        return MapKind.ISOMORPHISM
    moved = [(k, v) for k, v in mapping.pairs if k != v]
    vertices, top = _maxima_map(domain)
    # a degeneracy moves one edge of a tree onto its only child
    if len(moved) == 1 and top is not None and moved[0] in _unary(vertices):
        if _maxima_map(codomain) == _maxima_map(_cut(domain, CONTRACT, moved[0][0])):
            return MapKind.DEGENERACY
    if not moved and domain.carrier <= codomain.carrier:
        try:
            return MapKind(f"{classify_maximal(codomain, domain).type.value}_face")
        except NotMaximal:
            pass
    return MapKind.OTHER


# ---------------------------------------------------------------------------
# Factorization of arrows


class Factorization(_Frozen):
    """Degeneracies, then an isomorphism, then faces; composite equals the
    original map.  Lists are ordered as applied."""

    __slots__ = ("degeneracies", "iso", "faces", "kinds")

    def __init__(
        self, degeneracies: tuple[MonotoneMap, ...], iso: MonotoneMap, faces: tuple[MonotoneMap, ...],
        kinds: tuple[FaceKind, ...],
    ):
        object.__setattr__(self, "degeneracies", degeneracies)
        object.__setattr__(self, "iso", iso)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "kinds", kinds)

    def composite(self) -> MonotoneMap:
        result, *rest = [*self.degeneracies, self.iso, *self.faces]
        for step in rest:
            result = compose(step, result)
        return result

    def to_json(self) -> dict:
        return {
            "degeneracies": [m.to_json() for m in self.degeneracies],
            "iso": self.iso.to_json(),
            "faces": [m.to_json() for m in self.faces],
            "kinds": [k.to_json() for k in self.kinds],
        }


def _face_chain(ambient: BroadPoset, target: BroadPoset) -> list[Face]:
    """The faces from the subtree ``target`` up to ``ambient``, in the order applied.

    Greedy: at each step take the face that still holds the target,
    preferring the least identifying edge, and cut out only that one.  A
    face holds the target when its carrier holds the target's and, if it
    prunes, it prunes a leaf of the target.  A contraction drops only the
    pairs that mention or target its edge, and a root face keeps every
    pair whose target is in its branch.  A prune drops the pairs whose
    word expands its edge, and a tree in which the edge is a leaf has
    none.  A prune at an edge outside the target may hold it too, but
    then so does the inner face at that edge, which comes first.  The
    faces that hold the target are read off the current vertex map, and
    only the one cut out is made a :class:`FaceKind`.
    """
    inside = target.carrier
    leaf = inside - _tree(target)[0].keys()
    steps: list[Face] = []
    current = ambient
    # a tree: factorize has checked the codomain
    while (tree := _tree(current)) != _tree(target):
        vertices, top = tree
        # each face as its identifying edge and its type, ordered as by FaceKind.sort_key
        holding = []
        for edge, kids in vertices.items():
            if edge != top and edge not in inside:
                holding.append((edge, FaceType.INNER))
            if edge in leaf and vertices.keys().isdisjoint(kids) and inside.isdisjoint(kids):
                holding.append((edge, FaceType.OUTER))
        if top in vertices and top not in inside:
            kids = vertices[top]
            for branch in kids:
                others = [x for x in kids if x != branch]
                if vertices.keys().isdisjoint(others) and inside.isdisjoint(others):
                    holding.append((branch, FaceType.ROOT))
        if not holding:
            raise FactorizationError(f"no face of {current!r} contains the image {target!r}")
        edge, kind_type = min(holding)
        domain = _cut(current, _HOW[kind_type], edge)
        steps.append(Face(_face_kind(current, kind_type, edge), domain, inclusion(domain, current)))
        current = domain
    return steps[::-1]


def factorize(mapping: MonotoneMap) -> Factorization:
    """Decompose a monotone map between trees.

    Unary vertices whose edge and child share an image are collapsed
    first, least edge first; what remains is injective and carries the
    domain's vertex map onto a subtree of the codomain, the isomorphism's
    image, whose inclusion is expanded into a chain of face maps.
    """
    vertices, _ = _tree(mapping.domain)
    _tree(mapping.codomain)
    if not is_monotone(mapping.mapping, mapping.domain, mapping.codomain):
        raise NotMonotone("the assignment is not monotone")

    degs: list[MonotoneMap] = []
    current = mapping.domain
    while collapsible := [(e, c) for e, c in _unary(vertices) if mapping(e) == mapping(c)]:
        edge, child = collapsible[0]
        sigma = degeneracy(current, (child, edge))
        degs.append(sigma)
        current = sigma.codomain
        vertices, _ = _tree(current)

    values = {x: mapping(x) for x in current.carrier}
    flavour = mapping.codomain.flavour
    image_vertices = {values[x]: _canonical(flavour, tuple([values[c] for c in kids])) for x, kids in vertices.items()}
    image = _tree_poset(flavour, frozenset(values.values()), image_vertices)
    iso = MonotoneMap.from_dict(current, image, values)
    chain = _face_chain(mapping.codomain, image)
    return Factorization(tuple(degs), iso, tuple(f.map for f in chain), tuple(f.kind for f in chain))


# ---------------------------------------------------------------------------
# Grafting a map under a tree


def graft_map(host: BroadPoset, alpha: MonotoneMap) -> MonotoneMap:
    """The map grafted under a fixed tree, acting as the identity there.

    The domain root must be a leaf of the host and map to the codomain
    root; when a degeneracy collapses that root, the codomain is grafted
    under the surviving child's name and the host edge follows it.  The
    carriers may only share the glued edge.  Grafting preserves the kind
    of inner faces, outer faces, degeneracies and isomorphisms.
    """
    glue = root(alpha.domain)
    target_root = root(alpha.codomain)
    if alpha(glue) != target_root:
        raise GraftUndefined("the map must send the domain root to the codomain root")
    if glue not in leaves(host):
        raise GraftUndefined(f"{glue!r} is not a leaf of the host")
    rest = host.carrier - {glue}
    if rest & alpha.domain.carrier or rest & alpha.codomain.carrier:
        raise GraftUndefined("carriers overlap beyond the glued edge")
    if target_root != glue and target_root in host.carrier:
        raise GraftUndefined("codomain root collides with a host edge")
    left = graft(host, glue, alpha.domain)
    right_host = host.rename({glue: target_root}) if target_root != glue else host
    right = graft(right_host, target_root, alpha.codomain)
    assignment = {x: (target_root if x == glue else x) for x in host.carrier}
    assignment.update({b: alpha(b) for b in alpha.domain.carrier})
    return MonotoneMap.from_dict(left, right, assignment)
