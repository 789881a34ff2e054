"""Seeded inputs and their ground truth, computed without the library.

A tree is a ``Node``: an edge name and either ``None`` (a leaf), an empty
tuple (a stump) or a tuple of child nodes.  Every fact the workloads check
is derived here from that shape alone: leaves, stumps, inner edges, the
degree ``|A| - |L|``, outer clusters, root faces, the face count, unary
vertices, the canonical code, the broad relation and the subtree count.
The relation follows the paper's description of a tree's broad order: the
words below an edge are the products over its children ``c`` of
``{c}`` together with the words below ``c``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

COMMUTATIVE = "commutative"
PLANAR = "planar"
FLAVOURS = (COMMUTATIVE, PLANAR)


class Node(NamedTuple):
    edge: str
    children: tuple | None


def rng_for(*parts) -> random.Random:
    """An RNG determined by its parts alone (string seeds hash with SHA-512)."""
    return random.Random(":".join(map(str, parts)))


def prefix_for(rng: random.Random, tag: str, index: int) -> str:
    """Fresh identifier prefix for one op, so no op reuses another's posets."""
    letters = "".join(rng.choice("abcdfghjkmnpqrstvwxyz") for _ in range(2))
    return f"{tag}{letters}{index}"


# ---------------------------------------------------------------------------
# Shapes: "L" is a leaf, a tuple of shapes a vertex (the empty tuple a stump)


def random_shape(rng: random.Random, edges: int):
    if edges == 1:
        return rng.choice(("L", ()))
    rest = edges - 1
    parts = rng.randint(1, min(rest, 4))
    cuts = sorted(rng.sample(range(1, rest), parts - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, rest])]
    return tuple(random_shape(rng, size) for size in sizes)


def chain_shape(edges: int):
    shape = "L"
    for _ in range(edges - 1):
        shape = (shape,)
    return shape


def binary_shape(depth: int):
    return "L" if depth == 0 else (binary_shape(depth - 1), binary_shape(depth - 1))


def corolla_shape(width: int):
    return tuple("L" for _ in range(width))


def near_miss(shape):
    """Same edge count, different shape: the last leaf becomes a stump."""
    if shape == "L":
        return ()
    if shape == ():
        return "L"
    children = list(shape)
    children[-1] = near_miss(children[-1])
    return tuple(children)


def shape_code(shape, flavour: str) -> str:
    """``code`` of a bare shape: ``*`` a leaf, ``()`` a stump."""
    if shape == "L":
        return "*"
    codes = [shape_code(c, flavour) for c in shape]
    if flavour == COMMUTATIVE:
        codes.sort()
    return "(" + "".join(codes) + ")"


def corpus_shapes(edges: int, flavour: str, _memo: dict = {}) -> tuple:  # noqa: B006 - a deliberate memo
    """Every tree shape with exactly ``edges`` edges, one per isomorphism
    class of the flavour (children unordered in the commutative flavour,
    ordered in the planar one), sorted by code: the acceptance suite's
    exhaustive corpus, enumerated here without the library."""
    key = (edges, flavour)
    if key not in _memo:
        if edges == 1:
            found = {"L": "L", "()": ()}
        else:
            found = {}
            for sizes in compositions(edges - 1):
                for children in itertools.product(*(corpus_shapes(k, flavour) for k in sizes)):
                    found.setdefault(shape_code(children, flavour), children)
        _memo[key] = tuple(found[c] for c in sorted(found))
    return _memo[key]


def compositions(total: int):
    """Ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


def has_leaf(shape) -> bool:
    return shape == "L" or any(has_leaf(c) for c in shape)


def shape_edges(shape) -> int:
    return 1 if shape == "L" else 1 + sum(shape_edges(c) for c in shape)


def shape_leaves(shape) -> list[int]:
    """Preorder numbers of the leaves, as ``name_shape`` numbers edges."""
    counter = itertools.count(1)
    out = []

    def visit(s) -> None:
        number = next(counter)
        if s == "L":
            out.append(number)
        else:
            for c in s:
                visit(c)

    visit(shape)
    return out


def shape_degree(shape) -> int:
    return shape_edges(shape) - len(shape_leaves(shape))


def shape_pairs(shape) -> int:
    """Size of the tree's broad relation: an edge has one word below it
    per choice, for each child, of the child alone or a word below it."""

    def words(s) -> tuple[int, int]:  # (words below the root edge, pairs in the subtree)
        if s == "L":
            return 0, 0
        below, pairs = 1, 0
        for c in s:
            w, p = words(c)
            below *= 1 + w
            pairs += p
        return below, pairs + below

    return words(shape)[1]


def name_shape(shape, prefix: str) -> Node:
    counter = itertools.count(1)

    def build(s) -> Node:
        edge = f"{prefix}e{next(counter)}"
        if s == "L":
            return Node(edge, None)
        return Node(edge, tuple(build(c) for c in s))

    return build(shape)


# ---------------------------------------------------------------------------
# Tree facts


def nodes(tree: Node):
    yield tree
    for child in tree.children or ():
        yield from nodes(child)


def term_text(tree: Node) -> str:
    if tree.children is None:
        return tree.edge
    return f"{tree.edge}({','.join(term_text(c) for c in tree.children)})"


def code(tree, flavour: str) -> str:
    """Rooted-shape code: ``*`` for a leaf, child codes in parentheses,
    sorted in the commutative flavour.  Accepts any object with ``edge``
    and ``children`` attributes, so it also reads the library's terms."""
    if tree.children is None:
        return "*"
    codes = [code(c, flavour) for c in tree.children]
    if flavour == COMMUTATIVE:
        codes.sort()
    return "(" + "".join(codes) + ")"


def words_below(tree: Node, flavour: str) -> dict[str, list[tuple[str, ...]]]:
    out: dict[str, list[tuple[str, ...]]] = {}

    def visit(node: Node) -> None:
        if node.children is None:
            out[node.edge] = []
            return
        options = []
        for child in node.children:
            visit(child)
            options.append([(child.edge,), *out[child.edge]])
        words = {tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*options)}
        if flavour == COMMUTATIVE:
            words = {tuple(sorted(w)) for w in words}
        out[node.edge] = sorted(words, key=lambda w: (len(w), w))

    visit(tree)
    return out


@dataclass(frozen=True)
class TreeFacts:
    flavour: str
    carrier: frozenset
    root: str
    leaves: frozenset
    stumps: frozenset
    inner: frozenset
    degree: int
    outer_clusters: int
    root_faces: int
    unary: int
    code: str
    relation: frozenset  # (letters, target) pairs, reflexive pairs omitted
    children: dict  # edge -> tuple of child edges, or None for a leaf

    @property
    def faces(self) -> int:
        return len(self.inner) + self.outer_clusters + self.root_faces

    def subtree_count(self) -> int:
        """Subtrees rooted anywhere: bare edge, or a word below the root
        edge with a subtree rooted at each of its letters."""
        below: dict[str, list] = {x: [] for x in self.carrier}
        for w, t in self.relation:
            below[t].append(w)
        memo: dict[str, int] = {}

        def rooted(x: str) -> int:
            if x not in memo:
                memo[x] = 1 + sum(math.prod(rooted(c) for c in w) for w in below[x])
            return memo[x]

        return sum(rooted(x) for x in self.carrier)


def facts(tree: Node, flavour: str) -> TreeFacts:
    children = {n.edge: (None if n.children is None else tuple(c.edge for c in n.children)) for n in nodes(tree)}
    leaves = frozenset(x for x, cs in children.items() if cs is None)
    stumps = frozenset(x for x, cs in children.items() if cs == ())
    inner = frozenset(x for x, cs in children.items() if cs is not None and x != tree.edge)
    outer = sum(1 for cs in children.values() if cs is not None and all(c in leaves for c in cs))
    root_children = children[tree.edge] or ()
    root_faces = sum(1 for b in root_children if all(c in leaves for c in root_children if c != b))
    unary = sum(1 for cs in children.values() if cs is not None and len(cs) == 1)
    relation = frozenset(
        (w, t) for t, ws in words_below(tree, flavour).items() for w in ws if w != (t,)
    )
    return TreeFacts(
        flavour=flavour,
        carrier=frozenset(children),
        root=tree.edge,
        leaves=leaves,
        stumps=stumps,
        inner=inner,
        degree=len(children) - len(leaves),
        outer_clusters=outer,
        root_faces=root_faces,
        unary=unary,
        code=code(tree, flavour),
        relation=relation,
        children=children,
    )


def graft_node(host: Node, leaf: str, scion: Node) -> Node:
    """The host with ``leaf`` replaced by the scion, whose root takes the leaf's name."""
    if host.edge == leaf:
        return Node(leaf, scion.children)
    if host.children is None:
        return host
    return Node(host.edge, tuple(graft_node(c, leaf, scion) for c in host.children))


def rename_node(tree: Node, prefix: str) -> Node:
    return Node(prefix + tree.edge, None if tree.children is None else tuple(rename_node(c, prefix) for c in tree.children))


# ---------------------------------------------------------------------------
# Monotone maps, counted by brute force over the shape's own relation


def monotone_maps(dom: TreeFacts | "Poset", cod: TreeFacts | "Poset") -> list[dict[str, str]]:
    """Every assignment that sends each relation pair of ``dom`` onto a
    pair of ``cod`` or onto a reflexive pair, by backtracking."""
    elements = sorted(dom.carrier)
    values = sorted(cod.carrier)
    index = {x: i for i, x in enumerate(elements)}
    due: list[list] = [[] for _ in elements]
    for w, t in dom.relation:
        due[max(index[x] for x in (*w, t))].append((w, t))
    related = set(cod.relation)
    sort = dom.flavour == COMMUTATIVE
    out: list[dict[str, str]] = []
    assignment: dict[str, str] = {}

    def holds(w, t) -> bool:
        image = tuple(assignment[x] for x in w)
        if sort:
            image = tuple(sorted(image))
        target = assignment[t]
        return image == (target,) or (image, target) in related

    def extend(k: int) -> None:
        if k == len(elements):
            out.append(dict(assignment))
            return
        for v in values:
            assignment[elements[k]] = v
            if all(holds(w, t) for w, t in due[k]):
                extend(k + 1)
        assignment.pop(elements[k], None)

    extend(0)
    return out


def chain_hom_count(m: int, n: int) -> int:
    """Monotone maps from an (m+1)-element chain to an (n+1)-element chain."""
    return math.comb(m + n + 1, m + 1)


# ---------------------------------------------------------------------------
# Ordinary posets viewed as broad posets with unary pairs


@dataclass(frozen=True)
class Poset:
    flavour: str
    carrier: frozenset
    relation: frozenset  # ((a,), b) pairs with a < b


def chain_poset(length: int, prefix: str, flavour: str) -> Poset:
    names = [f"{prefix}c{i}" for i in range(length)]
    pairs = {((names[i],), names[j]) for i in range(length) for j in range(i + 1, length)}
    return Poset(flavour, frozenset(names), frozenset(pairs))


def grid_poset(rows: int, cols: int, prefix: str, flavour: str) -> Poset:
    names = {(i, j): f"{prefix}g{i}_{j}" for i in range(rows) for j in range(cols)}
    pairs = {
        ((names[a],), names[b])
        for a in names
        for b in names
        if a != b and a[0] <= b[0] and a[1] <= b[1]
    }
    return Poset(flavour, frozenset(names.values()), frozenset(pairs))


def order_product(left: Poset, right: Poset, pair_id) -> Poset:
    """The product order on pairs, named by the library's ``pair_id``."""
    def leq(poset: Poset, a: str, b: str) -> bool:
        return a == b or ((a,), b) in poset.relation

    carrier = frozenset(pair_id(a, b) for a in left.carrier for b in right.carrier)
    pairs = {
        ((pair_id(a1, b1),), pair_id(a2, b2))
        for a1 in left.carrier
        for b1 in right.carrier
        for a2 in left.carrier
        for b2 in right.carrier
        if (a1, b1) != (a2, b2) and leq(left, a1, a2) and leq(right, b1, b2)
    }
    return Poset(left.flavour, carrier, frozenset(pairs))


def relation_of(poset) -> set:
    """A library broad poset's relation as plain ``(letters, target)`` pairs."""
    return {(w.letters, t) for w, t in poset.relation}


def renamed_relation(relation, mapping: dict[str, str], flavour: str) -> set:
    out = set()
    for w, t in relation:
        image = tuple(mapping[x] for x in w)
        if flavour == COMMUTATIVE:
            image = tuple(sorted(image))
        out.add((image, mapping[t]))
    return out
