"""The tree term language and its codecs.

Terms follow the grammar

    tree   := IDENT vertex? ;
    vertex := "(" [tree {"," tree}] ")" ;
    IDENT  := letter {letter | digit | "_"} .

An identifier with no parentheses is a leaf edge, ``x()`` is an edge
closed off by a stump, and ``x(t1,...,tn)`` is an edge whose vertex has
the given subterms above it.  Whitespace is insignificant.  Child order
matters in the planar flavour only.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from .core import (
    BroadPoset,
    BroadWord,
    Flavour,
    _Frozen,
    _assignments,
    _check_flavour,
    _int_argument,
    _is_isomorphism,
    _top_down,
    _tree_poset,
)
from .errors import (
    BudgetExceeded,
    DuplicateEdge,
    GraftUndefined,
    InvalidArgument,
    NotALeaf,
    ParseError,
)
from .structure import _tree, leaves


class TreeTerm(_Frozen):
    """An edge with an optional vertex of subterms above it.

    ``children is None`` marks a bare leaf edge, an empty tuple a stump.
    """

    __slots__ = ("edge", "children")

    def __init__(self, edge: str, children: tuple["TreeTerm", ...] | None = None):
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "children", children)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def is_stump(self) -> bool:
        return self.children == ()

    def edges(self) -> Iterator[str]:
        """Every edge, each before the edges above it, left to right."""
        pending = [self]
        while pending:
            term = pending.pop()
            yield term.edge
            pending.extend(reversed(term.children or ()))

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def __str__(self) -> str:
        return print_term(self)


# ---------------------------------------------------------------------------
# Parsing and printing


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789_")


def parse_term(text: str) -> TreeTerm:
    """Parse a tree term; positions in errors are zero-based offsets."""
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def ident() -> str:
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] not in _IDENT_START:
            raise ParseError("expected an identifier", pos)
        start = pos
        while pos < n and text[pos] in _IDENT_CONT:
            pos += 1
        return text[start:pos]

    open_vertices: list[tuple[str, list[TreeTerm]]] = []  # innermost last
    while True:
        name = ident()
        skip_ws()
        if pos < n and text[pos] == "(":
            pos += 1
            skip_ws()
            if not (pos < n and text[pos] == ")"):
                open_vertices.append((name, []))
                continue
            pos += 1
            term = TreeTerm(name, ())
        else:
            term = TreeTerm(name, None)
        while open_vertices:  # attach the finished term, closing vertices that end here
            open_vertices[-1][1].append(term)
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                break
            if pos < n and text[pos] == ")":
                pos += 1
                parent, children = open_vertices.pop()
                term = TreeTerm(parent, tuple(children))
                continue
            raise ParseError("expected ',' or ')'", pos)
        else:  # no vertex is open: the whole term is read
            break

    skip_ws()
    if pos != n:
        raise ParseError("trailing input after term", pos)
    seen: set[str] = set()
    for edge in term.edges():
        if edge in seen:
            raise DuplicateEdge(f"edge {edge!r} appears twice")
        seen.add(edge)
    return term


def print_term(term: TreeTerm) -> str:
    out: list[str] = []
    pending: list[TreeTerm | str] = [term]  # terms still to print, and literal text
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(item.edge)
        if item.children is not None:
            out.append("(")
            pending.append(")")
            for i, child in reversed(list(enumerate(item.children))):
                pending.append(child)
                if i:
                    pending.append(",")
    return "".join(out)


# ---------------------------------------------------------------------------
# Grafting


def graft(host: BroadPoset, leaf: str, scion: BroadPoset) -> BroadPoset:
    """Glue the root of ``scion`` onto a leaf of ``host``.

    The scion's root is renamed to the leaf; any of its other identifiers
    colliding with the host are renamed by priming.  The renaming applied
    is recorded in the result's ``meta['renamed']``.  The result is the
    tree built from the host's vertices and the renamed scion's.
    """
    if host.flavour is not scion.flavour:
        raise GraftUndefined("flavours differ")
    if leaf not in leaves(host):
        raise NotALeaf(f"{leaf!r} is not a leaf of the host")
    host_vertices, _ = _tree(host)
    scion_vertices, scion_root = _tree(scion)

    renaming: dict[str, str] = {scion_root: leaf}
    used = set(host.carrier)
    for name in sorted(scion.carrier - {scion_root}):
        fresh = name
        while fresh in used:
            fresh += "'"
        renaming[name] = fresh
        used.add(fresh)

    vertices = dict(host_vertices)
    for target, word in scion_vertices.items():
        vertices[renaming[target]] = BroadWord(host.flavour, tuple(renaming[x] for x in word.letters))
    meta = {"renamed": {k: v for k, v in renaming.items() if k != v}}
    return _tree_poset(host.flavour, frozenset(used), vertices, meta)


def full_graft(host: BroadPoset, assignment: Mapping[str, BroadPoset]) -> BroadPoset:
    """Graft a tree onto each of several leaves, one pushout at a time."""
    result = host
    for leaf in sorted(assignment):
        result = graft(result, leaf, assignment[leaf])
    return result


# ---------------------------------------------------------------------------
# Codecs between terms and dendroidally ordered sets


def _term_vertices(term: TreeTerm, flavour: Flavour) -> tuple[frozenset[str], dict[str, BroadWord]]:
    """The edges of a term and its vertex map; a repeated edge raises."""
    carrier: set[str] = set()
    vertices: dict[str, BroadWord] = {}
    pending = [term]
    while pending:
        t = pending.pop()
        if t.edge in carrier:
            raise DuplicateEdge(f"edge {t.edge!r} appears twice")
        carrier.add(t.edge)
        if t.children is not None:
            vertices[t.edge] = BroadWord(flavour, tuple(child.edge for child in t.children))
            pending.extend(t.children)
    return frozenset(carrier), vertices


def to_broad(term: TreeTerm, flavour: Flavour) -> BroadPoset:
    """Interpret a term as the tree built from its vertices: each edge
    with a vertex relates the word of its children to itself."""
    return _tree_poset(flavour, *_term_vertices(term, flavour))


def to_term(poset: BroadPoset) -> TreeTerm:
    """Recover a term from a dendroidally ordered set; inverse of
    :func:`to_broad` up to isomorphism."""
    vertices, top = _tree(poset)
    order = _top_down(vertices, top)
    built: dict[str, TreeTerm] = {}
    for edge in reversed(order):
        word = vertices.get(edge)
        kids = None if word is None else tuple(built[c] for c in word.letters)
        built[edge] = TreeTerm(edge, kids)
    return built[order[0]]


# ---------------------------------------------------------------------------
# Canonical codes and isomorphism


def _codes(top: str, vertices: Mapping[str, BroadWord], flavour: Flavour) -> dict[str, str]:
    """The code of every edge of a tree, built children first."""
    order = _top_down(vertices, top)
    codes: dict[str, str] = {}
    for edge in reversed(order):
        if edge not in vertices:
            codes[edge] = "*"
            continue
        parts = [codes[c] for c in vertices[edge].letters]
        if flavour is Flavour.COMMUTATIVE:
            parts.sort()
        codes[edge] = "(" + "".join(parts) + ")"
    return codes


def _coded(tree: BroadPoset) -> tuple[str, dict[str, BroadWord], dict[str, str]]:
    """A tree's root, its vertex map and the code of every edge."""
    vertices, top = _tree(tree)
    return top, vertices, _codes(top, vertices, tree.flavour)


def term_code(term: TreeTerm, flavour: Flavour) -> str:
    """Rooted-shape code: equal codes mean isomorphic trees.

    Commutative codes sort child codes, planar codes keep them in order.
    """
    _check_flavour(flavour)
    return _codes(term.edge, _term_vertices(term, flavour)[1], flavour)[term.edge]


def canonical_code(tree: TreeTerm | BroadPoset, flavour: Flavour | None = None) -> str:
    if isinstance(tree, BroadPoset):
        top, _, codes = _coded(tree)
        return codes[top]
    if flavour is None:
        raise InvalidArgument("a flavour is required to encode a bare term")
    return term_code(tree, flavour)


def tree_isomorphisms(left: BroadPoset, right: BroadPoset) -> list[dict[str, str]]:
    """Every isomorphism between two trees, as assignments, in
    lexicographic order of their values listed by sorted domain edge.

    The shared monotone search runs injectively from the root up, and each
    edge takes only children of its parent's image with its own code (at
    its own child position when planar), so no branch of the search dies
    out.  No found assignment is checked again: the search has checked
    every relation pair, and equal root codes give relations of equal size,
    between which every injective monotone assignment is an isomorphism.
    This enumerates them all, n! of them between two n-leaf commutative
    corollas, so it is only for callers who want every one; to decide
    isomorphism use :func:`are_isomorphic`.
    """
    if left.flavour is not right.flavour:
        return []
    ltop, lv, lcodes = _coded(left)
    rtop, rv, rcodes = _coded(right)
    if lcodes[ltop] != rcodes[rtop]:
        return []
    planar = left.flavour is Flavour.PLANAR
    lparent = {c: (x, i) for x, kids in lv.items() for i, c in enumerate(kids.letters)}

    def candidates(x: str, assignment: Mapping[str, str]) -> list[str]:
        if x == ltop:
            return [rtop]
        parent, i = lparent[x]
        kids = rv[assignment[parent]].letters
        return [y for y in ((kids[i],) if planar else kids) if rcodes[y] == lcodes[x]]

    order = _top_down(lv, ltop)
    found = _assignments(left, right, order, candidates, True)
    edges = sorted(left.carrier)
    return sorted(found, key=lambda assignment: [assignment[x] for x in edges])


def are_isomorphic(
    left: BroadPoset, right: BroadPoset
) -> tuple[bool, dict[str, str] | None]:
    """Decide tree isomorphism by canonical codes; the witness returned is
    the assignment least in lexicographic order of its values, listed by
    sorted domain edge.

    The witness is built greedily.  The root goes to the root; then each
    edge not yet placed, in name order, climbs to its nearest placed
    ancestor and takes the least image reachable from that ancestor's
    image along a path of equal codes through unused children (at equal
    child positions when planar), placing the whole path.  Every
    code-consistent assignment closed upward extends to an isomorphism,
    so no choice is ever undone; the other edges on the path have larger
    names, and their images are forced by the edge's own.
    """
    if left.flavour is not right.flavour:
        return False, None
    if len(left.carrier) != len(right.carrier):
        return False, None
    ltop, lv, lcodes = _coded(left)
    rtop, rv, rcodes = _coded(right)
    if lcodes[ltop] != rcodes[rtop]:
        return False, None
    planar = left.flavour is Flavour.PLANAR
    lparent = {c: (x, i) for x, kids in lv.items() for i, c in enumerate(kids.letters)}
    rparent = {c: x for x, kids in rv.items() for c in kids.letters}
    witness = {ltop: rtop}
    used = {rtop}
    for edge in sorted(left.carrier):
        path = []  # unplaced edges from ``edge`` up to the nearest placed ancestor
        above = edge
        while above not in witness:
            path.append(above)
            above = lparent[above][0]
        reachable = [witness[above]]
        for x in reversed(path):
            index = lparent[x][1]
            reachable = [
                c
                for y in reachable
                for i, c in enumerate(rv[y].letters)
                if rcodes[c] == lcodes[x] and c not in used and (i == index or not planar)
            ]
        image = min(reachable)
        for x in path:
            witness[x] = image
            used.add(image)
            image = rparent[image]
    if not _is_isomorphism(left, right, witness):
        return False, None
    return True, witness


# ---------------------------------------------------------------------------
# Exhaustive enumeration up to isomorphism


_Shape = tuple  # ("L",) or ("V", (child shapes...))

MAX_ENUMERATION_EDGES = 7


def _shapes(edges: int, flavour: Flavour, cache: dict) -> list[_Shape]:
    key = (edges, flavour)
    if key in cache:
        return cache[key]
    out: list[_Shape] = []
    if edges == 1:
        out = [("L",), ("V", ())]
    else:
        budget = edges - 1

        def child_lists(remaining: int, minimum: int) -> Iterator[tuple[_Shape, ...]]:
            # nondecreasing sizes; commutative also fixes the order within a size
            if remaining == 0:
                yield ()
                return
            for size in range(minimum, remaining + 1):
                for first in _shapes(size, flavour, cache):
                    for rest in child_lists(remaining - size, size):
                        yield (first, *rest)

        if flavour is Flavour.COMMUTATIVE:
            seen: set[tuple[_Shape, ...]] = set()
            for children in child_lists(budget, 1):
                canon = tuple(sorted(children, key=_shape_key))
                if canon not in seen:
                    seen.add(canon)
                    out.append(("V", canon))
        else:
            def ordered_lists(remaining: int) -> Iterator[tuple[_Shape, ...]]:
                if remaining == 0:
                    yield ()
                    return
                for size in range(1, remaining + 1):
                    for first in _shapes(size, flavour, cache):
                        for rest in ordered_lists(remaining - size):
                            yield (first, *rest)

            out = [("V", children) for children in ordered_lists(budget)]
    cache[key] = out
    return out


def _shape_key(shape: _Shape) -> tuple:
    if shape[0] == "L":
        return (0,)
    return (1, tuple(_shape_key(c) for c in shape[1]))


def _name_shape(shape: _Shape, counter: itertools.count) -> TreeTerm:
    name = f"e{next(counter)}"
    if shape[0] == "L":
        return TreeTerm(name, None)
    return TreeTerm(name, tuple(_name_shape(c, counter) for c in shape[1]))


def enumerate_trees(max_edges: int, flavour: Flavour) -> list[TreeTerm]:
    """One named representative per isomorphism class, ordered by edge
    count and then canonical code."""
    _check_flavour(flavour)
    if _int_argument("max_edges", max_edges) > MAX_ENUMERATION_EDGES:
        raise BudgetExceeded(
            f"enumeration capped at {MAX_ENUMERATION_EDGES} edges, requested {max_edges}"
        )
    cache: dict = {}
    out: list[TreeTerm] = []
    for edges in range(1, max_edges + 1):
        terms = [
            _name_shape(shape, itertools.count(1))
            for shape in _shapes(edges, flavour, cache)
        ]
        terms.sort(key=lambda t: term_code(t, flavour))
        out.extend(terms)
    return out
