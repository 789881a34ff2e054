"""Trees written out from their vertices, and the faces, subtrees and
degeneracy codomains cut out of them, agree with saturating those
vertices and keep the vertex map that recognition finds, and trees read
off that map or recognised by rebuilding them from it get the answers of
the general search, on random trees beyond the exhaustive 7-edge
corpus."""

import os
import subprocess
import sys
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dendro import core, structure
from dendro.category import (
    FaceType,
    all_faces,
    classify_maximal,
    degeneracies,
    degeneracy,
    enumerate_subtrees,
    factorize,
    maximal_subtrees,
    outer_face,
)
from dendro.core import (
    BroadPoset,
    BroadWord,
    Flavour,
    corolla,
    generate_broad_poset,
    identity,
)
from dendro.errors import NotDendroidal
from dendro.structure import (
    classify_all,
    is_dendroidal,
    join,
    leaves,
    links,
    parent,
    root_corolla,
    subtree_at,
    vertices,
)
from dendro.terms import (
    TreeTerm,
    are_isomorphic,
    canonical_code,
    graft,
    parse_term,
    to_broad,
    to_term,
    tree_isomorphisms,
)

from conftest import flavours, refusal, tree_corpus, tree_terms
from oracles import descendant_scan_tree_words, is_subtree


def term_vertices(term: TreeTerm) -> list[tuple[tuple[str, ...], str]]:
    out = []
    pending = [term]
    while pending:
        t = pending.pop()
        if t.children is not None:
            out.append((tuple(c.edge for c in t.children), t.edge))
            pending.extend(t.children)
    return out


@settings(max_examples=60, deadline=None)
@given(flavours, tree_terms())
def test_codec_matches_saturation(flavour, term):
    tree = to_broad(term, flavour)
    assert tree == generate_broad_poset(set(term.edges()), term_vertices(term), flavour)
    back = to_term(tree)
    if flavour is Flavour.PLANAR:
        assert back == term
    else:
        assert canonical_code(back, flavour) == canonical_code(term, flavour)
    assert to_broad(back, flavour) == tree


@settings(max_examples=40, deadline=None)
@given(flavours, tree_terms(), tree_terms(), st.data())
def test_graft_matches_saturation(flavour, host_term, scion_term, data):
    host, scion = to_broad(host_term, flavour), to_broad(scion_term, flavour)
    assume(leaves(host))
    leaf = data.draw(st.sampled_from(sorted(leaves(host))))
    result = graft(host, leaf, scion)
    renaming = result.meta["renamed"]

    def r(x: str) -> str:
        return renaming.get(x, x)

    renamed = [(tuple(map(r, w)), r(t)) for w, t in term_vertices(scion_term)]
    carrier = host.carrier | {r(x) for x in scion.carrier}
    assert renaming.get(scion_term.edge, leaf) == leaf
    assert len(carrier) == len(host.carrier) + len(scion.carrier) - 1
    assert result == generate_broad_poset(
        carrier, term_vertices(host_term) + renamed, flavour
    )


def cut_from_term(term: TreeTerm, how: str, edge: str, flavour: Flavour) -> BroadPoset:
    """The saturated tree left when the term's edge is contracted, its
    vertex pruned, or all but the subterm at it dropped."""
    if how == "subtree":
        pending = [term]
        while pending[-1].edge != edge:
            t = pending.pop()
            pending.extend(t.children or ())
        sub = pending[-1]
        return generate_broad_poset(set(sub.edges()), term_vertices(sub), flavour)
    vertices = {t: w for w, t in term_vertices(term)}
    kids = vertices.pop(edge)
    if how == "contract":
        carrier = set(term.edges()) - {edge}
        for t, w in vertices.items():
            if edge in w:
                i = w.index(edge)
                vertices[t] = w[:i] + kids + w[i + 1:]
    else:
        carrier = set(term.edges()) - set(kids)
    return generate_broad_poset(carrier, [(w, t) for t, w in vertices.items()], flavour)


@settings(max_examples=60, deadline=None)
@given(flavours, tree_terms())
@example(Flavour.PLANAR, parse_term("e1(e2(e3()))"))
@example(Flavour.COMMUTATIVE, parse_term("r(l1)"))
def test_faces_match_saturation(flavour, term):
    """Face domains, degeneracy codomains and the subtree at every edge."""
    tree = to_broad(term, flavour)
    for face in all_faces(tree):
        kind = face.kind
        if kind.type is FaceType.INNER:
            expected = cut_from_term(term, "contract", kind.edge, flavour)
        elif kind.type is FaceType.OUTER:
            expected = cut_from_term(term, "prune", kind.cluster[1], flavour)
        else:
            expected = cut_from_term(term, "subtree", kind.branch, flavour)
        assert face.domain == expected
    for sigma in degeneracies(tree):
        (edge,) = tree.carrier - sigma.codomain.carrier
        assert sigma.codomain == cut_from_term(term, "contract", edge, flavour)
    for edge in tree.carrier:
        assert subtree_at(tree, edge) == cut_from_term(term, "subtree", edge, flavour)


@settings(max_examples=40, deadline=None)
@given(flavours, tree_terms(max_edges=8))
def test_subtrees_match_saturation(flavour, term):
    tree = to_broad(term, flavour)
    for sub in enumerate_subtrees(tree):
        generators = [(w.letters, t) for w, t in links(sub)]
        assert sub == generate_broad_poset(sub.carrier, generators, flavour)
        assert is_subtree(sub, tree)


def bare(poset: BroadPoset) -> BroadPoset:
    """An equal poset without the vertex map a tree is written from."""
    return BroadPoset(poset.flavour, poset.carrier, poset.relation)


def by_search(fn, poset):
    """The answer of ``fn`` when no poset is recognised as a tree."""
    with patch.object(core, "_tree_words", lambda poset: None):
        return fn(bare(poset))


refuse_recognition = refusal("a written tree was recognised")


def assert_matches_search(poset):
    recognised = core._maxima_map(poset)[1]
    answers = classify_all(poset), links(poset), is_dendroidal(poset)
    searched = by_search(lambda p: (classify_all(p), links(p), is_dendroidal(p)), poset)
    assert answers == searched
    report = searched[2]
    assert recognised == (report.root if report.is_dendroidal else None)


def assert_written_as_recognised(trees: list[BroadPoset]):
    """Each tree keeps the vertex map and root that recognition finds on
    an equal poset without them; equal trees are recognised once."""
    written: dict[BroadPoset, tuple] = {}
    with patch.object(core, "_tree_words", refuse_recognition):
        for tree in trees:
            record = core._maxima_map(tree)
            assert written.setdefault(tree, record) == record
    for tree, record in written.items():
        assert record == core._tree_words(bare(tree))


def written_trees(tree: BroadPoset, host: BroadPoset, leaf: str) -> list[BroadPoset]:
    """A tree, its graft onto a leaf of the host, its face domains, its
    subtree at every edge, its degeneracy codomains and, up to 8 edges,
    its subtrees: every tree that is written from a vertex map or cut out
    of a tree with its map.  The tree and host are written, so none is
    recognised on the way."""
    with patch.object(core, "_tree_words", refuse_recognition):
        out = [tree, graft(host, leaf, tree)]
        out += [face.domain for face in all_faces(tree)]
        out += [subtree_at(tree, edge) for edge in sorted(tree.carrier)]
        out += [sigma.codomain for sigma in degeneracies(tree)]
        if len(tree.carrier) <= 8:
            out += enumerate_subtrees(tree)
    return out


@settings(max_examples=60, deadline=None)
@given(flavours, tree_terms(), tree_terms(max_edges=4), st.data())
def test_written_map_is_the_recognised_map(flavour, term, host_term, data):
    tree, host = to_broad(term, flavour), to_broad(host_term, flavour)
    assume(leaves(host))
    leaf = data.draw(st.sampled_from(sorted(leaves(host))))
    assert_written_as_recognised(written_trees(tree, host, leaf))


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_written_map_is_the_recognised_map_on_the_corpus(flavour):
    host = to_broad(parse_term("h(l,m)"), flavour)
    assert_written_as_recognised(
        [w for tree in tree_corpus(flavour, 7) for w in written_trees(tree, host, "l")]
    )


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_collapsed_root_and_pruned_stump_keep_their_maps(flavour):
    """Collapsing a unary root makes its child the root, and pruning a
    stump drops the words that expand it to the empty word."""
    collapsed = degeneracy(corolla(1, flavour), ("l1", "r")).codomain
    stumped = to_broad(parse_term("e1(e2(e3()))"), flavour)
    pruned = outer_face(stumped, (BroadWord(flavour, ()), "e3")).domain
    assert pruned == to_broad(parse_term("e1(e2(e3))"), flavour)
    assert_written_as_recognised([collapsed, pruned])


@settings(max_examples=60, deadline=None)
@given(flavours, tree_terms())
def test_recognised_trees_match_search(flavour, term):
    tree = to_broad(term, flavour)
    assert core._maxima_map(tree)[1] == term.edge
    assert_matches_search(tree)


@settings(max_examples=60, deadline=None)
@given(flavours, tree_terms(max_edges=10), st.data())
def test_near_trees_match_search(flavour, term, data):
    """One relation pair dropped from a tree or added to it."""
    tree = to_broad(term, flavour)
    relation = set(tree.relation)
    if relation and data.draw(st.booleans(), label="drop"):
        relation.remove(data.draw(st.sampled_from(sorted(relation, key=repr)), label="pair"))
    else:
        names = sorted(tree.carrier)
        letters = data.draw(st.lists(st.sampled_from(names), max_size=3), label="letters")
        target = data.draw(st.sampled_from(names), label="target")
        assume(tuple(letters) != (target,))
        relation.add((BroadWord(flavour, tuple(letters)), target))
    assert_matches_search(BroadPoset(flavour, tree.carrier, frozenset(relation)))


RECORD_ORDER = """
from dendro import core
from dendro.core import BroadPoset, Flavour
from dendro.terms import graft, parse_term, to_broad
for flavour in Flavour:
    written = to_broad(parse_term("r(a(b(c,d()),e),f(g,h(i)),j())"), flavour)
    tree = BroadPoset(flavour, written.carrier, written.relation)
    host = to_broad(parse_term("s(l,m)"), flavour)
    print(repr(list(core._tree_words(tree)[0].items())))
    print(repr(list(core._maxima_map(graft(host, "l", tree))[0].items())))
"""


def test_recognised_map_order_does_not_follow_the_hash_seed():
    """A recognised tree's vertex map, and the record of a graft with it
    as scion, list their edges in the same order under every hash seed."""

    def run_once(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", RECORD_ORDER], capture_output=True, env=env, check=True, text=True
        )
        return done.stdout

    first = run_once("0")
    assert first.count("\n") == 4
    assert first == run_once("5")


def test_guess_far_larger_than_the_poset_is_refused():
    """The descendant order of a binary tree of height 6, whose relation
    would hold about 2·10^11 words, carried by its 63 vertices and one
    unary pair per farther ancestor."""
    parent_of = {f"e{i}": f"e{(i - 1) // 2}" for i in range(1, 127)}
    pairs = [((f"e{2 * i + 1}", f"e{2 * i + 2}"), f"e{i}") for i in range(63)]
    for edge, up in parent_of.items():
        while up in parent_of:
            up = parent_of[up]
            pairs.append(((edge,), up))
    poset = BroadPoset.build(Flavour.COMMUTATIVE, [f"e{i}" for i in range(127)], pairs)
    assert core._maxima_map(poset)[1] is None
    assert not is_dendroidal(poset).is_dendroidal


def assert_recognised_as_by_descendant_scan(poset: BroadPoset) -> bool:
    """Recognition gives the reference's answer, with the map's keys in
    the same order, and keeps nothing on the poset; whether it found a
    tree."""
    found = core._tree_words(poset)
    assert poset._known == {}
    expected = descendant_scan_tree_words(poset)
    if expected is None:
        assert found is None
    else:
        assert found is not None
        assert list(found[0].items()) == list(expected[0].items())
        assert found[1] == expected[1]
    return found is not None


def recognition_cases(tree: BroadPoset, i: int) -> list[BroadPoset]:
    """A bare copy of a tree, and the copy with its ``i``-th pair dropped,
    a repeated-letter word added, a unary pair added, an isolated element
    added, and, when planar, every word reversed."""
    flavour, carrier, relation = tree.flavour, tree.carrier, tree.relation
    first, last = sorted(carrier)[0], sorted(carrier)[-1]
    cases = [bare(tree), BroadPoset(flavour, carrier | {"isolated"}, relation)]
    if relation:
        dropped = sorted(relation, key=lambda p: (p[1], p[0].letters))[i % len(relation)]
        cases.append(BroadPoset(flavour, carrier, relation - {dropped}))
    repeated = (BroadWord(flavour, (last, last)), first)
    cases.append(BroadPoset(flavour, carrier, relation | {repeated}))
    if first != last:
        cases.append(BroadPoset(flavour, carrier, relation | {(BroadWord(flavour, (first,)), last)}))
    if flavour is Flavour.PLANAR:
        reversed_words = [(BroadWord(flavour, w.letters[::-1]), t) for w, t in relation]
        cases.append(BroadPoset(flavour, carrier, reversed_words))
    return cases


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_recognition_matches_the_descendant_scan_on_the_corpus(flavour):
    corpus = tree_corpus(flavour, 7)
    recognised = sum(
        assert_recognised_as_by_descendant_scan(poset)
        for i, tree in enumerate(corpus)
        for poset in recognition_cases(tree, i)
    )
    assert recognised > len(corpus)


@settings(max_examples=150, deadline=None)
@given(flavours, tree_terms(), st.integers(min_value=0, max_value=10**4))
def test_recognition_matches_the_descendant_scan_on_random_trees(flavour, term, i):
    assert sum(map(assert_recognised_as_by_descendant_scan, recognition_cases(to_broad(term, flavour), i))) >= 1


def test_a_non_tree_with_a_tree_count_is_refused_by_its_words():
    """Planar ``r(a(b,c))`` with ``c·b ≤ r`` in place of ``b·c ≤ r``: every
    target has a word whose letters' counts multiply to the words below
    it, and the guess spans the carrier, so only the words the guess
    writes below ``r`` tell it from the tree."""
    planar = Flavour.PLANAR
    tree = to_broad(parse_term("r(a(b,c))"), planar)
    swapped = {(BroadWord(planar, ("b", "c")), "r"), (BroadWord(planar, ("c", "b")), "r")}
    poset = BroadPoset(planar, tree.carrier, tree.relation ^ swapped)
    written, write = [], core._words_below
    with patch.object(core, "_words_below", lambda *args: written.append(args) or write(*args)):
        assert core._tree_words(poset) is None
    assert [list(vertices.items()) for vertices, _ in written] == [list(core._tree_words(bare(tree))[0].items())]
    assert descendant_scan_tree_words(poset) is None
    assert not is_dendroidal(poset).is_dendroidal


@st.composite
def small_relations(draw) -> BroadPoset:
    """Any relation on up to 5 elements: cycles, stumps and words that
    repeat a letter are all allowed."""
    flavour = draw(flavours)
    names = [f"e{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    element = st.sampled_from(names)
    pairs = draw(st.lists(st.tuples(st.lists(element, max_size=3), element), max_size=10))
    return BroadPoset.build(flavour, names, pairs)


@settings(max_examples=300, deadline=None)
@given(small_relations())
@example(BroadPoset.build(Flavour.PLANAR, ["a", "b", "r"], [(("a", "b"), "r"), (("b", "a"), "r")]))
@example(BroadPoset.build(Flavour.COMMUTATIVE, ["a", "r"], [(("a", "a"), "r"), (("a",), "r")]))
@example(BroadPoset.build(Flavour.COMMUTATIVE, ["a", "b"], [(("a",), "b"), (("b",), "a")]))
@example(BroadPoset.build(Flavour.PLANAR, ["a", "r"], [((), "a"), (("a",), "r"), ((), "r")]))
# as many pairs as the tree r(a(x,y),b) has, one of them not its own
@example(BroadPoset.build(Flavour.PLANAR, [*"abrxy"], [("ab", "r"), ("xy", "a"), ("yxb", "r")]))
@example(BroadPoset.build(Flavour.COMMUTATIVE, [*"abrxy"], [("ab", "r"), ("xy", "a"), ("xy", "r")]))
def test_recognition_matches_the_descendant_scan_on_small_relations(poset):
    assert_recognised_as_by_descendant_scan(poset)


def tree_entry_points(poset: BroadPoset) -> list:
    """A call of every entry point that takes only trees, on a tree with
    the root ``r`` and the unary vertex ``c ≤ b`` or on any broad poset
    that is not a tree; ``parent`` comes before ``join``."""
    flavour = poset.flavour
    leaf = sorted(leaves(poset))[0]
    return [
        lambda: graft(poset, leaf, to_broad(parse_term("s(t)"), flavour)),
        lambda: graft(corolla(1, flavour), "l1", poset),
        lambda: to_term(poset),
        lambda: canonical_code(poset),
        lambda: are_isomorphic(poset, poset),
        lambda: tree_isomorphisms(poset, poset),
        lambda: all_faces(poset),
        lambda: [classify_maximal(poset, sub) for sub in maximal_subtrees(poset)],
        lambda: enumerate_subtrees(poset),
        lambda: degeneracies(poset),
        lambda: degeneracy(poset, ("c", "b")),
        lambda: factorize(identity(poset)),
        lambda: [subtree_at(poset, x) for x in sorted(poset.carrier)],
        lambda: root_corolla(poset),
        lambda: vertices(poset),
        lambda: [parent(poset, x) for x in sorted(poset.carrier) if x != "r"],
        lambda: [join(poset, x, y) for x in sorted(poset.carrier) for y in sorted(poset.carrier)],
    ]


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_tree_entry_points_check_no_tree_against_the_axioms(flavour, refuse):
    """A tree is read off its vertex map, written or recognised, so its
    answers come without a report of the tree axioms."""

    tree = to_broad(parse_term("r(a(b(c),d()),e)"), flavour)
    refuse(structure, "is_dendroidal", "a tree was checked against the axioms")
    written = [call() for call in tree_entry_points(tree)]
    assert [call() for call in tree_entry_points(bare(tree))] == written


NON_TREES = [
    # "a" lies below a word holding itself; join used to climb from it forever
    BroadPoset.build(
        Flavour.COMMUTATIVE,
        ["a", "b", "c", "r"],
        [(("a", "c"), "r"), (("a", "r"), "a"), (("b", "c", "c"), "r")],
    ),
    BroadPoset.build(Flavour.COMMUTATIVE, ["u", "v"]),
    BroadPoset.build(Flavour.PLANAR, ["r", "a"], [(("a", "a"), "r")]),
    BroadPoset.build(Flavour.COMMUTATIVE, ["a", "b", "z"], [(("b",), "a")]),
]


@pytest.mark.parametrize("poset", NON_TREES, ids=range(len(NON_TREES)))
def test_tree_entry_points_refuse_a_non_tree_with_its_violations(poset):
    message = "; ".join(is_dendroidal(poset).violations)
    for call in tree_entry_points(poset):
        with pytest.raises(NotDendroidal) as raised:
            call()
        assert str(raised.value) == message
