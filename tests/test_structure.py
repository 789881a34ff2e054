import copy
import itertools
import pickle
import sys

import pytest

from dendro import core, structure
from dendro.category import all_faces, degeneracies
from dendro.core import BroadPoset, BroadWord, Flavour, _maxima_map, corolla, star, tensor
from dendro.errors import FlavourMismatch, IdentifierError, InvalidArgument, NoParent, NotDendroidal
from dendro.structure import (
    EdgeKind,
    classify_all,
    classify_edge,
    degree,
    descendant_leq,
    descendant_order,
    inner_edges,
    is_dendroidal,
    join,
    leaves,
    links,
    outer_clusters,
    parent,
    root,
    root_corolla,
    stumps,
    subtree_at,
)
from dendro.terms import graft, parse_term, to_broad

from conftest import linear_tree, stump_poset, tree_corpus
from oracles import stacked_word_leq

C = Flavour.COMMUTATIVE
P = Flavour.PLANAR


@pytest.fixture(scope="module")
def example():
    """Six edges, three vertices, one of them a stump."""
    return to_broad(parse_term("r(b(e,f),c,d())"), C)


@pytest.fixture(scope="module")
def grafted():
    top = corolla(2, root="m", leaf_prefix="k")
    return graft(corolla(2), "l1", top)


# ---------------------------------------------------------------------------
# Descendant order


def test_descendant_order_of_corolla():
    g2 = corolla(2)
    expected = {("l1", "r"), ("l2", "r")} | {(x, x) for x in g2.carrier}
    assert descendant_order(g2) == expected


def test_descendant_order_of_point():
    assert descendant_order(star("x")) == {("x", "x")}


def test_descendant_order_of_grafted(grafted):
    descend = descendant_order(grafted)
    for below in ["k1", "k2", "l1", "l2"]:
        assert (below, "r") in descend
    assert ("k1", "l1") in descend
    assert ("l2", "l1") not in descend


# ---------------------------------------------------------------------------
# Edge classification


def test_classify_corolla_root():
    cls = classify_edge(corolla(2), "r")
    assert cls.kind is EdgeKind.HAS_CHILDREN
    assert cls.children == BroadWord(C, ("l1", "l2"))


def test_classify_stump():
    cls = classify_edge(stump_poset(), "x")
    assert cls.kind is EdgeKind.STUMP
    assert cls.children is not None and cls.children.is_empty


def test_classify_leaf():
    assert classify_edge(corolla(2), "l1").kind is EdgeKind.LEAF


def test_classify_no_maximum_raises():
    # two incomparable words below r
    poset = BroadPoset.build(
        C, ["r", "a", "b"], [(("a",), "r"), (("b",), "r")]
    )
    with pytest.raises(NotDendroidal):
        classify_edge(poset, "r")


# ---------------------------------------------------------------------------
# Root, parent, join


def test_root_and_parent():
    g2 = corolla(2)
    assert root(g2) == "r"
    assert parent(g2, "l1") == "r"
    with pytest.raises(NoParent):
        parent(g2, "r")


def test_unknown_edge_has_no_parent():
    with pytest.raises(IdentifierError):
        parent(to_broad(parse_term("r(a(b))"), C), "zzz")


def test_unknown_edge_has_no_join():
    with pytest.raises(IdentifierError):
        join(to_broad(parse_term("r(a(b))"), C), "a", "zzz")


def test_unknown_edge_is_no_descendant():
    tree = to_broad(parse_term("r(a(b))"), C)
    for below, above in (("zz", "r"), ("b", "zz"), ("zz", "zz")):
        with pytest.raises(IdentifierError) as info:
            descendant_leq(tree, below, above)
        assert str(info.value) == "'zz' not in carrier"


def test_join_in_corolla():
    g2 = corolla(2)
    assert join(g2, "l1", "l2") == "r"
    assert join(g2, "l1", "l1") == "l1"


def test_join_in_example(example):
    assert join(example, "e", "c") == "r"
    assert join(example, "e", "f") == "b"
    assert join(example, "e", "d") == "r"
    assert join(example, "b", "e") == "b"


def test_join_climbs_without_recursion():
    """Two 300-deep branches under the root, joined under a recursion
    limit of 200."""
    branches = ["a0", "b0"]
    for i in range(1, 300):
        branches = [f"a{i}({branches[0]})", f"b{i}({branches[1]})"]
    tree = to_broad(parse_term(f"r({','.join(branches)})"), C)
    assert root(tree) == "r"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        top = join(tree, "a0", "b0")
    finally:
        sys.setrecursionlimit(limit)
    assert top == "r"


# ---------------------------------------------------------------------------
# Tree axioms


def test_corollas_are_dendroidal():
    for n in range(0, 4):
        assert is_dendroidal(corolla(n)).is_dendroidal


def test_repeated_letter_not_simple():
    poset = BroadPoset.build(C, ["r", "a"], [(("a", "a"), "r")])
    report = is_dendroidal(poset)
    assert not report.simple
    assert not report.is_dendroidal


def test_disjoint_points_have_no_root():
    poset = BroadPoset.build(C, ["u", "v"])
    report = is_dendroidal(poset)
    assert not report.has_root
    assert report.root is None


def test_report_json_fields(example):
    data = is_dendroidal(example).to_json()
    assert data["is_dendroidal"] is True
    assert data["root"] == "r"
    assert data["violations"] == []


# ---------------------------------------------------------------------------
# Links, degree, leaves


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_corolla_links(n):
    gn = corolla(n)
    assert len(links(gn)) == 1
    assert degree(gn) == 1
    assert len(leaves(gn)) == n


def test_point_has_no_links():
    s = star("x")
    assert links(s) == frozenset()
    assert degree(s) == 0
    assert leaves(s) == {"x"}


NON_TREE_RELATIONS = [
    BroadPoset.build(C, ["u", "v"]),
    BroadPoset.build(C, ["a", "b", "r"], [(("a", "a"), "r"), (("b",), "a"), (("a",), "b")]),
    BroadPoset.build(Flavour.PLANAR, ["a", "b", "r"], [((), "r"), (("a", "r"), "r"), (("b", "a"), "r")]),
]


def test_leaves_are_the_elements_with_no_word_below():
    posets = [*tree_corpus(C, 5), *tree_corpus(Flavour.PLANAR, 5), *NON_TREE_RELATIONS]
    for poset in posets:
        found = leaves(poset)
        assert type(found) is frozenset
        assert found == {x for x in poset.carrier if not poset.sources(x)}


def test_example_links(example):
    found = links(example)
    assert len(found) == 3
    assert degree(example) == 3
    assert leaves(example) == {"c", "e", "f"}
    assert stumps(example) == {"d"}
    assert inner_edges(example) == {"b", "d"}
    by_target = {t: w for w, t in found}
    assert by_target["b"] == BroadWord(C, ("e", "f"))
    assert by_target["d"].is_empty
    assert by_target["r"] == BroadWord(C, ("b", "c", "d"))


def test_outer_clusters(example):
    clusters = outer_clusters(example)
    assert {(tuple(w.letters), t) for w, t in clusters} == {(("e", "f"), "b"), ((), "d")}


# ---------------------------------------------------------------------------
# Subtrees at an edge


def test_subtree_at_root_is_whole(example):
    assert subtree_at(example, "r") == example


def test_subtree_at_inner_edge(example):
    sub = subtree_at(example, "b")
    assert sub.carrier == {"b", "e", "f"}
    assert sub.relation == frozenset({(BroadWord(C, ("e", "f")), "b")})
    stump_sub = subtree_at(example, "d")
    assert stump_sub == stump_poset("d")


def test_subtree_at_unknown_edge_raises(example):
    with pytest.raises(IdentifierError):
        subtree_at(example, "z")


def test_root_corolla(example):
    rc = root_corolla(example)
    assert rc.carrier == {"r", "b", "c", "d"}
    assert rc.relation == frozenset({(BroadWord(C, ("b", "c", "d")), "r")})
    assert root_corolla(star("x")) == star("x")
    assert root_corolla(stump_poset()) == stump_poset()


# ---------------------------------------------------------------------------
# Elementary consequences of the axioms, checked exhaustively


@pytest.mark.parametrize("flavour", [C, P])
def test_unique_child_above_each_strict_descendant(flavour):
    for poset in tree_corpus(flavour, 4):
        classified = classify_all(poset)
        descend = descendant_order(poset)
        for below, above in descend:
            if below == above:
                continue
            children = classified[above].children
            assert children is not None
            holding = [
                t for t in set(children.letters) if descendant_leq(poset, below, t)
            ]
            assert len(holding) == 1


@pytest.mark.parametrize("flavour", [C, P])
def test_incomparable_descendants_share_a_word(flavour):
    for poset in tree_corpus(flavour, 4):
        for a1, a2, b in itertools.product(sorted(poset.carrier), repeat=3):
            if a1 >= a2:
                continue
            if descendant_leq(poset, a1, a2) or descendant_leq(poset, a2, a1):
                continue
            if not (descendant_leq(poset, a1, b) and descendant_leq(poset, a2, b)):
                continue
            witnesses = [
                w
                for w, t in poset.relation
                if t == b and a1 in w.letters and a2 in w.letters
            ]
            assert witnesses, (poset, a1, a2, b)


@pytest.mark.parametrize("flavour", [C, P])
def test_every_non_root_edge_has_unique_parent(flavour):
    for poset in tree_corpus(flavour, 4):
        the_root = root(poset)
        classified = classify_all(poset)
        for element in poset.carrier:
            owners = [
                x
                for x, cls in classified.items()
                if cls.children is not None and element in cls.children.letters
            ]
            if element == the_root:
                assert owners == []
            else:
                assert len(owners) == 1
                assert parent(poset, element) == owners[0]


@pytest.mark.parametrize("flavour", [C, P])
def test_joins_total_associative_commutative_idempotent(flavour):
    for poset in tree_corpus(flavour, 4):
        elements = sorted(poset.carrier)
        for a, b in itertools.product(elements, repeat=2):
            assert join(poset, a, b) == join(poset, b, a)
            assert join(poset, a, a) == a
        if len(elements) <= 5:
            for a, b, c in itertools.product(elements, repeat=3):
                assert join(poset, join(poset, a, b), c) == join(
                    poset, a, join(poset, b, c)
                )


@pytest.mark.parametrize("flavour", [C, P])
def test_degree_formula_on_small_corpus(flavour):
    for poset in tree_corpus(flavour, 5):
        assert degree(poset) == len(poset.carrier) - len(leaves(poset))


def test_descendant_bottom_iff_linear():
    # A stump-free tree has a descendant bottom exactly when it has a
    # single leaf, and then it is an embedded linear order up to renaming.
    # Stumps are genuine exceptions on both sides: the one-edge stump tree
    # has a bottom but no leaf, while r(a,d()) has one leaf but no bottom.
    from dendro.core import find_isomorphism

    for flavour in (C, P):
        for poset in tree_corpus(flavour, 4):
            descend = descendant_order(poset)
            bottoms = [
                x
                for x in poset.carrier
                if all((x, y) in descend for y in poset.carrier)
            ]
            if not stumps(poset):
                single_leaf = len(leaves(poset)) == 1
                assert bool(bottoms) == single_leaf
                if single_leaf:
                    chain = linear_tree(len(poset.carrier) - 1, flavour)
                    assert find_isomorphism(poset, chain) is not None
            else:
                # with stumps, a bottom still forces a linear descendant order
                if bottoms:
                    for a, b in itertools.product(sorted(poset.carrier), repeat=2):
                        assert (a, b) in descend or (b, a) in descend


def test_stump_counterexamples_to_bottom_leaf_claim():
    one_stump = stump_poset()
    assert len(leaves(one_stump)) == 0
    descend = descendant_order(one_stump)
    assert all((("x", y) in descend) for y in one_stump.carrier)  # bottom exists
    lopsided = to_broad(parse_term("r(a,d())"), C)
    assert len(leaves(lopsided)) == 1
    descend = descendant_order(lopsided)
    assert not [
        x for x in lopsided.carrier if all((x, y) in descend for y in lopsided.carrier)
    ]


# ---------------------------------------------------------------------------
# Trees cut out of a tree


CUT_CORPUS_EDGES = 7


def cut_trees(poset: BroadPoset):
    """Every tree cut out of a tree: its face domains, its subtrees at
    each edge and its degeneracy codomains."""
    yield from (face.domain for face in all_faces(poset))
    yield from (subtree_at(poset, x) for x in sorted(poset.carrier))
    yield from (sigma.codomain for sigma in degeneracies(poset))


@pytest.mark.parametrize("flavour", [C, P])
def test_cut_trees_are_the_trees_the_constructor_builds(flavour):
    """Each cut tree holds only its vertex map, and its written relation
    is the relation of the broad poset the checked constructor builds on
    its carrier, whose recognised map is the kept one; so are its pickled
    and deep-copied twins.  The cuts of one tree share its words, so they
    are pickled and copied together."""
    checked = 0
    for poset in tree_corpus(flavour, CUT_CORPUS_EDGES):
        cuts = list(cut_trees(poset))
        kept = [cut._known[_maxima_map.__name__] for cut in cuts]
        for cut, map_and_root, *twins in zip(cuts, kept, pickle.loads(pickle.dumps(cuts)), copy.deepcopy(cuts)):
            assert list(cut._known) == [_maxima_map.__name__]
            built = BroadPoset(flavour, cut.carrier, cut.relation)
            assert _maxima_map(built) == map_and_root
            for twin in (cut, *twins):
                assert (twin.flavour, twin.carrier, twin.meta) == (built.flavour, built.carrier, built.meta)
                assert twin.relation == built.relation
                assert twin._known[_maxima_map.__name__] == map_and_root
            checked += 1
    print(f"[PASS] cut trees: {checked} {flavour.value} cuts as the constructor builds them")


def written_from(flavour: Flavour, carrier, vertices) -> BroadPoset:
    return core._tree_poset(flavour, frozenset(carrier), vertices)


def test_a_cut_that_keeps_a_removed_edge_is_refused():
    """A vertex map edited as a cut edits it, but keeping an edge the cut
    removes, is refused as the constructor refuses such a pair."""
    with pytest.raises(IdentifierError) as info:
        written_from(C, {"r", "b"}, {"r": ("a", "b")})
    assert str(info.value) == "letter 'a' not in carrier"
    with pytest.raises(IdentifierError) as info:
        written_from(C, {"r", "c"}, {"a": ("c",)})
    assert str(info.value) == "target 'a' not in carrier"


def test_a_cut_with_a_pair_the_tree_lacks_is_refused():
    """A reflexive vertex is refused as the constructor refuses such a
    pair.  A vertex map holds letters, which have no flavour, so a word of
    the other flavour can only come as a pair, which the constructor
    refuses."""
    with pytest.raises(FlavourMismatch) as info:
        BroadPoset(C, {"r", "a", "b"}, [(BroadWord(P, ("a", "b")), "r")])
    assert str(info.value) == "word a·b has flavour planar"
    with pytest.raises(InvalidArgument) as info:
        written_from(C, {"r", "a", "b"}, {"r": ("a", "b"), "a": ("a",)})
    assert str(info.value) == "reflexive pair a ≤ a must stay implicit"


@pytest.mark.parametrize("flavour", [C, P])
def test_structure_of_tensors_matches_the_stacked_word_order(flavour, monkeypatch):
    """Most tensors of trees are not trees, so their maxima and links are
    found in the word order.  Each is asked of a bare copy, which keeps nothing,
    once as the library decides the order and once with the earlier
    stacked search; tensors of trees up to 4 edges with at most 9
    elements."""
    trees = tree_corpus(flavour, 4)
    tensors = [
        tensor(a, b)
        for a, b in itertools.combinations_with_replacement(trees, 2)
        if len(a.carrier) * len(b.carrier) <= 9
    ]

    def answers():
        out = []
        for t in tensors:
            bare = BroadPoset(t.flavour, t.carrier, t.relation)
            out.append((classify_all(bare), links(bare), is_dendroidal(bare).violations))
        return out

    def stacked(*question):
        asked.append(question)
        return stacked_word_leq(*question)

    ours, asked = answers(), []
    monkeypatch.setattr(core, "_word_leq", stacked)
    monkeypatch.setattr(structure, "_word_leq", stacked)
    assert ours == answers()
    assert asked and any(violations for _, _, violations in ours)
