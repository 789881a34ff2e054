import itertools
import random

import pytest

from dendro.core import (
    BroadPoset,
    BroadWord,
    Flavour,
    MonotoneMap,
    corolla,
    is_monotone,
    pushout,
    star,
)
from dendro.errors import BudgetExceeded, DuplicateEdge, NotALeaf, ParseError
from dendro.structure import degree, leaves, root
from dendro.terms import (
    TreeTerm,
    are_isomorphic,
    canonical_code,
    enumerate_trees,
    full_graft,
    graft,
    parse_term,
    print_term,
    term_code,
    to_broad,
    to_term,
    tree_isomorphisms,
)

from conftest import stump_poset, tree_corpus
from oracles import brute_planar_terms, naive_closure, shape_code

C = Flavour.COMMUTATIVE
P = Flavour.PLANAR


# ---------------------------------------------------------------------------
# Parsing and printing


def test_parse_corolla():
    term = parse_term("r(a,b)")
    assert term.edge == "r"
    assert [c.edge for c in term.children] == ["a", "b"]
    assert term.edge_count() == 3


def test_parse_bare_edge():
    term = parse_term("x")
    assert term.is_leaf
    assert not term.is_stump


def test_parse_example_tree():
    term = parse_term("r(b(e,f),c,d())")
    assert sorted(term.edges()) == ["b", "c", "d", "e", "f", "r"]
    kinds = {c.edge: c for c in term.children}
    assert kinds["d"].is_stump
    assert kinds["c"].is_leaf


def test_parse_whitespace_insignificant():
    assert parse_term(" r ( a , b ) ") == parse_term("r(a,b)")


def test_print_parse_round_trip():
    for text in ["x", "x()", "r(a,b)", "r(b(e,f),c,d())", "a(b(c(d)))"]:
        assert print_term(parse_term(text)) == text


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_term("r(a,,b)")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_term("r(a,b")
    with pytest.raises(ParseError):
        parse_term("r(a,b))")
    with pytest.raises(ParseError):
        parse_term("")


def test_parse_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        parse_term("r(a,a)")


def test_parse_deep_terms_without_recursion():
    depth = 3000
    text = "".join(f"d{i}(" for i in range(depth)) + "x" + ")" * depth
    term = parse_term(text)
    assert term.edge_count() == depth + 1
    assert list(term.edges())[-2:] == [f"d{depth - 1}", "x"]
    with pytest.raises(ParseError) as info:
        parse_term(text[: -depth] + ",,")
    assert info.value.position == len(text) - depth + 1


@pytest.mark.parametrize("flavour", [C, P])
def test_print_and_code_deep_terms_without_recursion(flavour):
    depth = 5000
    text = "".join(f"d{i}(" for i in range(depth)) + "x" + ")" * depth
    term = parse_term(text)
    assert print_term(term) == text
    assert canonical_code(term, flavour) == "(" * depth + "*" + ")" * depth


# ---------------------------------------------------------------------------
# Terms to broad posets


@pytest.mark.parametrize(
    "term",
    [
        TreeTerm("r", (TreeTerm("a", (TreeTerm("b"),)), TreeTerm("c", (TreeTerm("b"),)))),
        TreeTerm("r", (TreeTerm("r", (TreeTerm("b"),)),)),
    ],
)
def test_to_broad_rejects_repeated_edges(term):
    for flavour in (C, P):
        with pytest.raises(DuplicateEdge):
            to_broad(term, flavour)


def test_bare_edge_is_point():
    assert to_broad(parse_term("x"), C) == star("x")


def test_corolla_term():
    assert to_broad(parse_term("r(l1,l2)"), C) == corolla(2)


def test_stump_term():
    assert to_broad(parse_term("x()"), C) == stump_poset("x")


@pytest.mark.parametrize("flavour", [C, P])
def test_example_tree_matches_closure_oracle(flavour):
    poset = to_broad(parse_term("r(b(e,f),c,d())"), flavour)
    generators = [(("e", "f"), "b"), ((), "d"), (("b", "c", "d"), "r")]
    expected, _ = naive_closure("bcdefr", generators, flavour)
    assert {(w.letters, t) for w, t in poset.relation} == set(expected)
    assert len(poset.relation) == 6


def test_to_broad_planar_keeps_order():
    poset = to_broad(parse_term("r(a,b)"), P)
    assert (BroadWord(P, ("a", "b")), "r") in poset.relation
    assert (BroadWord(P, ("b", "a")), "r") not in poset.relation


# ---------------------------------------------------------------------------
# Broad posets to terms


def test_point_to_term():
    assert to_term(star("x")) == TreeTerm("x", None)


def test_to_term_rejects_non_trees():
    from dendro.errors import NotDendroidal

    with pytest.raises(NotDendroidal):
        to_term(BroadPoset.build(C, ["u", "v"]))


def test_corolla_to_term():
    term = to_term(corolla(3))
    assert term.edge == "r"
    assert all(c.is_leaf for c in term.children)
    assert term.edge_count() == 4


@pytest.mark.parametrize("flavour", [C, P])
def test_codec_round_trips(flavour):
    for poset in tree_corpus(flavour, 5):
        term = to_term(poset)
        assert to_broad(term, flavour) == poset
    for term in enumerate_trees(4, flavour):
        back = to_term(to_broad(term, flavour))
        assert term_code(back, flavour) == term_code(term, flavour)


# ---------------------------------------------------------------------------
# Grafting


def test_graft_corollas():
    top = corolla(2, root="m", leaf_prefix="k")
    result = graft(corolla(2), "l1", top)
    assert len(result.carrier) == 5
    assert degree(result) == 2
    assert result.leq(("k1", "k2", "l2"), "r")


def test_graft_point_is_identity():
    g2 = corolla(2)
    assert graft(g2, "l1", star("y")) == g2


def test_graft_requires_leaf():
    with pytest.raises(NotALeaf):
        graft(corolla(2), "r", star("y"))


def test_graft_renames_collisions():
    # the scion reuses the host's names; all but the glued root get primes
    result = graft(corolla(2), "l1", corolla(2))
    assert result.carrier == {"r", "l1", "l2", "l1'", "l2'"}
    renamed = result.meta["renamed"]
    assert renamed == {"r": "l1", "l1": "l1'", "l2": "l2'"}


def test_graft_agrees_with_pushout():
    cases = [
        (corolla(2), "l1", corolla(2, root="m", leaf_prefix="k")),
        (corolla(1), "l1", stump_poset("s")),
        (corolla(3), "l2", corolla(1, root="m", leaf_prefix="k")),
    ]
    for host, leaf, scion in cases:
        direct = graft(host, leaf, scion)
        point = star("x", host.flavour)
        into_host = MonotoneMap.from_dict(point, host, {"x": leaf})
        into_scion = MonotoneMap.from_dict(point, scion, {"x": root(scion)})
        via_pushout, _, _ = pushout(into_host, into_scion)
        ok, _ = are_isomorphic(direct, via_pushout)
        assert ok


@pytest.mark.parametrize("flavour", [C, P])
def test_graft_equals_closure_of_union(flavour):
    # the explicit description of grafting agrees with saturating the
    # union of both relations on the glued carrier
    from dendro.core import generate_broad_poset

    corpus = tree_corpus(flavour, 4)
    for host in corpus[::3]:
        for leaf in sorted(leaves(host))[:1]:
            for scion in corpus[::4]:
                direct = graft(host, leaf, scion)
                renaming = dict(direct.meta["renamed"])
                renamed = scion.rename(renaming) if renaming else scion
                closed = generate_broad_poset(
                    direct.carrier,
                    [(w.letters, t) for w, t in host.relation]
                    + [(w.letters, t) for w, t in renamed.relation],
                    flavour,
                )
                assert closed == direct
                from dendro.structure import is_dendroidal

                assert is_dendroidal(direct).is_dendroidal


def test_full_graft_degree():
    targets = {
        "l1": corolla(2, root="m", leaf_prefix="k"),
        "l2": star("y"),
        "l3": stump_poset("s"),
    }
    result = full_graft(corolla(3), targets)
    assert degree(result) == 1 + 1 + 0 + 1


@pytest.mark.parametrize("flavour", [C, P])
def test_degree_additive_on_sample(flavour):
    corpus = tree_corpus(flavour, 4)
    for host in corpus[:10]:
        for leaf in sorted(leaves(host))[:1]:
            for scion in corpus[:10]:
                grafted = graft(host, leaf, scion)
                assert degree(grafted) == degree(host) + degree(scion)


# ---------------------------------------------------------------------------
# Canonical codes and isomorphism


def test_codes_distinguish_leaf_and_stump():
    assert canonical_code(parse_term("x"), C) == "*"
    assert canonical_code(parse_term("x()"), C) == "()"
    assert canonical_code(parse_term("r(a,b)"), C) == "(**)"


def test_commutative_swap_isomorphic():
    left = to_broad(parse_term("r(a,b(c))"), C)
    right = to_broad(parse_term("r(b(c),a)"), C)
    ok, witness = are_isomorphic(left, right)
    assert ok and witness is not None
    assert witness == {"r": "r", "a": "a", "b": "b", "c": "c"}


def test_planar_swap_needs_the_twist():
    left = to_broad(parse_term("r(a,b)"), P)
    right = to_broad(parse_term("r(b,a)"), P)
    assert left != right
    ok, witness = are_isomorphic(left, right)
    assert ok
    assert witness == {"r": "r", "a": "b", "b": "a"}
    assert not is_monotone({"r": "r", "a": "a", "b": "b"}, left, right)


def test_self_isomorphisms():
    g2c = corolla(2)
    assert len(tree_isomorphisms(g2c, g2c)) == 2  # identity and the swap
    g2p = to_broad(parse_term("r(a,b)"), P)
    assert tree_isomorphisms(g2p, g2p) == [{"r": "r", "a": "a", "b": "b"}]


def test_wide_and_leaf_first_trees_list_their_one_isomorphism():
    """Leaves share one code, so only the tree's shape keeps the search
    from trying every assignment of leaves to leaves."""
    planar = corolla(12, P)
    assert tree_isomorphisms(planar, planar) == [{x: x for x in planar.carrier}]
    term = "x12(a12)"
    for i in range(11, 0, -1):
        term = f"x{i}(a{i}, {term})"
    caterpillar = to_broad(parse_term(f"r(a0, {term})"), C)
    assert tree_isomorphisms(caterpillar, caterpillar) == [
        {x: x for x in caterpillar.carrier}
    ]
    assert len(tree_isomorphisms(corolla(6), corolla(6, root="s", leaf_prefix="k"))) == 720


def test_isomorphism_respects_size():
    ok, _ = are_isomorphic(corolla(2), corolla(3))
    assert not ok


def test_codes_decide_isomorphism_against_bruteforce():
    from oracles import brute_isomorphisms

    corpus = tree_corpus(C, 4)[:14]
    for left, right in itertools.product(corpus, repeat=2):
        ok, witness = are_isomorphic(left, right)
        brute = brute_isomorphisms(left, right)
        assert ok == bool(brute)
        if ok:
            assert witness in brute
            # the reported witness is the lexicographically least one
            key = lambda a: tuple(v for _, v in sorted(a.items()))
            assert key(witness) == min(key(a) for a in brute)


def _renamed(poset, rng):
    names = sorted(poset.carrier)
    fresh = [f"n{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    return poset.rename(dict(zip(names, fresh)))


@pytest.mark.parametrize("flavour", [C, P])
def test_witness_is_least_brute_isomorphism(flavour):
    """The witness is the oracle's least isomorphism, and the list of all
    of them is the oracle's, in its order; on a renamed left side too."""
    from oracles import brute_isomorphisms

    rng = random.Random(3)
    key = lambda a: tuple(v for _, v in sorted(a.items()))  # noqa: E731
    corpus = tree_corpus(flavour, 6)
    for i, tree in enumerate(corpus):
        for other in (tree, corpus[i - 1]):
            right = _renamed(other, rng)
            for left in (tree, _renamed(tree, rng)):
                brute = brute_isomorphisms(left, right)
                ok, witness = are_isomorphic(left, right)
                assert ok == bool(brute)
                assert witness == (min(brute, key=key) if brute else None)
                assert tree_isomorphisms(left, right) == brute


def test_wide_commutative_corolla_is_decided_without_enumeration():
    left = corolla(12)
    right = corolla(12, root="s", leaf_prefix="k")
    ok, witness = are_isomorphic(left, right)
    assert ok
    assert witness == {"r": "s", **dict(zip(sorted(leaves(left)), sorted(leaves(right))))}


# ---------------------------------------------------------------------------
# Enumeration


def test_enumeration_counts():
    comm = [len([t for t in enumerate_trees(n, C) if t.edge_count() == n]) for n in range(1, 6)]
    planar = [len([t for t in enumerate_trees(n, P) if t.edge_count() == n]) for n in range(1, 6)]
    assert comm == [2, 2, 5, 13, 37]
    assert planar == [2, 2, 6, 22, 90]


def test_single_edge_trees():
    terms = enumerate_trees(1, C)
    assert len(terms) == 2
    assert {t.is_stump for t in terms} == {True, False}


@pytest.mark.parametrize("flavour", [C, P])
def test_enumeration_complete_against_bruteforce(flavour):
    for n in range(1, 6):
        ours = {
            term_code(t, flavour)
            for t in enumerate_trees(n, flavour)
            if t.edge_count() == n
        }
        brute = {
            shape_code(s, flavour is C) for s in brute_planar_terms(n)
        }
        assert ours == brute
        assert len(ours) == len(
            [t for t in enumerate_trees(n, flavour) if t.edge_count() == n]
        )


def test_corollas_appear_once():
    terms = enumerate_trees(6, C)
    for n in range(0, 6):
        code = "(" + "*" * n + ")"
        assert len([t for t in terms if term_code(t, C) == code]) == 1


def test_enumeration_deterministic():
    assert enumerate_trees(5, C) == enumerate_trees(5, C)
    assert enumerate_trees(5, P) == enumerate_trees(5, P)


def test_enumeration_cap():
    with pytest.raises(BudgetExceeded):
        enumerate_trees(9, C)
