"""Inside the package a word is the tuple of its canonical letters; a
``BroadWord`` is built only where a public value hands one out."""

import pickle
from contextlib import ExitStack
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro import category, core, structure, terms
from dendro.category import (
    all_faces,
    classify_maximal,
    degeneracies,
    enumerate_subtrees,
    inner_face,
    maximal_subtrees,
    outer_face,
    root_face,
)
from dendro.core import (
    BroadPoset,
    BroadWord,
    Flavour,
    MonotoneMap,
    enumerate_monotone,
    pair_str,
    validate,
)
from dendro.structure import EdgeKind, classify_all, is_dendroidal, links, subtree_at, vertices
from dendro.terms import are_isomorphic, canonical_code, graft, parse_term, to_broad, to_term

from oracles import word_build, word_pairs_checked

C = Flavour.COMMUTATIVE
P = Flavour.PLANAR
MODULES = (core, structure, terms, category)


class counted_words:
    """Within the block, counts the words built through ``BroadWord.__init__``
    or ``_canonical_word``, in every module that has it."""

    def __enter__(self) -> list:
        self.built: list = []
        self.stack = ExitStack()
        init, wrap = BroadWord.__init__, core._canonical_word
        self.stack.enter_context(
            patch.object(BroadWord, "__init__", lambda w, *args: self.built.append(args) or init(w, *args))
        )
        for module in MODULES:
            if hasattr(module, "_canonical_word"):
                self.stack.enter_context(
                    patch.object(module, "_canonical_word", lambda *args: self.built.append(args) or wrap(*args))
                )
        return self.built

    def __exit__(self, *exc) -> None:
        self.stack.close()


@pytest.mark.parametrize("flavour", [C, P])
def test_internal_paths_build_no_word(flavour):
    """Reading, building, recognising, cutting, coding and mapping trees
    hand letter tuples around and build no word."""
    term = parse_term("r(a(b,c),d(e()),f)")
    tree = to_broad(term, flavour)
    data = tree.to_json()
    bare = BroadPoset(flavour, tree.carrier, tree.relation)
    other = to_broad(parse_term("s(t(u,v),w(x()),y)"), flavour)
    chain = to_broad(parse_term("p(q(s))"), flavour)
    cluster = (BroadWord(flavour, ("b", "c")), "a")
    calls = {
        "from_json": lambda: BroadPoset.from_json(data),
        "build": lambda: BroadPoset.build(flavour, "abc", [(("b", "a"), "c"), (("a",), "b")]),
        "leq": lambda: tree.leq(("c", "b"), "a"),
        "to_broad": lambda: to_broad(term, flavour),
        "graft": lambda: graft(tree, "b", other),
        "recognition": lambda: structure._maxima_map(bare),
        "is_dendroidal": lambda: is_dendroidal(bare),
        "validate": lambda: validate(BroadPoset.from_json(data)),
        "face domains": lambda: [
            inner_face(tree, "a").domain, outer_face(tree, cluster).domain, root_face(chain, "q").domain,
            *maximal_subtrees(tree),
        ],
        "subtrees": lambda: [subtree_at(tree, "a"), *enumerate_subtrees(tree)],
        "degeneracy codomains": lambda: [sigma.codomain for sigma in degeneracies(chain)],
        "to_term": lambda: to_term(tree),
        "canonical_code": lambda: canonical_code(tree),
        "are_isomorphic": lambda: are_isomorphic(tree, other),
        "enumerate_monotone": lambda: enumerate_monotone(chain, tree),
        "rename": lambda: tree.rename({"a": "g"}),
    }
    for name, call in calls.items():
        with counted_words() as built:
            call()
        assert built == [], name


@pytest.mark.parametrize("flavour", [C, P])
def test_public_readers_hand_out_words(flavour):
    """Each public value that holds a word holds a ``BroadWord``."""
    tree = to_broad(parse_term("r(a(b,c),d(),f)"), flavour)
    crossed = BroadPoset.build(flavour, "abcdx", [("ab", "x"), ("cd", "x"), ("c", "a"), ("d", "b")])
    words = [w for w, _ in tree.relation]
    words += list(tree.sources("r"))
    words += [w for p in (tree, crossed) for w, _ in links(p)]
    words += [w for w, _ in vertices(tree)]
    words += [c.children for p in (tree, crossed) for c in classify_all(p).values() if c.children is not None]
    words += [f.kind.cluster[0] for f in all_faces(tree) if f.kind.cluster is not None]
    words.append(classify_maximal(tree, outer_face(tree, (BroadWord(flavour, "bc"), "a")).domain).cluster[0])
    words += [w for w, _ in structure.outer_clusters(tree)]
    words.append(MonotoneMap.from_dict(tree, tree, {x: x for x in tree.carrier}).word(BroadWord(flavour, "ab")))
    assert len(words) > 30
    assert all(type(w) is BroadWord and w.flavour is flavour for w in words)


@pytest.mark.parametrize("flavour", [C, P])
def test_an_asked_tree_pickles_no_word(flavour):
    """What a tree keeps on itself once asked is letters, not words."""
    for tree in (to_broad(parse_term("r(a(b,c),d(),f)"), flavour), BroadPoset.build(flavour, "rab", [("ab", "r")])):
        is_dendroidal(tree)
        classify_all(tree)
        links(tree)
        all_faces(tree)
        assert b"BroadWord" not in pickle.dumps(tree)


def test_links_of_a_relation_that_is_not_transitive():
    """The planar relation a·b ≤ x, c·d ≤ x, c ≤ a, d ≤ b lacks c·b ≤ x and
    a·d ≤ x.  Its maximum below x is a·b, and links are the maxima: c·d ≤ x
    is no link, although no single substitution into another pair gives
    it.  So on a relation whose validation fails, the indecomposable pairs
    are not the links, and one indecomposable pair below a target is not
    its maximum."""
    crossed = BroadPoset.build(P, "abcdx", [("ab", "x"), ("cd", "x"), ("c", "a"), ("d", "b")])
    pairs = core._relation_pairs(crossed)
    derived = {
        (w[:i] + v + w[i + 1:], t)
        for w, t in pairs
        for i, letter in enumerate(w)
        for v, below in pairs
        if below == letter
    }
    assert (("c", "d"), "x") not in derived
    assert sorted(map(pair_str, links(crossed))) == ["a·b ≤ x", "c ≤ a", "d ≤ b"]
    kinds = {x: (c.kind, c.children and c.children.letters) for x, c in classify_all(crossed).items()}
    assert kinds == {
        "x": (EdgeKind.HAS_CHILDREN, ("a", "b")),
        "a": (EdgeKind.HAS_CHILDREN, ("c",)),
        "b": (EdgeKind.HAS_CHILDREN, ("d",)),
        "c": (EdgeKind.LEAF, None),
        "d": (EdgeKind.LEAF, None),
    }
    report = is_dendroidal(crossed)
    assert not report.is_dendroidal and not validate(crossed).ok
    assert (report.simple, report.has_root, report.children_axiom, report.root) == (True, True, True, "x")
    assert report.violations == (
        "missing a·d ≤ x obtained from a·b ≤ x and d ≤ b",
        "missing c·b ≤ x obtained from a·b ≤ x and c ≤ a",
    )


IDENTIFIERS = ["a", "b", "c", "z", 1, None, ("a",), ["u"]]
identifiers = st.sampled_from(IDENTIFIERS)
names = st.sampled_from(["a", "b", "c", "z"])
MALFORMED = [("a",), (("a",), "b", "c"), 1, (1, "a"), "ab", (("a",), "b", "c", "d")]


@st.composite
def pair_lists(draw):
    """A flavour, a carrier and raw pairs: letter sequences and words of
    either flavour, identifiers outside the carrier, that are no strings or
    do not hash, and entries that are no pairs."""
    flavour = draw(st.sampled_from([C, P]))
    carrier = draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True))
    if draw(st.integers(0, 9)) == 0:
        carrier.append(draw(identifiers))
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        roll = draw(st.integers(0, 9))
        target = draw(names) if roll < 7 else draw(identifiers)
        if roll == 0:
            entries.append(draw(st.sampled_from(MALFORMED)))
        elif roll in (1, 2):
            word_flavour = draw(st.sampled_from([C, P]))
            letters = draw(st.lists(names if word_flavour is C else identifiers, max_size=3))
            entries.append((BroadWord(word_flavour, letters), target))
        else:
            letters = draw(st.lists(names if roll < 8 else identifiers, max_size=3))
            entries.append((letters if roll % 2 else tuple(letters), target))
    return flavour, carrier, entries


def outcome(call):
    try:
        return call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(pair_lists())
def test_build_matches_the_constructor_on_words(drawn):
    """``build`` raises what the constructor raises on the pairs wrapped as
    words, type and message, or builds the poset it builds, and then
    builds no word."""
    flavour, carrier, pairs = drawn
    expected = outcome(lambda: word_build(flavour, carrier, pairs))
    with counted_words() as built:
        got = outcome(lambda: BroadPoset.build(flavour, carrier, pairs))
    assert got == expected
    if isinstance(got, BroadPoset):
        assert built == []


@st.composite
def word_relations(draw):
    """A flavour, a carrier and relation entries: words of either flavour,
    with letters and targets inside or outside the carrier, that are no
    strings or do not hash, and entries that are no word pairs."""
    flavour = draw(st.sampled_from([C, P]))
    carrier = draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True))
    if draw(st.integers(0, 9)) == 0:
        carrier.append(draw(st.sampled_from(IDENTIFIERS[4:7])))
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        roll = draw(st.integers(0, 9))
        word_flavour = flavour if roll < 8 else draw(st.sampled_from([C, P]))
        letters = draw(st.lists(names if word_flavour is C or roll < 6 else identifiers, max_size=3))
        target = draw(names) if roll < 7 else draw(identifiers)
        if roll == 0:
            entries.append(draw(st.sampled_from([*MALFORMED, (tuple(letters), target), [BroadWord(flavour, "a"), "b"]])))
        else:
            entries.append((BroadWord(word_flavour, letters), target))
    return flavour, carrier, entries


@settings(max_examples=600, deadline=None)
@given(word_relations())
def test_the_constructor_checks_words_as_it_did(drawn):
    """The constructor, which checks its words' type and flavour and then
    their letters, raises what checking each word did, type and message,
    the least bad pair in ``repr`` order named, or holds those letters."""
    flavour, carrier, relation = drawn
    expected = outcome(lambda: word_pairs_checked(flavour, carrier, relation))
    got = outcome(lambda: core._relation_pairs(BroadPoset(flavour, carrier, relation)))
    assert got == expected
