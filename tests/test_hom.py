"""Hom sets out of a tree, read off the domain's vertex map, agree with
the general backtracking search on the exhaustive corpus, on random
codomains that are not trees, and with a brute-force scan on random
trees, map for map and in the same order; the budget still bounds the
assignment count, not the maps found.  The internal hom, ordered by the
pointwise rule, equals the one that tests every word of maps."""

import itertools
import random
import time
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dendro import core
from dendro.core import (
    BroadPoset,
    Flavour,
    MonotoneMap,
    corolla,
    enumerate_monotone,
    generate_broad_poset,
    internal_hom,
    map_signature,
    pushout,
    star,
    tensor,
)
from dendro.errors import BudgetExceeded, ClosureOverflow, IdentifierError, InvalidArgument
from dendro.terms import enumerate_trees, parse_term, to_broad

from conftest import flavours, tree_corpus, tree_terms
from oracles import brute_monotone_maps, enumerated_internal_hom


def searched(domain: BroadPoset, codomain: BroadPoset) -> list[dict[str, str]]:
    """The shared backtracker over the sorted domain, offering every value."""
    values = sorted(codomain.carrier)
    return list(core._assignments(domain, codomain, sorted(domain.carrier), lambda x, a: values, False))


def listed(maps) -> list[list[tuple[str, str]]]:
    return [list(m.mapping.items()) for m in maps]


def bare(poset: BroadPoset) -> BroadPoset:
    """The same broad poset built from its relation, holding no vertex map."""
    return BroadPoset(poset.flavour, poset.carrier, poset.relation)


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_tree_hom_sets_match_the_search_on_the_corpus(flavour, monkeypatch, refuse):
    pairs = list(itertools.product(tree_corpus(flavour, 4), repeat=2))
    expected = [searched(a, b) for a, b in pairs]

    monkeypatch.setattr(core, "SEARCH_AT_MOST", 0)  # every tree pair takes the tree path
    refuse(core, "_assignments", "a hom set between trees ran the backtracker")
    for (a, b), assignments in zip(pairs, expected):
        maps = enumerate_monotone(a, b)
        assert [m.pairs for m in maps] == [tuple(sorted(x.items())) for x in assignments]
        assert listed(maps) == [list(x.items()) for x in assignments]


@settings(max_examples=100, deadline=None)
@given(flavours, tree_terms(max_edges=6), tree_terms(max_edges=6), st.booleans())
def test_tree_hom_sets_match_the_oracle(flavour, source, target, recognised):
    domain, codomain = to_broad(source, flavour), to_broad(target, flavour)
    assume(len(codomain.carrier) ** len(domain.carrier) <= 10**5)
    if recognised:  # read the codomain's tree off its relation, not its record
        codomain = BroadPoset(flavour, codomain.carrier, codomain.relation)
    expected = [list(x.items()) for x in brute_monotone_maps(domain, codomain)]
    assert listed(enumerate_monotone(domain, codomain)) == expected
    with patch.object(core, "SEARCH_AT_MOST", 0):
        assert listed(enumerate_monotone(domain, codomain)) == expected


def test_small_hom_sets_read_no_tree(refuse):
    """Up to SEARCH_AT_MOST assignments the search runs on the relation
    alone, out of a domain that holds no vertex map: 4^3 = 64 here."""
    source = bare(to_broad(parse_term("r(a,b)"), Flavour.COMMUTATIVE))
    target = bare(to_broad(parse_term("s(c,d)"), Flavour.COMMUTATIVE))

    refuse(core, "_maxima_map", "a tree was read")
    assert len(enumerate_monotone(source, target)) == 2


@pytest.mark.parametrize("flavour", list(Flavour))
def test_held_small_hom_sets_take_the_tree_path(flavour, refuse):
    """A domain that holds its vertex map reads its maps off it at any size,
    here at most 5^3 = 125 assignments, with no search; the maps are those
    the search finds, in the same order."""
    cases = [("r(a,b)", "s(c,d)"), ("r(a,b)", "s(c(d),e())"), ("x", "y"), ("r(a,b)", "s")]
    posets = [[to_broad(parse_term(term), flavour) for term in pair] for pair in cases]
    expected = [searched(source, target) for source, target in posets]

    refuse(core, "_assignments", "the search ran")
    assert [[m.mapping for m in enumerate_monotone(source, target)] for source, target in posets] == expected
    assert [len(maps) for maps in expected] == ([2, 4, 1, 0] if flavour is Flavour.COMMUTATIVE else [1, 2, 1, 0])


def test_budget_bounds_the_assignments_not_the_maps():
    """4^3 assignments exceed a budget of 2, though only 2 maps exist."""
    source = to_broad(parse_term("r(a,b)"), Flavour.COMMUTATIVE)
    target = to_broad(parse_term("s(c,d)"), Flavour.COMMUTATIVE)
    assert len(enumerate_monotone(source, target)) == 2
    with pytest.raises(BudgetExceeded):
        enumerate_monotone(source, target, budget=2)


@st.composite
def broad_posets(draw, flavour: Flavour) -> BroadPoset:
    """A broad poset that is seldom a tree: a tensor, a pushout or an
    internal hom of two small trees, or the closure of random generators,
    which may hold cycles, stumps and repeated letters such as x·x <= y."""
    kind = draw(st.sampled_from(["closure", "tensor", "pushout", "internal_hom", "closure"]))
    if kind == "closure":
        carrier = [f"q{i}" for i in range(draw(st.integers(min_value=2, max_value=4)))]
        letter = st.sampled_from(carrier)
        generators = draw(st.lists(st.tuples(st.lists(letter, max_size=3), letter), max_size=4))
        if draw(st.booleans()):  # a repeated letter, as in q0·q0 <= q1
            generators.append((["q0"] * draw(st.integers(min_value=2, max_value=3)), "q1"))
        try:
            return generate_broad_poset(carrier, generators, flavour, 4)
        except ClosureOverflow:
            assume(False)
    left, right = (to_broad(draw(tree_terms(max_edges=2)), flavour) for _ in "lr")
    if kind == "tensor":
        return tensor(left, right)
    if kind == "internal_hom":
        return internal_hom(left, right)
    point = star("x", flavour)
    legs = [MonotoneMap.from_dict(point, side, {"x": draw(st.sampled_from(sorted(side.carrier)))}) for side in (left, right)]
    return pushout(*legs)[0]


@settings(max_examples=200, deadline=None)
@given(st.data(), flavours, tree_terms(max_edges=4))
def test_tree_hom_sets_into_any_broad_poset_match_the_search(data, flavour, source):
    domain, codomain = to_broad(source, flavour), data.draw(broad_posets(flavour))
    assume(len(codomain.carrier) ** len(domain.carrier) <= 10**5)
    expected = [list(x.items()) for x in searched(domain, codomain)]
    with patch.object(core, "SEARCH_AT_MOST", 0):  # every nonempty codomain takes the tree path
        assert listed(enumerate_monotone(domain, codomain)) == expected


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_a_repeated_letter_gives_each_map_once(flavour, monkeypatch):
    """Below q1 sits q0·q0, whose two letters may go to a and b either
    way round: one map, not two."""
    domain = to_broad(parse_term("r(a,b)"), flavour)
    codomain = generate_broad_poset(["q0", "q1"], [(("q0", "q0"), "q1")], flavour)
    monkeypatch.setattr(core, "SEARCH_AT_MOST", 0)
    assert listed(enumerate_monotone(domain, codomain)) == [[("a", "q0"), ("b", "q0"), ("r", "q1")]]


def tree_and_tensor(flavour: Flavour) -> tuple[BroadPoset, BroadPoset]:
    """A tree and a tensor that is not a tree, 9^3 = 729 assignments apart:
    more than SEARCH_AT_MOST."""
    return to_broad(parse_term("r(a,b)"), flavour), tensor(corolla(2, flavour), corolla(1, flavour))


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_a_tree_into_a_tensor_runs_no_search(flavour, refuse):
    domain, codomain = tree_and_tensor(flavour)
    expected = [list(x.items()) for x in brute_monotone_maps(domain, codomain)]

    refuse(core, "_assignments", "a hom set out of a tree ran the backtracker")
    maps = enumerate_monotone(domain, codomain)
    assert len(maps) == (10 if flavour is Flavour.COMMUTATIVE else 5)
    assert listed(maps) == expected


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_a_tree_into_a_tensor_reads_no_tree_off_the_tensor(flavour):
    domain, codomain = tree_and_tensor(flavour)
    enumerate_monotone(domain, codomain)
    assert "_maxima_map" in domain._known
    assert "_maxima_map" not in codomain._known
    assert core._maxima_map(codomain)[1] is None  # and it is no tree


def closures(flavour: Flavour, count: int, seed: int) -> list[BroadPoset]:
    """Closures of random generators on up to 4 elements, with cycles,
    stumps and repeated letters; overflowing ones are left out."""
    rng = random.Random(seed)
    out: list[BroadPoset] = []
    while len(out) < count:
        carrier = [f"q{i}" for i in range(rng.randint(1, 4))]
        generators = [
            ([rng.choice(carrier) for _ in range(rng.choice([0, 1, 2, 2]))], rng.choice(carrier))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            out.append(generate_broad_poset(carrier, generators, flavour, 3))
        except ClosureOverflow:
            continue
    return out


def internal_hom_corpus(flavour: Flavour) -> list[BroadPoset]:
    """Trees up to 3 edges, the point, the stump corolla, tensors of
    trees up to 2 edges with at most 4 elements, and random closures."""
    small = [to_broad(t, flavour) for t in enumerate_trees(2, flavour)]
    return [
        *(to_broad(t, flavour) for t in enumerate_trees(3, flavour)),
        star("x", flavour),
        corolla(0, flavour),
        *(tensor(a, b) for a, b in itertools.combinations_with_replacement(small, 2) if len(a.carrier) * len(b.carrier) <= 4),
        *closures(flavour, 12, 3),
    ]


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_internal_hom_is_the_enumerated_one(flavour):
    """On the nose, on every ordered pair of the corpus: 33 posets
    commutative, 34 planar."""
    corpus = internal_hom_corpus(flavour)
    assert any(len(set(w.letters)) < len(w.letters) for p in corpus for w, _ in p.relation)
    for domain, codomain in itertools.product(corpus, repeat=2):
        assert internal_hom(domain, codomain) == enumerated_internal_hom(domain, codomain), (domain, codomain)


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_internal_hom_tests_no_word_with_leq(flavour, refuse):
    corpus = internal_hom_corpus(flavour)
    expected = {(a, b): enumerated_internal_hom(corpus[a], corpus[b]) for a, b in itertools.product(range(0, len(corpus), 3), repeat=2)}

    refuse(BroadPoset, "leq", "the internal hom asked the codomain's leq")
    for (a, b), hom in expected.items():
        assert internal_hom(corpus[a], corpus[b]) == hom


def test_internal_hom_answers_where_the_candidate_words_exceeded_the_budget():
    """10 maps have 10^4 planar words of length 4, the longest word below
    s: the enumerated hom gives up at a budget of 1000, the pointwise rule
    spells only the words at or below each map's value at a."""
    domain = to_broad(parse_term("r(a)"), Flavour.PLANAR)
    codomain = to_broad(parse_term("s(t(p,q),u(v,w),y(z))"), Flavour.PLANAR)
    with pytest.raises(BudgetExceeded) as info:
        enumerated_internal_hom(domain, codomain, budget=1000)
    assert str(info.value) == "10000 candidate words exceed budget 1000"
    hom = internal_hom(domain, codomain, budget=1000)
    assert (len(hom.carrier), len(hom.relation)) == (10, 17)


def test_internal_hom_out_of_an_empty_poset_raises():
    """Every word of the empty map is below it, so the internal hom out of
    the empty broad poset has no finite relation; a truncated one broke
    the adjunction: hom(A ⊗ E, C) has 1 map, hom(A, [E, C]) had none."""
    empty, target = BroadPoset.build(Flavour.COMMUTATIVE, []), corolla(1)
    assert len(enumerate_monotone(tensor(corolla(3), empty), target)) == 1
    with pytest.raises(InvalidArgument) as info:
        internal_hom(empty, target)
    assert str(info.value) == "the internal hom out of an empty broad poset has words of every length"


def test_internal_hom_refuses_maps_with_one_name():
    """Identifiers may hold '=>' and commas, so two maps can spell one name."""
    domain = BroadPoset.build(Flavour.COMMUTATIVE, ["a", "a,b"])
    codomain = BroadPoset.build(Flavour.COMMUTATIVE, ["p", "q,a,b=>r", "p,a,b=>q", "r"])
    assert len(enumerate_monotone(domain, codomain)) == 16
    with pytest.raises(IdentifierError) as info:
        internal_hom(domain, codomain)
    assert str(info.value) == (
        "maps {'a': 'p', 'a,b': 'q,a,b=>r'} and {'a': 'p,a,b=>q', 'a,b': 'r'} "
        "are both named 'a=>p,a,b=>q,a,b=>r'"
    )


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_internal_hom_spells_only_words_that_hold(flavour):
    """The discrete 4-point poset into ``q0·q2 <= q3`` has 256 maps.  A
    word of maps is below a map ``g`` only where its values at every point
    spell a word at or below ``g``'s, so only the constant ``q3`` has any:
    the pairs of maps with values ``q0`` and ``q2`` swapped point by point
    (8 commutative words), or the constants ``q0`` and ``q2`` in that
    order (1 planar word).  Filtering at the first point alone spelled
    64 × 64 words for each of the 64 maps sending it to ``q3`` and took
    about 0.6 s; intersecting the candidates point by point takes a few
    ms (2-core x86-64, CPython 3.11.7)."""
    points = ["a0", "a1", "a2", "a3"]
    domain = BroadPoset.build(flavour, points)
    codomain = BroadPoset.build(flavour, ["q0", "q1", "q2", "q3"], [(("q0", "q2"), "q3")])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        hom = internal_hom(domain, codomain)
        times.append(time.perf_counter() - start)
    name = {values: map_signature(dict(zip(points, values))) for values in itertools.product(["q0", "q2"], repeat=4)}
    swap = {"q0": "q2", "q2": "q0"}
    if flavour is Flavour.COMMUTATIVE:
        words = {tuple(sorted([name[v], name[tuple(swap[q] for q in v)]])) for v in name}
    else:
        words = {(name["q0", "q0", "q0", "q0"], name["q2", "q2", "q2", "q2"])}
    top = map_signature(dict.fromkeys(points, "q3"))
    assert len(hom.carrier) == 256
    assert {(w.letters, t) for w, t in hom.relation} == {(w, top) for w in words}
    assert len(words) == (8 if flavour is Flavour.COMMUTATIVE else 1)
    assert min(times) < 0.05
