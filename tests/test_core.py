import itertools
import random
import sys
from collections import Counter, defaultdict
from contextlib import suppress
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendro import core
from dendro.core import (
    BroadPoset,
    BroadWord,
    FinitePoset,
    Flavour,
    MonotoneMap,
    abelianize,
    check_isomorphism,
    compose,
    corolla,
    embed_poset,
    enumerate_monotone,
    find_isomorphism,
    forget_symmetry,
    generate_broad_poset,
    identity,
    internal_hom,
    is_monotone,
    pair_id,
    product,
    pushout,
    star,
    tensor,
    underlying_poset,
    validate,
    word,
    word_leq,
)
from dendro.errors import (
    BudgetExceeded,
    ClosureOverflow,
    CollapseError,
    DomainMismatch,
    FlavourMismatch,
    IdentifierError,
    InvalidArgument,
    ParseError,
)
from dendro.structure import is_dendroidal
from dendro.terms import canonical_code, enumerate_trees, parse_term, term_code, to_broad

from conftest import refusal, stump_poset, tree_corpus
from oracles import (
    brute_word_leq,
    brute_descendant_cycles,
    brute_monotone_maps,
    counted_element_profiles,
    naive_closure,
    queue_closure,
    stacked_word_leq,
    tuple_element_profiles,
    word_scan_violations,
)

C = Flavour.COMMUTATIVE
P = Flavour.PLANAR


# ---------------------------------------------------------------------------
# Words


def test_commutative_words_compare_as_multisets():
    assert BroadWord(C, ("b", "a")) == BroadWord(C, ("a", "b"))
    assert BroadWord(P, ("b", "a")) != BroadWord(P, ("a", "b"))


def test_empty_word_is_distinct():
    assert BroadWord(C, ()) != BroadWord(C, ("a",))
    assert len(BroadWord(C, ())) == 0


def test_word_leq_chunks():
    g2 = corolla(2)
    assert word_leq(g2, BroadWord(C, ("l1", "l2")), BroadWord(C, ("r",)))
    assert not word_leq(g2, BroadWord(C, ("l1",)), BroadWord(C, ("r",)))
    assert word_leq(g2, BroadWord(C, ("l1",)), BroadWord(C, ("l1",)))


@st.composite
def word_questions(draw):
    """A relation over three letters, not closed, and two words; the lower
    word is often made of chunks below the upper word's letters."""
    flavour = draw(st.sampled_from([C, P]))
    carrier = ["a", "b", "c"]
    letters = st.lists(st.sampled_from(carrier), max_size=3)
    pairs = draw(st.lists(st.tuples(letters, st.sampled_from(carrier)), max_size=5))
    upper = draw(st.lists(st.sampled_from(carrier), max_size=3))
    if draw(st.booleans()):
        lower = draw(st.lists(st.sampled_from(carrier), max_size=5))
    else:
        lower = []
        for t in upper:
            below = [[t], *(w for w, target in pairs if target == t)]
            lower += draw(st.sampled_from(below) | letters)
    poset = BroadPoset.build(flavour, carrier, pairs)
    return poset, word(flavour, lower), word(flavour, upper)


@settings(max_examples=400, deadline=None)
@given(word_questions())
def test_word_leq_matches_every_split(question):
    poset, lower, upper = question
    assert word_leq(poset, lower, upper) == brute_word_leq(poset, lower, upper)


# the poset the word-order queries below are asked about
BC_BELOW_A = BroadPoset.build(C, ["a", "b", "c"], [(("b", "c"), "a")])


def test_leq_refuses_a_word_of_the_other_flavour():
    poset = BroadPoset.build(C, ["a", "b"], [(("b",), "a")])
    with pytest.raises(FlavourMismatch):
        poset.leq(BroadWord(P, ("b",)), "a")


def test_build_checks_the_flavour_before_dropping_a_reflexive_pair():
    with pytest.raises(FlavourMismatch):
        BroadPoset.build(C, ["a"], [(BroadWord(P, ("a",)), "a")])


@pytest.mark.parametrize("source, target", [(["zz"], "a"), (["b", "c"], "zz"), (["zz"], "zz")])
def test_leq_refuses_an_unknown_element(source, target):
    with pytest.raises(IdentifierError):
        BC_BELOW_A.leq(source, target)


def test_word_leq_refuses_a_word_of_the_other_flavour():
    with pytest.raises(FlavourMismatch):
        word_leq(BC_BELOW_A, word(P, ["c", "b"]), word(C, ["a"]))


@pytest.mark.parametrize("lower, upper", [(["b", "c"], ["zz"]), (["q"], ["a"])])
def test_word_leq_refuses_an_unknown_letter(lower, upper):
    with pytest.raises(IdentifierError):
        word_leq(BC_BELOW_A, word(C, lower), word(C, upper))


@pytest.mark.parametrize("flavour", [C, P])
def test_word_leq_does_not_recurse_per_letter(flavour):
    """1,500 letters under the default recursion limit of 1,000."""
    xs = [f"x{i:04d}" for i in range(1500)]
    poset = BroadPoset.build(flavour, xs)
    assert not word_leq(poset, word(flavour, xs[:-1] + ["x0000"]), word(flavour, xs))
    grown = BroadPoset.build(flavour, ["s", *xs], [((), "s")])
    assert word_leq(grown, word(flavour, xs), word(flavour, [*xs, "s"]))


@st.composite
def longer_word_questions(draw):
    """A relation of up to eight pairs over up to five letters, not closed,
    an upper word of up to five letters and a lower one of up to eight,
    too long to try every split; the lower word is often made of chunks
    below the upper word's letters, at times with one letter changed."""
    flavour = draw(st.sampled_from([C, P]))
    carrier = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    letter = st.sampled_from(carrier)
    pairs = draw(st.lists(st.tuples(st.lists(letter, max_size=3), letter), max_size=8))
    upper = draw(st.lists(letter, max_size=5))
    if draw(st.booleans()):
        lower = draw(st.lists(letter, max_size=8))
    else:
        lower = []
        for i, t in enumerate(upper):
            chunk = draw(st.sampled_from([[t], *(w for w, target in pairs if target == t)]))
            if len(lower) + len(chunk) > 8:
                upper = upper[:i]
                break
            lower += chunk
        if lower and draw(st.booleans()):
            lower[draw(st.integers(0, len(lower) - 1))] = draw(letter)
    poset = BroadPoset.build(flavour, carrier, pairs)
    return poset, word(flavour, lower), word(flavour, upper)


@settings(max_examples=250, deadline=None)
@given(longer_word_questions())
def test_word_leq_matches_the_stacked_search(question):
    poset, lower, upper = question
    expected = stacked_word_leq(core._chunk_candidates(poset), poset.flavour, lower.letters, upper.letters)
    assert word_leq(poset, lower, upper) == expected


class _CountedChunks(dict):
    """Chunk candidates that count their lookups, one per state and letter
    of the upper word, and fail once the count passes a bound."""

    def __init__(self, candidates, bound):
        super().__init__(candidates)
        self.bound, self.steps = bound, 0

    def __getitem__(self, letter):
        self.steps += 1
        if self.steps > self.bound:
            raise AssertionError(f"more than {self.bound} state steps")
        return super().__getitem__(letter)


@pytest.mark.parametrize("flavour", [C, P])
@pytest.mark.parametrize("copies, expected", [(6, True), (4, False), (12, True)])
def test_word_leq_steps_are_bounded_by_distinct_states(flavour, copies, expected, monkeypatch):
    """Below u lie the empty word, every letter a0 .. a9 and every 2-letter
    word over them, so ``a0 ... a9 <= u^k`` holds when 2k >= 10.  Searched
    split by split, the commutative leftovers repeat once per order of
    reaching them; kept once, they are at most the 2^10 subsets of the
    letters, or the 11 positions when planar, per letter of the upper word."""
    letters = [f"a{i}" for i in range(10)]
    pairs = [((), "u"), *(((x,), "u") for x in letters), *(((x, y), "u") for x in letters for y in letters)]
    poset = BroadPoset.build(flavour, ["u", *letters], pairs)
    assert validate(poset).ok
    lower, upper = word(flavour, letters), word(flavour, ["u"] * copies)
    states = 2 ** len(letters) if flavour is C else len(letters) + 1
    counted = _CountedChunks(core._chunk_candidates(poset), copies * states)
    monkeypatch.setattr(core, "_chunk_candidates", lambda _: counted)
    assert word_leq(poset, lower, upper) is expected
    assert counted.steps


# ---------------------------------------------------------------------------
# Generation


def test_generate_corolla():
    g2 = generate_broad_poset(["r", "l1", "l2"], [(("l1", "l2"), "r")], C)
    assert g2 == corolla(2)
    assert len(g2.relation) == 1


def test_generate_empty_is_star():
    assert generate_broad_poset(["x"], [], C) == star("x")


def test_generate_epsilon_substitution():
    # substituting the empty word for a letter shortens the word
    result = generate_broad_poset(
        ["r", "a", "b"], [(("a", "b"), "r"), ((), "a")], C
    )
    assert result.leq(("b",), "r")
    expected, _ = naive_closure(["r", "a", "b"], [(("a", "b"), "r"), ((), "a")], C)
    assert {(w.letters, t) for w, t in result.relation} == set(expected)


@st.composite
def generator_sets(draw):
    """Up to five generators of length 0-3 over up to five elements, and a
    word bound (None: the carrier size) that many of their closures exceed."""
    carrier = [f"x{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    words = st.lists(st.sampled_from(carrier), max_size=3)
    generators = draw(st.lists(st.tuples(words, st.sampled_from(carrier)), max_size=5))
    return carrier, generators, draw(st.sampled_from([None, 3, 6, 8]))


@st.composite
def acyclic_generator_sets(draw):
    """Generators whose letters all come after their target in the order
    x0, x1, ... of up to six elements, so no element is below itself:
    stumps, repeated letters such as x2·x2, and, when drawn, the chain
    x5 ≤ ... ≤ x0 through the whole carrier."""
    size = draw(st.integers(min_value=1, max_value=6))
    carrier = [f"x{i}" for i in range(size)]
    generators = [((f"x{i + 1}",), f"x{i}") for i in range(size - 1)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        target = draw(st.integers(min_value=0, max_value=size - 1))
        later = carrier[target + 1:]
        letters = draw(st.lists(st.sampled_from(later), max_size=3)) if later else []
        generators.append((letters, carrier[target]))
    return carrier, generators, draw(st.sampled_from([None, 2, 3, 8]))


@pytest.mark.parametrize("flavour", [C, P])
@settings(max_examples=300, deadline=None)
@given(st.one_of(generator_sets(), acyclic_generator_sets()))
@example((["r", "a", "b"], [(("a", "b"), "r"), ((), "a")], 10))
@example((["r", "a", "b", "c"], [(("a", "b"), "r"), (("c",), "a")], 10))
@example((["r", "a", "b", "c"], [(("a",), "r"), (("b", "c"), "a")], 10))
@example((["x", "y"], [(("x",), "y"), (("y",), "x")], 10))  # collapses
@example((["a", "b", "c"], [(("a", "b"), "c"), ((), "b"), (("c",), "a")], 10))  # a ≤ c through a stump, c ≤ a
@example((["x", "y", "z"], [(("x",), "y"), (("y",), "x"), (("x", "z"), "y")], 10))  # leaves x·z ≤ x
@example((["a", "b", "c", "d"], [(("a",), "b"), (("b",), "c"), (("c",), "a"), (("b", "c"), "d")], 10))  # a·a ≤ d
@example((["r", "a", "b", "c"], [(("a", "b"), "r"), (("c", "c"), "a")], 3))  # the bound is the longest word
@example((["r", "a", "b", "c"], [(("a", "b"), "r"), (("c", "c"), "a")], 2))  # one below it
def test_generate_matches_naive_oracle(flavour, case):
    carrier, generators, bound = case
    max_len = max(1, len(carrier)) if bound is None else bound
    try:
        relation, rep = naive_closure(carrier, generators, flavour, max_len)
    except OverflowError:
        with pytest.raises(ClosureOverflow):
            generate_broad_poset(carrier, generators, flavour, bound)
        return
    result = generate_broad_poset(carrier, generators, flavour, bound)
    assert result == BroadPoset.build(flavour, {rep[x] for x in carrier}, relation)
    assert result.meta.get("collapsed", {}) == {x: r for x, r in rep.items() if x != r}


def test_generate_collapse_metadata():
    result = generate_broad_poset(["x", "y"], [(("x",), "y"), (("y",), "x")], C)
    assert result.carrier == frozenset({"x"})
    assert result.meta["collapsed"] == {"y": "x"}


def test_generate_overflow():
    # x <= x·x makes the closure grow without bound
    with pytest.raises(ClosureOverflow):
        generate_broad_poset(["x", "y"], [(("x", "x"), "x")], C, 5)


def tensor_generators(left: BroadPoset, right: BroadPoset) -> tuple[list[str], list]:
    """The carrier of the tensor of two posets, and its generators: each
    side's full relation tensored with the points of the other."""
    carrier = [pair_id(a, b) for a in left.carrier for b in right.carrier]
    generators = [
        *(([pair_id(a, y) for y in w], pair_id(a, b)) for a in left.carrier for w, b in right.relation),
        *(([pair_id(x, b) for x in w], pair_id(a, b)) for b in right.carrier for w, a in left.relation),
    ]
    return carrier, generators


def against_queue(call, flavour: Flavour, carrier, generators, bound: int | None) -> str:
    """``call()`` is the queue oracle's closure of the generators, with its
    collapsed map in the same order, or both overflow; say whether it
    closed, collapsed or overflowed."""
    try:
        pairs, closed_carrier, collapsed = queue_closure(
            flavour, carrier, generators, max(1, len(set(carrier))) if bound is None else bound
        )
    except OverflowError:
        with pytest.raises(ClosureOverflow):
            call()
        return "overflow"
    got = call()
    assert got == BroadPoset.build(flavour, closed_carrier, pairs)
    assert list(got.meta.get("collapsed", {}).items()) == list(collapsed.items())
    return "collapsed" if collapsed else "closed"


@pytest.mark.parametrize("flavour", [C, P])
def test_tensor_product_rule_matches_queue_on_small_trees(flavour):
    trees = tree_corpus(flavour, 4)
    outcomes = Counter(
        against_queue(lambda: tensor(s, t), flavour, *tensor_generators(s, t), None) for s in trees for t in trees
    )
    assert outcomes == {"closed": len(trees) ** 2}


def generated(flavour: Flavour, carrier, generators, bound: int | None = None) -> tuple:
    return lambda: generate_broad_poset(carrier, generators, flavour, bound), flavour, carrier, generators, bound


def closure_cases() -> dict[str, tuple]:
    """Calls of the closure, each with the flavour, carrier, generators
    and bound that the queue oracle closes for it."""
    two, chain = to_broad(parse_term("r(a(b,c),d)"), C), to_broad(parse_term("s(t(u))"), C)
    planar_two, planar_chain = forget_symmetry(two), forget_symmetry(chain)
    cherry = to_broad(parse_term("s(x,y)"), C)
    return {
        "tensor": (lambda: tensor(two, chain), C, *tensor_generators(two, chain), None),
        "planar tensor": (
            lambda: tensor(planar_two, planar_chain), P, *tensor_generators(planar_two, planar_chain), None
        ),
        "stump": generated(C, "rab", [(("a", "a", "b"), "r"), ((), "a"), (("b",), "a")]),
        "at the bound": generated(P, ["x0", "x1", "x2"], [(("x0", "x0"), "x1"), (("x1", "x1"), "x2")], 4),
        "pushout": (
            lambda: pushout(identity(two), identity(two))[0],
            C, two.carrier, [(w.letters, x) for w, x in two.relation], None,
        ),
        "unary cycle": generated(C, ["x", "y"], [(("x",), "y"), (("y",), "x")]),
        "x*x below x": generated(P, ["x", "y"], [(("x", "x"), "x")], 5),  # grows without bound
        "x*y below y": generated(C, ["x", "y"], [(("x", "y"), "y"), ((), "x")]),  # x·y ≤ y, with ε ≤ x
        "over the bound": generated(P, ["x0", "x1", "x2"], [(("x0", "x0"), "x1"), (("x1", "x1"), "x2")], 3),
        "tensor over the bound": (lambda: tensor(two, cherry, max_word_len=3), C, *tensor_generators(two, cherry), 3),
    }


@pytest.mark.parametrize(
    "case, outcome",
    [
        *((case, "closed") for case in ["tensor", "planar tensor", "stump", "at the bound", "pushout"]),
        ("unary cycle", "collapsed"),
        *((case, "overflow") for case in ["x*x below x", "x*y below y", "over the bound", "tensor over the bound"]),
    ],
)
def test_closure_matches_the_queue_oracle(case, outcome):
    """Acyclic sets within the bound close; a unary cycle collapses; a
    cycle through a longer word, or a word over the bound, overflows; each
    as the queue oracle has it."""
    assert against_queue(*closure_cases()[case]) == outcome


OVERFLOW = "the closure has a word of length 4 > 3 below (a,s)"
CYCLE = "the closure is infinite: a is on or above a cycle through a word of 2 or more letters"
COLLAPSE = "generation collapsed elements beyond the set pushout: {'a2': 'a1'}"


@pytest.mark.parametrize("flavour", [C, P])
def test_overflow_and_collapse_messages_are_pinned(flavour):
    """An overflow names the least element with a word over the bound
    below it, and the length of its longest word, (a,s) and 4 where (r,s)
    has 6; or the least element on or above a cycle that is left, a
    above y, where x·y ≤ y is the cycle."""
    left, right = to_broad(parse_term("r(a(b,c),d)"), flavour), to_broad(parse_term("s(x,y)"), flavour)
    with pytest.raises(ClosureOverflow) as info:
        tensor(left, right, max_word_len=3)
    assert str(info.value) == OVERFLOW
    with pytest.raises(ClosureOverflow) as info:
        generate_broad_poset(["a", "x", "y"], [(("x", "y"), "y"), (("y",), "a")], flavour)
    assert str(info.value) == CYCLE
    up = BroadPoset.build(flavour, ["a1", "a2"], [(("a1",), "a2")])
    down = BroadPoset.build(flavour, ["b1", "b2"], [(("b2",), "b1")])
    discrete = BroadPoset.build(flavour, ["c1", "c2"])
    f = MonotoneMap.from_dict(discrete, up, {"c1": "a1", "c2": "a2"})
    g = MonotoneMap.from_dict(discrete, down, {"c1": "b1", "c2": "b2"})
    with pytest.raises(CollapseError) as info:
        pushout(f, g)
    assert str(info.value) == COLLAPSE


def closure_corpus(flavour: Flavour) -> list[BroadPoset]:
    """Every tree up to 3 edges, the chains of 2 to 4 elements and the
    2×2 and 2×3 grids, as broad posets of the flavour; and a 2-corolla
    with leaves l1 < l1!, whose pairs with any x sort the other way:
    (x,l1!) < (x,l1) and (l1!,x) < (l1,x)."""
    chains = [embed_poset(FinitePoset.chain(n), flavour) for n in (1, 2, 3)]
    grids = [embed_poset(FinitePoset.chain(1).product(FinitePoset.chain(n)), flavour) for n in (1, 2)]
    swapped = corolla(2, flavour).rename({"l2": "l1!"})
    return [*tree_corpus(flavour, 3), *chains, *grids, swapped]


def same_closure(call, expected) -> None:
    """``call()`` returns ``expected()`` with its ``meta``, or both raise
    the same error with the same message."""
    try:
        want = expected()
    except ClosureOverflow as error:
        with pytest.raises(ClosureOverflow) as info:
            call()
        assert str(info.value) == str(error)
        return
    got = call()
    assert got == want and got.meta == want.meta


@pytest.mark.parametrize("flavour", [C, P])
def test_tensor_matches_the_public_closure(flavour):
    """The tensor of every pair of the corpus is the closure, through the
    public checked path, of each side's full relation tensored with points."""
    corpus = closure_corpus(flavour)
    for s in corpus:
        for t in corpus:
            carrier, generators = tensor_generators(s, t)
            for bound in (None, 2):
                same_closure(
                    lambda: tensor(s, t, bound),
                    lambda: generate_broad_poset(carrier, generators, flavour, bound),
                )


def test_abelianize_matches_the_public_closure():
    """``abelianize`` of the planar tensor of two forgotten posets is the
    commutative closure of its sorted pairs, under the bound it documents,
    and is the commutative tensor."""
    corpus = closure_corpus(C)
    for s in corpus:
        for t in corpus:
            planar = tensor(forget_symmetry(s), forget_symmetry(t))
            pairs = [(sorted(w.letters), x) for w, x in planar.relation]
            bound = max([1, len(planar.carrier), *(len(w) for w, _ in pairs)])
            result = abelianize(planar)
            expected = generate_broad_poset(planar.carrier, pairs, C, bound)
            assert result == expected == tensor(s, t)
            assert result.meta == expected.meta == {}


def glued(left_leg: MonotoneMap, right_leg: MonotoneMap) -> str:
    """Check the pushout of the legs against the closure, through the
    public checked path, of the images of both relations in the set
    pushout, whose names the pushout of the same legs into discrete posets
    gives; say whether it glued, collapsed or overflowed."""
    def discrete(leg: MonotoneMap) -> MonotoneMap:
        codomain = BroadPoset.build(leg.codomain.flavour, leg.codomain.carrier)
        return MonotoneMap.from_dict(leg.domain, codomain, leg.mapping)

    sets, into_left, into_right = pushout(discrete(left_leg), discrete(right_leg))
    generators = [
        ([into(x) for x in w], into(target))
        for into, poset in ((into_left, left_leg.codomain), (into_right, right_leg.codomain))
        for w, target in poset.relation
    ]
    try:
        expected = generate_broad_poset(sets.carrier, generators, sets.flavour)
    except ClosureOverflow as error:
        with pytest.raises(ClosureOverflow) as info:
            pushout(left_leg, right_leg)
        assert str(info.value) == str(error)
        return "overflow"
    if expected.meta:
        with pytest.raises(CollapseError) as info:
            pushout(left_leg, right_leg)
        assert str(info.value) == f"generation collapsed elements beyond the set pushout: {expected.meta['collapsed']}"
        return "collapse"
    poset, inj_left, inj_right = pushout(left_leg, right_leg)
    assert poset == expected and poset.meta == expected.meta == {}
    assert (inj_left.mapping, inj_right.mapping) == (into_left.mapping, into_right.mapping)
    return "glued"


@pytest.mark.parametrize("flavour", [C, P])
def test_pushout_matches_the_public_closure(flavour):
    """Every pair of the corpus glued at each element of the first and the
    least or greatest element of the second, and crosswise at two
    comparable pairs of each, which collapses or overflows."""
    corpus = closure_corpus(flavour)
    point = BroadPoset.build(flavour, ["p"])
    two = BroadPoset.build(flavour, ["p", "q"])
    outcomes = Counter()
    for s in corpus:
        for t in corpus:
            for a in sorted(s.carrier):
                for b in {min(t.carrier), max(t.carrier)}:
                    f = MonotoneMap.from_dict(point, s, {"p": a})
                    g = MonotoneMap.from_dict(point, t, {"p": b})
                    assert glued(f, g) == "glued"
            for (lo, hi), (down, up) in itertools.product(sorted(s.unary_pairs())[:2], sorted(t.unary_pairs())[-2:]):
                f = MonotoneMap.from_dict(two, s, {"p": lo, "q": hi})
                g = MonotoneMap.from_dict(two, t, {"p": up, "q": down})
                outcomes[glued(f, g)] += 1
    assert outcomes["collapse"] and outcomes["overflow"]


@pytest.mark.parametrize("bound", ["2", True, False, 1.5, 0, -1], ids=repr)
def test_max_word_len_must_be_a_positive_int(bound):
    """A bound that is not an int, or is a bool, or is below 1 is refused
    by every caller of the closure before any generator is read."""
    s, t = to_broad(parse_term("r(a,b)"), C), to_broad(parse_term("s(x)"), C)
    leg = identity(s)
    calls = [
        lambda: generate_broad_poset(["a"], [(("z",), "a")], C, bound),  # an unknown letter, read later
        lambda: tensor(s, t, bound),
        lambda: pushout(leg, leg, bound),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument) as info:
            call()
        if isinstance(bound, int) and not isinstance(bound, bool):
            assert str(info.value) == "max_word_len must be at least 1"
        else:
            assert str(info.value) == f"max_word_len must be an int, not {bound!r}"
    assert tensor(s, t, 2) == tensor(s, t, None)


def test_generate_rejects_unknown_identifiers():
    with pytest.raises(IdentifierError):
        generate_broad_poset(["a"], [(("z",), "a")], C)


@pytest.mark.parametrize("flavour", [C, P])
@pytest.mark.parametrize(
    "carrier, letters, bound",
    [
        ("abc", ("c", "b"), None),  # acyclic: the product rule
        ("ab", ("b", "a"), 3),  # a is below itself through a word of 2 letters: a cycle, which overflows
    ],
    ids=["product rule", "cycle"],
)
def test_generate_rejects_a_word_of_the_other_flavour(flavour, carrier, letters, bound):
    stray = BroadWord(P if flavour is C else C, letters)
    with pytest.raises(FlavourMismatch) as generated:
        generate_broad_poset(carrier, [(stray, "a")], flavour, bound)
    with pytest.raises(FlavourMismatch) as stored:
        BroadPoset(flavour, frozenset(carrier), frozenset({(stray, "a")}))
    assert str(generated.value) == str(stored.value)
    if bound is None:  # the same letters as a word of the poset's flavour are accepted
        assert generate_broad_poset(carrier, [(letters, "a")], flavour).leq(letters, "a")
    else:
        with pytest.raises(ClosureOverflow):
            generate_broad_poset(carrier, [(letters, "a")], flavour, bound)


def test_closure_idempotent_on_corpus(small_posets):
    for poset in small_posets.values():
        again = generate_broad_poset(
            poset.carrier, [(w.letters, t) for w, t in poset.relation], poset.flavour
        )
        assert again == poset


# ---------------------------------------------------------------------------
# Validation


def test_validate_corolla_all_true(small_posets):
    report = validate(small_posets["gamma2"])
    assert report.transitive and report.antisymmetric and report.stratified
    assert report.violations == ()


def test_validate_two_cycle():
    bad = BroadPoset.build(C, ["a", "b"], [(("a",), "b"), (("b",), "a")])
    report = validate(bad)
    assert not report.antisymmetric
    assert any("mutual" in v for v in report.violations)


def test_validate_transitivity():
    ok = BroadPoset.build(C, ["r", "a", "b"], [(("a", "b"), "r")])
    assert validate(ok).transitive
    missing = BroadPoset.build(C, ["r", "a", "b"], [(("a", "b"), "r"), ((), "a")])
    report = validate(missing)
    assert not report.transitive
    assert any("b ≤ r" in v for v in report.violations)


@st.composite
def random_relations(draw, flavour: Flavour | None = None) -> BroadPoset:
    """Any pairs over up to five elements, of the given flavour or either:
    cycles, gaps in transitivity, empty words and repeated letters are all
    common."""
    names = [f"x{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    words = st.lists(st.sampled_from(names), max_size=3)
    pairs = draw(st.lists(st.tuples(words, st.sampled_from(names)), max_size=8))
    return BroadPoset.build(flavour or draw(st.sampled_from([C, P])), names, pairs)


@settings(max_examples=300, deadline=None)
@given(random_relations())
@example(BroadPoset.build(C, ["a", "b", "c"], [(("a",), "b"), (("b",), "c"), (("c",), "a")]))
@example(BroadPoset.build(P, ["a", "b", "c"], [(("a", "c"), "b"), (("b", "c"), "a")]))
def test_descendant_cycles_match_oracle(poset):
    report = validate(poset)
    cycles = [f"descendant cycle between {a} and {b}" for a, b in brute_descendant_cycles(poset)]
    assert report.stratified == (not cycles)
    assert [v for v in report.violations if v.startswith("descendant cycle")] == cycles
    assert report.violations[len(report.violations) - len(cycles):] == tuple(cycles)


@pytest.mark.parametrize("flavour", [C, P])
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_reports_what_the_word_scan_finds(flavour, data):
    poset = data.draw(random_relations(flavour))
    assert list(validate(poset).violations) == word_scan_violations(poset)


@pytest.mark.parametrize("flavour", [C, P])
def test_validate_reports_what_the_word_scan_finds_on_fixed_relations(flavour):
    relations = [
        [(("a", "a"), "r"), ((), "a"), (("b",), "a")],  # a repeated letter, the empty word
        [(("a", "b"), "r"), (("b", "a"), "r"), ((), "b"), (("c", "c"), "a")],
        [(("a",), "b"), (("b",), "c"), (("c",), "a")],  # a cycle
        [(("a", "c"), "b"), (("b", "c"), "a"), (("a", "a", "a"), "c")],
        [(("a", "c"), "r"), (("d",), "a"), (("c", "d"), "r"), ((), "b"), (("b", "b"), "c")],  # d·c is c·d
    ]
    for pairs in relations:
        poset = BroadPoset.build(flavour, "abcdr", pairs)
        report = validate(poset)
        assert report.violations and list(report.violations) == word_scan_violations(poset)


@pytest.mark.parametrize(
    "flavour, pairs, violations",
    [
        (C, [(("a", "a"), "r"), ((), "a"), (("b",), "a")], (
            "missing a ≤ r obtained from a·a ≤ r and ε ≤ a",
            "missing a·b ≤ r obtained from a·a ≤ r and b ≤ a",
        )),
        (P, [(("a", "a"), "r"), ((), "a"), (("b",), "a")], (
            "missing a ≤ r obtained from a·a ≤ r and ε ≤ a",
            "missing a ≤ r obtained from a·a ≤ r and ε ≤ a",
            "missing a·b ≤ r obtained from a·a ≤ r and b ≤ a",
            "missing b·a ≤ r obtained from a·a ≤ r and b ≤ a",
        )),
        (C, [(("a", "a", "b"), "r"), (("c",), "a"), ((), "b")], (
            "missing a·a ≤ r obtained from a·a·b ≤ r and ε ≤ b",
            "missing a·b·c ≤ r obtained from a·a·b ≤ r and c ≤ a",
        )),
        (P, [(("a", "a", "b"), "r"), (("c",), "a"), ((), "b")], (
            "missing a·a ≤ r obtained from a·a·b ≤ r and ε ≤ b",
            "missing a·c·b ≤ r obtained from a·a·b ≤ r and c ≤ a",
            "missing c·a·b ≤ r obtained from a·a·b ≤ r and c ≤ a",
        )),
        (C, [(("b", "a"), "r"), ((), "c"), (("c", "c"), "a"), (("a",), "b")], (
            "missing a·a ≤ r obtained from a·b ≤ r and a ≤ b",
            "missing b·c·c ≤ r obtained from a·b ≤ r and c·c ≤ a",
            "missing c ≤ a obtained from c·c ≤ a and ε ≤ c",
            "missing c·c ≤ b obtained from a ≤ b and c·c ≤ a",
        )),
        (P, [(("b", "a"), "r"), ((), "c"), (("c", "c"), "a"), (("a",), "b")], (
            "missing a·a ≤ r obtained from b·a ≤ r and a ≤ b",
            "missing b·c·c ≤ r obtained from b·a ≤ r and c·c ≤ a",
            "missing c ≤ a obtained from c·c ≤ a and ε ≤ c",
            "missing c ≤ a obtained from c·c ≤ a and ε ≤ c",
            "missing c·c ≤ b obtained from a ≤ b and c·c ≤ a",
        )),
        (C, [(("a",), "b"), (("b",), "a"), ((), "b")], (
            "missing ε ≤ a obtained from b ≤ a and ε ≤ b",
            "mutual pair a ≤ b and b ≤ a",
            "descendant cycle between a and b",
        )),
    ],
)
def test_validate_violations_are_pinned(flavour, pairs, violations):
    """A commutative word substitutes at the first of equal letters only,
    a planar word at every position, so a·a ≤ r with ε ≤ a is reported
    once or twice."""
    assert validate(BroadPoset.build(flavour, "abcr", pairs)).violations == violations


def test_report_violations_empty_iff_ok(small_posets):
    for poset in small_posets.values():
        report = validate(poset)
        assert report.ok == (not report.violations)


# ---------------------------------------------------------------------------
# Monotone maps


def test_identity_is_monotone(small_posets):
    g2 = small_posets["gamma2"]
    assert is_monotone({x: x for x in g2.carrier}, g2, g2)


def test_corolla_inclusion_not_monotone(small_posets):
    g1, g2 = small_posets["gamma1"], small_posets["gamma2"]
    assert not is_monotone({"l1": "l1", "r": "r"}, g1, g2)


def test_maps_from_point_are_elements(small_posets):
    s = small_posets["star"]
    for poset in small_posets.values():
        maps = enumerate_monotone(s, poset)
        assert len(maps) == len(poset.carrier)


def test_enumerate_monotone_counts(small_posets):
    assert len(enumerate_monotone(small_posets["star"], small_posets["gamma2"])) == 3
    assert len(enumerate_monotone(small_posets["gamma2"], small_posets["gamma1"])) == 0
    assert len(enumerate_monotone(small_posets["chain2"], small_posets["chain3"])) == 6


def test_enumerate_monotone_matches_bruteforce(small_posets):
    for a, b in itertools.product(
        ["star", "stump", "gamma1", "gamma2", "chain2"], repeat=2
    ):
        lib = len(enumerate_monotone(small_posets[a], small_posets[b]))
        assert lib == len(brute_monotone_maps(small_posets[a], small_posets[b]))


def test_enumerate_monotone_is_sorted(small_posets):
    maps = enumerate_monotone(small_posets["star"], small_posets["gamma2"])
    assignments = [m.pairs for m in maps]
    assert assignments == sorted(assignments)


def test_enumerate_monotone_budget(small_posets):
    with pytest.raises(BudgetExceeded):
        enumerate_monotone(small_posets["gamma3"], small_posets["gamma3"], budget=10)


@pytest.mark.parametrize("budget", ["5", True, False, 1.5, None], ids=repr)
def test_budget_must_be_an_int(budget):
    """A budget that is not an int, or is a bool, is refused before any map
    is counted; an int below the count still raises BudgetExceeded."""
    tree = to_broad(parse_term("r(a,b)"), C)
    for call in (enumerate_monotone, internal_hom):
        with pytest.raises(InvalidArgument) as info:
            call(tree, tree, budget)
        assert str(info.value) == f"budget must be an int, not {budget!r}"
        with pytest.raises(BudgetExceeded):
            call(tree, tree, 1)


def test_flavour_mismatch_rejected(small_posets):
    planar = forget_symmetry(small_posets["gamma2"])
    with pytest.raises(FlavourMismatch):
        is_monotone({x: x for x in planar.carrier}, planar, small_posets["gamma2"])


def test_compose_requires_matching_endpoints(small_posets):
    s, g2 = small_posets["star"], small_posets["gamma2"]
    f = MonotoneMap.from_dict(s, g2, {"x": "r"})
    with pytest.raises(DomainMismatch):
        compose(f, f)


# ---------------------------------------------------------------------------
# Products


def test_product_of_corollas_is_discrete(small_posets):
    prod, p1, p2 = product(small_posets["gamma3"], small_posets["gamma2"])
    assert len(prod.carrier) == 12
    assert prod.relation == frozenset()
    assert is_monotone(p1.mapping, prod, small_posets["gamma3"])
    assert is_monotone(p2.mapping, prod, small_posets["gamma2"])


def test_product_with_point_on_unary_relations(small_posets):
    chain = small_posets["chain3"]
    prod, p1, _ = product(chain, small_posets["star"])
    witness = {pair_id(a, "x"): a for a in chain.carrier}
    assert check_isomorphism(prod, chain, witness)


def test_product_of_chains_is_square(small_posets):
    chain = FinitePoset.chain(1)
    prod, _, _ = product(small_posets["chain2"], small_posets["chain2"])
    assert prod == embed_poset(chain.product(chain))


COMMA_LEFT = BroadPoset.build(Flavour.COMMUTATIVE, ["x", "x,y"], [(("x",), "x,y")])
COMMA_RIGHT = BroadPoset.build(Flavour.COMMUTATIVE, ["y,z", "z"])
COMMA_CLASH = "pairs ('x', 'y,z') and ('x,y', 'z') are both named '(x,y,z)'"


@pytest.mark.parametrize(
    "build",
    [
        lambda: tensor(COMMA_LEFT, COMMA_RIGHT),
        lambda: product(COMMA_LEFT, COMMA_RIGHT),
        lambda: underlying_poset(COMMA_LEFT).product(underlying_poset(COMMA_RIGHT)),
    ],
    ids=["tensor", "product", "finite_poset_product"],
)
def test_pair_names_that_collide_are_refused(build):
    with pytest.raises(IdentifierError) as raised:
        build()
    assert str(raised.value) == COMMA_CLASH


def test_pair_names_with_commas_that_do_not_collide_are_kept():
    left = BroadPoset.build(Flavour.COMMUTATIVE, ["x,y"])
    assert tensor(left, COMMA_RIGHT).carrier == {"(x,y,y,z)", "(x,y,z)"}
    assert product(left, COMMA_RIGHT)[0].carrier == {"(x,y,y,z)", "(x,y,z)"}


def test_product_universal_property(small_posets):
    a, b = small_posets["gamma1"], small_posets["chain2"]
    prod, p1, p2 = product(a, b)
    for name in ["star", "gamma1", "chain2"]:
        t = small_posets[name]
        cones = itertools.product(enumerate_monotone(t, a), enumerate_monotone(t, b))
        homs = enumerate_monotone(t, prod)
        for f, g in cones:
            mediating = [
                h for h in homs if compose(p1, h) == f and compose(p2, h) == g
            ]
            assert len(mediating) == 1


# ---------------------------------------------------------------------------
# Tensor product and internal hom


def test_tensor_unit(small_posets):
    s = small_posets["star"]
    for name in ["gamma2", "chain3", "stump"]:
        poset = small_posets[name]
        left = tensor(s, poset)
        witness = {pair_id("x", a): a for a in poset.carrier}
        assert check_isomorphism(left, poset, witness)
        right = tensor(poset, s)
        witness = {pair_id(a, "x"): a for a in poset.carrier}
        assert check_isomorphism(right, poset, witness)


def test_tensor_symmetry(small_posets):
    for a, b in itertools.combinations(["gamma1", "gamma2", "chain2", "stump"], 2):
        left = tensor(small_posets[a], small_posets[b])
        right = tensor(small_posets[b], small_posets[a])
        witness = {
            pair_id(x, y): pair_id(y, x)
            for x in small_posets[a].carrier
            for y in small_posets[b].carrier
        }
        assert check_isomorphism(left, right, witness)


def test_tensor_point_maps_are_monotone(small_posets):
    a, b = small_posets["gamma1"], small_posets["gamma2"]
    result = tensor(a, b)
    for x in a.carrier:
        assert is_monotone({y: pair_id(x, y) for y in b.carrier}, b, result)
    for y in b.carrier:
        assert is_monotone({x: pair_id(x, y) for x in a.carrier}, a, result)


def test_tensor_of_embedded_chains_is_embedded_square():
    chain = FinitePoset.chain(1)
    assert tensor(embed_poset(chain), embed_poset(chain)) == embed_poset(
        chain.product(chain)
    )


def test_tensor_gamma1_squared(small_posets):
    result = tensor(small_posets["gamma1"], small_posets["gamma1"])
    assert len(result.carrier) == 4
    # the commuting square of unary pairs plus the diagonal composite
    assert len(result.relation) == 5
    assert all(len(w) == 1 for w, _ in result.relation)


def test_internal_hom_from_point(small_posets):
    g2 = small_posets["gamma2"]
    hom = internal_hom(small_posets["star"], g2)
    assert len(hom.carrier) == 3
    assert find_isomorphism(hom, g2) is not None


def test_internal_hom_empty(small_posets):
    hom = internal_hom(small_posets["gamma2"], small_posets["gamma1"])
    assert hom.carrier == frozenset()


def test_hom_tensor_adjunction_cardinality(small_posets):
    names = ["star", "stump", "gamma1", "gamma2"]
    for a, b, c in itertools.product(names, repeat=3):
        A, B, Cp = (small_posets[k] for k in (a, b, c))
        left = len(enumerate_monotone(tensor(A, B), Cp, budget=10**9))
        right = len(enumerate_monotone(A, internal_hom(B, Cp), budget=10**9))
        assert left == right, (a, b, c)


# ---------------------------------------------------------------------------
# Pushouts


def test_pushout_glues_corollas(small_posets):
    s, g2 = small_posets["star"], small_posets["gamma2"]
    other = corolla(2, root="m", leaf_prefix="k")
    into_leaf = MonotoneMap.from_dict(s, g2, {"x": "l1"})
    into_root = MonotoneMap.from_dict(s, other, {"x": "m"})
    result, inj1, inj2 = pushout(into_leaf, into_root)
    assert len(result.carrier) == 5
    assert is_monotone(inj1.mapping, g2, result)
    assert is_monotone(inj2.mapping, other, result)
    assert compose(inj1, into_leaf) == compose(inj2, into_root)
    assert any(len(w) == 3 for w, _ in result.relation)  # the composite word


def test_pushout_along_identity(small_posets):
    for name in ["gamma2", "chain3", "stump"]:
        poset = small_posets[name]
        s = small_posets["star"]
        leg = MonotoneMap.from_dict(s, poset, {"x": sorted(poset.carrier)[0]})
        ident = MonotoneMap.from_dict(s, s, {"x": "x"})
        result, _, inj = pushout(ident, leg)
        assert check_isomorphism(poset, result, inj.mapping)


def test_pushout_universal_property(small_posets):
    s, g1 = small_posets["star"], small_posets["gamma1"]
    f = MonotoneMap.from_dict(s, g1, {"x": "l1"})
    g = MonotoneMap.from_dict(s, g1.rename({"r": "s", "l1": "m"}), {"x": "s"})
    result, inj1, inj2 = pushout(f, g)
    for name in ["gamma2", "chain3"]:
        test_obj = small_posets[name]
        cocones = [
            (u, v)
            for u in enumerate_monotone(g1, test_obj)
            for v in enumerate_monotone(g.codomain, test_obj)
            if compose(u, f) == compose(v, g)
        ]
        homs = enumerate_monotone(result, test_obj)
        for u, v in cocones:
            mediating = [
                h for h in homs if compose(h, inj1) == u and compose(h, inj2) == v
            ]
            assert len(mediating) == 1


def test_pushout_collapse_detected():
    up = BroadPoset.build(C, ["a1", "a2"], [(("a1",), "a2")])
    down = BroadPoset.build(C, ["b1", "b2"], [(("b2",), "b1")])
    discrete = BroadPoset.build(C, ["c1", "c2"])
    f = MonotoneMap.from_dict(discrete, up, {"c1": "a1", "c2": "a2"})
    g = MonotoneMap.from_dict(discrete, down, {"c1": "b1", "c2": "b2"})
    with pytest.raises(CollapseError):
        pushout(f, g)


# ---------------------------------------------------------------------------
# Change of flavour


def test_abelianize_merges_orderings():
    both = BroadPoset.build(
        P, ["r", "l1", "l2"], [(("l1", "l2"), "r"), (("l2", "l1"), "r")]
    )
    assert abelianize(both) == corolla(2)


def test_forget_symmetry_expands_orderings(small_posets):
    planar = forget_symmetry(small_posets["gamma2"])
    assert len(planar.relation) == 2
    assert forget_symmetry(small_posets["star"]) == star("x", P)
    assert forget_symmetry(small_posets["stump"]) == stump_poset("x", P)


def test_abelianize_after_forget_is_identity(small_posets):
    for poset in small_posets.values():
        assert abelianize(forget_symmetry(poset)) == poset


def test_sigma_adjunction_cardinality(small_posets):
    planar_corpus = [
        forget_symmetry(small_posets[k]) for k in ["star", "gamma1", "gamma2"]
    ] + [
        BroadPoset.build(P, ["r", "a", "b"], [(("a", "b"), "r")])  # one ordering only
    ]
    commutative_corpus = [small_posets[k] for k in ["star", "gamma1", "gamma2", "chain2"]]
    for A in planar_corpus:
        for B in commutative_corpus:
            left = len(enumerate_monotone(A, forget_symmetry(B)))
            right = len(enumerate_monotone(abelianize(A), B))
            assert left == right


def test_sigma_tensor_formula(small_posets):
    for a, b in itertools.product(["gamma1", "gamma2", "chain2", "stump"], repeat=2):
        A, B = small_posets[a], small_posets[b]
        lhs = abelianize(tensor(forget_symmetry(A), forget_symmetry(B)))
        rhs = tensor(A, B)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Poset embedding


def test_embed_chain_is_unary(small_posets):
    assert small_posets["chain2"].unary_pairs() == {("c0", "c1")}
    assert len(small_posets["chain3"].relation) == 3


def test_underlying_poset_of_corolla_is_discrete(small_posets):
    assert underlying_poset(small_posets["gamma2"]).strict == frozenset()


def test_embed_round_trip():
    chain = FinitePoset.chain(2)
    assert underlying_poset(embed_poset(chain)) == chain


# ---------------------------------------------------------------------------
# Isomorphism search


def test_find_isomorphism_relabelling(small_posets):
    g2 = small_posets["gamma2"]
    renamed = g2.rename({"r": "top", "l1": "u", "l2": "v"})
    found = find_isomorphism(g2, renamed)
    assert found is not None
    assert check_isomorphism(g2, renamed, found)


def test_find_isomorphism_distinguishes(small_posets):
    assert find_isomorphism(small_posets["gamma2"], small_posets["chain3"]) is None
    assert find_isomorphism(small_posets["star"], small_posets["stump"]) is None


def same_profile_classes(left: BroadPoset, right: BroadPoset) -> bool:
    """Whether the numbered profiles of both sides, numbered through one
    dictionary, split their elements into the classes the tuples do."""
    ids: dict = {}
    numbered = [core._element_profiles(p, ids) for p in (left, right)]
    tuples = [tuple_element_profiles(p) for p in (left, right)]

    def classes(sides) -> set[frozenset]:
        by_profile = defaultdict(set)
        for side, profiles in enumerate(sides):
            for x, profile in profiles.items():
                by_profile[profile].add((side, x))
        return set(map(frozenset, by_profile.values()))

    return classes(numbered) == classes(tuples)


@pytest.mark.parametrize("flavour", [C, P])
def test_numbered_profiles_split_tensors_as_the_tuples_do(flavour):
    trees = tree_corpus(flavour, 3)
    for s in trees:
        for t in trees:
            assert same_profile_classes(tensor(s, t), tensor(t, s))


@pytest.mark.parametrize(
    "flavour, left, right, witness",
    [
        (C, "r(a,b)", "s(x,y)", "v0=(s,a) v1=(s,b) v2=(s,r) v3=(x,a) v4=(x,b) v5=(x,r) v6=(y,a) v7=(y,b) v8=(y,r)"),
        (P, "r(a,b)", "s(x,y)", "v0=(s,b) v1=(s,a) v2=(s,r) v3=(y,b) v4=(y,a) v5=(y,r) v6=(x,b) v7=(x,a) v8=(x,r)"),
        (C, "r(a,b,c)", "s(x)", "v0=(x,r) v1=(s,r) v2=(x,a) v3=(s,a) v4=(x,b) v5=(s,b) v6=(x,c) v7=(s,c)"),
        (P, "r(a,b,c)", "s(x)", "v0=(x,r) v1=(s,r) v2=(x,c) v3=(s,c) v4=(x,b) v5=(s,b) v6=(x,a) v7=(s,a)"),
        (P, "r(a(b),c)", "s(x)", "v0=(x,r) v1=(s,r) v2=(x,c) v3=(s,c) v4=(x,b) v5=(s,b) v6=(x,a) v7=(s,a)"),
    ],
)
def test_find_isomorphism_witnesses_of_tensors_are_pinned(flavour, left, right, witness):
    """A renamed ``left ⊗ right`` against ``right ⊗ left``, each with
    several isomorphisms; the search returns the first it meets."""
    one, other = (to_broad(parse_term(term), flavour) for term in (left, right))
    product_ = tensor(one, other)
    renamed = product_.rename({x: f"v{i}" for i, x in enumerate(sorted(product_.carrier, reverse=True))})
    found = find_isomorphism(renamed, tensor(other, one))
    assert found == dict(pair.split("=") for pair in witness.split())


@pytest.mark.parametrize("flavour", [C, P])
def test_witnesses_are_those_the_counted_profiles_give(flavour, monkeypatch):
    """The tensor of every pair of trees up to 3 edges against a renamed
    and shuffled copy, and every two such tensors of equal carrier and
    relation sizes: the search finds the same witness, or None, with the
    profiles counted as ``find_isomorphism`` first counted them."""
    trees = tree_corpus(flavour, 3)
    tensors = [tensor(s, t) for s in trees for t in trees]
    rng = random.Random(7)
    questions = []
    for product_ in tensors:
        numbers = list(range(len(product_.carrier)))
        rng.shuffle(numbers)
        questions.append((product_, product_.rename({x: f"v{i}" for x, i in zip(sorted(product_.carrier), numbers)})))
    same_sizes = defaultdict(list)
    for product_ in tensors:
        same_sizes[len(product_.carrier), len(product_.relation)].append(product_)
    questions += [pair for group in same_sizes.values() for pair in itertools.combinations(group, 2)]
    found = [find_isomorphism(left, right) for left, right in questions]
    monkeypatch.setattr(core, "_element_profiles", counted_element_profiles)
    assert found == [find_isomorphism(left, right) for left, right in questions]
    assert None not in found[: len(tensors)] and None in found


@pytest.mark.parametrize("flavour", [C, P])
def test_relation_loops_build_no_words(flavour, monkeypatch):
    """Validation, the isomorphism search and recognition compare letter
    tuples: none of them builds a ``BroadWord`` on a poset that passes."""
    one, other = to_broad(parse_term("r(a,b(c))"), flavour), to_broad(parse_term("s(x,y)"), flavour)
    product_ = tensor(one, other)
    unkept = BroadPoset(flavour, product_.carrier, product_.relation)  # keeps no report
    renamed = product_.rename({x: f"n{x}" for x in product_.carrier})
    tree = to_broad(parse_term("r(a(b,c),d(e()),f)"), flavour)
    bare = BroadPoset(flavour, tree.carrier, tree.relation)
    built = []
    init = BroadWord.__init__
    monkeypatch.setattr(BroadWord, "__init__", lambda w, *args: built.append(w) or init(w, *args))
    assert validate(unkept).ok and not built
    assert find_isomorphism(product_, renamed) is not None and not built
    assert core._maxima_map(bare) == core._maxima_map(tree) and not built


def test_map_searches_run_without_recursion():
    """On a 301-edge chain under a recursion limit of 200: its one map to a
    point, a witness against a renamed copy, and its one isomorphism onto
    that copy."""
    from dendro.terms import parse_term, to_broad, tree_isomorphisms

    term = "e0"
    for i in range(1, 301):
        term = f"e{i}({term})"
    chain = to_broad(parse_term(term), C)
    renamed = chain.rename({x: f"n{x}" for x in chain.carrier})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        maps = enumerate_monotone(chain, star("y"))
        witness = find_isomorphism(chain, renamed)
        isomorphisms = tree_isomorphisms(chain, renamed)
    finally:
        sys.setrecursionlimit(limit)
    assert len(maps) == 1
    assert witness == {x: f"n{x}" for x in chain.carrier}
    assert isomorphisms == [witness]


# ---------------------------------------------------------------------------
# Serialization


def test_poset_json_round_trip(small_posets):
    for poset in small_posets.values():
        assert BroadPoset.from_json(poset.to_json()) == poset


def test_poset_json_discards_reflexive_pairs():
    data = {
        "flavour": "commutative",
        "carrier": ["a", "r"],
        "relation": [
            {"source": ["a"], "target": "a"},
            {"source": ["a"], "target": "r"},
        ],
    }
    poset = BroadPoset.from_json(data)
    assert len(poset.relation) == 1


def test_map_json_round_trip(small_posets):
    s, g2 = small_posets["star"], small_posets["gamma2"]
    m = MonotoneMap.from_dict(s, g2, {"x": "l1"})
    assert MonotoneMap.from_json(m.to_json()) == m


def test_malformed_json_raises_parse_error(small_posets):
    poset = small_posets["gamma2"].to_json()
    bad_posets = [
        [],
        {"flavour": "commutative", "carrier": ["a"]},
        dict(poset, flavour="cyclic"),
        dict(poset, carrier="l1"),
        dict(poset, relation=[{"source": ["l1", 2], "target": "r"}]),
        dict(poset, relation=[{"source": ["l1"]}]),
    ]
    for data in bad_posets:
        with pytest.raises(ParseError):
            BroadPoset.from_json(data)
    m = MonotoneMap.from_dict(small_posets["star"], small_posets["gamma2"], {"x": "l1"}).to_json()
    for data in [{k: v for k, v in m.items() if k != "assignment"}, dict(m, assignment={"x": 1})]:
        with pytest.raises(ParseError):
            MonotoneMap.from_json(data)


# ---------------------------------------------------------------------------
# Properties


@st.composite
def broad_posets(draw):
    flavour = draw(st.sampled_from([C, P]))
    size = draw(st.integers(min_value=1, max_value=4))
    carrier = [f"x{i}" for i in range(size)]
    count = draw(st.integers(min_value=0, max_value=3))
    gens = []
    for _ in range(count):
        length = draw(st.integers(min_value=0, max_value=2))
        source = tuple(draw(st.sampled_from(carrier)) for _ in range(length))
        target = draw(st.sampled_from(carrier))
        gens.append((source, target))
    try:
        return generate_broad_poset(carrier, gens, flavour, 8)
    except ClosureOverflow:
        return star("x0", flavour)


@settings(max_examples=60, deadline=None)
@given(broad_posets())
def test_generated_posets_validate(poset):
    """Through the constructor-built twin, which keeps no report, so every
    substitution is tried."""
    assert validate(BroadPoset(poset.flavour, poset.carrier, poset.relation)).ok


ALL_TRUE = core.ValidationReport(True, True, True, ())


def assert_kept_report_is_the_twins(poset: BroadPoset) -> None:
    """The poset was handed its report, and it is the all-true report that
    validating its constructor-built twin works out."""
    kept = poset._known[validate.__name__]
    assert kept == validate(BroadPoset(poset.flavour, poset.carrier, poset.relation)) == ALL_TRUE


def closed_or_none(flavour: Flavour, case) -> BroadPoset | None:
    carrier, generators, bound = case
    try:
        return generate_broad_poset(carrier, generators, flavour, bound)
    except ClosureOverflow:
        return None


@pytest.mark.parametrize("flavour", [C, P])
@settings(max_examples=150, deadline=None)
@given(
    st.one_of(generator_sets(), acyclic_generator_sets()),
    st.sampled_from(["s", "s()", "s(t)", "s(t,u)", "s(t(),u)"]),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2),
)
@example((["x", "y"], [(("x",), "y"), (("y",), "x")], 10), "s(t)", 1, 0)  # collapses
@example((["r", "a", "b", "c"], [(("a", "b"), "r"), (("c", "c"), "a")], 3), "s(t,u)", 3, 1)  # the bound is the longest word
@example((["r", "a", "b"], [(("a", "b"), "r"), ((), "a")], 10), "s()", 1, 0)  # a stump
def test_kernel_results_keep_the_report_their_twins_get(flavour, case, term, left_at, right_at):
    """Every closure, tensor and pushout is handed the report validating
    its constructor-built twin gives, all true; the tensor and the pushout
    take the closure and a small tree, the pushout glued at a point."""
    closed = closed_or_none(flavour, case)
    if closed is None:
        return
    tree = to_broad(parse_term(term), flavour)
    results = [closed]
    with suppress(ClosureOverflow):
        results.append(tensor(closed, tree))
    point = star("p", flavour)
    legs = [
        MonotoneMap.from_dict(point, side, {"p": sorted(side.carrier)[at % len(side.carrier)]})
        for side, at in ((closed, left_at), (tree, right_at))
    ]
    with suppress(ClosureOverflow, CollapseError):
        results.append(pushout(*legs)[0])
    for poset in results:
        assert_kept_report_is_the_twins(poset)


@settings(max_examples=150, deadline=None)
@given(st.one_of(generator_sets(), acyclic_generator_sets()), st.booleans())
@example((["x0", "x1", "x2"], [(("x0", "x0"), "x1"), (("x1", "x1"), "x2")], 8), False)  # x0·x0·x0·x0 ≤ x2 is longer than the carrier
@example((["r", "a", "b", "c"], [(("b", "a"), "r"), (("c", "a"), "b")], None), True)
def test_abelianize_of_a_valid_planar_poset_is_its_sorted_pairs_closed(case, validated):
    """A planar closure, or a word-built one once validated, keeps an ok
    report; its abelianization is the closure of its sorted pairs, with
    equal ``meta``, and is not closed again."""
    closed = closed_or_none(P, case)
    if closed is None:
        return
    poset = BroadPoset(P, closed.carrier, closed.relation) if validated else closed
    if validated:
        assert validate(poset).ok
    sorted_pairs = [(tuple(sorted(letters)), t) for letters, t in closed._pairs]
    bound = max([1, len(poset.carrier), *(len(w) for w, _ in sorted_pairs)])
    expected = generate_broad_poset(poset.carrier, sorted_pairs, C, bound)
    with mock.patch.object(core, "_closure", refusal("a closed poset was closed again")):
        result = abelianize(poset)
    assert result == expected and result.meta == expected.meta == {}
    assert result._known == {validate.__name__: ALL_TRUE}


@pytest.mark.parametrize("flavour", [C, P])
def test_validating_a_tensor_a_pushout_or_a_tree_tries_no_substitution(flavour, refuse):
    """A tensor and a pushout keep the report they were handed, a held
    tree's is read off its vertex map with no pair written, and a non-tree
    keeps the report :func:`is_dendroidal` worked out."""
    x, y = (to_broad(parse_term(term), flavour) for term in ("r(a,b)", "s(t(u),v())"))
    point = star("p", flavour)
    glued = pushout(MonotoneMap.from_dict(point, x, {"p": "a"}), MonotoneMap.from_dict(point, y, {"p": "s"}))[0]
    held = to_broad(parse_term("q(b(e,f),c,d())"), flavour)
    not_a_tree = BroadPoset.build(flavour, "abc", [(("a",), "b"), (("b",), "a")])
    assert not is_dendroidal(not_a_tree).is_dendroidal
    refuse(core, "_substitution_sites", "a poset was validated pair by pair")
    refuse(core, "_tree_relation", "a tree's pairs were written")
    for poset in (tensor(x, y), glued, held):
        assert validate(poset) == ALL_TRUE
    assert held._pairs is None
    assert not validate(not_a_tree).antisymmetric


@settings(max_examples=60, deadline=None)
@given(broad_posets())
def test_generation_idempotent(poset):
    again = generate_broad_poset(
        poset.carrier, [(w.letters, t) for w, t in poset.relation], poset.flavour, 8
    )
    assert again == poset


@settings(max_examples=40, deadline=None)
@given(broad_posets())
@example(  # x0·x0·x0·x0 ≤ x2 is longer than the carrier
    generate_broad_poset(["x0", "x1", "x2"], [(("x0", "x0"), "x1"), (("x1", "x1"), "x2")], C, 8)
)
def test_abelianize_forget_round_trip(poset):
    if poset.flavour is C:
        assert abelianize(forget_symmetry(poset)) == poset


@settings(max_examples=200, deadline=None)
@given(broad_posets(), broad_posets())
def test_numbered_profiles_split_broad_posets_as_the_tuples_do(left, right):
    assert same_profile_classes(left, right)


def test_rejected_arguments_raise_a_dendro_error_that_is_a_value_error():
    calls = [
        lambda: BroadPoset(C, frozenset("a"), frozenset({(BroadWord(C, ("a",)), "a")})),
        lambda: star("a").rename({"a": "x", "b": "x"}),
        lambda: corolla(1).rename({"l1": "r"}),
        lambda: generate_broad_poset(["a"], [], C, max_word_len=0),
        lambda: FinitePoset(frozenset("ab"), frozenset({("a", "b"), ("b", "a")})),
        lambda: FinitePoset(frozenset("abc"), frozenset({("a", "b"), ("b", "c")})),
        lambda: underlying_poset(BroadPoset.build(C, "bc", [("b", "c"), ("c", "b"), ((), "c")])),
        lambda: canonical_code(parse_term("r(a)")),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument) as info:
            call()
        assert isinstance(info.value, ValueError)


def test_flavour_must_be_a_member():
    # a plain string would leave the commutative word unsorted, as b·a, and break repr
    for call in (
        lambda: BroadPoset.build("commutative", ["a", "b", "c"], [(("b", "a"), "c")]),
        lambda: BroadPoset("planar", frozenset("a"), frozenset()),
        lambda: BroadPoset.build(["planar"], ["a"]),  # unhashable
        lambda: corolla(-1),
    ):
        with pytest.raises(InvalidArgument):
            call()
    stray = BroadWord("commutative", ("b", "a"))
    with pytest.raises(FlavourMismatch):
        BroadPoset(C, frozenset("abc"), frozenset({(stray, "c")}))
    assert corolla(0) == BroadPoset.build(C, ["r"], [((), "r")])


def test_a_flavour_name_is_not_a_flavour():
    """A plain string used to pass for planar: 10 shapes of up to 3 edges
    where there are 9 commutative ones, and the planar code ``(*())``."""
    term = parse_term("r(b,a())")
    for call in (
        lambda: enumerate_trees(3, "commutative"),
        lambda: canonical_code(term, "commutative"),
        lambda: term_code(term, "commutative"),
        lambda: BroadPoset.build("commutative", ["a"]),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == "flavour must be a Flavour member, not 'commutative'"
    assert len(enumerate_trees(3, C)) == 9
    assert canonical_code(term, C) == "(()*)"


@pytest.mark.parametrize("value", ["3", 2.5, True, False, None], ids=repr)
def test_size_arguments_must_be_ints(value):
    """Not an int, or a bool, is refused by name before it is used."""
    for call, name in (
        (lambda: corolla(value), "leaf_count"),
        (lambda: enumerate_trees(value, C), "max_edges"),
        (lambda: FinitePoset.chain(value), "top"),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == f"{name} must be an int, not {value!r}"


def test_size_arguments_keep_their_int_answers():
    with pytest.raises(InvalidArgument) as info:
        corolla(-2)
    assert str(info.value) == "leaf_count must be at least 0, not -2"
    assert [len(enumerate_trees(n, C)) for n in (-1, 0, 1, 2)] == [0, 0, 2, 4]
    assert FinitePoset.chain(-1) == FinitePoset(frozenset(), frozenset())


@pytest.mark.parametrize(
    "carrier, pairs, bad",
    [([1, 2], [((1,), 2)], 1), (["a", 3], [], 3), (["a", ("b",)], [(("a",), "a")], ("b",))],
    ids=["ints", "an int", "a tuple"],
)
def test_identifiers_must_be_strings(carrier, pairs, bad):
    """Such a poset used to be built, then broke repr, to_json and pair_str."""
    for flavour in (C, P):
        with pytest.raises(InvalidArgument) as info:
            BroadPoset.build(flavour, carrier, pairs)
        assert str(info.value) == f"identifiers must be strings, not {bad!r}"


@pytest.mark.parametrize("flavour", [C, P])
def test_build_checks_identifiers_before_it_sorts_letters(flavour):
    """A commutative word sorts its letters, which a non-string beside a
    string made a bare TypeError; both flavours name the identifier."""
    for carrier, pairs, bad in ((["a", 1], [(("a", 1), "a")], 1), (["a", "b"], [(("b", 2), "a")], 2)):
        with pytest.raises(InvalidArgument) as info:
            BroadPoset.build(flavour, carrier, pairs)
        assert str(info.value) == f"identifiers must be strings, not {bad!r}"


@pytest.mark.parametrize("flavour", [C, P])
def test_the_pair_check_names_the_least_bad_pair(flavour):
    """Whatever order the pairs come in, as a frozenset's order follows the
    hash seed, the least bad pair by repr is named."""
    pairs = [(BroadWord(flavour, (x,)), t) for x, t in (("x", "a"), ("y", "b"), ("z", "a"))]
    for order in itertools.permutations(pairs):
        with pytest.raises(IdentifierError) as info:
            core._check_pairs(frozenset("ab"), [(w.letters, t) for w, t in order])
        assert str(info.value) == "letter 'x' not in carrier"
    with pytest.raises(IdentifierError) as info:
        BroadPoset.build(flavour, ["a", "b"], [(("x",), "a"), (("y",), "b"), (("z",), "a")])
    assert str(info.value) == "letter 'x' not in carrier"


def test_an_entry_that_is_no_pair_is_an_invalid_argument():
    """A raw tuple word in the constructor used to be an AttributeError, and
    a one-element entry in build a plain ValueError."""
    with pytest.raises(InvalidArgument) as info:
        BroadPoset(C, ["a", "b"], [(("a",), "b")])
    assert str(info.value) == "relation entries must be (BroadWord, str) pairs, not (('a',), 'b')"
    stray = (BroadWord(C, ("a",)), "b", "c")
    for relation in ([1], ["ab"], [stray], [(BroadWord(C, ("z",)), "b"), stray]):
        with pytest.raises(InvalidArgument):
            BroadPoset(C, ["a", "b"], relation)
    for pairs in ([("a",)], [(("a",), "b", "c")], [(1, "a")]):
        with pytest.raises(InvalidArgument) as info:
            BroadPoset.build(C, ["a", "b"], pairs)
        assert str(info.value) == "pairs must be (letters, target) pairs"


def test_an_entry_that_does_not_hash_is_an_invalid_argument():
    """An entry, target or letter that does not hash used to escape as a
    bare TypeError from freezing the relation; the least bad entry by
    ``repr`` is named, read once even from an iterator."""
    a, b = word(C, ["a"]), word(C, ["b"])
    with pytest.raises(InvalidArgument) as info:
        BroadPoset(C, ["a", "b"], [[a, "b"]])
    assert str(info.value) == f"relation entries must be (BroadWord, str) pairs, not [{a!r}, 'b']"
    with pytest.raises(IdentifierError) as info:
        BroadPoset(C, ["a", "b"], iter([[b, "a"], (word(C, ["x"]), "b"), [a, "b"]]))
    assert str(info.value) == "letter 'x' not in carrier"  # "(" sorts before "["
    with pytest.raises(InvalidArgument) as info:
        BroadPoset(C, ["a", "b"], [[b, "a"], [a, "b"]])
    assert str(info.value) == f"relation entries must be (BroadWord, str) pairs, not [{a!r}, 'b']"
    for call in (
        lambda: BroadPoset(C, ["a", "b"], [(a, ["b"])]),
        lambda: BroadPoset.build(C, ["a", "b"], [(["a"], ["b"])]),
        lambda: generate_broad_poset(["a", "b"], [(["a"], ["b"])], C),
        lambda: generate_broad_poset(["a", "b"], [(["a"], ["b"])], P),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == "identifiers must be strings, not ['b']"
    for call in (
        lambda: BroadPoset(P, ["a", "b"], [(word(P, [["a"]]), "b")]),
        lambda: BroadPoset.build(C, ["a", "b"], [([["a"]], "b")]),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == "identifiers must be strings, not ['a']"


def test_a_carrier_identifier_that_does_not_hash_is_an_invalid_argument():
    """A carrier identifier that does not hash used to escape as a bare
    TypeError from freezing the carrier; the least identifier that is no
    string, by ``repr``, is named, read once even from an iterator."""
    for call in (
        lambda: BroadPoset(C, [["a"]], []),
        lambda: BroadPoset.build(C, [["a"]]),
        lambda: generate_broad_poset([["a"]], [], C),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == "identifiers must be strings, not ['a']"
    for carrier in (["b", ["a"], ("c",), {1}], iter([{1}, ["a"], "b", ("c",)])):
        with pytest.raises(InvalidArgument) as info:
            BroadPoset(P, carrier, [])
        assert str(info.value) == "identifiers must be strings, not ('c',)"  # "(" sorts before "[" and "{"


@pytest.mark.parametrize("flavour", [C, P])
def test_generators_are_checked_as_build_checks_pairs(flavour):
    """A non-string letter used to be a bare TypeError (commutative) or an
    IdentifierError (planar); both flavours now name it as build does."""
    generators = [(("a", 1), "a")]
    for call in (
        lambda: generate_broad_poset(["a"], generators, flavour),
        lambda: BroadPoset.build(flavour, ["a"], generators),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == "identifiers must be strings, not 1"


def test_a_commutative_word_names_a_non_string_letter():
    """Sorting the letters used to raise a bare TypeError."""
    poset = BroadPoset.build(C, ["a"])
    for call in (
        lambda: word(C, ["a", 1]),
        lambda: word_leq(poset, word(C, ["a", 1]), word(C, ["a"])),
        lambda: poset.leq(["a", 1], "a"),
    ):
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == "identifiers must be strings, not 1"
    assert word(P, ["a", 1]).letters == ("a", 1)  # nothing is sorted, so nothing is checked
