"""The input boundary: random term strings, small JSON blobs and small
broad posets either succeed or raise a ``DendroError``, never anything
else."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendro.category import (
    all_faces,
    classify_map,
    degeneracies,
    enumerate_subtrees,
    factorize,
    maximal_subtrees,
)
from dendro.cli import _parse_assignment
from dendro.core import BroadPoset, BroadWord, Flavour, MonotoneMap, identity, star, underlying_poset
from dendro.errors import DendroError, ParseError
from dendro.structure import classify_edge, join, parent, root, root_corolla, subtree_at
from dendro.terms import canonical_code, parse_term, to_broad, to_term

IDS = st.sampled_from(["a", "b", "c"])
KEYS = ["flavour", "carrier", "relation", "source", "target", "domain", "codomain", "assignment"]
FLAVOURS = st.sampled_from(["commutative", "planar"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | IDS | FLAVOURS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)
PAIRS = st.fixed_dictionaries({"source": st.lists(IDS, max_size=3) | JSON, "target": IDS | JSON})
POSETS = st.fixed_dictionaries({
    "flavour": FLAVOURS | JSON,
    "carrier": st.lists(IDS, max_size=3) | JSON,
    "relation": st.lists(PAIRS | JSON, max_size=3) | JSON,
}) | JSON
MAPS = st.fixed_dictionaries({
    "domain": POSETS | IDS,
    "codomain": POSETS | IDS,
    "assignment": st.dictionaries(IDS, IDS, max_size=3) | JSON,
}) | JSON
TERMS = st.text(alphabet="ab1_(), ", max_size=16) | st.text(max_size=8)
LISTED_FLAVOUR = {"flavour": ["planar"], "carrier": [], "relation": []}  # unhashable flavour


def succeeds_or_raises_dendro_error(action) -> None:
    try:
        action()
    except DendroError:
        pass


@settings(max_examples=300, deadline=None)
@given(TERMS, st.sampled_from(Flavour))
@example("r(a,,b)", Flavour.COMMUTATIVE)
@example("r(a(b),c(b))", Flavour.PLANAR)
def test_terms_parse_or_raise(text, flavour):
    succeeds_or_raises_dendro_error(lambda: to_broad(parse_term(text), flavour))


@settings(max_examples=300, deadline=None)
@given(POSETS)
@example(LISTED_FLAVOUR)
@example({"flavour": {"planar": 1}, "carrier": [], "relation": []})
def test_poset_json_loads_or_raises(data):
    succeeds_or_raises_dendro_error(lambda: BroadPoset.from_json(data))


@settings(max_examples=300, deadline=None)
@given(MAPS, st.sampled_from([None, {"a": star("a"), "b": star("b", Flavour.PLANAR)}]))
@example({"domain": LISTED_FLAVOUR, "codomain": "a", "assignment": {}}, None)
def test_map_json_loads_or_raises(data, registry):
    succeeds_or_raises_dendro_error(lambda: MonotoneMap.from_json(data, registry))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab=>, ", max_size=16))
@example("a=>p,a=>s")
def test_map_literal_parses_or_raises(text):
    try:
        assignment = _parse_assignment(text)
    except ParseError:
        return
    assert isinstance(assignment, dict)


@st.composite
def small_posets(draw) -> BroadPoset:
    """Up to 4 identifiers related by up to 4 pairs of words of up to 3
    letters: trees, near-trees and broad relations that are not posets."""
    carrier = draw(st.lists(IDS | st.just("d"), min_size=1, max_size=4, unique=True))
    letters = st.sampled_from(carrier)
    pairs = draw(st.lists(st.tuples(st.lists(letters, max_size=3), letters), max_size=4))
    return BroadPoset.build(draw(st.sampled_from(Flavour)), carrier, pairs)


@settings(max_examples=300, deadline=None)
@given(small_posets())
@example(  # join used to climb from "a" to "a" forever
    BroadPoset.build(
        Flavour.COMMUTATIVE,
        ["a", "b", "c", "r"],
        [(("a", "c"), "r"), (("a", "r"), "a"), (("b", "c", "c"), "r")],
    )
)
@example(  # classify_map used to test the non-tree for a degeneracy
    BroadPoset.build(Flavour.COMMUTATIVE, ["a", "b", "z"], [(("b",), "a")])
)
@example(  # underlying_poset used to raise a bare ValueError on a cycle
    BroadPoset.build(Flavour.PLANAR, ["b", "c"], [(("b",), "c"), (("c",), "b"), ((), "c")])
)
def test_tree_queries_answer_or_raise(poset):
    edges = sorted(poset.carrier)
    constant = MonotoneMap.from_dict(poset, star(edges[0], poset.flavour), {x: edges[0] for x in edges})
    calls = [
        lambda: root(poset),
        lambda: root_corolla(poset),
        lambda: to_term(poset),
        lambda: canonical_code(poset),
        lambda: all_faces(poset),
        lambda: degeneracies(poset),
        lambda: enumerate_subtrees(poset),
        lambda: classify_map(constant),
        lambda: classify_map(identity(poset)),
        lambda: factorize(constant),
        lambda: factorize(identity(poset)),
        lambda: maximal_subtrees(poset),
        lambda: underlying_poset(poset),
        # an identifier outside every carrier
        lambda: classify_edge(poset, "zz"),
        lambda: poset.sources("zz"),
        lambda: constant("zz"),
        lambda: constant.word(BroadWord(poset.flavour, (edges[0], "zz"))),
    ]
    for x in edges:
        calls += [lambda x=x: parent(poset, x), lambda x=x: subtree_at(poset, x)]
        calls += [lambda x=x, y=y: join(poset, x, y) for y in edges]
    for call in calls:
        succeeds_or_raises_dendro_error(call)
