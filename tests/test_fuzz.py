"""The input boundary: random term strings and small JSON blobs either
succeed or raise a ``DendroError``, never anything else."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendro.cli import _parse_assignment
from dendro.core import BroadPoset, Flavour, MonotoneMap, star
from dendro.errors import DendroError, ParseError
from dendro.terms import parse_term, to_broad

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
