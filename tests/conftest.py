import inspect
import sys
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from dendro import Flavour, corolla, embed_poset, enumerate_trees, star, to_broad
from dendro.core import BroadPoset, FinitePoset
from dendro.terms import TreeTerm


@cache
def tree_corpus(flavour: Flavour, max_edges: int):
    """Broad posets of every tree up to the given size, one per class."""
    return tuple(to_broad(t, flavour) for t in enumerate_trees(max_edges, flavour))


flavours = st.sampled_from([Flavour.COMMUTATIVE, Flavour.PLANAR])


@st.composite
def tree_terms(draw, max_edges: int = 15) -> TreeTerm:
    """Edge i sits above the vertex of an earlier edge; an edge left
    without children is a leaf or a stump.  Names are shuffled so that
    name order and planar order disagree."""
    n = draw(st.integers(min_value=1, max_value=max_edges))
    names = draw(st.permutations([f"e{i}" for i in range(n)]))
    stumps = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    above: dict[int, list[int]] = defaultdict(list)
    for i in range(1, n):
        above[draw(st.integers(min_value=0, max_value=i - 1))].append(i)
    built: dict[int, TreeTerm] = {}
    for i in reversed(range(n)):
        if above[i]:
            built[i] = TreeTerm(names[i], tuple(built[j] for j in above[i]))
        else:
            built[i] = TreeTerm(names[i], () if i in stumps else None)
    return built[0]


def stump_poset(name: str = "x", flavour: Flavour = Flavour.COMMUTATIVE) -> BroadPoset:
    return BroadPoset.build(flavour, [name], [((), name)])


def linear_tree(length: int, flavour: Flavour = Flavour.COMMUTATIVE) -> BroadPoset:
    """The tree with one leaf and only unary vertices, as a broad poset."""
    return embed_poset(FinitePoset.chain(length), flavour)


def refusal(message: str):
    """A stand-in that raises ``AssertionError(message)`` when called."""

    def refused(*args, **kwargs):
        raise AssertionError(message)

    return refused


@pytest.fixture
def refuse(monkeypatch):
    """``refuse(owner, name, message)`` patches ``owner.name`` for the rest
    of the test, or until ``monkeypatch.undo()``, to raise
    ``AssertionError(message)`` when called, or when read if it is a
    property."""

    def refuse(owner, name: str, message: str) -> None:
        stand_in = refusal(message)
        if isinstance(inspect.getattr_static(owner, name), property):
            stand_in = property(stand_in)
        monkeypatch.setattr(owner, name, stand_in)

    return refuse


@pytest.fixture(scope="session")
def small_posets():
    """A mixed bag of small commutative broad posets."""
    chain2 = embed_poset(FinitePoset.chain(1))
    chain3 = embed_poset(FinitePoset.chain(2))
    return {
        "star": star("x"),
        "stump": stump_poset(),
        "gamma1": corolla(1),
        "gamma2": corolla(2),
        "gamma3": corolla(3),
        "chain2": chain2,
        "chain3": chain3,
        "discrete2": BroadPoset.build(Flavour.COMMUTATIVE, ["u", "v"]),
    }
