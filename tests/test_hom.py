"""Hom sets between trees, read off the domain's vertex map, agree with
the general backtracking search on the exhaustive corpus and with a
brute-force scan on random trees, map for map and in the same order; the
budget still bounds the assignment count, not the maps found."""

import itertools
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dendro import core
from dendro.core import BroadPoset, Flavour, enumerate_monotone
from dendro.errors import BudgetExceeded
from dendro.terms import parse_term, to_broad

from conftest import flavours, tree_corpus, tree_terms
from oracles import brute_monotone_maps


def searched(domain: BroadPoset, codomain: BroadPoset) -> list[dict[str, str]]:
    """The shared backtracker over the sorted domain, offering every value."""
    values = sorted(codomain.carrier)
    return list(core._assignments(domain, codomain, sorted(domain.carrier), lambda x, a: values, False))


def listed(maps) -> list[list[tuple[str, str]]]:
    return [list(m.mapping.items()) for m in maps]


@pytest.mark.parametrize("flavour", [Flavour.COMMUTATIVE, Flavour.PLANAR])
def test_tree_hom_sets_match_the_search_on_the_corpus(flavour, monkeypatch):
    pairs = list(itertools.product(tree_corpus(flavour, 4), repeat=2))
    expected = [searched(a, b) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("a hom set between trees ran the backtracker")

    monkeypatch.setattr(core, "SEARCH_AT_MOST", 0)  # every tree pair takes the tree path
    monkeypatch.setattr(core, "_assignments", refuse)
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


def test_small_hom_sets_read_no_tree(monkeypatch):
    """Up to SEARCH_AT_MOST assignments the search runs on the relation
    alone: 4^3 = 64 here."""
    source = to_broad(parse_term("r(a,b)"), Flavour.COMMUTATIVE)
    target = to_broad(parse_term("s(c,d)"), Flavour.COMMUTATIVE)

    def refuse(poset):
        raise AssertionError("a tree was read")

    monkeypatch.setattr(core, "_maxima_map", refuse)
    assert len(enumerate_monotone(source, target)) == 2


def test_budget_bounds_the_assignments_not_the_maps():
    """4^3 assignments exceed a budget of 2, though only 2 maps exist."""
    source = to_broad(parse_term("r(a,b)"), Flavour.COMMUTATIVE)
    target = to_broad(parse_term("s(c,d)"), Flavour.COMMUTATIVE)
    assert len(enumerate_monotone(source, target)) == 2
    with pytest.raises(BudgetExceeded):
        enumerate_monotone(source, target, budget=2)
