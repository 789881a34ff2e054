"""What is worked out about a poset is kept on that poset: no poset
outlives its use, no module keeps a cache, and a queried tree pickles and
copies with the same answers."""

import copy
import gc
import importlib
import pickle
import pkgutil
import sys
import threading

import pytest

import dendro
from dendro.category import all_faces, classify_maximal
from dendro.core import BroadPoset, BroadWord, Flavour, word_leq
from dendro.structure import descendant_order, is_dendroidal, links, vertices
from dendro.terms import enumerate_trees, parse_term, to_broad


def live_posets() -> int:
    gc.collect()
    return sum(isinstance(o, BroadPoset) for o in gc.get_objects())


def query_trees(count: int) -> int:
    """Build trees, ask each the usual questions, and drop them all."""
    trees = [to_broad(t, flavour) for flavour in Flavour for t in enumerate_trees(6, flavour)][:count]
    for tree in trees:
        links(tree)
        assert is_dendroidal(BroadPoset(tree.flavour, tree.carrier, tree.relation)).is_dendroidal
        for face in all_faces(tree):
            classify_maximal(tree, face.domain)
    return len(trees)


def test_no_poset_is_retained_after_use():
    before = live_posets()
    assert query_trees(200) == 200
    assert live_posets() == before


def test_no_module_keeps_a_cache():
    modules = [importlib.import_module(f"dendro.{m.name}") for m in pkgutil.iter_modules(dendro.__path__)]
    assert {m.__name__ for m in modules} >= {"dendro.core", "dendro.structure", "dendro.category"}
    cached = [
        f"{module.__name__}.{name}"
        for module in [dendro, *modules]
        for name, value in vars(module).items()
        if hasattr(value, "cache_clear")
    ]
    assert cached == []


@pytest.mark.parametrize("flavour", list(Flavour))
def test_a_queried_tree_pickles_and_copies(flavour):
    tree = to_broad(parse_term("r(a(b,c()),d)"), flavour)

    def answers(t: BroadPoset) -> tuple:
        return (
            {x: t.sources(x) for x in sorted(t.carrier)},
            links(t),
            is_dendroidal(t),
            descendant_order(t),
            all_faces(t),
            word_leq(t, BroadWord(flavour, ("b", "d")), BroadWord(flavour, ("a", "d"))),
        )

    asked = answers(tree)
    for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert twin == tree
        assert answers(twin) == asked


def test_threads_sharing_posets_get_the_answers_of_one_thread():
    """Threads may both work out an entry of one poset, or write the
    relation of one tree that holds its vertex map; the values are equal,
    so every thread gets the answers a lone thread gets."""
    terms = [(t, flavour) for flavour in Flavour for t in enumerate_trees(4, flavour)]
    trees = [to_broad(t, flavour) for t, flavour in terms]

    def bare(tree: BroadPoset) -> BroadPoset:
        return BroadPoset(tree.flavour, tree.carrier, tree.relation)

    def answers(posets: list[BroadPoset]) -> list:
        return [(p.relation, vertices(p), links(p), all_faces(p)) for p in posets]

    reference = answers([bare(t) for t in trees] * 2)
    shared = [bare(t) for t in trees] + [to_broad(t, flavour) for t, flavour in terms]
    results: list = [None] * 4

    def work(i: int) -> None:
        results[i] = answers(shared)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [reference] * len(results)
