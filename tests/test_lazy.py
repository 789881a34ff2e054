"""A tree written from its vertex map, or cut out of a tree, holds the map
and writes its letter pairs only when something reads them; a generated
broad poset is handed its letter pairs.  Such a poset is, on the nose,
the broad poset the checked constructor builds on its carrier and
pairs, and the questions answered off vertex maps or letter pairs write
no relation at all."""

import copy
import itertools
import pickle
import re

import pytest

from dendro import category, core, terms
from dendro.category import all_faces, degeneracies, enumerate_subtrees, factorize
from dendro.core import (
    BroadPoset,
    FinitePoset,
    Flavour,
    MonotoneMap,
    _maxima_map,
    abelianize,
    check_isomorphism,
    embed_poset,
    enumerate_monotone,
    find_isomorphism,
    forget_symmetry,
    generate_broad_poset,
    identity,
    internal_hom,
    is_monotone,
    pair_str,
    product,
    pushout,
    tensor,
    validate,
)
from dendro.structure import classify_all, leaves, links, subtree_at
from dendro.terms import are_isomorphic, canonical_code, enumerate_trees, parse_term, to_broad

from conftest import tree_corpus
from oracles import subtree_vertex_choices

C = Flavour.COMMUTATIVE
P = Flavour.PLANAR
LAZY_CORPUS_EDGES = 7
KEY = _maxima_map.__name__


def bare(tree: BroadPoset) -> BroadPoset:
    """The same broad poset built from its relation, holding nothing."""
    return BroadPoset(tree.flavour, tree.carrier, tree.relation)


def unwritten(tree: BroadPoset) -> BroadPoset:
    """A twin of a tree that holds its map, with its pairs not written."""
    return core._held(tree.flavour, tree.carrier, None, tree.meta, {KEY: tree._known[KEY]})


def held_trees(flavour: Flavour) -> list[BroadPoset]:
    """Every tree of the corpus as ``to_broad`` writes it, and its face
    domains, subtrees at each edge, degeneracy codomains and subtrees:
    each distinct by carrier and kept map, since the corpus trees share
    their edge names."""
    seen: dict = {}
    for term in enumerate_trees(LAZY_CORPUS_EDGES, flavour):
        tree = to_broad(term, flavour)
        held = [tree, *(face.domain for face in all_faces(tree))]
        held += [subtree_at(tree, x) for x in sorted(tree.carrier)]
        held += [sigma.codomain for sigma in degeneracies(tree)]
        held += enumerate_subtrees(tree)
        for t in held:
            vertices, top = t._known[KEY]
            seen.setdefault((t.carrier, frozenset((x, w.letters) for x, w in vertices.items()), top), t)
    return list(seen.values())


@pytest.mark.parametrize("flavour", [C, P])
def test_held_trees_are_the_posets_the_constructor_builds(flavour):
    """Each question is asked of its own unwritten twin, so each writes
    the relation on its first read: equality both ways, hash, JSON,
    ``repr``, a pickle round trip and a deep copy, which keep the map."""
    trees = held_trees(flavour)
    for tree in trees:
        kept = tree._known[KEY]
        built = BroadPoset.build(flavour, tree.carrier, core._tree_relation(tree))
        assert _maxima_map(bare(built)) == kept
        assert unwritten(tree) == built
        assert built == unwritten(tree)
        assert hash(unwritten(tree)) == hash(built)
        assert unwritten(tree).to_json() == built.to_json()
        assert repr(unwritten(tree)) == repr(built)
        for twin in (pickle.loads(pickle.dumps(unwritten(tree))), copy.deepcopy(unwritten(tree))):
            assert twin == built and built == twin
            assert twin._known[KEY] == kept
    assert len(trees) > (500 if flavour is C else 1000)


def test_questions_answered_off_the_map_write_no_relation(monkeypatch):
    """Structure, faces, factorization, codes and isomorphism of written
    trees, with the relation writer made to raise."""
    tree = to_broad(parse_term("r(a(b(c)),d())"), C)
    twin = to_broad(parse_term("s(x(y(z)),w())"), C)
    near = to_broad(parse_term("s(x(y(z())),w)"), C)
    chain = to_broad(parse_term("x(y(z))"), C)
    maps = [
        identity(tree),
        MonotoneMap.from_dict(chain, tree, {"x": "r", "y": "a", "z": "b"}),  # an outer and an inner face
        MonotoneMap.from_dict(chain, tree, {"x": "r", "y": "r", "z": "a"}),  # a degeneracy, then three faces
    ]

    def refuse(poset):
        raise AssertionError("a relation was written")

    monkeypatch.setattr(core, "_tree_relation", refuse)
    assert len(classify_all(tree)) == 5
    assert len(links(tree)) == 4
    assert len(all_faces(tree)) == 5
    steps = [(len(f.degeneracies), len(f.faces)) for f in map(factorize, maps)]
    assert steps == [(0, 0), (0, 2), (1, 3)]
    assert canonical_code(tree) == canonical_code(twin)
    assert are_isomorphic(tree, twin) == (True, {"r": "s", "a": "x", "b": "y", "c": "z", "d": "w"})
    assert are_isomorphic(tree, near) == (False, None)


@pytest.mark.parametrize("flavour", [C, P])
def test_graft_of_held_trees_writes_no_relation(flavour, monkeypatch):
    """A held tree's leaves are its carrier less its vertex map's edges, so
    grafting two held trees reads no relation; a bare tree's are the
    carrier less the relation's targets, the same set."""
    host, scion = to_broad(parse_term("r(a,b,c())"), flavour), to_broad(parse_term("x(y)"), flavour)
    expected = {"b", "y"}
    assert leaves(bare(host)) == leaves(host) == {"a", "b"}

    def refuse(poset):
        raise AssertionError("a relation was written")

    monkeypatch.setattr(core, "_tree_relation", refuse)
    grafted = terms.graft(host, "a", scion)
    assert leaves(grafted) == expected
    monkeypatch.undo()
    assert leaves(bare(grafted)) == expected
    assert grafted == terms.graft(bare(host), "a", bare(scion))


def vertex_key(carrier, vertices) -> tuple:
    """A tree by its carrier and vertex map, which fix its root."""
    return carrier, frozenset((x, w.letters) for x, w in vertices.items())


@pytest.mark.parametrize("flavour", [C, P])
def test_subtrees_write_no_relation_of_their_host(flavour, monkeypatch):
    """The words below each edge are written off the host's vertex map, so
    the host's relation is never written, and the subtrees are the ones
    chosen from the words of the host's relation, each once.  Their order
    is a sort on a key that tells every two subtrees apart, so the lists
    are equal on the nose; it is left out here, as it writes relations,
    and checked up to 5 edges."""
    write = core._tree_relation

    def guarded(tree):
        if tree is host:  # no assert: its message would print the host, so write its relation
            raise AssertionError("the host's relation was written")
        return write(tree)

    monkeypatch.setattr(core, "_tree_relation", guarded)
    monkeypatch.setattr(category, "_subtree_order", list)
    for tree in tree_corpus(flavour, LAZY_CORPUS_EDGES):
        host = unwritten(tree)
        subtrees = [vertex_key(s.carrier, s._known[KEY][0]) for s in enumerate_subtrees(host)]
        chosen = {vertex_key(*choice) for choice in subtree_vertex_choices(tree)}
        assert len(subtrees) == len(chosen) and set(subtrees) == chosen
    monkeypatch.undo()
    for tree in tree_corpus(flavour, 5):
        chosen = [core._tree_poset(flavour, *choice) for choice in subtree_vertex_choices(tree)]
        chosen.sort(key=lambda s: (len(s.carrier), sorted(s.carrier), sorted(map(pair_str, s.relation))))
        assert enumerate_subtrees(unwritten(tree)) == chosen


def renamed(term, flavour: Flavour) -> BroadPoset:
    """The tree of a corpus term with edge ``ei`` named ``z(10 - i)``, so
    name order runs against the original's."""
    return to_broad(parse_term(re.sub(r"e(\d+)", lambda m: f"z{10 - int(m[1])}", str(term))), flavour)


@pytest.mark.parametrize("flavour", [C, P])
def test_isomorphism_is_decided_as_the_pair_check_decides(flavour, monkeypatch):
    """Trees up to 5 edges against each tree of their size (the near
    misses), a renamed copy and a copy recognised from its relation: the
    vertex-map check gives the answers and witnesses the check of every
    relation pair gives."""
    corpus = enumerate_trees(5, flavour)
    lefts = [to_broad(t, flavour) for t in corpus]
    rights = [*lefts, *(renamed(t, flavour) for t in corpus), *map(bare, lefts)]
    pairs = [(left, right) for left in lefts for right in rights if len(left.carrier) == len(right.carrier)]
    ours = [are_isomorphic(left, right) for left, right in pairs]
    monkeypatch.setattr(terms, "_is_isomorphism", check_isomorphism)
    assert ours == [are_isomorphic(left, right) for left, right in pairs]
    assert sum(found for found, _ in ours) == 3 * len(lefts)  # one tree per class


@pytest.mark.parametrize("flavour", [C, P])
def test_vertex_check_is_the_pair_check_on_every_assignment(flavour):
    """Every bijection between trees up to 4 edges, a constant map and a
    partial one are isomorphisms by vertex maps exactly when they are by
    relation pairs."""
    trees = [to_broad(t, flavour) for t in enumerate_trees(4, flavour)]
    checked = 0
    for left, right in itertools.product(trees, repeat=2):
        if len(left.carrier) != len(right.carrier):
            continue
        edges, images = sorted(left.carrier), sorted(right.carrier)
        assignments = [dict(zip(edges, perm)) for perm in itertools.permutations(images)]
        assignments += [dict.fromkeys(edges, images[0]), dict(zip(edges[1:], images))]
        for assignment in assignments:
            assert core._is_isomorphism(left, right, assignment) == check_isomorphism(left, right, assignment)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("flavour", [C, P])
def test_monotone_between_held_trees_is_read_off_the_vertices(flavour):
    """Every assignment from a tree up to 3 edges into a tree up to 4 is
    monotone by its vertices exactly when every relation pair maps into
    the codomain's relation."""
    sources = [to_broad(t, flavour) for t in enumerate_trees(3, flavour)]
    targets = [to_broad(t, flavour) for t in enumerate_trees(4, flavour)]
    found = 0
    for source, target in itertools.product(sources, targets):
        edges = sorted(source.carrier)
        plain_source, plain_target = bare(source), bare(target)
        for values in itertools.product(sorted(target.carrier), repeat=len(edges)):
            assignment = dict(zip(edges, values))
            monotone = is_monotone(assignment, source, target)
            assert monotone == is_monotone(assignment, plain_source, plain_target)
            found += monotone
    assert found > 100


def held_twin(poset: BroadPoset) -> BroadPoset:
    """A fresh twin of a poset that was handed its letter pairs."""
    return core._held(poset.flavour, poset.carrier, poset._pairs, poset.meta)


def assert_held_as_built(poset: BroadPoset) -> None:
    """The poset was handed its pairs, and is on the nose the poset
    ``build`` makes of them, which sorts commutative letters and checks
    every pair: equality both ways, hash, JSON, ``repr``, and a pickle
    round trip and a deep copy, which keep the pairs.  Each question is
    asked of its own fresh twin.  The pickle holds the pairs alone, as
    letters: no ``BroadWord``, and no more bytes than the built poset's."""
    pairs = poset._pairs
    built = BroadPoset.build(poset.flavour, poset.carrier, sorted(pairs), poset.meta)
    assert len(built.relation) == len(pairs)
    assert held_twin(poset) == built and built == held_twin(poset)
    assert hash(held_twin(poset)) == hash(built)
    assert held_twin(poset).to_json() == built.to_json()
    assert repr(held_twin(poset)) == repr(built)
    pickled = pickle.dumps(held_twin(poset))
    assert b"BroadWord" not in pickled and len(pickled) <= len(pickle.dumps(built))
    for twin in (pickle.loads(pickled), copy.deepcopy(held_twin(poset))):
        assert twin == built and built == twin
        assert twin._pairs == pairs


def test_a_deep_copy_shares_the_pairs():
    """A deep copy shares the immutable carrier and pairs, and copies
    ``meta`` and the kept answers."""
    left, right = (to_broad(parse_term(t), Flavour.PLANAR) for t in ("r(a(b,c),d)", "s(t(u,v),w)"))
    poset = tensor(left, right)
    _maxima_map(poset)  # an answer kept on the poset
    twin = copy.deepcopy(poset)
    assert twin == poset and len(poset._pairs) == 248
    assert twin._pairs is poset._pairs and twin.carrier is poset.carrier
    assert twin.meta == poset.meta and twin.meta is not poset.meta
    assert twin._known == poset._known != {} and twin._known is not poset._known


def algebra_inputs(flavour: Flavour) -> list[BroadPoset]:
    """A word that repeats a letter, first so that it is the left side of
    its pairs, then trees up to 4 edges, chains of 1 to 3 edges and the
    2×3 grid."""
    chains = [embed_poset(FinitePoset.chain(n), flavour) for n in (1, 2, 3)]
    grid = embed_poset(FinitePoset.chain(1).product(FinitePoset.chain(2)), flavour)
    repeated = BroadPoset.build(flavour, ["x", "y"], [(("x", "x"), "y")])
    return [repeated, *tree_corpus(flavour, 4), *chains, grid]


def longest_word(poset: BroadPoset) -> int:
    return max((len(letters) for letters, _ in core._relation_pairs(poset)), default=0)


# generators with a cycle, the unary a ≤ b ≤ a, which collapses onto a;
# substituting e for a in a·c gives a word whose letters must be sorted again
CYCLIC = [
    (["a", "b", "c"], [(["a"], "b"), (["b"], "a"), (["c"], "a")]),
    (["a", "b", "c", "d", "e"], [(["a"], "b"), (["b"], "a"), (["e"], "a"), ([], "c"), (["a", "c"], "d")]),
]


@pytest.mark.parametrize("flavour", [C, P])
def test_algebra_outputs_are_the_posets_the_constructor_builds(flavour):
    """Every generated poset, abelianization or forgotten symmetry of an
    input, and, for every unordered pair of inputs with at most 12 element
    pairs, its tensor, product, pushout (a point glued to an element of
    each side, which collapses nothing), the tensor's abelianization or
    forgotten symmetry (words up to 4 letters), and the internal hom
    between inputs of at most 3 elements; two cyclic closures, and the
    tensor of ``r(a,b,c)`` and ``s(t(u,v))``."""
    inputs = algebra_inputs(flavour)
    point = BroadPoset.build(flavour, ["p"])
    outputs = []
    for x in inputs:
        outputs.append(generate_broad_poset(x.carrier, x.relation, flavour))
        outputs += [forget_symmetry(x)] if flavour is C else [abelianize(x)]
    for x, y in itertools.combinations_with_replacement(inputs, 2):
        if len(x.carrier) * len(y.carrier) > 12:
            continue
        t = tensor(x, y)
        outputs += [t, product(x, y)[0]]
        legs = [MonotoneMap.from_dict(point, side, {"p": pick(side.carrier)}) for side, pick in ((x, min), (y, max))]
        outputs.append(pushout(*legs, max_word_len=16)[0])  # words of at most 4 letters on each side
        if flavour is P:
            outputs.append(abelianize(t))
        elif longest_word(t) <= 4:
            outputs.append(forget_symmetry(t))
        if len(x.carrier) <= 3 and len(y.carrier) <= 3:
            outputs.append(internal_hom(x, y))
    for carrier, generators in CYCLIC:
        outputs.append(generate_broad_poset(carrier, generators, flavour, 4))
    outputs.append(tensor(*(to_broad(parse_term(term), flavour) for term in ("r(a,b,c)", "s(t(u,v))"))))
    assert any(p.meta.get("collapsed") for p in outputs)
    for poset in outputs:
        assert_held_as_built(poset)
    assert len(outputs) > (1000 if flavour is C else 1500)


@pytest.mark.parametrize("flavour", [C, P])
def test_algebra_on_held_pairs_writes_no_relation(flavour, monkeypatch):
    """Tensors of fresh trees, validation, isomorphism search,
    symmetrization and hom sets read letter pairs, with the ``relation``
    view made to raise, so none of them writes a ``BroadWord`` relation;
    each answer is the one its word-built copy gives.  The hom sets run
    once through the backtracker alone (81 assignments) and once after
    recognition finds no tree (729)."""
    x, y = to_broad(parse_term("r(a,b)"), flavour), to_broad(parse_term("s(t(u))"), flavour)
    renamed = [side.rename({e: e.upper() for e in side.carrier}) for side in (x, y)]
    small = [to_broad(parse_term(term), flavour) for term in ("r(a)", "s(t)")]
    target = to_broad(parse_term("p(q,w)"), flavour)

    def refuse(poset):
        raise AssertionError("a held relation was written")

    monkeypatch.setattr(BroadPoset, "relation", property(refuse))
    t, twin = tensor(x, y), tensor(*renamed)
    report = validate(t)
    found = find_isomorphism(t, twin)
    homs = [enumerate_monotone(tensor(*small), target), enumerate_monotone(t, target)]
    if flavour is C:
        symmetrized = abelianize(tensor(forget_symmetry(x), forget_symmetry(y)))
    monkeypatch.undo()
    assert report == validate(bare(t)) and report.ok
    assert found is not None and check_isomorphism(t, twin, found)
    assert [[m.pairs for m in hom] for hom in homs] == [
        [m.pairs for m in enumerate_monotone(bare(tensor(*small)), target)],
        [m.pairs for m in enumerate_monotone(bare(t), target)],
    ]
    assert len(homs[0]) > 0 and len(homs[1]) > 0
    if flavour is C:
        assert symmetrized == t


def test_no_poset_takes_an_assignment():
    """A word-built poset, a tree before and after its pairs are written,
    and a generated poset all refuse to have an attribute assigned."""
    unread, read = (to_broad(parse_term("r(a,b(c))"), P) for _ in range(2))
    assert read.relation and read._pairs is not None
    posets = [BroadPoset.build(P, "ab", [(("a",), "b")]), unread, read, generate_broad_poset("ab", [(("a",), "b")], P)]
    for poset in posets:
        for name in ("flavour", "carrier", "relation", "meta"):
            with pytest.raises(AttributeError):
                setattr(poset, name, None)
    assert unread._pairs is None


def test_public_constructors_still_check_every_pair(monkeypatch):
    """``BroadPoset(...)``, ``build`` and ``generate_broad_poset`` hand
    every pair they are given to the per-pair check."""
    checked = []
    check = core._check_pairs

    def counted(flavour, carrier, pairs):
        checked.append(len(pairs))
        return check(flavour, carrier, pairs)

    relation = to_broad(parse_term("r(a(b),c)"), C).relation
    monkeypatch.setattr(core, "_check_pairs", counted)
    BroadPoset(C, "rabc", relation)
    BroadPoset.build(C, "rabc", [(w.letters, t) for w, t in relation])
    generate_broad_poset("rabc", [(("a", "c"), "r"), (("b",), "a")], C)
    assert checked == [len(relation), len(relation), 2]
