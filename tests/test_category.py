import itertools

import pytest

from dendro import category, core
from dendro.category import (
    FaceKind,
    FaceType,
    MapKind,
    all_faces,
    classify_map,
    classify_maximal,
    degeneracies,
    degeneracy,
    enumerate_subtrees,
    factorize,
    graft_map,
    inner_face,
    maximal_subtrees,
    outer_face,
    root_face,
)
from dendro.cli import run
from dendro.core import (
    BroadPoset,
    BroadWord,
    FinitePoset,
    Flavour,
    MonotoneMap,
    compose,
    corolla,
    embed_poset,
    enumerate_monotone,
    identity,
    star,
)
from dendro.errors import (
    FlavourMismatch,
    GraftUndefined,
    IdentifierError,
    InvalidArgument,
    NoRootFace,
    NotDendroidal,
    NotInnerEdge,
    NotMaximal,
    NotMonotone,
    NotOuterCluster,
    NotUnaryVertex,
)
from dendro.structure import degree, inclusion, links, root, subtree_at
from dendro.terms import graft, parse_term, to_broad, tree_isomorphisms

from conftest import linear_tree, stump_poset, tree_corpus
from oracles import brute_subtree_posets, chain_map_count

C = Flavour.COMMUTATIVE
P = Flavour.PLANAR


@pytest.fixture(scope="module")
def example():
    return to_broad(parse_term("r(b(e,f),c,d())"), C)


@pytest.fixture(scope="module")
def grafted():
    return graft(corolla(2), "l1", corolla(2, root="m", leaf_prefix="k"))


# ---------------------------------------------------------------------------
# Subtree enumeration


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_corolla_subtree_count(n):
    subs = enumerate_subtrees(corolla(n))
    assert len(subs) == n + 2
    bare_edges = [s for s in subs if degree(s) == 0]
    assert len(bare_edges) == n + 1
    # no two-edge linear subtree sneaks in
    assert all(len(s.carrier) in (1, n + 1) for s in subs)


def test_point_has_single_subtree():
    assert enumerate_subtrees(star("x")) == [star("x")]


def test_example_maximal_subtrees(example):
    maxs = maximal_subtrees(example)
    assert len(maxs) == 4
    carriers = sorted(tuple(sorted(m.carrier)) for m in maxs)
    assert carriers == [
        ("b", "c", "d", "e", "f", "r"),  # stump removed, carrier kept
        ("b", "c", "d", "r"),
        ("b", "c", "e", "f", "r"),
        ("c", "d", "e", "f", "r"),
    ]


@pytest.mark.parametrize("flavour", [C, P])
def test_subtrees_match_bruteforce(flavour):
    corpus = [t for t in tree_corpus(flavour, 4) if len(t.relation) <= 5]
    for poset in corpus[:16]:
        assert set(enumerate_subtrees(poset)) == brute_subtree_posets(poset)


def test_subtrees_are_sub_broad_posets(example):
    for sub in enumerate_subtrees(example):
        assert sub.carrier <= example.carrier
        assert sub.relation <= example.relation


# ---------------------------------------------------------------------------
# Face classification


def test_corolla_maximal_classification():
    g2 = corolla(2)
    maxs = maximal_subtrees(g2)
    kinds = {}
    for sub in maxs:
        kinds[tuple(sorted(sub.carrier))] = classify_maximal(g2, sub).type
    assert kinds[("r",)] is FaceType.OUTER
    assert kinds[("l1",)] is FaceType.ROOT
    assert kinds[("l2",)] is FaceType.ROOT


def test_example_classification(example):
    for sub in maximal_subtrees(example):
        kind = classify_maximal(example, sub)
        if sub.carrier == example.carrier:
            assert kind.type is FaceType.OUTER  # stump removal
            assert kind.cluster[1] == "d"
        elif sub.carrier == {"c", "d", "e", "f", "r"}:
            assert kind.type is FaceType.INNER and kind.edge == "b"
        elif sub.carrier == {"b", "c", "e", "f", "r"}:
            assert kind.type is FaceType.INNER and kind.edge == "d"
        else:
            assert kind.type is FaceType.OUTER and kind.cluster[1] == "b"


def test_stump_tree_face():
    one = stump_poset()
    maxs = maximal_subtrees(one)
    assert len(maxs) == 1
    kind = classify_maximal(one, maxs[0])
    assert kind.type is FaceType.OUTER
    assert kind.cluster[0].is_empty


def test_classify_rejects_non_maximal(example):
    with pytest.raises(NotMaximal):
        classify_maximal(example, star("r"))


@pytest.mark.parametrize("flavour", [C, P])
def test_classification_exclusive_and_complete(flavour):
    for poset in tree_corpus(flavour, 6):
        faces = all_faces(poset)
        domains = [face.domain for face in faces]
        assert len(domains) == len(set(domains))  # exclusive
        # complete: the face domains are the subtrees with one vertex fewer
        target = degree(poset) - 1
        assert maximal_subtrees(poset) == [s for s in enumerate_subtrees(poset) if degree(s) == target]
        the_root = root(poset)
        for face in faces:
            contains_root = the_root in face.domain.carrier
            if face.kind.type is FaceType.ROOT:
                assert not contains_root
            else:
                assert contains_root


def test_maximal_subtrees_write_only_what_they_return(example, monkeypatch):
    calls = {"_cut": 0, "_tree_poset": 0}
    for name in calls:

        def counted(*args, name=name, write=getattr(category, name)):
            calls[name] += 1
            return write(*args)

        monkeypatch.setattr(category, name, counted)
    assert len(maximal_subtrees(example)) == 4
    assert calls == {"_cut": 4, "_tree_poset": 0}


def test_faces_of_a_chain_are_checked_against_it_not_pair_by_pair(monkeypatch):
    """The forty faces of a written 40-edge chain are cut out with no run
    of the constructor's per-pair check."""
    chain = to_broad(parse_term("(".join(f"e{i}" for i in range(40)) + ")" * 39), C)
    checks = []
    check = core._check_pairs
    monkeypatch.setattr(core, "_check_pairs", lambda *args: checks.append(args) or check(*args))
    assert len(all_faces(chain)) == 40
    assert checks == []


@pytest.mark.parametrize("flavour", [C, P])
def test_face_inclusions_are_the_maps_the_constructor_builds(flavour):
    """A face's inclusion, built past the constructor, is the map the
    constructor builds from the sorted identity pairs: equal both ways,
    with the same hash, pairs, mapping and JSON, on every face of the
    7-edge corpus."""
    for tree in tree_corpus(flavour, 7):
        for face in all_faces(tree):
            built = MonotoneMap(face.domain, tree, tuple((x, x) for x in sorted(face.domain.carrier)))
            assert face.map == built and built == face.map
            assert hash(face.map) == hash(built)
            assert face.map.pairs == built.pairs
            assert list(face.map.mapping.items()) == list(built.mapping.items())
            assert face.map.to_json() == built.to_json()


def test_inclusion_outside_its_ambient_raises_as_the_constructor_does():
    tree = to_broad(parse_term("r(a,b)"), C)
    with pytest.raises(IdentifierError) as info:
        inclusion(to_broad(parse_term("r(c,d,a)"), C), tree)
    assert str(info.value) == "value 'c' not in codomain carrier"
    with pytest.raises(FlavourMismatch) as info:
        inclusion(to_broad(parse_term("r(a)"), P), tree)
    assert str(info.value) == "domain and codomain flavours differ"
    assert inclusion(tree, tree) == identity(tree)


@pytest.mark.parametrize("cap", ["16", True, None], ids=repr)
def test_subtree_cap_must_be_an_int(example, cap):
    with pytest.raises(InvalidArgument) as info:
        enumerate_subtrees(example, cap)
    assert str(info.value) == f"cap must be an int, not {cap!r}"


@pytest.mark.parametrize("flavour", [C, P])
def test_maximal_subtrees_past_the_subtree_cap(flavour, capsys):
    chain = "(".join(f"e{i}" for i in range(20)) + ")" * 19

    def binary(depth, name):
        if depth == 0:
            return name
        return f"{name}({binary(depth - 1, name + 'a')},{binary(depth - 1, name + 'b')})"

    for term, count in ((chain, 20), (binary(4, "r"), 22)):
        tree = to_broad(parse_term(term), flavour)
        assert len(tree.carrier) > category.MAX_SUBTREE_CARRIER
        maxs = maximal_subtrees(tree)
        faces = all_faces(tree)
        assert len(maxs) == len(faces) == count
        assert {classify_maximal(tree, s) for s in maxs} == {f.kind for f in faces}
    assert run([f"--flavour={flavour.value}", "subtrees", chain, "--maximal"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 20"


def test_classification_builds_no_index(example, refuse):
    subs = maximal_subtrees(example)
    faces = all_faces(example)
    # unary vertices below the root, and a unary root
    sigmas = [s for t in ("r(a(b(c)),d)", "r(a(b))") for s in degeneracies(to_broad(parse_term(t), C))]

    refuse(core, "_tree_relation", "a relation was written")
    kinds = [classify_maximal(example, sub) for sub in subs]
    assert sorted(kinds, key=FaceKind.sort_key) == sorted((f.kind for f in faces), key=FaceKind.sort_key)
    for face in faces:
        assert classify_map(face.map).value == face.kind.type.value + "_face"
    assert len(sigmas) == 4
    for sigma in sigmas:
        assert classify_map(sigma) is MapKind.DEGENERACY


def test_classification_cuts_only_the_faces_that_keep_the_carrier(example, monkeypatch):
    """A face's carrier is read off the vertex map, so each maximal subtree
    of the worked example, which has one stump, costs one cut."""
    subs = maximal_subtrees(example)
    cuts = []
    cut = category._cut
    monkeypatch.setattr(category, "_cut", lambda *args: cuts.append(args) or cut(*args))
    kinds = [classify_maximal(example, sub) for sub in subs]
    assert len(cuts) == len(subs) == 4
    assert sorted(kinds, key=FaceKind.sort_key) == sorted((f.kind for f in all_faces(example)), key=FaceKind.sort_key)


@pytest.mark.parametrize("flavour", [C, P])
def test_every_face_domain_classifies_as_its_face(flavour):
    """On the 7-edge corpus each face domain gets its own face's kind, and
    the tree itself and a face of a face are no face of it; the stumps
    of a tree share its carrier, so their faces are told apart by map."""
    for tree in tree_corpus(flavour, 7):
        faces = all_faces(tree)
        assert [classify_maximal(tree, face.domain) for face in faces] == [face.kind for face in faces]
        for other in [tree, *(f.domain for face in faces[:1] for f in all_faces(face.domain))]:
            with pytest.raises(NotMaximal, match="not the domain of any face"):
                classify_maximal(tree, other)


def test_face_match_compares_flavour():
    # both faces towards a have an empty vertex map
    tree = to_broad(parse_term("r(a)"), C)
    assert classify_maximal(tree, star("a")).type is FaceType.ROOT
    with pytest.raises(NotMaximal):
        classify_maximal(tree, star("a", P))


@pytest.mark.parametrize("flavour", [C, P])
def test_unrecorded_subtrees_classify_alike(flavour):
    pairs = [
        (poset, sub, BroadPoset(sub.flavour, sub.carrier, sub.relation))
        for poset in tree_corpus(flavour, 4)
        for sub in maximal_subtrees(poset)
    ]
    kinds = [classify_maximal(poset, bare) for poset, _, bare in pairs]
    assert kinds == [classify_maximal(poset, sub) for poset, sub, _ in pairs]


# ---------------------------------------------------------------------------
# Face constructors


def test_inner_face_of_grafted(grafted):
    m = inner_face(grafted, "l1")
    assert m.domain.carrier == {"r", "k1", "k2", "l2"}
    assert (BroadWord(C, ("k1", "k2", "l2")), "r") in m.domain.relation
    assert degree(m.domain) == 1


def test_outer_face_to_point():
    g2 = corolla(2)
    cluster = next(iter(links(g2)))
    m = outer_face(g2, cluster)
    assert m.domain == star("r")


def test_outer_face_requires_cluster(grafted):
    with pytest.raises(NotOuterCluster):
        outer_face(grafted, (BroadWord(C, ("l1", "l2")), "r"))


@pytest.mark.parametrize("cluster", ["a", ("a",), ("l1", "r"), (BroadWord(C, ("l1",)), "r", "x")], ids=repr)
def test_outer_face_requires_a_word_edge_pair(cluster):
    with pytest.raises(InvalidArgument) as info:
        outer_face(corolla(2), cluster)
    assert str(info.value) == f"cluster must be a (word, edge) pair, not {cluster!r}"


def test_inner_face_requires_inner_edge():
    with pytest.raises(NotInnerEdge):
        inner_face(corolla(2), "l1")


def test_root_face_conditions(grafted):
    # root children are l1 (not a leaf) and l2 (a leaf)
    m = root_face(grafted, "l1")
    assert m.domain == subtree_at(grafted, "l1")
    with pytest.raises(NoRootFace):
        root_face(grafted, "l2")


def test_branch_inclusion_decomposes_into_outer_and_root_faces(example):
    # a chain restricted to pruning steps always reaches a branch subtree
    for branch in ("b", "c", "d"):
        target = subtree_at(example, branch)
        chain = []
        current = example
        while current != target:
            candidates = [
                face
                for face in all_faces(current)
                if face.kind.type in (FaceType.OUTER, FaceType.ROOT)
                and target.carrier <= face.domain.carrier
                and target.relation <= face.domain.relation
            ]
            assert candidates, (branch, current)
            face = min(candidates, key=lambda f: f.kind.sort_key())
            chain.append(face.map)
            current = face.domain
        composite = inclusion(target, target)
        for step in reversed(chain):
            composite = compose(step, composite)
        assert composite == inclusion(target, example)


# ---------------------------------------------------------------------------
# Degeneracies


def test_degeneracy_of_unary_corolla():
    g1 = corolla(1)
    sigma = degeneracy(g1, ("l1", "r"))
    assert sigma.codomain == star("l1")
    assert sigma("r") == "l1" and sigma("l1") == "l1"


def test_two_degeneracies_on_three_chain():
    chain = linear_tree(2)
    found = degeneracies(chain)
    assert len(found) == 2
    for sigma in found:
        assert len(sigma.codomain.carrier) == 2
        assert classify_map(sigma) is MapKind.DEGENERACY


@pytest.mark.parametrize("n", [0, 2, 3])
def test_corollas_have_no_degeneracies(n):
    assert degeneracies(corolla(n)) == []


def test_degeneracies_reject_a_non_tree():
    # two unrelated edges have no unary vertex, yet are no tree
    with pytest.raises(NotDendroidal):
        degeneracies(BroadPoset.build(C, ["a", "b"]))


def test_faces_reject_a_non_tree():
    with pytest.raises(NotDendroidal):
        all_faces(BroadPoset.build(C, ["a", "b"]))


def test_degeneracy_requires_unary_vertex():
    with pytest.raises(NotUnaryVertex):
        degeneracy(corolla(2), ("l1", "r"))


def test_degeneracy_at_an_unknown_edge_is_not_unary():
    with pytest.raises(NotUnaryVertex):
        degeneracy(to_broad(parse_term("r(a(b))"), C), ("b", "zzz"))


def test_degeneracies_monotone_and_surjective():
    for flavour in (C, P):
        for poset in tree_corpus(flavour, 4):
            for sigma in degeneracies(poset):
                from dendro.core import is_monotone

                assert is_monotone(sigma.mapping, sigma.domain, sigma.codomain)
                assert set(sigma.mapping.values()) == set(sigma.codomain.carrier)


# ---------------------------------------------------------------------------
# Map classification


def test_identity_is_isomorphism():
    assert classify_map(identity(corolla(2))) is MapKind.ISOMORPHISM


def test_degeneracy_classifies():
    sigma = degeneracy(corolla(1), ("l1", "r"))
    assert classify_map(sigma) is MapKind.DEGENERACY


def test_faces_classify(example):
    for face in all_faces(example):
        expected = {
            FaceType.INNER: MapKind.INNER_FACE,
            FaceType.OUTER: MapKind.OUTER_FACE,
            FaceType.ROOT: MapKind.ROOT_FACE,
        }[face.kind.type]
        assert classify_map(face.map) is expected


def test_constant_map_is_other():
    """Also out of a non-tree in which the only word below ``a`` is the
    letter ``b``, sent where ``a`` is: only a tree has degeneracies."""
    s, g2 = star("x"), corolla(2)
    assert classify_map(MonotoneMap.from_dict(s, g2, {"x": "l1"})) is MapKind.OTHER
    non_tree = BroadPoset.build(C, ["a", "b", "z"], [(("b",), "a")])
    constant = MonotoneMap.from_dict(non_tree, star("b"), {"a": "b", "b": "b", "z": "b"})
    assert classify_map(constant) is MapKind.OTHER


def test_planar_rigidity():
    for poset in tree_corpus(P, 4):
        isos = [
            m
            for m in enumerate_monotone(poset, poset)
            if classify_map(m) is MapKind.ISOMORPHISM
        ]
        assert len(isos) == 1 and isos[0].is_identity()


def test_isomorphisms_preserve_root_and_children():
    from dendro.structure import classify_all

    for poset in tree_corpus(C, 4):
        for other in tree_corpus(C, 4):
            if len(other.carrier) != len(poset.carrier):
                continue
            for witness in tree_isomorphisms(poset, other):
                assert witness[root(poset)] == root(other)
                for edge, cls in classify_all(poset).items():
                    if cls.children is None:
                        continue
                    image = BroadWord(C, tuple(witness[x] for x in cls.children.letters))
                    assert classify_all(other)[witness[edge]].children == image


# ---------------------------------------------------------------------------
# Composition


def test_compose_associative_and_unital():
    a = corolla(1)
    b = linear_tree(2)
    maps_ab = enumerate_monotone(a, b)
    maps_ba = enumerate_monotone(b, a)
    for f in maps_ab:
        assert compose(f, identity(a)) == f
        assert compose(identity(b), f) == f
        for g in maps_ba:
            for h in maps_ab:
                assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# ---------------------------------------------------------------------------
# Factorization


def test_factorize_identity():
    fac = factorize(identity(corolla(2)))
    assert fac.degeneracies == ()
    assert fac.faces == ()
    assert fac.iso.is_identity()


def test_factorize_point_into_corolla():
    s, g2 = star("x"), corolla(2)
    f = MonotoneMap.from_dict(s, g2, {"x": "l1"})
    fac = factorize(f)
    assert fac.degeneracies == ()
    assert len(fac.faces) == 1
    assert fac.kinds[0].type is FaceType.ROOT
    assert fac.composite() == f


def test_factorize_constant_collapse():
    g1, g2 = corolla(1), corolla(2)
    f = MonotoneMap.from_dict(g1, g2, {"r": "r", "l1": "r"})
    fac = factorize(f)
    assert len(fac.degeneracies) == 1
    assert classify_map(fac.degeneracies[0]) is MapKind.DEGENERACY
    assert len(fac.faces) == 1
    assert fac.kinds[0].type is FaceType.OUTER
    assert fac.composite() == f


@pytest.mark.parametrize("flavour", [C, P])
def test_factorize_lists_no_faces(refuse, flavour):
    """A face chain reads its faces off the vertex maps, so factorizing
    every map from a small tree into one of up to 4 edges lists none."""
    small, codomains = tree_corpus(flavour, 3), tree_corpus(flavour, 4)
    maps = [m for a in small for b in codomains for m in enumerate_monotone(a, b)]
    expected = [factorize(m) for m in maps]

    refuse(category, "_faces", "the faces of a tree were listed")
    assert [factorize(m) for m in maps] == expected
    assert sum(len(fac.faces) for fac in expected) > len(maps)


def test_factorize_rejects_non_monotone():
    g1, g2 = corolla(1), corolla(2)
    with pytest.raises(NotMonotone):
        factorize(MonotoneMap.from_dict(g1, g2, {"r": "r", "l1": "l1"}))


def test_factorize_rejects_non_trees():
    from dendro.errors import NotDendroidal

    discrete = BroadPoset.build(C, ["u", "v"])
    with pytest.raises(NotDendroidal):
        factorize(identity(discrete))


def test_factorize_long_collapse():
    chain4 = linear_tree(3)
    point = star("c0")
    f = MonotoneMap.from_dict(chain4, point, {x: "c0" for x in chain4.carrier})
    fac = factorize(f)
    assert len(fac.degeneracies) == 3
    assert fac.faces == ()
    assert fac.composite() == f


@pytest.mark.parametrize("flavour", [C, P])
def test_factorize_cuts_only_the_trees_it_keeps(flavour, monkeypatch):
    """Each degeneracy cuts out its codomain and each face its domain;
    no other tree is cut, so the face chain cuts no rejected face."""
    ambient = to_broad(parse_term("r(a(b(c)),d(),e(f,g))"), flavour)
    maps = [f for a in tree_corpus(flavour, 3) for f in enumerate_monotone(a, ambient)]
    cuts = []
    cut = category._cut
    monkeypatch.setattr(category, "_cut", lambda *args: cuts.append(args) or cut(*args))
    for f in maps:
        cuts.clear()
        fac = factorize(f)
        assert len(cuts) == len(fac.degeneracies) + len(fac.faces)
    assert len(maps) > 40


@pytest.mark.parametrize("flavour", [C, P])
def test_factorize_sound_on_sample(flavour):
    corpus = [t for t in tree_corpus(flavour, 3)]
    for a, b in itertools.product(corpus, repeat=2):
        for f in enumerate_monotone(a, b):
            fac = factorize(f)
            assert fac.composite() == f
            for sigma in fac.degeneracies:
                assert classify_map(sigma) is MapKind.DEGENERACY
            assert classify_map(fac.iso) is MapKind.ISOMORPHISM
            for face, kind in zip(fac.faces, fac.kinds):
                assert classify_map(face).value == kind.type.value + "_face"


def test_factorization_json(example):
    f = identity(example)
    fac = factorize(f)
    data = fac.to_json()
    assert set(data) == {"degeneracies", "iso", "faces", "kinds"}


# ---------------------------------------------------------------------------
# Grafting maps


def test_graft_identity_is_identity():
    host = corolla(1)
    branch = BroadPoset.build(C, ["l1", "c"], [(("c",), "l1")])
    lifted = graft_map(host, identity(branch))
    assert lifted == identity(lifted.domain)


def test_graft_degeneracy_on_linear():
    host = corolla(1)
    branch = BroadPoset.build(C, ["l1", "c"], [(("c",), "l1")])
    sigma = degeneracy(branch, ("c", "l1"))
    lifted = graft_map(host, sigma)
    assert classify_map(lifted) is MapKind.DEGENERACY
    assert sorted(lifted.domain.carrier) == ["c", "l1", "r"]


def test_graft_inner_face():
    tall = BroadPoset.build(
        C, ["l1", "m", "c"], [(("m",), "l1"), (("c",), "m"), (("c",), "l1")]
    )
    face = inner_face(tall, "m")
    lifted = graft_map(corolla(2), face)
    assert classify_map(lifted) is MapKind.INNER_FACE


def test_graft_map_kind_preserved():
    host = corolla(2)
    scion = to_broad(parse_term("l1(u,v(w),s())"), C)
    for face in all_faces(scion):
        if face.kind.type is FaceType.ROOT:
            with pytest.raises(GraftUndefined):
                graft_map(host, face.map)
            continue
        lifted = graft_map(host, face.map)
        assert classify_map(lifted).value == face.kind.type.value + "_face"
    for sigma in degeneracies(scion):
        lifted = graft_map(host, sigma)
        assert classify_map(lifted) is MapKind.DEGENERACY


def test_graft_map_requires_leaf():
    host = corolla(2)
    branch = BroadPoset.build(C, ["z", "c"], [(("c",), "z")])
    with pytest.raises(GraftUndefined):
        graft_map(host, identity(branch))


# ---------------------------------------------------------------------------
# Chain compatibility


def test_chain_hom_counts_match_weakly_monotone_maps():
    for m in range(0, 4):
        for n in range(0, 4):
            lib = len(
                enumerate_monotone(
                    embed_poset(FinitePoset.chain(m)), embed_poset(FinitePoset.chain(n))
                )
            )
            assert lib == chain_map_count(m, n)
