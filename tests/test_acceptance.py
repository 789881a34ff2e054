"""End-to-end checks of the library's combinatorial claims at desk scale.

Every check is exact (zero tolerance): the subject is finite
combinatorics, so each equation either holds or fails.  Each test prints
one summary line; run with ``pytest -s tests/test_acceptance.py`` to see
them.  Corpus bounds are pinned here as constants; they are chosen so the
whole suite stays well under two minutes.
"""

import itertools
from collections import Counter
from unittest.mock import patch

from dendro import category
from dendro.category import (
    FaceType,
    MapKind,
    all_faces,
    classify_map,
    classify_maximal,
    enumerate_subtrees,
    factorize,
    maximal_subtrees,
)
from dendro.core import (
    BroadPoset,
    FinitePoset,
    Flavour,
    MonotoneMap,
    _maxima_map,
    check_isomorphism,
    corolla,
    embed_poset,
    enumerate_monotone,
    find_isomorphism,
    forget_symmetry,
    abelianize,
    internal_hom,
    map_signature,
    pair_id,
    product,
    pushout,
    star,
    tensor,
)
from dendro.structure import (
    classify_all,
    degree,
    descendant_leq,
    descendant_order,
    leaves,
    parent,
    join,
    root,
    root_corolla,
    subtree_at,
)
from dendro.terms import (
    canonical_code,
    enumerate_trees,
    full_graft,
    graft,
    parse_term,
    term_code,
    to_broad,
    to_term,
    tree_isomorphisms,
)

from conftest import stump_poset, tree_corpus
from oracles import chain_map_count, listed_face_chain, subtree_vertex_choices

C = Flavour.COMMUTATIVE
P = Flavour.PLANAR

FULL_CORPUS_EDGES = 7       # degree formula, decomposition, codecs
CLASSIFY_CORPUS_EDGES = 7   # maximal-subtree classification sweep
PROPERTIES_CORPUS_EDGES = 7 # elementary order properties sweep
GRAFT_CORPUS_EDGES = 5      # degree additivity, each side
FACTOR_CORPUS_EDGES = 5     # factorization sweep, combined degree <= 6
FACTOR_DEGREE_SUM = 6

EXAMPLE_TERM = "r(b(e,f),c,d())"


def both_corpora(max_edges):
    for flavour in (C, P):
        for poset in tree_corpus(flavour, max_edges):
            yield flavour, poset


# ---------------------------------------------------------------------------


def test_degree_formula():
    """degree(A) equals |carrier| - |leaves| on every tree up to 7 edges."""
    checked = 0
    for flavour, poset in both_corpora(FULL_CORPUS_EDGES):
        assert degree(poset) == len(poset.carrier) - len(leaves(poset)), poset
        checked += 1
    print(f"[PASS] degree formula: {checked} trees, exact")


def test_degree_additivity_under_grafting():
    """degree(A o B) = degree(A) + degree(B) for all composable pairs,
    both flavours.  Bounded to 5 edges per side: exhausting 6 per side
    means roughly twenty times as many graftings, past the runtime
    budget for the suite."""
    checked = 0
    for flavour in (C, P):
        corpus = tree_corpus(flavour, GRAFT_CORPUS_EDGES)
        degs = [degree(poset) for poset in corpus]
        for i, host in enumerate(corpus):
            for leaf in sorted(leaves(host)):
                for j, scion in enumerate(corpus):
                    grafted = graft(host, leaf, scion)
                    assert degree(grafted) == degs[i] + degs[j], (host, leaf, scion)
                    checked += 1
    print(f"[PASS] degree additivity: {checked} graftings, exact")


def test_fundamental_decomposition():
    """Every tree is the graft of its root corolla with its branch
    subtrees, uniquely up to reordering of isomorphic branches."""
    checked = 0
    for flavour, poset in both_corpora(FULL_CORPUS_EDGES):
        the_root = root(poset)
        cls = classify_all(poset)[the_root]
        if cls.kind.value == "leaf":
            assert poset == star(the_root, flavour)
            checked += 1
            continue
        branches = {
            child: subtree_at(poset, child) for child in set(cls.children.letters)
        }
        rebuilt = full_graft(root_corolla(poset), branches)
        assert rebuilt == poset
        # uniqueness up to reordering: a relabelled copy decomposes into
        # branches with the same multiset of canonical codes
        renaming = {x: f"n_{x}" for x in poset.carrier}
        copy = poset.rename(renaming)
        copy_cls = classify_all(copy)[root(copy)]
        copy_codes = sorted(
            canonical_code(subtree_at(copy, child))
            for child in set(copy_cls.children.letters)
        )
        own_codes = sorted(
            canonical_code(branch) for branch in branches.values()
        )
        assert copy_codes == own_codes
        checked += 1
    print(f"[PASS] fundamental decomposition: {checked} trees, exact")


def test_codec_round_trip():
    """Terms to broad posets and back, identical up to isomorphism."""
    checked = 0
    for flavour in (C, P):
        for poset in tree_corpus(flavour, FULL_CORPUS_EDGES):
            assert to_broad(to_term(poset), flavour) == poset
            checked += 1
        for term in enumerate_trees(FULL_CORPUS_EDGES, flavour):
            back = to_term(to_broad(term, flavour))
            assert term_code(back, flavour) == term_code(term, flavour)
            checked += 1
    print(f"[PASS] codec round trip: {checked} round trips, exact")


def test_corolla_subtree_count():
    """A corolla with n leaves has n+1 bare-edge subtrees and itself, and
    no two-edge linear subtrees."""
    for n in range(0, 6):
        subs = enumerate_subtrees(corolla(n))
        bare = [s for s in subs if degree(s) == 0]
        assert len(bare) == n + 1
        assert len(subs) == n + 2
        assert all(len(s.carrier) in (1, n + 1) for s in subs)
    print("[PASS] corolla subtrees: n+1 bare edges for n <= 5, none spurious")


def test_maximal_subtree_classification():
    """Each maximal subtree is exactly one face; root-containing ones are
    inner or outer, the rest are root faces; the worked example has 4.
    The face domains are checked against every choice of vertices with
    one vertex fewer than the tree."""
    example = to_broad(parse_term(EXAMPLE_TERM), C)
    assert len(maximal_subtrees(example)) == 4
    checked = 0
    for flavour, poset in both_corpora(CLASSIFY_CORPUS_EDGES):
        faces = all_faces(poset)
        domains = [face.domain for face in faces]
        assert len(set(domains)) == len(domains)
        target = degree(poset) - 1
        chosen = Counter(
            (carrier, frozenset(vertices.items()))
            for carrier, vertices in subtree_vertex_choices(poset)
            if len(vertices) == target
        )
        assert chosen == Counter((d.carrier, frozenset(_maxima_map(d)[0].items())) for d in domains)
        maxs = maximal_subtrees(poset)
        assert set(domains) == set(maxs)
        the_root = root(poset)
        for sub in maxs:
            kind = classify_maximal(poset, sub)
            if the_root in sub.carrier:
                assert kind.type in (FaceType.INNER, FaceType.OUTER)
            else:
                assert kind.type is FaceType.ROOT
            checked += 1
    print(f"[PASS] maximal subtree classification: {checked} subtrees, exclusive")


def factorization_corpus():
    """Every monotone map between corpus trees with combined degree <= 6,
    with its flavour."""
    for flavour in (C, P):
        corpus = tree_corpus(flavour, FACTOR_CORPUS_EDGES)
        degs = [degree(poset) for poset in corpus]
        for (i, a), (j, b) in itertools.product(enumerate(corpus), repeat=2):
            if degs[i] + degs[j] > FACTOR_DEGREE_SUM:
                continue
            for mapping in enumerate_monotone(a, b):
                yield flavour, mapping


def test_factorization():
    """Every monotone map between corpus trees with combined degree <= 6
    factors as degeneracies, an isomorphism, then faces, with each
    component classified; planar middle maps are rigid."""
    checked = 0
    for flavour, mapping in factorization_corpus():
        fac = factorize(mapping)
        assert fac.composite() == mapping
        for sigma in fac.degeneracies:
            assert classify_map(sigma) is MapKind.DEGENERACY
        assert classify_map(fac.iso) is MapKind.ISOMORPHISM
        for face, kind in zip(fac.faces, fac.kinds):
            assert classify_map(face).value == kind.type.value + "_face"
        if flavour is P:
            # planar trees are rigid: the only isomorphism between
            # the middle endpoints is the one returned, and equal
            # endpoints force the identity
            isos = tree_isomorphisms(fac.iso.domain, fac.iso.codomain)
            assert isos == [fac.iso.mapping]
            if fac.iso.domain == fac.iso.codomain:
                assert fac.iso.is_identity()
        checked += 1
    print(f"[PASS] factorization: {checked} maps factored and verified")


def test_face_chains_are_those_the_listed_faces_give():
    """On every map of the factorization sweep, the face chain is the one
    found by listing every face of each tree and cutting the least that
    holds the image: the same kinds, face maps and face domains, each
    with the same vertex map."""
    def kept_maps(faces):
        return [(list(_maxima_map(f.domain)[0].items()), _maxima_map(f.domain)[1]) for f in faces]

    checked = 0
    for _, mapping in factorization_corpus():
        fac = factorize(mapping)
        with patch.object(category, "_face_chain", listed_face_chain):
            listed = factorize(mapping)
        assert fac.kinds == listed.kinds
        assert fac.faces == listed.faces
        assert kept_maps(fac.faces) == kept_maps(listed.faces)
        checked += len(fac.faces)
    print(f"[PASS] face chains: {checked} faces as the listed faces give")


def test_product_does_not_preserve_pushout():
    """Multiplying by a 3-corolla breaks the glued-corolla pushout: no
    bijection between the two candidates is monotone both ways."""
    g3, g2 = corolla(3), corolla(2)
    other = corolla(2, root="m", leaf_prefix="k")
    point = star("x")
    glued, _, _ = pushout(
        MonotoneMap.from_dict(point, g2, {"x": "l1"}),
        MonotoneMap.from_dict(point, other, {"x": "m"}),
    )
    left, _, _ = product(g3, glued)

    g3_point, _, _ = product(g3, point)
    g3_g2, _, _ = product(g3, g2)
    leg_left = MonotoneMap.from_dict(
        g3_point, g3_g2, {pair_id(a, "x"): pair_id(a, "l1") for a in g3.carrier}
    )
    leg_right = MonotoneMap.from_dict(
        g3_point, g3_g2, {pair_id(a, "x"): pair_id(a, "r") for a in g3.carrier}
    )
    right, _, _ = pushout(leg_left, leg_right)

    assert len(left.carrier) == len(right.carrier) == 20
    assert left.relation and not right.relation
    assert find_isomorphism(left, right) is None
    print("[PASS] non-closedness witness: 20-element candidates, no isomorphism")


def test_monoidal_laws():
    """Tensor unit and symmetry, strong monoidality of the poset
    embedding, and the hom-tensor adjunction cardinality."""
    point = star("x")
    corpus = {
        "stump": stump_poset(),
        "gamma1": corolla(1),
        "gamma2": corolla(2),
        "gamma3": corolla(3),
        "chain2": embed_poset(FinitePoset.chain(1)),
        "chain3": embed_poset(FinitePoset.chain(2)),
        "chain4": embed_poset(FinitePoset.chain(3)),
        "square": embed_poset(FinitePoset.chain(1).product(FinitePoset.chain(1))),
    }
    for poset in corpus.values():
        left = tensor(point, poset)
        assert check_isomorphism(left, poset, {pair_id("x", a): a for a in poset.carrier})
        right = tensor(poset, point)
        assert check_isomorphism(right, poset, {pair_id(a, "x"): a for a in poset.carrier})
    for a, b in itertools.combinations(sorted(corpus), 2):
        A, B = corpus[a], corpus[b]
        swap = {pair_id(x, y): pair_id(y, x) for x in A.carrier for y in B.carrier}
        assert check_isomorphism(tensor(A, B), tensor(B, A), swap)
    posets = [
        FinitePoset.chain(0),
        FinitePoset.chain(1),
        FinitePoset.chain(2),
        FinitePoset.chain(3),
        FinitePoset(frozenset({"u", "v"}), frozenset()),
        FinitePoset.chain(1).product(FinitePoset.chain(1)),
    ]
    for Pq in posets:
        for Q in posets:
            if len(Pq.elements) * len(Q.elements) > 16:
                continue
            assert tensor(embed_poset(Pq), embed_poset(Q)) == embed_poset(Pq.product(Q))
    adj_corpus = [point, stump_poset(), corolla(1), corolla(2), corpus["chain3"]]
    triples = 0
    for A, B, Cc in itertools.product(adj_corpus, repeat=3):
        lhs = len(enumerate_monotone(tensor(A, B), Cc, budget=10**10))
        rhs = len(enumerate_monotone(A, internal_hom(B, Cc), budget=10**10))
        assert lhs == rhs
        triples += 1
    print(f"[PASS] monoidal laws: unit, symmetry, embedding, adjunction on {triples} triples")


def test_adjunction_is_a_natural_bijection():
    """Currying sends the maps A ⊗ B -> C one to one onto the maps
    A -> [B, C]: a maps to the map b -> f(a, b), named by its assignment.
    Both flavours, on the adjunction corpus of the monoidal laws, two
    discrete points, and u·u <= v, which repeats a letter."""
    triples = 0
    for flavour in (C, P):
        adj_corpus = [
            star("x", flavour),
            stump_poset(flavour=flavour),
            corolla(1, flavour),
            corolla(2, flavour),
            embed_poset(FinitePoset.chain(2), flavour),
            BroadPoset.build(flavour, ["u", "v"]),
            BroadPoset.build(flavour, ["u", "v"], [(("u", "u"), "v")]),
        ]
        for A, B, Cc in itertools.product(adj_corpus, repeat=3):
            curried = {
                tuple(sorted((a, map_signature({b: f(pair_id(a, b)) for b in B.carrier})) for a in A.carrier))
                for f in enumerate_monotone(tensor(A, B), Cc, budget=10**10)
            }
            transposes = enumerate_monotone(A, internal_hom(B, Cc), budget=10**10)
            assert len(curried) == len(transposes)
            assert curried == {g.pairs for g in transposes}
            triples += 1
    print(f"[PASS] adjunction: currying is a bijection on {triples} triples")


def test_symmetrization_formula():
    """Abelianizing the planar tensor of two de-symmetrized broad posets
    recovers the commutative tensor."""
    corpus = [
        star("x"),
        stump_poset(),
        corolla(1),
        corolla(2),
        corolla(3),
        embed_poset(FinitePoset.chain(2)),
        embed_poset(FinitePoset.chain(3)),
        embed_poset(FinitePoset.chain(1).product(FinitePoset.chain(1))),
    ]
    pairs = 0
    for A, B in itertools.product(corpus, repeat=2):
        lhs = abelianize(tensor(forget_symmetry(A), forget_symmetry(B)))
        assert lhs == tensor(A, B)
        pairs += 1
    print(f"[PASS] symmetrization formula: {pairs} pairs, on the nose")


def test_elementary_order_properties():
    """Unique child above each strict descendant, a common word for
    incomparable descendants, unique parents, and total well-behaved
    joins, exhaustively on the corpus."""
    trees = 0
    for flavour, poset in both_corpora(PROPERTIES_CORPUS_EDGES):
        classified = classify_all(poset)
        elements = sorted(poset.carrier)
        the_root = root(poset)
        descend = descendant_order(poset)
        for below, above in descend:
            if below == above:
                continue
            children = classified[above].children
            holding = [
                t for t in set(children.letters) if descendant_leq(poset, below, t)
            ]
            assert len(holding) == 1
        for a1, a2 in itertools.combinations(elements, 2):
            if (a1, a2) in descend or (a2, a1) in descend:
                continue
            for b in elements:
                if (a1, b) in descend and (a2, b) in descend:
                    assert any(
                        t == b and a1 in w.letters and a2 in w.letters
                        for w, t in poset.relation
                    )
        for element in elements:
            owners = [
                x
                for x, cls in classified.items()
                if cls.children is not None and element in cls.children.letters
            ]
            assert len(owners) == (0 if element == the_root else 1)
            if element != the_root:
                assert parent(poset, element) == owners[0]
        for a, b in itertools.combinations(elements, 2):
            j = join(poset, a, b)
            common = [c for c in elements if (a, c) in descend and (b, c) in descend]
            assert [c for c in common if all((c, d) in descend for d in common)] == [j]
            assert join(poset, b, a) == j
            assert join(poset, a, a) == a
        if len(elements) <= 5:
            for a, b, c in itertools.combinations(elements, 3):
                assert join(poset, join(poset, a, b), c) == join(
                    poset, a, join(poset, b, c)
                )
        trees += 1
    print(f"[PASS] elementary order properties: {trees} trees, exhaustive")


def test_chain_hom_counts():
    """Monotone maps between embedded chains agree with the brute count
    of weakly order-preserving maps."""
    for m in range(0, 4):
        for n in range(0, 4):
            lib = len(
                enumerate_monotone(
                    embed_poset(FinitePoset.chain(m)),
                    embed_poset(FinitePoset.chain(n)),
                )
            )
            assert lib == chain_map_count(m, n), (m, n)
    print("[PASS] chain map counts: all m,n <= 3 match the brute-force oracle")
