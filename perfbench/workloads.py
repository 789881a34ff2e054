"""The four workloads.  Each one is a fixed cycle of op slots; op ``i``
fills slot ``i % cycle`` with inputs drawn from an RNG seeded by the
workload name, the seed and ``i`` alone, under identifiers that no other
op uses.  An op's ``run`` is the timed call into the program and reads
the library's functions through their modules at call time, so the
traced run sees them; ``check`` compares its result with ground truth
from :mod:`gen` outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
import functools
from functools import partial
from pathlib import Path
from typing import Any, Callable

import calib
import gen
from gen import COMMUTATIVE, FLAVOURS, PLANAR, facts, name_shape, prefix_for, rng_for
from spans import CLI_COMMANDS

from dendro import category, cli, core, structure, terms


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    spec: tuple  # deterministic description of the inputs
    gap: str | None = None  # ROADMAP gap that makes this op fail at the seed commit
    key: tuple | None = None  # (axis, size, flavour) of a scale op


def broad(item) -> core.BroadPoset:
    """A library broad poset built directly from ground-truth pairs."""
    return core.BroadPoset.build(core.Flavour(item.flavour), item.carrier, item.relation)


def tree(shape, prefix: str, flavour: str):
    node = name_shape(shape, prefix)
    return node, facts(node, flavour)


def shape_with_leaf(rng, edges: int):
    while True:
        shape = gen.random_shape(rng, edges)
        if gen.has_leaf(shape):
            return shape


def sized_tree(rng, edges: int, prefix: str, flavour: str, pairs: tuple[int, int]):
    """A random tree whose relation size lies in the closed range ``pairs``."""
    while True:
        node, f = tree(gen.random_shape(rng, edges), prefix, flavour)
        if pairs[0] <= len(f.relation) <= pairs[1]:
            return node, f


# ---------------------------------------------------------------------------
# sweep: a sample of the acceptance suite's own operations


# The exhaustive acceptance tests, the seconds each took (pytest
# --durations on the machine in README.md), and the op kinds that stand
# for them.  A cycle gives each test the same share of its op time as the
# suite does; within a test the kinds get equal op counts, as the suite
# meets each tree once with each of them.
SWEEP_SUITE = {
    "maximal_subtree_classification": (44.59, ("all_faces", "maximal_subtrees")),
    "factorization": (22.05, ("hom_factorize",)),
    "degree_additivity_under_grafting": (18.58, ("graft",)),
    "fundamental_decomposition": (6.84, ("canonical_code",)),
    "codec_round_trip": (3.08, ("to_broad", "to_term")),
    "degree_formula": (2.57, ("degree",)),
    "elementary_order_properties": (2.22, ("is_dendroidal",)),
}
# Mean milliseconds of one op of each kind over a uniform sample of its
# corpus, measured on the same machine at the same commit.
SWEEP_OP_MS = {
    "all_faces": 1.10,
    "maximal_subtrees": 25.54,
    "hom_factorize": 2.14,
    "graft": 1.04,
    "canonical_code": 1.09,
    "to_broad": 2.36,
    "to_term": 1.15,
    "degree": 0.35,
    "is_dendroidal": 0.49,
}
SWEEP_CYCLE_S = 5.0  # op time of one cycle at that commit
SWEEP_TREE_EDGES = 7  # corpus bounds of the acceptance suite
SWEEP_PAIR_EDGES = 5
SWEEP_DEGREE_SUM = 6
SWEEP_CHAIN_EDGES = 4  # chain homs m, n <= 3, as the suite's chain-count test
SWEEP_COROLLA_WIDTHS = range(6)
SWEEP_DEGENERACY_OPS = 8  # no acceptance sweep of its own; a few trees spread over the corpus


def sweep_counts() -> dict[str, int]:
    """Ops per cycle of each kind the suite's durations weight."""
    out = {}
    for seconds, kinds in SWEEP_SUITE.values():
        share = seconds / sum(s for s, _ in SWEEP_SUITE.values())
        mean_ms = sum(SWEEP_OP_MS[k] for k in kinds) / len(kinds)
        for kind in kinds:
            out[kind] = max(1, round(share * SWEEP_CYCLE_S * 1000 / mean_ms / len(kinds)))
    return out


def corpus_trees(max_edges: int) -> list:
    return [(fl, s) for fl in FLAVOURS for n in range(1, max_edges + 1) for s in gen.corpus_shapes(n, fl)]


def systematic(items: list, n: int, cost, offset: float) -> list:
    """``n`` of ``items``: one from each of ``n`` equal parts of the
    ranking by ``cost``, at ``offset`` (0 to 1) within every part.  A
    random offset gives each item the same chance ``n / len(items)``, the
    costliest too; offset 0.5 takes the middle item of every part."""
    ranked = sorted(items, key=lambda item: (cost(item), repr(item)))
    return [ranked[int((i + offset) * len(ranked) / n)] for i in range(n)]


def sweep_plan(seed: int) -> list[tuple]:
    """One cycle: the middle item of every part of each kind's ranked
    corpus, in seeded order.  The sample is the same for every seed: a
    seeded offset moved a cycle's op time by 10% from seed to seed,
    because one 7-edge classification costs 1 ms to 0.75 s.  The seed
    names the trees and orders the ops, and every cycle runs the same
    inputs under fresh names."""
    rng = rng_for("sweep-plan", seed)
    counts = sweep_counts()
    trees = corpus_trees(SWEEP_TREE_EDGES)
    small = corpus_trees(SWEEP_PAIR_EDGES)
    tree_cost = lambda item: gen.shape_pairs(item[1])  # noqa: E731
    plan = []
    for kind in ("all_faces", "maximal_subtrees", "canonical_code", "to_broad", "to_term", "degree", "is_dendroidal"):
        plan += [("tree", kind, fl, shape) for fl, shape in systematic(trees, counts[kind], tree_cost, 0.5)]
    plan += [("tree", "degeneracies", fl, shape) for fl, shape in systematic(trees, SWEEP_DEGENERACY_OPS, tree_cost, 0.5)]
    grafts = [
        (fl, host, leaf, scion)
        for fl, host in small
        for leaf in gen.shape_leaves(host)
        for f2, scion in small
        if f2 == fl
    ]
    plan += [
        ("graft", "graft", *triple)
        for triple in systematic(grafts, counts["graft"], lambda t: gen.shape_pairs(t[1]) + gen.shape_pairs(t[3]), 0.5)
    ]
    homs = [
        (fl, a, b)
        for fl, a in small
        for f2, b in small
        if f2 == fl and gen.shape_degree(a) + gen.shape_degree(b) <= SWEEP_DEGREE_SUM
    ]
    plan += [
        ("hom", "hom_factorize", *pair)
        for pair in systematic(homs, counts["hom_factorize"], lambda p: gen.shape_edges(p[2]) ** gen.shape_edges(p[1]), 0.5)
    ]
    chains = range(1, SWEEP_CHAIN_EDGES + 1)
    plan += [("chain_hom", "hom_factorize", COMMUTATIVE, gen.chain_shape(m), gen.chain_shape(n)) for m in chains for n in chains]
    plan += [("corolla", "enumerate_subtrees", COMMUTATIVE, width) for width in SWEEP_COROLLA_WIDTHS]
    rng.shuffle(plan)
    return plan


def face_types(f: gen.TreeFacts) -> Counter:
    return +Counter({"inner": len(f.inner), "outer": f.outer_clusters, "root": f.root_faces})


def sweep_single(kind: str, fl: str, text: str, A, f: gen.TreeFacts):
    if kind == "to_broad":
        return (lambda: terms.to_broad(terms.parse_term(text), core.Flavour(fl))), (lambda r: r == A)
    if kind == "is_dendroidal":
        return (lambda: structure.is_dendroidal(A)), (lambda r: r.is_dendroidal and r.root == f.root)
    if kind == "degree":
        return (lambda: structure.degree(A)), (lambda r: r == f.degree == len(f.carrier) - len(f.leaves))
    if kind == "all_faces":
        return (lambda: category.all_faces(A)), (lambda r: len(r) == f.faces)

    if kind == "maximal_subtrees":
        def run():
            subs = category.maximal_subtrees(A)
            return subs, [category.classify_maximal(A, s) for s in subs]

        return run, (lambda r: len(r[0]) == f.faces and Counter(k.type.value for k in r[1]) == face_types(f))
    if kind == "degeneracies":
        return (lambda: category.degeneracies(A)), (lambda r: len(r) == f.unary)
    if kind == "to_term":
        return (
            lambda: terms.to_term(A),
            lambda r: gen.code(r, fl) == f.code and set(r.edges()) == f.carrier,
        )
    return (lambda: terms.canonical_code(A)), (lambda r: r == f.code)


def sweep_op(plan: list, seed: int, index: int, tag: str) -> Op:
    spec = plan[index % len(plan)]
    family, kind, fl = spec[:3]
    prefix = prefix_for(rng_for("sweep", seed, index), tag, index)

    if family == "tree":
        node, f = tree(spec[3], prefix, fl)
        A = broad(f)
        run, check = sweep_single(kind, fl, gen.term_text(node), A, f)
        return Op(kind, run, check, spec)

    if family == "graft":
        _, _, _, host_shape, leaf_number, scion_shape = spec
        host, hf = tree(host_shape, prefix, fl)
        scion, sf = tree(scion_shape, prefix + "s", fl)
        leaf = f"{prefix}e{leaf_number}"
        expected = facts(gen.graft_node(host, leaf, scion), fl)
        A, B = broad(hf), broad(sf)

        def run():
            grafted = terms.graft(A, leaf, B)
            return grafted, structure.degree(grafted)

        def check(r):
            return (
                r[1] == hf.degree + sf.degree == expected.degree
                and r[0].carrier == expected.carrier
                and gen.relation_of(r[0]) == expected.relation
            )

        return Op(kind, run, check, spec)

    if family == "corolla":
        width = spec[3]
        _, f = tree(gen.corolla_shape(width), prefix, fl)
        A = broad(f)
        return Op(kind, lambda: category.enumerate_subtrees(A), lambda r: len(r) == width + 2, spec)

    # hom and chain_hom: all monotone maps, each factored
    _, _, _, a_shape, b_shape = spec
    _, fa = tree(a_shape, prefix + "a", fl)
    _, fb = tree(b_shape, prefix + "b", fl)
    truth = gen.monotone_maps(fa, fb)
    A, B = broad(fa), broad(fb)
    if family == "chain_hom":
        expected_count = gen.chain_hom_count(gen.shape_edges(a_shape) - 1, gen.shape_edges(b_shape) - 1)
    else:
        expected_count = len(truth)

    def run():
        maps = core.enumerate_monotone(A, B)
        return maps, [category.factorize(m) for m in maps]

    def check(r):
        maps, pieces = r
        return (
            len(truth) == expected_count
            and sorted(tuple(sorted(m.mapping.items())) for m in maps)
            == sorted(tuple(sorted(a.items())) for a in truth)
            and all(p.composite() == m for p, m in zip(pieces, maps))
        )

    return Op(kind, run, check, spec)


# ---------------------------------------------------------------------------
# scale: a few large trees on three axes


SCALE_AXES = {
    "chain": ((5, 10, 20, 40), gen.chain_shape),
    "binary": ((1, 2, 3, 4), gen.binary_shape),
    "corolla": ((1, 2, 3, 4, 5, 6, 7, 8), gen.corolla_shape),
}
SCALE_SLOTS = [(axis, size, fl) for fl in FLAVOURS for axis, (sizes, _) in SCALE_AXES.items() for size in sizes]
ISO_MAX_BINARY_DEPTH = 3  # depth 4 has 2**15 automorphisms to walk through


def classification_matches(cls, f: gen.TreeFacts) -> bool:
    for x, c in cls.items():
        expected = f.children[x]
        if expected is None:
            ok = c.kind.value == "leaf"
        elif expected == ():
            ok = c.kind.value == "stump"
        else:
            letters = c.children.letters if c.children is not None else None
            ok = letters == (tuple(sorted(expected)) if f.flavour == COMMUTATIVE else expected)
        if not ok:
            return False
    return set(cls) == f.carrier


def scale_op(seed: int, index: int, tag: str) -> Op:
    axis, size, fl = SCALE_SLOTS[index % len(SCALE_SLOTS)]
    rng = rng_for("scale", seed, index)
    prefix = prefix_for(rng, tag, index)
    shape = SCALE_AXES[axis][1](size)
    node, f = tree(shape, prefix, fl)
    text = gen.term_text(node)
    flavour = core.Flavour(fl)
    with_iso = not (axis == "binary" and size > ISO_MAX_BINARY_DEPTH)
    copy_node = gen.rename_node(node, "z")
    copy = broad(facts(copy_node, fl))
    near = broad(facts(name_shape(gen.near_miss(shape), prefix + "n"), fl))
    expected = broad(f)

    def run():
        # classify_all and links come before is_dendroidal, which would
        # otherwise fill their caches, so each direct call does its own work
        A = terms.to_broad(terms.parse_term(text), flavour)
        cls = structure.classify_all(A)
        vertices = structure.links(A)
        report = structure.is_dendroidal(A)
        faces = category.all_faces(A)
        back = terms.to_term(A)
        canonical = terms.canonical_code(A)
        same = terms.are_isomorphic(A, copy) if with_iso else None
        miss = terms.are_isomorphic(A, near) if with_iso else None
        return A, cls, vertices, report, faces, back, canonical, same, miss

    def check(r):
        A, cls, vertices, report, faces, back, canonical, same, miss = r
        ok = (
            A == expected
            and report.is_dendroidal
            and report.root == f.root
            and classification_matches(cls, f)
            and len(vertices) == f.degree
            and len(faces) == f.faces
            and gen.code(back, fl) == canonical == f.code
        )
        if with_iso:
            witness = same[1]
            ok = ok and same[0] and not miss[0] and witness is not None
            ok = ok and gen.renamed_relation(f.relation, witness, fl) == gen.relation_of(copy)
        return ok

    return Op("pipeline", run, check, (axis, size, fl, text), key=(axis, gen.shape_edges(shape), fl))


# ---------------------------------------------------------------------------
# algebra: generated broad posets that are not trees


# Tensor inputs stay small: the planar relation of the symmetrization
# check grows factorially in word length, and find_isomorphism backtracks
# for seconds on 30-element tensors.
TENSOR_MAX_WORD = 6
TENSOR_MAX_ELEMENTS = 16
SYMMETRIZATION_MAX_ELEMENTS = 12


def pool_spec(rng, max_elements: int = 7) -> tuple:
    """A corolla (width <= 4), a chain (<= ``max_elements``), a small tree or a grid."""
    choice = rng.choice(("corolla", "chain", "tree", "grid"))
    if choice == "corolla":
        return ("corolla", rng.randint(0, 4))
    if choice == "chain":
        return ("chain", rng.randint(1, max_elements))
    if choice == "tree":
        return ("tree", gen.random_shape(rng, rng.randint(1, 4)))
    return ("grid", rng.randint(2, 3))


def pool_specs(max_elements: int) -> list[tuple]:
    """Every spec ``pool_spec`` can draw with chains up to ``max_elements``."""
    return (
        [("corolla", w) for w in range(5)]
        + [("chain", n) for n in range(1, max_elements + 1)]
        + [("tree", shape) for n in range(1, 5) for shape in gen.corpus_shapes(n, PLANAR)]
        + [("grid", n) for n in (2, 3)]
    )


def pool_item(spec: tuple, prefix: str, fl: str):
    choice, arg = spec
    if choice == "corolla":
        return gen.facts(name_shape(gen.corolla_shape(arg), prefix), fl)
    if choice == "chain":
        return gen.chain_poset(arg, prefix, fl)
    if choice == "tree":
        return gen.facts(name_shape(arg, prefix), fl)
    return gen.grid_poset(2, arg, prefix, fl)


def max_word(item) -> int:
    return max((len(w) for w, _ in item.relation), default=1)


def tensor_size(x, y) -> int:
    return len(x.carrier) * len(y.carrier) * max_word(x) * max_word(y)


def pair_cost(x, y) -> tuple[int, int]:
    """Ranks tensor pairs by cost: the tensor's size, then the number of
    stumps, which ties among the largest tensors follow most closely."""
    return tensor_size(x, y), sum(1 for w, _ in (*x.relation, *y.relation) if not w)


ALGEBRA_POOL = 64  # pairs per pool slot; a cycle visits each once


@functools.cache
def pair_universe(fl: str, sizes: tuple[int, int], max_elements: int) -> tuple:
    """Every pair of pool specs whose tensor stays small: at most
    ``max_elements`` element pairs and words of at most ``TENSOR_MAX_WORD``
    letters in total."""
    items = [[(spec, pool_item(spec, side, fl)) for spec in pool_specs(size)] for side, size in zip("ab", sizes)]
    return tuple(
        (x, y)
        for x, fx in items[0]
        for y, fy in items[1]
        if max_word(fx) * max_word(fy) <= TENSOR_MAX_WORD and len(fx.carrier) * len(fy.carrier) <= max_elements
    )


def pool_pair(pools: dict, seed: int, index: int, p: str, fl: str, sizes=(4, 3), max_elements: int = TENSOR_MAX_ELEMENTS):
    """The inputs of op ``index``: its slot's pool is a systematic sample,
    by ``pair_cost``, of the slot's pair universe; cycle ``k`` takes entry
    ``k`` of the pool under fresh names."""
    slot = index % len(ALGEBRA_SLOTS)
    if slot not in pools:
        rng = rng_for("pool", seed, slot)
        cost = lambda xy: pair_cost(pool_item(xy[0], "a", fl), pool_item(xy[1], "b", fl))  # noqa: E731
        pools[slot] = systematic(list(pair_universe(fl, sizes, max_elements)), ALGEBRA_POOL, cost, rng.random())
        rng.shuffle(pools[slot])
    x, y = pools[slot][(index // len(ALGEBRA_SLOTS)) % ALGEBRA_POOL]
    return pool_item(x, p + "a", fl), pool_item(y, p + "b", fl)


def ordinary(rng, prefix: str, fl: str):
    if rng.random() < 0.5:
        return gen.chain_poset(rng.randint(1, 4), prefix, fl)
    return gen.grid_poset(2, rng.randint(1, 2), prefix, fl)


ALGEBRA_KINDS = (
    "unit",
    "symmetry",
    "symmetrization",
    "tensor_embedding",
    "product_embedding",
    "adjunction",
    "witness",
    "isomorphism",
    "validate",
    "pushout",
)
ALGEBRA_SLOTS = [
    (kind, COMMUTATIVE if kind in ("symmetrization",) else fl) for fl in FLAVOURS for kind in ALGEBRA_KINDS
]


def algebra_op(pools: dict, seed: int, index: int, tag: str) -> Op:
    kind, fl = ALGEBRA_SLOTS[index % len(ALGEBRA_SLOTS)]
    rng = rng_for("algebra", seed, index)
    p = prefix_for(rng, tag, index)
    flavour = core.Flavour(fl)
    pid = core.pair_id

    if kind == "unit":
        x = pool_item(pool_spec(rng), p + "a", fl)
        X, unit = broad(x), core.BroadPoset.build(flavour, [p + "u"])
        back = {pid(p + "u", a): a for a in x.carrier} | {pid(a, p + "u"): a for a in x.carrier}

        def run():
            return core.tensor(unit, X), core.tensor(X, unit)

        def check(r):
            return all(
                len(t.carrier) == len(x.carrier) and gen.renamed_relation(gen.relation_of(t), back, fl) == set(x.relation)
                for t in r
            )

        return Op(kind, run, check, (kind, fl, sorted(x.carrier)))

    if kind == "symmetry":
        x, y = pool_pair(pools, seed, index, p, fl, (4, 4))
        X, Y = broad(x), broad(y)
        swap = {pid(a, b): pid(b, a) for a in x.carrier for b in y.carrier}
        return Op(
            kind,
            lambda: (core.tensor(X, Y), core.tensor(Y, X)),
            lambda r: gen.renamed_relation(gen.relation_of(r[0]), swap, fl) == gen.relation_of(r[1]),
            (kind, fl, sorted(x.carrier), sorted(y.carrier)),
        )

    if kind == "symmetrization":
        x, y = pool_pair(pools, seed, index, p, fl, (4, 4), SYMMETRIZATION_MAX_ELEMENTS)
        X, Y = broad(x), broad(y)

        def run():
            lhs = core.abelianize(core.tensor(core.forget_symmetry(X), core.forget_symmetry(Y)))
            return lhs, core.tensor(X, Y)

        return Op(kind, run, lambda r: r[0] == r[1], (kind, sorted(x.carrier), sorted(y.carrier)))

    if kind in ("tensor_embedding", "product_embedding"):
        P, Q = ordinary(rng, p + "a", fl), ordinary(rng, p + "b", fl)
        expected = gen.order_product(P, Q, pid)
        BP, BQ = broad(P), broad(Q)
        if kind == "tensor_embedding":
            run = lambda: core.tensor(BP, BQ)  # noqa: E731
        else:
            run = lambda: core.product(BP, BQ)[0]  # noqa: E731
        return Op(
            kind,
            run,
            lambda r: r.carrier == expected.carrier and gen.relation_of(r) == set(expected.relation),
            (kind, fl, sorted(P.carrier), sorted(Q.carrier)),
        )

    if kind == "adjunction":
        while True:
            a, b, c = (pool_item(pool_spec(rng, 2), p + side, fl) for side in "abc")
            if len(a.carrier) * len(b.carrier) <= 4 and len(c.carrier) <= 3:
                break
        A, B, C = broad(a), broad(b), broad(c)

        def run():
            AB = core.tensor(A, B)
            lhs = core.enumerate_monotone(AB, C, budget=10**9)
            rhs = core.enumerate_monotone(A, core.internal_hom(B, C, budget=10**9), budget=10**9)
            return AB, len(lhs), len(rhs)

        def check(r):
            AB, lhs, rhs = r
            tensor_facts = gen.Poset(fl, AB.carrier, frozenset(gen.relation_of(AB)))
            return lhs == rhs == len(gen.monotone_maps(tensor_facts, c))

        return Op(kind, run, check, (kind, fl, sorted(a.carrier), sorted(b.carrier), sorted(c.carrier)))

    if kind == "witness":
        # the cartesian product with a 3-corolla does not preserve the
        # pushout gluing a 2-corolla's leaf to another 2-corolla's root
        g3 = broad(facts(name_shape(gen.corolla_shape(3), p + "t"), fl))
        g2n = name_shape(gen.corolla_shape(2), p + "u")
        other_n = name_shape(gen.corolla_shape(2), p + "v")
        g2, other = broad(facts(g2n, fl)), broad(facts(other_n, fl))
        point = core.BroadPoset.build(flavour, [p + "x"])
        leaf, top = g2n.children[0].edge, g2n.edge
        f_map = core.MonotoneMap.from_dict(point, g2, {p + "x": leaf})
        g_map = core.MonotoneMap.from_dict(point, other, {p + "x": other_n.edge})

        def run():
            glued, _, _ = core.pushout(f_map, g_map)
            left, _, _ = core.product(g3, glued)
            g3_point, _, _ = core.product(g3, point)
            g3_g2, _, _ = core.product(g3, g2)
            legs = [
                core.MonotoneMap.from_dict(g3_point, g3_g2, {pid(a, p + "x"): pid(a, target) for a in g3.carrier})
                for target in (leaf, top)
            ]
            right, _, _ = core.pushout(*legs)
            return left, right, core.find_isomorphism(left, right)

        return Op(
            kind,
            run,
            lambda r: len(r[0].carrier) == len(r[1].carrier) == 20 and r[2] is None,
            (kind, fl),
        )

    if kind == "isomorphism":
        x, y = pool_pair(pools, seed, index, p, fl)
        X = core.tensor(broad(x), broad(y))
        names = sorted(X.carrier)
        shuffled = names[:]
        rng.shuffle(shuffled)
        bijection = {a: f"{p}z{i}" for a, i in zip(names, (names.index(s) for s in shuffled))}
        Y = broad(gen.Poset(fl, frozenset(bijection.values()), frozenset(gen.renamed_relation(gen.relation_of(X), bijection, fl))))

        def check(r):
            return (
                r is not None
                and set(r) == X.carrier
                and set(r.values()) == Y.carrier
                and gen.renamed_relation(gen.relation_of(X), r, fl) == gen.relation_of(Y)
            )

        return Op(kind, lambda: core.find_isomorphism(X, Y), check, (kind, fl, names, shuffled))

    if kind == "validate":
        x, y = pool_pair(pools, seed, index, p, fl)
        X, Y = broad(x), broad(y)
        chain = gen.chain_poset(rng.randint(2, 5), p + "c", fl)
        lo, hi = sorted(chain.carrier)[:2]
        planted = broad(gen.Poset(fl, chain.carrier, chain.relation | {((hi,), lo)}))
        return Op(
            kind,
            lambda: (core.validate(core.tensor(X, Y)), core.validate(planted)),
            lambda r: r[0].ok and not r[1].antisymmetric and not r[1].ok,
            (kind, fl, sorted(x.carrier), sorted(y.carrier), sorted(chain.carrier)),
        )

    # pushout: a chain glued end to end, or a tree grafted through a point
    point = core.BroadPoset.build(flavour, [p + "x"])
    if rng.random() < 0.5:
        P = gen.chain_poset(rng.randint(1, 6), p + "a", fl)
        Q = gen.chain_poset(rng.randint(1, 6), p + "b", fl)
        n = len(P.carrier) + len(Q.carrier) - 1
        top, bottom = f"{p}ac{len(P.carrier) - 1}", f"{p}bc0"
        expected_sizes = (n, n * (n - 1) // 2)
        left_leg = core.MonotoneMap.from_dict(point, broad(P), {p + "x": top})
        right_leg = core.MonotoneMap.from_dict(point, broad(Q), {p + "x": bottom})
        spec = (kind, fl, "chain", len(P.carrier), len(Q.carrier))
    else:
        host = name_shape(shape_with_leaf(rng, rng.randint(2, 5)), p + "h")
        scion = name_shape(gen.random_shape(rng, rng.randint(2, 5)), p + "s")
        hf, sf = facts(host, fl), facts(scion, fl)
        leaf = rng.choice(sorted(hf.leaves))
        grafted = facts(gen.graft_node(host, leaf, scion), fl)
        expected_sizes = (len(grafted.carrier), len(grafted.relation))
        left_leg = core.MonotoneMap.from_dict(point, broad(hf), {p + "x": leaf})
        right_leg = core.MonotoneMap.from_dict(point, broad(sf), {p + "x": scion.edge})
        spec = (kind, fl, "graft", gen.term_text(host), leaf, gen.term_text(scion))
    return Op(
        kind,
        lambda: core.pushout(left_leg, right_leg)[0],
        lambda r: (len(r.carrier), len(r.relation)) == expected_sizes,
        spec,
    )


# ---------------------------------------------------------------------------
# cli: one `python -m dendro.cli` child process per op


@dataclass
class CliResult:
    code: int
    out: str
    rss_kb: int = 0


CLI_CYCLE = 40  # slots 9 and 29 are malformed requests, 19 and 39 known gaps, the rest valid
# Relation sizes of small and medium trees.  Output size, and so a child's
# peak RSS, follows the relation, so a narrow medium band keeps the largest
# peak from following the one bushiest tree a seed happens to draw.
CLI_SMALL_PAIRS = (0, 80)
CLI_MEDIUM_PAIRS = (80, 120)
CLI_MAX_SUBTREES = 150  # about the 92nd percentile; the 0.1% of trees with 400-600 set the largest peak RSS alone
# Malformed requests that get their documented exit code at the seed commit.
CLI_MALFORMED = (
    "syntax", "duplicate_edge", "bad_flag", "budget", "not_monotone",
    "not_a_leaf", "missing_file", "bad_json", "overflow",
)  # fmt: skip
# Malformed requests that do not, each with the ROADMAP item it waits for.
CLI_GAPS = {
    "json_missing_relation": "item 4, JSON input: KeyError traceback, exit 1 instead of 2",
    "unknown_flavour": "item 4, JSON input: ValueError traceback, exit 1 instead of 2",
    "product_two_cycle": "item 4, axioms: product of a non-poset exits 0 instead of 1",
    "deep_term": "item 4, recursion: RecursionError traceback, exit 1 instead of 2",
}
CLI_GAP_NAMES = tuple(CLI_GAPS)


def poset_json(item) -> dict:
    return {
        "flavour": item.flavour,
        "carrier": sorted(item.carrier),
        "relation": [{"source": list(w), "target": t} for w, t in sorted(item.relation)],
    }


def poset_text_matches(out: str, carrier, pairs: int) -> bool:
    """The text form's carrier line, and one ``≤`` per stored pair."""
    lines = out.splitlines()
    relation = next((line for line in lines if line.startswith("relation: ")), "")
    return f"carrier: {','.join(sorted(carrier))}" in lines and relation.count("≤") == pairs


class CliRequests:
    """Builds the request of op ``i``; files it needs go into ``workdir``."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def write(self, name: str, data) -> str:
        path = self.workdir / name
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
        return str(path)

    def request(self, index: int, tag: str):
        cycle, slot = divmod(index, CLI_CYCLE)
        rng = rng_for("cli", self.seed, index)
        p = prefix_for(rng, tag, index)
        if slot % 10 == 9:
            k = 2 * cycle + slot // 20
            if slot % 20 == 19:
                return self.malformed(CLI_GAP_NAMES[k % len(CLI_GAP_NAMES)], p)
            return self.malformed(CLI_MALFORMED[k % len(CLI_MALFORMED)], p)
        valid = slot - slot // 10
        command = CLI_COMMANDS[valid % len(CLI_COMMANDS)]
        json_out = (valid + cycle) % 2 == 1
        fl = PLANAR if (valid // 2 + cycle) % 2 else COMMUTATIVE
        return self.valid(command, rng, p, fl, json_out, medium=valid >= 18)

    def valid(self, command, rng, p, fl, json_out, medium):
        flags = [f"--flavour={fl}"] + (["--output=json"] if json_out else [])
        size = rng.randint(9, 16) if medium else rng.randint(3, 8)
        pairs = CLI_MEDIUM_PAIRS if medium else CLI_SMALL_PAIRS

        def payload(out: str):
            return json.loads(out) if json_out else None

        if command in ("check", "info", "faces", "degeneracies", "dot", "subtrees"):
            if command == "subtrees":
                size, pairs = min(size, 7), CLI_SMALL_PAIRS
            node, f = sized_tree(rng, size, p, fl, pairs)
            while command == "subtrees" and f.subtree_count() > CLI_MAX_SUBTREES:
                node, f = sized_tree(rng, size, p, fl, pairs)
            argv = flags + [command, gen.term_text(node)]
            maximal = command == "subtrees" and rng.random() < 0.5
            if maximal:
                argv.append("--maximal")

            def check(res: CliResult) -> bool:
                if res.code != 0:
                    return False
                data = payload(res.out)
                lines = res.out.splitlines()
                if command == "check":
                    if data is not None:
                        return data["report"]["is_dendroidal"] and data["degree"] == f.degree and data["leaves"] == sorted(f.leaves)
                    return lines[0].startswith(f"dendroidal: true; degree {f.degree};")
                if command == "info":
                    if data is not None:
                        return (
                            data["root"] == f.root
                            and data["leaves"] == sorted(f.leaves)
                            and data["stumps"] == sorted(f.stumps)
                            and data["inner_edges"] == sorted(f.inner)
                            and data["degree"] == len(data["links"]) == f.degree
                        )
                    return f"root: {f.root}" in lines and f"degree: {f.degree}" in lines
                if command == "dot":
                    text = data["dot"] if data is not None else res.out
                    arrows = sum(1 for line in text.splitlines() if "->" in line)
                    return arrows == sum(len(c) for c in f.children.values() if c) + len(f.stumps)
                expected = {
                    "faces": f.faces,
                    "degeneracies": f.unary,
                    "subtrees": f.faces if maximal else f.subtree_count(),
                }[command]
                if data is not None:
                    return len(data[command]) == expected
                return lines[-1] == f"total: {expected}"

            return argv, check, None

        if command in ("hom", "factor"):
            while True:
                a, fa = tree(gen.random_shape(rng, rng.randint(1, 3)), p + "a", fl)
                b, fb = tree(gen.random_shape(rng, rng.randint(2, 5 if medium else 4)), p + "b", fl)
                maps = gen.monotone_maps(fa, fb)
                if maps:
                    break
            if command == "hom":
                def check(res: CliResult) -> bool:
                    if res.code != 0:
                        return False
                    data = payload(res.out)
                    if data is not None:
                        return data["count"] == len(maps) and sorted(map(json.dumps, data["maps"])) == sorted(json.dumps(dict(sorted(m.items()))) for m in maps)
                    return res.out.splitlines()[-1] == f"total: {len(maps)}"

                return flags + ["hom", gen.term_text(a), gen.term_text(b)], check, None
            chosen = rng.choice(maps)
            literal = ",".join(f"{k}=>{v}" for k, v in sorted(chosen.items()))

            def check(res: CliResult) -> bool:
                if res.code != 0:
                    return False
                data = payload(res.out)
                if data is not None:
                    return data["composite_matches"] is True
                return "composite matches: true" in res.out.splitlines()

            return flags + ["factor", gen.term_text(a), gen.term_text(b), "--map", literal], check, None

        if command == "graft":
            host, hf = tree(shape_with_leaf(rng, size // 2 + 1), p + "h", fl)
            scion, sf = sized_tree(rng, size // 2 + 1, p + "s", fl, CLI_SMALL_PAIRS)
            leaf = rng.choice(sorted(hf.leaves))
            g = facts(gen.graft_node(host, leaf, scion), fl)

            def check(res: CliResult) -> bool:
                if res.code != 0:
                    return False
                data = payload(res.out)
                if data is not None:
                    return set(data["poset"]["carrier"]) == g.carrier and len(data["poset"]["relation"]) == len(g.relation)
                return poset_text_matches(res.out, g.carrier, len(g.relation))

            return flags + ["graft", gen.term_text(host), "--at", leaf, gen.term_text(scion)], check, None

        if command in ("tensor", "product"):
            if rng.random() < 0.25:
                left = gen.Poset(fl, frozenset([p + "u"]), frozenset())
                right = sized_tree(rng, size, p + "t", fl, pairs)[1]
                expected = gen.Poset(fl, frozenset(core.pair_id(p + "u", a) for a in right.carrier), frozenset())
                if command == "tensor":
                    expected_pairs = len(right.relation)
                else:
                    expected_pairs = sum(1 for w, _ in right.relation if len(w) == 1)
            else:
                left, right = ordinary(rng, p + "a", fl), ordinary(rng, p + "b", fl)
                expected = gen.order_product(left, right, core.pair_id)
                expected_pairs = len(expected.relation)
            files = [self.write(f"{p}{side}.json", poset_json(item)) for side, item in (("l", left), ("r", right))]

            def check(res: CliResult) -> bool:
                if res.code != 0:
                    return False
                data = payload(res.out)
                if data is not None:
                    return set(data["poset"]["carrier"]) == expected.carrier and len(data["poset"]["relation"]) == expected_pairs
                return poset_text_matches(res.out, expected.carrier, expected_pairs)

            return flags + [command, *files], check, None

        if command == "pushout":
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            P, Q = gen.chain_poset(m, p + "a", fl), gen.chain_poset(n, p + "b", fl)
            point = gen.Poset(fl, frozenset([p + "x"]), frozenset())
            legs = [
                {"domain": poset_json(point), "codomain": poset_json(C), "assignment": {p + "x": target}}
                for C, target in ((P, f"{p}ac{m - 1}"), (Q, f"{p}bc0"))
            ]
            files = [self.write(f"{p}{i}.json", leg) for i, leg in enumerate(legs)]
            # the glued class takes the lesser name
            carrier = (P.carrier | Q.carrier) - {max(f"{p}ac{m - 1}", f"{p}bc0")}
            pairs = len(carrier) * (len(carrier) - 1) // 2

            def check(res: CliResult) -> bool:
                if res.code != 0:
                    return False
                data = payload(res.out)
                if data is not None:
                    return set(data["poset"]["carrier"]) == carrier and len(data["poset"]["relation"]) == pairs
                return poset_text_matches(res.out, carrier, pairs)

            return flags + ["pushout", *files], check, None
        raise ValueError(command)

    def malformed(self, name: str, p: str):
        """A request with a documented exit code: 1 semantic, 2 parse or flag, 3 budget."""
        corolla2 = poset_json(facts(name_shape(gen.corolla_shape(2), p + "k"), COMMUTATIVE))
        if name == "syntax":
            argv, code = ["check", f"{p}r({p}a,,{p}b)"], 2
        elif name == "duplicate_edge":
            argv, code = ["check", f"{p}r({p}a,{p}a)"], 2
        elif name == "bad_flag":
            argv, code = ["--flavour=cyclic", "check", p], 2
        elif name == "budget":
            argv, code = ["--budget=2", "hom", f"{p}r({p}a,{p}b)", f"{p}s({p}c,{p}d)"], 3
        elif name == "not_monotone":
            argv, code = ["factor", f"{p}r({p}a)", f"{p}s({p}p,{p}q)", "--map", f"{p}a=>{p}p,{p}r=>{p}s"], 1
        elif name == "not_a_leaf":
            argv, code = ["graft", f"{p}r({p}a,{p}b)", "--at", f"{p}r", f"{p}m({p}k)"], 1
        elif name == "missing_file":
            missing = str(self.workdir / f"{p}missing.json")
            argv, code = ["tensor", missing, missing], 2
        elif name == "bad_json":
            bad = self.write(f"{p}bad.json", "{\"flavour\": ")
            argv, code = ["tensor", bad, bad], 2
        elif name == "overflow":
            path = self.write(f"{p}k.json", corolla2)
            argv, code = ["--max-word-len=1", "tensor", path, path], 3
        elif name == "json_missing_relation":
            path = self.write(f"{p}norel.json", {k: v for k, v in corolla2.items() if k != "relation"})
            argv, code = ["tensor", path, path], 2
        elif name == "unknown_flavour":
            path = self.write(f"{p}cyclic.json", dict(corolla2, flavour="cyclic"))
            argv, code = ["tensor", path, path], 2
        elif name == "product_two_cycle":
            cyc = {
                "flavour": COMMUTATIVE,
                "carrier": [p + "a", p + "b"],
                "relation": [{"source": [p + "a"], "target": p + "b"}, {"source": [p + "b"], "target": p + "a"}],
            }
            unit = {"flavour": COMMUTATIVE, "carrier": [p + "u"], "relation": []}
            argv, code = ["product", self.write(f"{p}cyc.json", cyc), self.write(f"{p}u.json", unit)], 1
        elif name == "deep_term":
            depth = 1200
            argv, code = ["check", "".join(f"{p}d{i}(" for i in range(depth)) + f"{p}x,,"], 2
        else:
            raise ValueError(name)
        return argv, (lambda res: res.code == code), name if name in CLI_GAPS else None


def command_of(argv: list[str]) -> str:
    return next(a for a in argv if not a.startswith("--"))


# Starts each request and reports its exit code and peak RSS.  The kernel
# folds the peak RSS of the process that starts a child into the child's
# own, so the requests are started from this small process and not from
# the benchmark, whose peak is larger than a request's and varies with
# the inputs it has built.
LAUNCHER = """
import json, os, subprocess, sys
for line in sys.stdin:
    argv, out, err = json.loads(line)
    with open(out, "wb") as o, open(err, "wb") as e:
        proc = subprocess.Popen(argv, stdout=o, stderr=e, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """Runs ``python -m dendro.cli`` requests one at a time, each to its end."""

    def __init__(self, env: dict, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )

    def run(self, argv: list[str]) -> CliResult:
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        with calib.no_units():
            self.proc.stdin.write(json.dumps([[sys.executable, "-m", "dendro.cli", *argv], str(out), str(err)]) + "\n")
            self.proc.stdin.flush()
            code, rss_kb = json.loads(self.proc.stdout.readline())
        return CliResult(code, out.read_bytes().decode("utf-8", "replace"), rss_kb)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def run_in_process(argv: list[str]) -> CliResult:
    """The same request through ``cli.run`` with its output captured; an
    uncaught exception counts as exit 1, as it does for the interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the traceback case the interpreter maps to 1
            code = 1
    return CliResult(code, out.getvalue())


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    seed: int
    cycle: int  # ops after which every input of the mix has been visited equally often; peak RSS is read there
    make_op: Callable[[int, int, str], Op]
    warm: tuple  # op indices run, and checked, during set-up
    workdir: Path | None = None
    launcher: Launcher | None = None
    repeated: bool = False  # every cycle runs the same inputs under new names
    in_process: bool = False  # cli only: requests go through cli.run instead of a child each

    def op(self, index: int, tag: str) -> Op:
        return self.make_op(self.seed, index, tag)

    def reset(self) -> None:
        """Empty the library's caches and collect garbage, before a cycle.
        Ops never share names, so no entry could be hit again; this keeps
        the heap, and with it the collector's pauses, from growing with the
        number of cycles a run happens to fit."""
        for name, module in list(sys.modules.items()):
            if name == "dendro" or name.startswith("dendro."):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("dendro"):
                        value.cache_clear()
        gc.collect()

    def warm_up(self) -> None:
        for index in self.warm:
            op = self.op(index, "w")
            op.check(op.run())

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def first_of_each(slots, key) -> tuple:
    first: dict = {}
    for index, slot in enumerate(slots):
        first.setdefault(key(slot), index)
    return tuple(first.values())


def make(name: str, seed: int, root: Path) -> Workload:
    if name == "sweep":
        plan = sweep_plan(seed)
        return Workload(name, seed, len(plan), partial(sweep_op, plan), first_of_each(plan, lambda s: s[1:3]))
    if name == "scale":
        warm = first_of_each(SCALE_SLOTS, lambda s: (s[0], s[2]))
        return Workload(name, seed, len(SCALE_SLOTS), scale_op, warm, repeated=True)
    if name == "algebra":
        return Workload(name, seed, len(ALGEBRA_SLOTS) * ALGEBRA_POOL, partial(algebra_op, {}), tuple(range(len(ALGEBRA_SLOTS))))
    if name == "cli":
        workdir = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        requests = CliRequests(seed, workdir)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        workload = Workload(name, seed, CLI_CYCLE, None, (0,), workdir, Launcher(env, workdir))

        def cli_op(seed: int, index: int, tag: str) -> Op:
            argv, check, gap = requests.request(index, tag)
            if workload.in_process:
                run = lambda: run_in_process(argv)  # noqa: E731
            else:
                run = lambda: workload.launcher.run(argv)  # noqa: E731
            return Op(command_of(argv), run, check, tuple(argv), gap=gap)

        workload.make_op = cli_op
        return workload
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "scale", "algebra", "cli")
