"""Brute-force reference implementations used to cross-check the library.

Each oracle follows the defining rule as literally as possible and avoids
the library's strategies: closure is recomputed from scratch in rounds
with simultaneous substitution, enumerations are exhaustive scans with
late filtering.  Five are the library's own earlier, slower ways, kept
as the reference for the faster ones: the closure that saturates a
substitution queue, tree recognition from the descendant pairs, the
face chain that lists every face, the internal hom that tests every
word of maps up to the codomain's longest word, and the word order
searched with a stack of chunk iterators.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict, deque

from dendro.category import _HOW, Face, _face_kind, _faces
from dendro.core import (
    BroadPoset,
    BroadWord,
    Flavour,
    _canonical,
    _carrier,
    _check_identifiers,
    _flavour_mismatch,
    _relation_size,
    _top_down,
    _words_below,
    enumerate_monotone,
    map_signature,
    pair_str,
)
from dendro.errors import BudgetExceeded, DendroError, FactorizationError, IdentifierError, InvalidArgument
from dendro.structure import PRUNE, _cut, _tree, inclusion, is_dendroidal


def naive_closure(
    carrier,
    generators,
    flavour: Flavour,
    max_len: int = 12,
) -> tuple[frozenset, dict]:
    """Reflexive-transitive closure by round-based simultaneous substitution,
    followed by the mutual-comparability quotient.

    Returns (relation pairs as (letters, target), representative map).
    """
    carrier = frozenset(carrier)

    def norm(letters):
        letters = tuple(letters)
        return tuple(sorted(letters)) if flavour is Flavour.COMMUTATIVE else letters

    relation = set()
    for letters, target in generators:
        relation.add((norm(letters), target))

    while True:
        new = set()
        for w, target in relation:
            # choices for every letter simultaneously: itself or any word below it
            options = []
            for letter in w:
                choice = [(letter,)]
                choice.extend(v for v, t in relation if t == letter)
                options.append(choice)
            for combo in itertools.product(*options):
                derived = norm(tuple(itertools.chain.from_iterable(combo)))
                if len(derived) > max_len:
                    raise OverflowError("oracle closure grew beyond its bound")
                if (derived, target) not in relation:
                    new.add((derived, target))
        if not new:
            break
        relation |= new

    # quotient by mutual single-letter comparability
    mutual = {
        frozenset((a, b))
        for (w1, a) in relation
        for (w2, b) in relation
        if w1 == (b,) and w2 == (a,) and a != b
    }
    rep = {x: x for x in carrier}
    changed = True
    while changed:
        changed = False
        for cls in mutual:
            targets = {rep[x] for x in cls}
            least = min(targets)
            for x in carrier:
                if rep[x] in targets and rep[x] != least:
                    rep[x] = least
                    changed = True
    quotiented = set()
    for w, target in relation:
        w2 = norm(tuple(rep[x] for x in w))
        t2 = rep[target]
        if w2 != (t2,):
            quotiented.add((w2, t2))
    return frozenset(quotiented), rep


def queue_closure(
    flavour: Flavour, carrier, generators, bound: int
) -> tuple[frozenset, frozenset, dict[str, str]]:
    """The library's earlier closure: saturation by substituting
    generators only, one site at a time, into each pair a queue finds,
    then the quotient by mutual comparability of single elements onto the
    least identifier of each class.

    Returns the relation as ``(letters, target)`` pairs, the carrier and
    the collapsed map, which names only the elements that moved, in
    identifier order.  Raises ``OverflowError`` on the first non-reflexive
    pair longer than ``bound`` in queue order, which starts from the
    generators sorted by target, length and letters.
    """
    commutative = flavour is Flavour.COMMUTATIVE

    def norm(letters) -> tuple[str, ...]:
        return tuple(sorted(letters)) if commutative else tuple(letters)

    ordered = sorted({(norm(w), x) for w, x in generators}, key=lambda p: (p[1], len(p[0]), p[0]))
    below = defaultdict(list)  # target -> generator letters, in queue order
    for w, x in ordered:
        below[x].append(w)
    found = set()
    queue = deque(ordered)
    while queue:
        current = queue.popleft()
        w, target = current
        if w == (target,) or current in found:
            continue
        if len(w) > bound:
            raise OverflowError(f"queue closure met a word of length {len(w)} > {bound}")
        found.add(current)
        sites = enumerate(w) if not commutative else ((i, x) for i, x in enumerate(w) if i == 0 or w[i - 1] != x)
        for position, letter in sites:
            for b in below.get(letter, ()):
                queue.append((norm(w[:position] + b + w[position + 1:]), target))

    unary = {(w[0], t) for w, t in found if len(w) == 1}
    classes: dict[str, set[str]] = {}
    for a, b in unary:
        if (b, a) in unary:
            merged = classes.get(a, {a}) | classes.get(b, {b})
            for x in merged:
                classes[x] = merged
    collapsed = {x: min(cls) for x, cls in sorted(classes.items()) if x != min(cls)}

    def r(x: str) -> str:
        return collapsed.get(x, x)

    pairs = {(norm(map(r, w)), r(t)) for w, t in found}
    return frozenset(p for p in pairs if p[0] != (p[1],)), frozenset(map(r, carrier)), collapsed


def brute_word_leq(poset: BroadPoset, lower: BroadWord, upper: BroadWord) -> bool:
    """Whether ``lower <= upper`` in the induced order on words, by trying
    every split of ``lower`` into one chunk per letter of ``upper``:
    consecutive chunks for planar words, any partition of the letters for
    commutative ones.  A chunk is below its letter when it is the letter
    itself or a relation pair says so."""
    flavour, letters, targets = poset.flavour, lower.letters, upper.letters
    relation = poset.relation  # each read writes the words again

    def below(chunk, target):
        return chunk == (target,) or (BroadWord(flavour, chunk), target) in relation

    if flavour is Flavour.PLANAR:
        if not targets:
            return not letters
        splits = []
        for cuts in itertools.combinations_with_replacement(range(len(letters) + 1), len(targets) - 1):
            bounds = (0, *cuts, len(letters))
            splits.append([letters[a:b] for a, b in zip(bounds, bounds[1:])])
    else:
        splits = [
            [tuple(x for x, part in zip(letters, parts) if part == i) for i in range(len(targets))]
            for parts in itertools.product(range(len(targets)), repeat=len(letters))
        ]
    return any(all(map(below, chunks, targets)) for chunks in splits)


def stacked_word_leq(
    candidates: dict[str, tuple[tuple[str, ...], ...]],
    flavour: Flavour,
    lower: tuple[str, ...],
    upper: tuple[str, ...],
) -> bool:
    """The library's earlier decision of the induced order on words, by
    depth-first search over one chunk per letter of ``upper`` with an
    explicit stack of chunk iterators.  It keeps no memo of commutative
    leftovers, so it can visit one leftover multiset once per order of
    reaching it; it is the reference for the pass over distinct states."""
    if lower == upper:
        return True
    if not upper:
        return not lower
    # one frame per letter of ``upper`` matched so far, each holding the
    # iterator over that letter's chunks, so no match recurses
    n, m = len(upper), len(lower)
    stack = [iter(candidates[upper[0]])]
    if flavour is Flavour.PLANAR:
        starts = [0]  # where each frame's chunk begins in ``lower``
        failed: set[tuple[int, int]] = set()  # (frame, start) with no match
        while stack:
            i, pos = len(stack) - 1, starts[-1]
            for chunk in stack[-1]:
                end = pos + len(chunk)
                if lower[pos:end] != chunk or (i + 1, end) in failed:
                    continue
                if i + 1 == n:
                    if end == m:
                        return True
                    continue
                stack.append(iter(candidates[upper[i + 1]]))
                starts.append(end)
                break
            else:
                failed.add((i, pos))
                stack.pop()
                starts.pop()
        return False

    remaining = Counter(lower)
    left = m  # letters of ``lower`` not yet in a chunk
    taken: list[tuple[str, ...]] = []  # the chunk each frame below the top took
    while stack:
        i = len(stack) - 1
        for chunk in stack[-1]:
            if len(chunk) > left:
                continue
            need = Counter(chunk)
            if all(remaining[x] >= k for x, k in need.items()):
                if i + 1 == n:
                    if len(chunk) == left:
                        return True
                    continue
                remaining.subtract(need)
                left -= len(chunk)
                taken.append(chunk)
                stack.append(iter(candidates[upper[i + 1]]))
                break
        else:
            stack.pop()
            if taken:
                chunk = taken.pop()
                remaining.update(chunk)
                left += len(chunk)
    return False


def brute_monotone_maps(domain: BroadPoset, codomain: BroadPoset) -> list[dict[str, str]]:
    """Every monotone assignment, keyed by sorted domain element, in
    lexicographic order of its values, by scanning every total assignment
    and checking every relation pair."""
    elements = sorted(domain.carrier)
    pairs, image_pairs = domain.relation, codomain.relation  # each read writes the words again
    out = []
    for values in itertools.product(sorted(codomain.carrier), repeat=len(elements)):
        assignment = dict(zip(elements, values))
        ok = True
        for w, target in pairs:
            image = tuple(assignment[x] for x in w.letters)
            if codomain.flavour is Flavour.COMMUTATIVE:
                image = tuple(sorted(image))
            ft = assignment[target]
            if image == (ft,):
                continue
            if (BroadWord(codomain.flavour, image), ft) not in image_pairs:
                ok = False
                break
        if ok:
            out.append(assignment)
    return out


def chain_map_count(m: int, n: int) -> int:
    """Weakly order-preserving functions from a chain of m+1 to one of n+1."""
    count = 0
    for values in itertools.product(range(n + 1), repeat=m + 1):
        if all(values[i] <= values[i + 1] for i in range(m)):
            count += 1
    return count


def brute_planar_terms(edges: int):
    """Every planar term shape with the given number of edges."""
    if edges == 1:
        return [None, ()]  # leaf, stump; shapes as nested tuples of children
    out = []
    for parts in _compositions(edges - 1):
        for combo in itertools.product(*[brute_planar_terms(p) for p in parts]):
            out.append(tuple(combo))
    return out


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


def shape_code(shape, commutative: bool) -> str:
    if shape is None:
        return "*"
    codes = [shape_code(child, commutative) for child in shape]
    if commutative:
        codes.sort()
    return "(" + "".join(codes) + ")"


def brute_subtree_posets(poset: BroadPoset) -> set[BroadPoset]:
    """Every dendroidally ordered sub broad poset, by exhaustive scan over
    carrier subsets and relation subsets."""
    from dendro.core import validate

    out = set()
    elements = sorted(poset.carrier)
    pairs = sorted(poset.relation, key=lambda p: (p[1], p[0].letters))
    for k in range(1, len(elements) + 1):
        for subset in itertools.combinations(elements, k):
            keep = set(subset)
            available = [
                p
                for p in pairs
                if p[1] in keep and all(x in keep for x in p[0].letters)
            ]
            for r in range(0, len(available) + 1):
                for chosen in itertools.combinations(available, r):
                    candidate = BroadPoset(poset.flavour, frozenset(keep), frozenset(chosen))
                    if validate(candidate).ok and is_dendroidal(candidate).is_dendroidal:
                        out.add(candidate)
    return out


def is_subtree(candidate: BroadPoset, ambient: BroadPoset) -> bool:
    """Whether a broad poset is a tree contained in another: the same
    flavour, carrier and pairs contained, and the tree axioms."""
    return (
        candidate.flavour is ambient.flavour
        and candidate.carrier <= ambient.carrier
        and candidate.relation <= ambient.relation
        and is_dendroidal(candidate).is_dendroidal
    )


def subtree_vertex_choices(poset: BroadPoset):
    """Every subtree of a tree as its carrier and vertex map, writing no
    relation: a root edge, and then for each chosen edge either no vertex
    or a word below it, with a subtree rooted at each letter of the word."""
    below = {x: [] for x in poset.carrier}
    for w, target in poset.relation:
        below[target].append(w)

    @functools.cache
    def rooted(x):
        out = [(frozenset([x]), ())]
        for w in below[x]:
            for combo in itertools.product(*(rooted(c) for c in w.letters)):
                carrier = frozenset([x]).union(*(c for c, _ in combo))
                out.append((carrier, ((x, w.letters),) + sum((v for _, v in combo), ())))
        return out

    for x in sorted(poset.carrier):
        for carrier, vertices in rooted(x):
            yield carrier, dict(vertices)


def brute_isomorphisms(left: BroadPoset, right: BroadPoset) -> list[dict]:
    """All bijections monotone both ways, by scanning every bijection."""
    from dendro.core import check_isomorphism

    if len(left.carrier) != len(right.carrier):
        return []
    elements = sorted(left.carrier)
    pairs, image = left.relation, right.relation  # each read writes the words again
    out = []
    for values in itertools.permutations(sorted(right.carrier)):
        assignment = dict(zip(elements, values))
        monotone = all(
            (BroadWord(right.flavour, tuple(assignment[x] for x in w)), assignment[t]) in image
            for w, t in pairs
        )  # necessary, and cheap to refute
        if monotone and check_isomorphism(left, right, assignment):
            out.append(assignment)
    return out


def brute_descendant_cycles(poset: BroadPoset) -> list[tuple[str, str]]:
    """Pairs ``a < b`` each of which descends from the other, through the
    transitive closure of "occurs in a word below", taken Floyd–Warshall
    style over every intermediate element."""
    elements = sorted(poset.carrier)
    relation = poset.relation  # each read writes the words again
    reach = {
        (a, b): a == b or any(a in w.letters and t == b for w, t in relation)
        for a in elements
        for b in elements
    }
    for k in elements:
        for a in elements:
            for b in elements:
                if reach[a, k] and reach[k, b]:
                    reach[a, b] = True
    return [(a, b) for a in elements for b in elements if a < b and reach[a, b] and reach[b, a]]


def word_scan_violations(poset: BroadPoset) -> list[str]:
    """The violations :func:`dendro.core.validate` reports, in its order:
    every missing substitution found by building each derived word with
    ``BroadWord.substitute``, sorted; then each mutual unary pair; then
    each descendant cycle.  A commutative word is sorted, so only the
    first of equal letters is substituted: the others give the same word."""
    relation = poset.relation
    missing = []
    for w, target in relation:
        for position, letter in enumerate(w.letters):
            if poset.flavour is Flavour.COMMUTATIVE and letter in w.letters[:position]:
                continue
            for b, t in relation:
                if t != letter:
                    continue
                derived = w.substitute(position, b)
                if derived.letters != (target,) and (derived, target) not in relation:
                    missing.append(
                        f"missing {pair_str((derived, target))} obtained from "
                        f"{pair_str((w, target))} and {pair_str((b, letter))}"
                    )
    unary = {(w.letters[0], t) for w, t in relation if len(w.letters) == 1}
    mutual = [
        f"mutual pair {a} ≤ {b} and {b} ≤ {a}" for a, b in sorted(unary) if a < b and (b, a) in unary
    ]
    cycles = [f"descendant cycle between {a} and {b}" for a, b in brute_descendant_cycles(poset)]
    return sorted(missing) + mutual + cycles


def tuple_element_profiles(poset: BroadPoset) -> dict[str, tuple]:
    """Each element's isomorphism profile as a nested tuple: the lengths
    of the words below it and of those it occurs in, each with its count,
    then the sorted shapes of the pairs that mention it, a shape being the
    sorted base profiles of its letters and the base profile of its target."""
    below = {x: [] for x in poset.carrier}
    occurs = {x: [] for x in poset.carrier}
    for w, target in poset.relation:
        below[target].append(len(w))
        for letter in w.letters:
            occurs[letter].append(len(w))

    def counted(lengths):
        return tuple(sorted(Counter(lengths).items()))

    base = {x: (counted(below[x]), counted(occurs[x])) for x in poset.carrier}
    neighbours = {x: [] for x in poset.carrier}
    for w, t in poset.relation:
        shape = (tuple(sorted(base[l] for l in w.letters)), base[t])
        for x in {t, *w.letters}:
            neighbours[x].append(shape)
    return {x: (base[x], tuple(sorted(neighbours[x]))) for x in poset.carrier}


def counted_element_profiles(poset: BroadPoset, ids: dict) -> dict[str, int]:
    """The numbered isomorphism profiles as ``find_isomorphism`` first
    numbered them: base profiles as each word length with its count, and
    shapes compared as tuples.  Both sides of a search share ``ids``."""
    below = {x: [] for x in poset.carrier}
    occurs = {x: [] for x in poset.carrier}
    for w, target in poset.relation:
        below[target].append(len(w))
        for letter in w.letters:
            occurs[letter].append(len(w))

    def counted(lengths):
        return tuple(sorted(Counter(lengths).items()))

    base = {x: ids.setdefault((counted(below[x]), counted(occurs[x])), len(ids)) for x in poset.carrier}
    neighbours = {x: [] for x in poset.carrier}
    for w, t in poset.relation:
        shape = (tuple(sorted([base[l] for l in w.letters])), base[t])
        for x in {t, *w.letters}:
            neighbours[x].append(shape)
    return {x: ids.setdefault((base[x], tuple(sorted(neighbours[x]))), len(ids)) for x in poset.carrier}


def descendant_scan_tree_words(poset: BroadPoset):
    """A tree's vertex map and root as recognition first found them, or
    None: ancestors read off the reflexive descendant pairs, each target's
    words off the sources of every element, the guess written out and
    compared with the relation as a whole set.  The descendant pairs and
    sources are built here, so nothing is kept on the poset."""
    descendant = {(x, x) for x in poset.carrier}
    sources = {x: set() for x in poset.carrier}
    for w, target in poset.relation:
        sources[target].add(w)
        for letter in w.letters:
            descendant.add((letter, target))
    ancestors = {x: [] for x in poset.carrier}
    for below, above in descendant:
        ancestors[below].append(above)
    depth = {x: len(ups) for x, ups in ancestors.items()}
    tops = [x for x, d in depth.items() if d == 1]
    if len(tops) != 1:
        return None
    children = defaultdict(set)
    for x, ups in ancestors.items():
        if depth[x] > 1:
            parents = [a for a in ups if depth[a] == depth[x] - 1]
            if len(parents) != 1:
                return None
            children[parents[0]].add(x)
    guess = {}
    for target, below in sources.items():
        if below:
            kids = children.get(target, set())
            match = next((w for w in below if len(w) == len(kids) and set(w.letters) == kids), None)
            if match is None:
                return None
            guess[target] = match.letters
    words = {x: guess[x] for x in _top_down(guess, tops[0]) if x in guess}
    if _relation_size(words, reversed(words)) != len(poset.relation):
        return None
    written = {
        (_canonical(poset.flavour, w), x)
        for x, ws in _words_below(words, reversed(words)).items()
        for w in ws
    }
    if written != {(w.letters, t) for w, t in poset.relation}:
        return None
    return words, tops[0]


def listed_face_chain(ambient: BroadPoset, target: BroadPoset) -> list:
    """The faces from the subtree ``target`` up to ``ambient`` as the chain
    first found them: at each step every face of the tree is listed, those
    holding the target kept, and the least by ``FaceKind.sort_key`` cut."""
    leaf = target.carrier - _tree(target)[0].keys()
    steps = []
    current = ambient
    while _tree(current) != _tree(target):
        candidates = [
            (_face_kind(current, kind_type, edge), _HOW[kind_type], edge)
            for kind_type, edge in _faces(current)
            if target.carrier <= _cut(current, _HOW[kind_type], edge).carrier
            and (_HOW[kind_type] != PRUNE or edge in leaf)
        ]
        if not candidates:
            raise FactorizationError(f"no face of {current!r} contains the image {target!r}")
        kind, how, edge = min(candidates, key=lambda c: c[0].sort_key())
        domain = _cut(current, how, edge)
        steps.append(Face(kind, domain, inclusion(domain, current)))
        current = domain
    return steps[::-1]


def enumerated_internal_hom(domain: BroadPoset, codomain: BroadPoset, budget: int = 10**7) -> BroadPoset:
    """The internal hom by testing every word of maps, up to the longest
    word in the codomain's relation, against every map with
    ``codomain.leq`` at every domain element; over ``budget`` candidate
    words of one length raises :class:`BudgetExceeded`.  Out of an empty
    domain it truncates the infinite relation at that length."""
    maps = enumerate_monotone(domain, codomain, budget)
    named = {map_signature(f.mapping): f for f in maps}
    names = sorted(named)
    flavour = domain.flavour
    max_len = max((len(w) for w, _ in codomain.relation), default=0)
    points = sorted(domain.carrier)

    def below(word_names: tuple[str, ...], target_name: str) -> bool:
        target = named[target_name]
        for a in points:
            image = BroadWord(flavour, tuple(named[n](a) for n in word_names))
            if not codomain.leq(image, target(a)):
                return False
        return True

    relation = set()
    for n in range(0, max(max_len, 1) + 1):
        if flavour is Flavour.PLANAR:
            combos = itertools.product(names, repeat=n)
            count = len(names) ** n if names else 0
        else:
            combos = itertools.combinations_with_replacement(names, n)
            count = math.comb(len(names) + n - 1, n) if names else 0
        if count > budget:
            raise BudgetExceeded(f"{count} candidate words exceed budget {budget}")
        for combo in combos:
            for target_name in names:
                if combo == (target_name,):
                    continue
                if below(combo, target_name):
                    relation.add((BroadWord(flavour, combo), target_name))

    return BroadPoset(flavour, frozenset(names), frozenset(relation))


def word_build(flavour: Flavour, carrier, pairs, meta=None) -> BroadPoset:
    """``BroadPoset.build`` as the constructor on words: each source that
    is no word is wrapped as a ``BroadWord``, once the identifiers are
    checked, a word of another flavour is refused in the order given, and
    the pairs that are not reflexive go to ``BroadPoset(...)``."""
    carrier = _carrier(carrier)
    try:
        raw = [(s if isinstance(s, BroadWord) else tuple(s), t) for s, t in pairs]
    except (TypeError, ValueError):
        raise InvalidArgument("pairs must be (letters, target) pairs") from None
    _check_identifiers(itertools.chain(carrier, *(s for s, _ in raw if type(s) is tuple)))
    words = [(s if isinstance(s, BroadWord) else BroadWord(flavour, s), t) for s, t in raw]
    for w, _ in words:
        if w.flavour is not flavour:
            raise _flavour_mismatch(w)
    return BroadPoset(flavour, carrier, [(w, t) for w, t in words if w.letters != (t,)], meta or {})


def word_pairs_checked(flavour: Flavour, carrier, relation) -> frozenset:
    """The letter pairs of a relation given as ``(BroadWord, str)`` pairs,
    checked as the constructor checked its words before it held letters:
    the entries hashed and scanned as words, and on a failure the
    carrier's identifiers checked and the least bad entry in ``repr``
    order named."""
    carrier = _carrier(carrier)
    relation = list(relation)

    def scan(pairs):
        for w, target in pairs:
            if w.flavour is not flavour:
                raise _flavour_mismatch(w)
            if target not in carrier:
                raise IdentifierError(f"target {target!r} not in carrier")
            for letter in w.letters:
                if letter not in carrier:
                    raise IdentifierError(f"letter {letter!r} not in carrier")
            if w.letters == (target,):
                raise InvalidArgument(f"reflexive pair {pair_str((w, target))} must stay implicit")

    def refuse():
        _check_identifiers(carrier)
        for pair in sorted(relation, key=repr):
            if not isinstance(pair, tuple) or len(pair) != 2 or not isinstance(pair[0], BroadWord):
                raise InvalidArgument(f"relation entries must be (BroadWord, str) pairs, not {pair!r}") from None
            try:
                scan([pair])
            except TypeError:
                _check_identifiers([pair[1], *pair[0].letters])
                raise

    try:
        words = frozenset(relation)
        scan(words)
    except (DendroError, AttributeError, TypeError, ValueError):
        refuse()
        raise
    _check_identifiers(carrier)
    return frozenset([(w.letters, t) for w, t in words])
