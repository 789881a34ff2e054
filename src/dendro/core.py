"""Finite broad posets in commutative and planar flavours.

A broad relation on a carrier set A relates finite words over A to single
elements of A.  In the planar flavour words are sequences; in the
commutative flavour they are multisets, stored canonically sorted under
plain string comparison of identifiers.  A broad poset additionally
satisfies

* reflexivity: every element is related to itself (such pairs are kept
  implicit and never stored),
* transitivity under letterwise substitution: if ``a1 ... an <= a`` and
  ``bi <= ai`` for each i, then ``b1 ... bn <= a``,
* anti-symmetry on single elements.

All values in this module are immutable; every operation is a pure
function of its inputs.  Equality of broad posets is on the nose (same
flavour, carrier and relation); isomorphism is a separate search.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import defaultdict
from contextlib import suppress
from enum import Enum
from functools import wraps
from math import prod
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BudgetExceeded,
    ClosureOverflow,
    CollapseError,
    DendroError,
    DomainMismatch,
    FlavourMismatch,
    FrozenInstanceError,
    IdentifierError,
    InvalidArgument,
    ParseError,
)


class Flavour(str, Enum):
    COMMUTATIVE = "commutative"
    PLANAR = "planar"


EPSILON = "ε"  # printed form of the empty word


def pair_id(left: str, right: str) -> str:
    """Identifier of a pair element in products and tensors."""
    return f"({left},{right})"


def _pair_names(left: Iterable[str], right: Iterable[str]) -> dict[tuple[str, str], str]:
    """The :func:`pair_id` of each pair of a left and a right element.

    Identifiers may hold commas, so two distinct pairs can get one name;
    that raises :class:`IdentifierError` naming the least such two.
    """
    names = {(a, b): pair_id(a, b) for a in left for b in right}
    if len(set(names.values())) < len(names):
        first: dict[str, tuple[str, str]] = {}
        for ab in sorted(names):
            clash = first.setdefault(names[ab], ab)
            if clash != ab:
                raise IdentifierError(f"pairs {clash} and {ab} are both named {names[ab]!r}")
    return names


class _Frozen:
    """An immutable value whose fields are the public names in its class's
    ``__slots__``.  Equality (between values of one class), hashing,
    ``repr`` (``Name(field=value, ...)``) and pickling read the tuple of
    its fields; assigning or deleting an attribute raises
    :class:`FrozenInstanceError`.  Each class writes its own ``__init__``,
    which sets its slots past ``__setattr__``; a private slot is no field.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple([name for name in cls.__slots__ if not name.startswith("_")])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # rebuilt through the constructor, which checks the fields again
        return self.__class__, self._values()


class BroadWord(_Frozen):
    """A finite word over element identifiers.

    Commutative words are canonicalised by sorting, so two words with equal
    letter multisets compare equal.  The empty word is a valid value and is
    distinct from every length-1 word.
    """

    __slots__ = ("flavour", "letters")

    def __init__(self, flavour: Flavour, letters: Iterable[str]):
        _set_flavour(self, flavour)
        _set_letters(self, _canonical(flavour, tuple(letters)))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.flavour, self.letters) == (other.flavour, other.letters)

    def __hash__(self) -> int:
        return hash((self.flavour, self.letters))

    def __deepcopy__(self, memo) -> "BroadWord":  # immutable, so its own copy
        return self

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __contains__(self, element: str) -> bool:
        return element in self.letters

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def substitute(self, position: int, replacement: "BroadWord") -> "BroadWord":
        """Replace the letter at ``position`` by a whole word."""
        ls = self.letters
        return BroadWord(self.flavour, ls[:position] + replacement.letters + ls[position + 1:])

    def __str__(self) -> str:
        return "·".join(self.letters) if self.letters else EPSILON


def word(flavour: Flavour, letters: Iterable[str]) -> BroadWord:
    return BroadWord(flavour, tuple(letters))


_set_flavour = BroadWord.flavour.__set__
_set_letters = BroadWord.letters.__set__


def _canonical_word(flavour: Flavour, letters: tuple[str, ...]) -> BroadWord:
    """The word with letters already in canonical form, sorted when
    commutative, built without copying or sorting them again."""
    w = object.__new__(BroadWord)
    _set_flavour(w, flavour)
    _set_letters(w, letters)
    return w


def _canonical(flavour: Flavour, letters: tuple[str, ...]) -> tuple[str, ...]:
    """The letters of the word of that flavour: sorted when commutative
    and longer than one letter, naming one that is no string if they do
    not compare."""
    if flavour is Flavour.COMMUTATIVE and len(letters) > 1:
        try:
            return tuple(sorted(letters))
        except TypeError:
            _check_identifiers(letters)
            raise
    return letters


def _flavour_mismatch(w: BroadWord) -> FlavourMismatch:
    return FlavourMismatch(f"word {w} has flavour {getattr(w.flavour, 'value', w.flavour)}")


Pair = tuple[BroadWord, str]
# a pair by its source's canonical letters, the form every broad poset stores
LetterPair = tuple[tuple[str, ...], str]


def pair_str(pair: Pair | LetterPair) -> str:
    """``source ≤ target``, the source's letters joined by ``·`` or
    :data:`EPSILON` when it has none, whether it is a word or its letters."""
    letters, target = pair
    return f"{'·'.join(letters) if len(letters) else EPSILON} ≤ {target}"


class BroadPoset:
    """A finite carrier with a broad relation, reflexive pairs implicit.

    The constructor takes ``(BroadWord, str)`` pairs and checks that
    identifiers are consistent and that no reflexive pair is stored; it
    does not verify transitivity or anti-symmetry.  Use :func:`validate`
    to check those, or :func:`generate_broad_poset` to build a closed
    relation from generators.

    Inside the package a word is the tuple of its canonical letters.
    Every poset stores its relation as the frozenset of its pairs'
    ``(letters, target)`` tuples, read through :func:`_relation_pairs`;
    ``relation`` is a view that wraps them as words on each read.  The
    constructor and :meth:`build` check them (:func:`_check_pairs`).
    Two kinds of poset are built past both (:func:`_held`): one made by
    the closure kernel, :func:`product`, :func:`forget_symmetry` or
    :func:`internal_hom` from checked inputs' letters; and a tree that
    holds its vertex map, each non-leaf edge with the letters of its
    children, and root, checked vertex by vertex, which implies the check
    of every pair.  A closure the kernel writes is also handed its
    all-true :func:`validate` report.  A tree's pairs are written from its
    map when first read (two threads may both write them, and store equal
    values).  Equality, JSON, ``repr`` and pickling read the pairs, or
    for equality between two trees that have not written theirs the
    vertex maps and roots, which fix them; hashing reads the pair count,
    which a tree counts off its map.  So none of them tells how a poset
    was built.
    """

    __slots__ = ("flavour", "carrier", "_pairs", "meta", "_known")

    flavour: Flavour
    carrier: frozenset[str]
    meta: dict
    # the canonical (letters, target) pairs, or None while a tree has not written them
    _pairs: frozenset[LetterPair] | None
    # what the memoized lookups have worked out about this object, by name
    _known: dict

    def __new__(cls, flavour: Flavour, carrier: Iterable[str], relation: Iterable[Pair], meta: dict | None = None):
        _check_flavour(flavour)
        carrier = _carrier(carrier)
        relation = list(relation)  # which a failure reads again
        words = [e[0] for e in relation if isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], BroadWord)]
        if len(words) < len(relation) or any(w.flavour is not flavour for w in words):
            _refuse_least_bad_pair(carrier, relation, flavour)
        pairs = [(w.letters, t) for w, t in relation]
        _check_pairs(carrier, pairs)
        return _held(flavour, carrier, frozenset(pairs), meta)

    __setattr__ = _Frozen.__setattr__
    __delattr__ = _Frozen.__delattr__

    @property
    def relation(self) -> frozenset[Pair]:
        """The stored pairs, each one's letters wrapped as its word without
        sorting them again; nothing is kept."""
        flavour = self.flavour
        return frozenset([(_canonical_word(flavour, letters), t) for letters, t in _relation_pairs(self)])

    def __eq__(self, other) -> bool:
        """Equal flavours, carriers and pairs.  Two trees whose pairs are not
        written compare their vertex maps and roots, which fix their pairs,
        so neither is written."""
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._pairs is None and other._pairs is None:
            return (self.flavour, self.carrier, self._known[_TREE]) == (
                other.flavour, other.carrier, other._known[_TREE]
            )
        return (self.flavour, self.carrier, _relation_pairs(self)) == (
            other.flavour, other.carrier, _relation_pairs(other)
        )

    def __hash__(self) -> int:
        """Of the flavour, carrier and pair count, which equal posets
        share; a tree whose pairs are not written counts them off its
        vertex map and writes none."""
        return hash((self.flavour, self.carrier, _pair_count(self)))

    def __reduce__(self):
        return _held, (self.flavour, self.carrier, self._pairs, self.meta, self._known)

    def __deepcopy__(self, memo) -> "BroadPoset":
        """A twin that shares the immutable carrier and pairs, with copies
        of ``meta`` and the kept answers."""
        from copy import deepcopy  # loaded already by whoever deep-copies

        return _held(self.flavour, self.carrier, self._pairs, deepcopy(self.meta, memo), deepcopy(self._known, memo))

    @classmethod
    def build(
        cls,
        flavour: Flavour,
        carrier: Iterable[str],
        pairs: Iterable[tuple[Sequence[str] | BroadWord, str]] = (),
        meta: dict | None = None,
    ) -> "BroadPoset":
        """Normalise raw ``(letters, target)`` pairs and drop reflexive ones;
        the pairs are checked as the constructor checks them."""
        carrier = _carrier(carrier)
        try:
            raw = [(s if isinstance(s, BroadWord) else tuple(s), t) for s, t in pairs]
        except (TypeError, ValueError):  # an entry that is no pair, or a source that is no sequence
            raise InvalidArgument("pairs must be (letters, target) pairs") from None
        _check_identifiers(itertools.chain(carrier, *(s for s, _ in raw if type(s) is tuple)))  # before letters sort
        for s, _ in raw:  # before a reflexive pair is dropped
            if type(s) is not tuple and s.flavour is not flavour:
                raise _flavour_mismatch(s)
        letters = [(_canonical(flavour, s) if type(s) is tuple else s.letters, t) for s, t in raw]
        letters = [(s, t) for s, t in letters if s != (t,)]
        _check_flavour(flavour)
        _check_pairs(carrier, letters)
        return _held(flavour, carrier, frozenset(letters), meta or {})

    def leq(self, source: Sequence[str] | BroadWord, target: str) -> bool:
        """Whether ``source <= target`` holds, counting implicit reflexivity."""
        letters = _letters(self, source, target)
        return letters == (target,) or (letters, target) in _relation_pairs(self)

    def sources(self, target: str) -> frozenset[BroadWord]:
        """All stored words strictly below ``target``."""
        try:
            below = _chunk_candidates(self)[target]
        except KeyError:
            raise IdentifierError(f"{target!r} not in carrier") from None
        return frozenset([_canonical_word(self.flavour, letters) for letters in below if letters != (target,)])

    def unary_pairs(self) -> frozenset[tuple[str, str]]:
        """Stored pairs whose source has length one, as element pairs."""
        return frozenset([(letters[0], target) for letters, target in _relation_pairs(self) if len(letters) == 1])

    def rename(self, mapping: Mapping[str, str]) -> "BroadPoset":
        """Injectively relabel the carrier; words are rewritten letterwise."""
        values = set(mapping.values())
        if len(values) != len(mapping):
            raise InvalidArgument("renaming must be injective")
        def r(x: str) -> str:
            return mapping.get(x, x)
        carrier = frozenset(r(x) for x in self.carrier)
        if len(carrier) != len(self.carrier):
            raise InvalidArgument("renaming must stay injective on the carrier")
        pairs = [(tuple(map(r, letters)), r(t)) for letters, t in _relation_pairs(self)]
        return BroadPoset.build(self.flavour, carrier, pairs)

    def to_json(self) -> dict:
        return {
            "flavour": self.flavour.value,
            "carrier": sorted(self.carrier),
            "relation": [
                {"source": list(letters), "target": t}
                for letters, t in sorted(_relation_pairs(self), key=lambda p: (p[1], len(p[0]), p[0]))
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "BroadPoset":
        """Read the form :meth:`to_json` writes; malformed data raises ParseError."""
        flavour, carrier, relation = _json_fields(data, "flavour", "carrier", "relation")
        if not isinstance(flavour, str) or flavour not in {f.value for f in Flavour}:
            raise ParseError(f"unknown flavour {flavour!r}")
        if not isinstance(relation, (list, tuple)):
            raise ParseError("'relation' must be a list")
        pairs = []
        for entry in relation:
            source, target = _json_fields(entry, "source", "target")
            pairs.append((_json_ids(source), _json_ids([target])[0]))
        return cls.build(Flavour(flavour), _json_ids(carrier), pairs)

    def __repr__(self) -> str:  # compact, for test failures
        rel = ", ".join(sorted(pair_str(p) for p in _relation_pairs(self)))
        return f"BroadPoset({self.flavour.value}, {{{', '.join(sorted(self.carrier))}}}, {{{rel}}})"


def _json_fields(data, *keys: str) -> list:
    """The values of the required keys of a JSON object."""
    if not isinstance(data, Mapping):
        raise ParseError(f"expected a JSON object with keys {', '.join(keys)}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ParseError(f"JSON object lacks {', '.join(map(repr, missing))}")
    return [data[k] for k in keys]


def _json_ids(values) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not all(isinstance(x, str) for x in values):
        raise ParseError("identifiers must be strings, given in a list")
    return tuple(values)


# ---------------------------------------------------------------------------
# Derived lookups


def _kept(compute: Callable[[BroadPoset], object]) -> Callable:
    """Keep ``compute(poset)`` on the poset that asked, under the function's
    name, so it is worked out once per object and freed with it.

    Values are immutable, so two threads that both compute an entry store
    equal values, and one dict store wins.  The name, not the function, is
    the key, so a poset with entries pickles.  Callers must not mutate the
    returned values.
    """
    name = compute.__name__

    @wraps(compute)
    def kept(poset: BroadPoset):
        known = poset._known
        try:
            return known[name]
        except KeyError:
            value = known[name] = compute(poset)
            return value

    return kept


def _relation_pairs(poset: BroadPoset) -> frozenset[LetterPair]:
    """The relation as the canonical ``(letters, target)`` tuples the
    poset stores; a tree that holds its vertex map writes them from the
    map on the first read (:func:`_tree_relation`) and keeps them."""
    pairs = poset._pairs
    if pairs is None:
        pairs = _tree_relation(poset)
        object.__setattr__(poset, "_pairs", pairs)
    return pairs


def _int_argument(name: str, value) -> int:
    """The value of an int argument; anything else, a bool included, raises."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgument(f"{name} must be an int, not {value!r}")
    return value


def _check_identifiers(identifiers: Iterable) -> None:
    for x in identifiers:
        if not isinstance(x, str):
            raise InvalidArgument(f"identifiers must be strings, not {x!r}")


def _carrier(identifiers: Iterable) -> frozenset:
    """The identifiers as a set; one that does not hash raises
    :class:`InvalidArgument` naming the least identifier that is no
    string in ``repr`` order, which no hash seed moves."""
    if iter(identifiers) is identifiers:  # an iterator, which a failure reads again
        identifiers = list(identifiers)
    try:
        return frozenset(identifiers)
    except TypeError:
        _check_identifiers(sorted(identifiers, key=repr))
        raise


def _check_pairs(carrier: frozenset, pairs: Collection[LetterPair]) -> None:
    """Raise unless the carrier's identifiers are strings and each
    ``(letters, target)`` pair lies on the carrier and is not reflexive."""
    _check_identifiers(carrier)  # letters and targets must lie in it, so they are strings too
    with suppress(DendroError, TypeError):  # TypeError from an identifier that does not hash
        return _scan_pairs(carrier, pairs)
    _refuse_least_bad_pair(carrier, pairs)


def _refuse_least_bad_pair(carrier: frozenset, entries: Collection, flavour: Flavour | None = None) -> None:
    """Raise for the least entry in ``repr`` order, which no hash seed
    moves, that :func:`_check_pairs` refuses.  Given a flavour, the entries
    are the constructor's: one that is no ``(BroadWord, str)`` pair is an
    :class:`InvalidArgument`, and a word of another flavour a
    :class:`FlavourMismatch`.  An identifier that does not hash, or a
    letter that does not print, is an :class:`InvalidArgument`."""
    _check_identifiers(carrier)
    for pair in sorted(entries, key=repr):
        w = None
        if flavour is not None:
            if not (isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], BroadWord)):
                raise InvalidArgument(f"relation entries must be (BroadWord, str) pairs, not {pair!r}")
            w, target = pair
            pair = (w.letters, target)
        try:
            if w is not None and w.flavour is not flavour:
                raise _flavour_mismatch(w)
            _scan_pairs(carrier, [pair])
        except TypeError:  # so the identifier is no string
            _check_identifiers([pair[1], *pair[0]])
            raise


def _scan_pairs(carrier: frozenset, pairs: Iterable[LetterPair]) -> None:
    """Raise at the first pair, in the order given, that :func:`_check_pairs` refuses."""
    for letters, target in pairs:
        if target not in carrier:
            raise IdentifierError(f"target {target!r} not in carrier")
        for letter in letters:
            if letter not in carrier:
                raise IdentifierError(f"letter {letter!r} not in carrier")
        if letters == (target,):
            raise InvalidArgument(f"reflexive pair {pair_str((letters, target))} must stay implicit")


def _check_flavour(flavour) -> None:
    """Raise unless the flavour is a Flavour member, not a flavour's name."""
    if not isinstance(flavour, Flavour):  # words sort by flavour identity
        raise InvalidArgument(f"flavour must be a Flavour member, not {flavour!r}")


def _letters(poset: BroadPoset, source: Sequence[str] | BroadWord, *targets: str) -> tuple[str, ...]:
    """The canonical letters of a word, or of a sequence of letters, once
    a word has the poset's flavour and the letters and the targets name
    only elements of its carrier."""
    if isinstance(source, BroadWord):
        if source.flavour is not poset.flavour:
            raise _flavour_mismatch(source)
        letters = source.letters
    else:
        letters = _canonical(poset.flavour, tuple(source))
    carrier = poset.carrier
    for x in (*letters, *targets):
        if x not in carrier:
            raise IdentifierError(f"{x!r} not in carrier")
    return letters


@_kept
def _chunk_candidates(poset: BroadPoset) -> dict[str, tuple[tuple[str, ...], ...]]:
    """For each element x, the letter tuples of words w with w <= x."""
    out: dict[str, list[tuple[str, ...]]] = {x: [(x,)] for x in poset.carrier}
    for letters, target in _relation_pairs(poset):
        out[target].append(letters)
    return {x: tuple(sorted(chunks, key=lambda c: (len(c), c))) for x, chunks in out.items()}


def word_leq(poset: BroadPoset, lower: BroadWord, upper: BroadWord) -> bool:
    """The induced order on words: lower <= upper.

    Holds when ``upper = u1 ... un`` splits ``lower`` into words
    ``c1 ... cn`` with ``ci <= ui`` for each i.  Planar splits are
    consecutive; commutative splits partition the letter multiset.  Each
    letter of ``upper`` takes one pass, which takes a chunk below the
    letter from each state of ``lower`` the earlier letters left and keeps
    each new state once.  So the work is at most ``len(upper)`` times the
    distinct states times the chunks below one letter, with at most
    ``len(lower) + 1`` states when planar and one per sub-multiset of
    ``lower`` when commutative.
    """
    return _word_leq(_chunk_candidates(poset), poset.flavour, _letters(poset, lower), _letters(poset, upper))


def _word_leq(
    candidates: dict[str, tuple[tuple[str, ...], ...]],
    flavour: Flavour,
    lower: tuple[str, ...],
    upper: tuple[str, ...],
) -> bool:
    if lower == upper:
        return True
    if flavour is Flavour.PLANAR:  # a state is where the rest of ``lower`` begins
        starts = {0}
        for u in upper:
            starts = {s + len(c) for s in starts for c in candidates[u] if lower[s:s + len(c)] == c}
            if not starts:
                return False
        return len(lower) in starts
    rests = {lower}  # a state is the sorted letters of ``lower`` still left
    for u in upper:
        rests = {left for rest in rests for c in candidates[u] if (left := _take(rest, c)) is not None}
        if not rests:
            return False
    return () in rests


def _take(rest: tuple[str, ...], chunk: tuple[str, ...]) -> tuple[str, ...] | None:
    """The sorted letters ``rest`` less those of the sorted ``chunk``, each
    found by bisection after the last, or None when it lacks one."""
    left = list(rest)
    i = 0
    for x in chunk:
        i = bisect_left(left, x, i)
        if i == len(left) or left[i] != x:
            return None
        del left[i]
    return tuple(left)


@_kept
def _descendant_pairs(poset: BroadPoset) -> frozenset[tuple[str, str]]:
    """Reflexive descendant relation: (b, a) when b occurs in a word below a."""
    pairs = {(x, x) for x in poset.carrier}
    for letters, target in _relation_pairs(poset):
        for letter in letters:
            pairs.add((letter, target))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# Trees read off and written from their vertex maps


# the most pairs a tree's relation is written out with; an n-edge chain has n(n-1)/2
MAX_RELATION_PAIRS = 10**6


def _maximum_word(
    candidates: dict[str, tuple[tuple[str, ...], ...]],
    flavour: Flavour,
    words: list[tuple[str, ...]],
) -> tuple[str, ...] | None:
    """The letters of the maximum of a set of words, given by their
    letters, in the induced order, if it exists."""
    best = words[0]
    for w in words[1:]:
        if _word_leq(candidates, flavour, best, w):
            best = w
    for w in words:
        if w != best and not _word_leq(candidates, flavour, w, best):
            return None
    return best


def _tree_words(poset: BroadPoset) -> tuple[dict[str, tuple[str, ...]], str] | None:
    """The vertex map of a tree, each non-leaf edge with the letters of
    its children, together with its root; or None when it is no tree.

    The map is guessed by counting.  Let N(x) be one more than the number
    of words below x.  In a tree N(x) is one more than the product of N
    over the vertex word of x, and putting a word below a letter in place
    of the letter strictly lowers that product; so the vertex word of x
    is the one word below x whose letters' N multiply to N(x) - 1.  The
    guess must be a rooted tree on the carrier: every element but one is
    a letter of exactly one guessed word.  A letter's N is below its
    target's, so there is no cycle and the walk down from the root ends.
    The identity at every target makes the guess write as many words
    below each target as the poset holds, so it is accepted only when
    every word it writes lies among the poset's: the answer is exact, and
    no guess writes more words than the poset holds.  The map lists its
    edges from the root down, each after its parent, so its order does not
    follow the hash seed.  Nothing is kept on the poset.
    """
    below: dict[str, set[tuple[str, ...]]] = defaultdict(set)  # target -> letters of its words
    for letters, target in _relation_pairs(poset):
        below[target].add(letters)
    size = dict.fromkeys(poset.carrier, 1)  # N: one more than the words below
    for target, words in below.items():
        size[target] += len(words)
    look = size.__getitem__
    guess: dict[str, tuple[str, ...]] = {}
    for target, words in below.items():
        n = len(words)
        for letters in words:
            if prod(map(look, letters)) == n:
                guess[target] = letters
                break
        else:
            return None
    kids = [c for w in guess.values() for c in w]
    tops = poset.carrier.difference(kids)
    if len(tops) != 1 or len(kids) != len(poset.carrier) - 1:
        return None
    (top,) = tops
    vertices = {x: guess[x] for x in _top_down(guess, top) if x in guess}
    for x, words in _words_below(vertices, reversed(vertices)).items():
        if poset.flavour is Flavour.COMMUTATIVE:  # a word of one letter is already sorted
            words = [w if len(w) < 2 else tuple(sorted(w)) for w in words]
        if not below[x].issuperset(words):
            return None
    return vertices, top


@_kept
def _maxima_map(poset: BroadPoset) -> tuple[dict[str, tuple[str, ...] | None], str | None]:
    """For each non-leaf element, the letters of the maximum word below
    it, or None; and the root when the poset is a tree, else None.

    A tree written from its vertex map or cut out of a tree holds the map
    and root as this answer (:func:`_held`), and a tree from
    elsewhere is recognised by :func:`_tree_words`, which counts the
    words below each element; a tree's maxima are its vertices, the words
    whose letters' counts multiply to their target's.  Any other broad
    poset gets a full search, word against word in the induced order.
    """
    tree = _tree_words(poset)
    if tree is not None:
        return tree
    candidates = _chunk_candidates(poset)
    out: dict[str, tuple[str, ...] | None] = {}
    for target, chunks in candidates.items():
        below = [c for c in chunks if c != (target,)]  # sorted by length, then letters
        if below:
            out[target] = _maximum_word(candidates, poset.flavour, below)
    return out, None


# the key a tree's vertex map and root are kept under, as its _maxima_map answer
_TREE = _maxima_map.__name__


def _held(
    flavour: Flavour, carrier: frozenset[str], pairs: frozenset[LetterPair] | None, meta=None, known=None
) -> BroadPoset:
    """The broad poset with the given carrier and canonical ``(letters,
    target)`` pairs, its slots set past its frozen ``__setattr__``.  A
    tree passes None for its pairs and its vertex map (each non-leaf edge
    with its children's letters) and root in ``known`` under :data:`_TREE`,
    as its :func:`_maxima_map` answer; its pairs are written when first
    read.  Nothing is checked, and the caller must not change what it
    hands over afterwards."""
    poset = object.__new__(BroadPoset)
    values = (flavour, carrier, pairs, {} if meta is None else meta, {} if known is None else known)
    for name, value in zip(BroadPoset.__slots__, values):
        object.__setattr__(poset, name, value)
    return poset


def _tree_relation(tree: BroadPoset) -> frozenset[LetterPair]:
    """The pairs of a tree that holds its vertex map: the words below an
    edge are the concatenations of one choice per child, the child itself
    or a word below it, sorted when commutative."""
    vertices, top = tree._known[_TREE]
    flavour = tree.flavour
    order = [x for x in _top_down(vertices, top) if x in vertices]
    below = _words_below(vertices, reversed(order))
    if flavour is Flavour.PLANAR:
        return frozenset([(w, x) for x, ws in below.items() for w in ws])
    # a word of one letter is already sorted
    return frozenset([(w if len(w) < 2 else tuple(sorted(w)), x) for x, ws in below.items() for w in ws])


def _tree_leq(vertices: dict[str, tuple[str, ...]], flavour: Flavour, letters: tuple[str, ...], target: str) -> bool:
    """Whether the word with the given canonical letters is at or below
    ``target`` in the tree with the given vertex map: it is the target, or
    the word got by expanding, from the target down, every other edge."""
    if letters == (target,):
        return True
    keep = set(letters)
    found = []
    pending = [target]
    while pending:
        x = pending.pop()
        if x in keep and x != target:
            found.append(x)
        elif x in vertices:
            pending.extend(reversed(vertices[x]))
        else:
            return False  # a leaf the word does not hold, or a target with no vertex
    return tuple(found if flavour is Flavour.PLANAR else sorted(found)) == letters


def _relation_size(vertices: dict[str, tuple[str, ...]], bottom_up) -> int:
    """The number of pairs in the relation of the tree with the given
    vertex map, its edges with a vertex listed children first: an edge has
    one word below it per choice, for each child, of the child itself or
    one of the child's words."""
    count: dict[str, int] = {}
    for x in bottom_up:
        words = 1
        for c in vertices[x]:
            words *= 1 + count.get(c, 0)
        count[x] = words
    return sum(count.values())


def _pair_count(poset: BroadPoset) -> int:
    """The number of pairs in the relation; a tree whose pairs are not
    written counts them off its vertex map and writes none."""
    if poset._pairs is not None:
        return len(poset._pairs)
    vertices, top = poset._known[_TREE]
    return _relation_size(vertices, reversed([x for x in _top_down(vertices, top) if x in vertices]))


def _told_apart(left: BroadPoset, right: BroadPoset) -> bool:
    """Whether two broad posets differ in flavour, carrier size or pair
    count, any of which rules out an isomorphism.  Nothing is recognised
    or written, so a side that is no tree is told apart like any other."""
    return (
        left.flavour is not right.flavour
        or len(left.carrier) != len(right.carrier)
        or _pair_count(left) != _pair_count(right)
    )


def _top_down(vertices: dict, top: str) -> list[str]:
    """The edges of the tree with the given vertex map and root, each one
    after its parent."""
    order = [top]
    for x in order:
        order.extend(vertices.get(x, ()))
    return order


def _words_below(vertices: dict[str, tuple[str, ...]], bottom_up: Iterable[str]) -> dict[str, list[tuple[str, ...]]]:
    """The letters of the words below each edge of the tree with the given
    vertex map, its edges with a vertex listed children first: one choice
    per child, of the child itself or a word below it, concatenated in
    order and not sorted."""
    below: dict[str, list[tuple[str, ...]]] = {}
    for x in bottom_up:
        words: list[tuple[str, ...]] = [()]
        for c in vertices[x]:
            choices = [(c,), *below.get(c, ())]
            words = [w + v for w in words for v in choices]
        below[x] = words
    return below


def _tree_poset(
    flavour: Flavour, carrier: frozenset[str], vertices: dict[str, tuple[str, ...]], meta=None
) -> BroadPoset:
    """The tree with the given edges and vertex map, its pairs written
    when they are first read (:func:`_held`).

    The map must span the carrier as one rooted tree: every edge but the
    root is a child of exactly one edge.  Each vertex goes through the
    constructor's check of a pair (:func:`_check_pairs`), which implies
    it for every pair.  A relation of more than :data:`MAX_RELATION_PAIRS`
    pairs is counted, not written, and raises :class:`BudgetExceeded`.
    """
    _check_flavour(flavour)
    _check_pairs(carrier, [(w, x) for x, w in vertices.items()])
    (top,) = carrier - {c for kids in vertices.values() for c in kids}
    tree = _held(flavour, carrier, None, meta, {_TREE: (vertices, top)})
    if _pair_count(tree) > MAX_RELATION_PAIRS:
        raise BudgetExceeded(f"the tree's relation has more than {MAX_RELATION_PAIRS} pairs")
    return tree


# ---------------------------------------------------------------------------
# Generation (reflexive-transitive closure plus anti-symmetry quotient)


def _substitution_sites(flavour: Flavour, letters: tuple[str, ...]) -> Iterator[tuple[int, str]]:
    """The positions of a word of that flavour whose substitutions can give
    distinct words.

    Every position of a planar word; in a commutative word, which is sorted,
    the first occurrence of each distinct letter.
    """
    if flavour is Flavour.PLANAR:
        return enumerate(letters)
    return ((i, x) for i, x in enumerate(letters) if i == 0 or letters[i - 1] != x)


def _by_target(pairs: Iterable[tuple[tuple[str, ...], str]]) -> dict[str, list[tuple[str, ...]]]:
    """The letters of the generators below each target, shortest first."""
    by_target: dict[str, list[tuple[str, ...]]] = defaultdict(list)
    for letters, target in pairs:
        by_target[target].append(letters)
    for ws in by_target.values():
        ws.sort(key=len)
    return by_target


def _children_first(generators: dict[str, list[tuple[str, ...]]]) -> list[str]:
    """The targets of the generators, each after the targets among its
    generators' letters; a target on or above a cycle of the
    letter-to-target graph is left out."""
    users: dict[str, list[str]] = defaultdict(list)
    waiting: dict[str, int] = {}
    for target, ws in generators.items():
        inputs = {c for w in ws for c in w if c in generators}
        waiting[target] = len(inputs)
        for c in inputs:
            users[c].append(target)
    order = [x for x, n in waiting.items() if not n]
    for c in order:
        for x in users.get(c, ()):
            waiting[x] -= 1
            if not waiting[x]:
                order.append(x)
    return order


def _unary_classes(generators: dict[str, list[tuple[str, ...]]]) -> dict[str, str]:
    """Each element mutually reachable along unary generators with a less
    one, mapped to the least such, in identifier order."""
    up: dict[str, set[str]] = defaultdict(set)  # letter -> targets of its unary generators
    for x, ws in generators.items():
        for w in ws:
            if len(w) == 1:
                up[w[0]].add(x)
    reach: dict[str, set[str]] = {}
    for a in list(up):
        seen, pending = set(), [a]
        while pending:
            ys = up[pending.pop()] - seen
            seen |= ys
            pending += ys
        reach[a] = seen
    least = {a: min(b for b in seen if a in reach.get(b, ())) for a, seen in sorted(reach.items()) if a in seen}
    return {a: b for a, b in least.items() if b != a}


def _product_closure(
    flavour: Flavour, generators: dict[str, list[tuple[str, ...]]], order: list[str], bound: int
) -> dict[str, set[tuple[str, ...]]]:
    """The closure of generators whose letter-to-target graph is acyclic,
    their targets given children first, as the words below each target.

    The words below ``x`` are, over the generators ``(w, x)``, the
    concatenations, in order, of one choice per letter ``c`` of ``w``:
    ``c`` itself or a word below ``c``; commutative words are sorted.
    The longest words are counted first; one over ``bound`` raises
    :class:`ClosureOverflow`.  A generator already among the words below
    its target adds nothing, since the words below each letter are
    closed; generators come shortest first, so a tree's vertex word spans
    the longer words before they are met.  Generators and words are
    given by their letters, canonical for the flavour.
    """
    longest: dict[str, int] = {}  # the longest word below each target; a letter alone is 1
    over = []
    for x in order:
        most = 0
        for w in generators[x]:
            size = 0
            for c in w:
                size += longest.get(c) or 1
            if size > most:
                most = size
        if most > bound:
            over.append(x)
        longest[x] = most
    if over:
        x = min(over)
        raise ClosureOverflow(f"the closure has a word of length {longest[x]} > {bound} below {x}")
    commutative = flavour is Flavour.COMMUTATIVE
    below: dict[str, set[tuple[str, ...]]] = {}
    choices: dict[str, list[tuple[str, ...]]] = {}  # each target itself, then the words below it
    for x in order:
        words: set[tuple[str, ...]] = set()
        for w in generators[x]:
            if w in words:
                continue
            partial: list[tuple[str, ...]] = [()]
            for c in w:
                partial = [p + v for p in partial for v in choices.get(c) or [(c,)]]
            words.update(map(tuple, map(sorted, partial)) if commutative else partial)
        below[x] = words
        choices[x] = [(x,), *words]
    return below


def generate_broad_poset(
    carrier: Iterable[str],
    generators: Iterable[tuple[Sequence[str] | BroadWord, str]],
    flavour: Flavour,
    max_word_len: int | None = None,
) -> BroadPoset:
    """The broad poset generated by a relation.

    Its closure is finite exactly when every cycle of the generators'
    letter-to-target graph runs through unary generators only.  The
    elements on such a cycle are below each other, so anti-symmetry
    identifies each class of them with its least identifier, recorded in
    the result's ``meta['collapsed']``.  The closure of the generators
    mapped through it is then written by the product rule: the words
    below an element are, over its generators, one choice per letter of
    the letter itself or a word below it.

    Raises :class:`ClosureOverflow`, naming no word and so moved by no
    hash seed, when a cycle through a word of two or more letters is left
    (naming the least element on or above it) or a word is longer than
    ``max_word_len``, default the carrier size (naming the least element
    with one below it, and the length of its longest).  ``max_word_len``
    must be an int of at least 1.
    """
    carrier = _carrier(carrier)

    def checked() -> Iterator[LetterPair]:  # as build checks pairs, once the bound is checked
        yield from _relation_pairs(BroadPoset.build(flavour, carrier, generators))

    return _closure(flavour, carrier, checked(), max_word_len)


def _closure(
    flavour: Flavour,
    carrier: frozenset[str],
    pairs: Iterable[tuple[tuple[str, ...], str]],
    max_word_len: int | None,
) -> BroadPoset:
    """The closure :func:`generate_broad_poset` describes, of generators
    given as ``(letters, target)`` pairs that are canonical for the
    flavour, over ``carrier``, and not reflexive; repeats are allowed.

    The bound, an int of at least 1 or None for the carrier size, is
    checked before the first pair is read.  The unary classes are looked
    for only when the product rule's order leaves a target out, so an
    acyclic generator set pays nothing for them.  The kernel works on
    letter tuples and hands them to the result (:func:`_held`): they join
    only letters of the generators, which the callers have checked, so no
    pair is checked again and no word is built.  The result is handed its
    all-true :func:`validate` report as a kept answer: the product rule
    closes under substitution, the collapse leaves no unary cycle, and any
    other cycle is refused, so it satisfies all three axioms.
    """
    if max_word_len is None:
        bound = max(1, len(carrier))
    elif _int_argument("max_word_len", max_word_len) < 1:
        raise InvalidArgument("max_word_len must be at least 1")
    else:
        bound = max_word_len
    by_target = _by_target(pairs)
    order = _children_first(by_target)
    collapsed = _unary_classes(by_target) if len(order) < len(by_target) else {}
    if collapsed:
        def r(x: str) -> str:
            return collapsed.get(x, x)
        carrier = frozenset(map(r, carrier))
        by_target = _by_target(
            (v, r(x)) for x, ws in by_target.items() for w in ws
            for v in [_canonical(flavour, tuple(map(r, w)))] if v != (r(x),)
        )
        order = _children_first(by_target)
    if len(order) < len(by_target):
        x = min(by_target.keys() - set(order))
        raise ClosureOverflow(
            f"the closure is infinite: {x} is on or above a cycle through a word of 2 or more letters"
        )
    closed = _product_closure(flavour, by_target, order, bound)
    relation = frozenset([(w, x) for x, ws in closed.items() for w in ws])
    return _held(flavour, carrier, relation, {"collapsed": collapsed} if collapsed else None, {_VALIDATED: _VALID})


# ---------------------------------------------------------------------------
# Validation


class ValidationReport(_Frozen):
    __slots__ = ("transitive", "antisymmetric", "stratified", "violations")

    def __init__(self, transitive: bool, antisymmetric: bool, stratified: bool, violations: tuple[str, ...]):
        object.__setattr__(self, "transitive", transitive)
        object.__setattr__(self, "antisymmetric", antisymmetric)
        object.__setattr__(self, "stratified", stratified)
        object.__setattr__(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return self.transitive and self.antisymmetric and self.stratified

    def to_json(self) -> dict:
        return {
            "transitive": self.transitive,
            "antisymmetric": self.antisymmetric,
            "stratified": self.stratified,
            "violations": list(self.violations),
        }


@_kept
def validate(poset: BroadPoset) -> ValidationReport:
    """Report whether candidate data satisfies the broad poset axioms.

    ``stratified`` asks that the descendant preorder is anti-symmetric;
    for finite relations this is automatic once the other two hold.

    The report is kept on the poset (:func:`_kept`).  A closure the kernel
    writes (:func:`generate_broad_poset`, :func:`tensor`, :func:`pushout`,
    :func:`abelianize`) is handed the all-true report, and a tree that
    holds or has recognised its vertex map gets it with no pair written:
    its relation is generated by its vertices.  Any other poset is checked
    pair by pair.
    """
    if poset._known.get(_TREE, ({}, None))[1] is not None:
        return _VALID
    violations: list[str] = []

    flavour = poset.flavour
    commutative = flavour is Flavour.COMMUTATIVE
    below: dict[str, set[tuple[str, ...]]] = defaultdict(set)  # target -> letters of its words
    for letters, target in _relation_pairs(poset):
        below[target].add(letters)
    missing: list[str] = []
    for target, words in below.items():
        own = (target,)
        for ls in words:
            for position, letter in _substitution_sites(flavour, ls):
                if letter not in below:
                    continue
                head, tail = ls[:position], ls[position + 1:]
                for b in below[letter]:
                    derived = head + b + tail
                    if commutative:
                        derived = tuple(sorted(derived))
                    if derived not in words and derived != own:
                        missing.append(
                            f"missing {pair_str((derived, target))} obtained from "
                            f"{pair_str((ls, target))} and {pair_str((b, letter))}"
                        )
    transitive = not missing
    violations.extend(sorted(missing))  # in an order that no hash seed moves

    antisymmetric = True
    unary = poset.unary_pairs()
    for a, b in sorted(unary):
        if a != b and (b, a) in unary and a < b:
            antisymmetric = False
            violations.append(f"mutual pair {a} ≤ {b} and {b} ≤ {a}")

    above: dict[str, set[str]] = defaultdict(set)
    for lo, hi in _descendant_pairs(poset):
        above[lo].add(hi)
    reach: dict[str, set[str]] = {}  # everything each element descends from
    for x in poset.carrier:
        seen, pending = {x}, [x]
        while pending:
            new = above[pending.pop()] - seen
            seen |= new
            pending.extend(new)
        reach[x] = seen
    cycles = [
        f"descendant cycle between {a} and {b}"
        for a in sorted(poset.carrier)
        for b in sorted(reach[a])
        if a < b and a in reach[b]
    ]
    violations.extend(cycles)

    return ValidationReport(transitive, antisymmetric, not cycles, tuple(violations))


# the key a poset's report is kept under, and the report of every broad poset
_VALIDATED = validate.__name__
_VALID = ValidationReport(True, True, True, ())


# ---------------------------------------------------------------------------
# Monotone maps


class MonotoneMap(_Frozen):
    """A total assignment between carriers, extended to words letterwise."""

    __slots__ = ("domain", "codomain", "pairs", "_map")  # _map: the pairs as a dict, for lookups

    def __init__(self, domain: BroadPoset, codomain: BroadPoset, pairs: Iterable[tuple[str, str]]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        if domain.flavour is not codomain.flavour:
            raise FlavourMismatch("domain and codomain flavours differ")
        mapping = dict(pairs)
        object.__setattr__(self, "pairs", tuple(sorted(mapping.items())))
        object.__setattr__(self, "_map", mapping)
        if mapping.keys() != domain.carrier:
            raise IdentifierError("assignment is not total on the domain carrier")
        if not codomain.carrier.issuperset(mapping.values()):
            value = next(v for v in mapping.values() if v not in codomain.carrier)
            raise IdentifierError(f"value {value!r} not in codomain carrier")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain, self.codomain, self.pairs) == (other.domain, other.codomain, other.pairs)

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain, self.pairs))

    @classmethod
    def from_dict(
        cls, domain: BroadPoset, codomain: BroadPoset, assignment: Mapping[str, str]
    ) -> "MonotoneMap":
        return cls(domain, codomain, tuple(assignment.items()))

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self._map)

    def __call__(self, element: str) -> str:
        try:
            return self._map[element]
        except KeyError:
            raise IdentifierError(f"{element!r} not in domain carrier") from None

    def word(self, w: BroadWord) -> BroadWord:
        return BroadWord(self.codomain.flavour, tuple(map(self, w.letters)))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(k == v for k, v in self.pairs)

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
            "assignment": {k: v for k, v in self.pairs},
        }

    @classmethod
    def from_json(cls, data: Mapping, registry: Mapping[str, BroadPoset] | None = None) -> "MonotoneMap":
        def resolve(entry):
            if isinstance(entry, str):
                if registry is None or entry not in registry:
                    raise IdentifierError(f"unknown poset name {entry!r}")
                return registry[entry]
            return BroadPoset.from_json(entry)

        domain, codomain, assignment = _json_fields(data, "domain", "codomain", "assignment")
        if not isinstance(assignment, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in assignment.items()
        ):
            raise ParseError("'assignment' must map identifiers to identifiers, all strings")
        return cls.from_dict(resolve(domain), resolve(codomain), assignment)

    def __repr__(self) -> str:
        assign = ",".join(f"{k}↦{v}" for k, v in self.pairs)
        return f"MonotoneMap({assign})"


def is_monotone(assignment: Mapping[str, str], domain: BroadPoset, codomain: BroadPoset) -> bool:
    """Whether every relation pair maps into a stored or reflexive pair;
    between trees that hold their vertex maps, whether every vertex does."""
    if domain.flavour is not codomain.flavour:
        raise FlavourMismatch("flavours differ")
    if set(assignment) != set(domain.carrier):
        raise IdentifierError("assignment is not total on the domain carrier")
    for value in assignment.values():
        if value not in codomain.carrier:
            raise IdentifierError(f"value {value!r} not in codomain carrier")
    flavour = codomain.flavour
    (vertices, top), (image, image_top) = [p._known.get(_TREE, ({}, None)) for p in (domain, codomain)]
    if top is not None and image_top is not None:
        return all(
            _tree_leq(image, flavour, _canonical(flavour, tuple([assignment[x] for x in w])), assignment[e])
            for e, w in vertices.items()
        )
    relation = frozenset(_relation_pairs(codomain))
    for letters, target in _relation_pairs(domain):
        image = _canonical(flavour, tuple([assignment[x] for x in letters]))
        ft = assignment[target]
        if image != (ft,) and (image, ft) not in relation:
            return False
    return True


def identity(poset: BroadPoset) -> MonotoneMap:
    return MonotoneMap.from_dict(poset, poset, {x: x for x in poset.carrier})


def compose(outer: MonotoneMap, inner: MonotoneMap) -> MonotoneMap:
    """The composite ``outer after inner``."""
    if inner.codomain != outer.domain:
        raise DomainMismatch("codomain of the first map must equal domain of the second")
    return MonotoneMap.from_dict(
        inner.domain, outer.codomain, {x: outer(inner(x)) for x in inner.domain.carrier}
    )


# the most assignments, |codomain| ** |domain|, searched out of a domain that
# holds no vertex map rather than recognising it: without it the algebra
# benchmark's adjunction check went from 0.14-0.19 to 0.30 ms, and routing
# on recognition alone from 0.119 to 0.215 ms (2-core x86-64, CPython 3.11.7)
SEARCH_AT_MOST = 128


def enumerate_monotone(
    domain: BroadPoset, codomain: BroadPoset, budget: int = 10**7
) -> list[MonotoneMap]:
    """All monotone maps, in lexicographic order of their assignments.

    The worst-case assignment count ``|codomain| ** |domain|`` must stay
    within ``budget``, an int, on every path.  Out of a tree that holds its
    vertex map, or is recognised above :data:`SEARCH_AT_MOST` assignments,
    the maps into any codomain are read off the map by :func:`_tree_maps`;
    else the shared search prunes once a fully-assigned pair fails.
    """
    _int_argument("budget", budget)
    if domain.flavour is not codomain.flavour:
        raise FlavourMismatch("flavours differ")
    elements = sorted(domain.carrier)
    values = sorted(codomain.carrier)
    count = len(values) ** len(elements)
    if elements and values and count > budget:
        raise BudgetExceeded(
            f"{len(values)}^{len(elements)} assignments exceed budget {budget}"
        )
    tree = domain._known.get(_TREE) or (_maxima_map(domain) if count > SEARCH_AT_MOST else ({}, None))
    if tree[1] is not None:
        assignments = (dict(zip(elements, row)) for row in _tree_maps(tree, codomain, elements))
    else:
        assignments = _assignments(domain, codomain, elements, lambda x, a: values, False)
    return [MonotoneMap.from_dict(domain, codomain, assignment) for assignment in assignments]


def _tree_maps(
    tree: tuple[dict[str, tuple[str, ...]], str], codomain: BroadPoset, elements: list[str]
) -> list[tuple[str, ...]]:
    """Every monotone map from the tree with the given vertex map and root
    into ``codomain``, any broad poset, as its values at ``elements``, the
    domain's sorted edges, in lexicographic order.

    The domain's relation is generated by its vertices, and the
    codomain's is closed under substitution, so a map is monotone exactly
    when it sends each vertex's word of children to a word at or below the
    image of its edge: a word below it, or at a unary vertex the image
    itself.  Children first, each edge ``e`` gets, for each value ``x``,
    the maps of the subtree at ``e`` that send ``e`` to ``x``, each as its
    values with ``e``'s first and then each child's block in turn.  They
    are put together from the codomain's words at or below ``x`` of ``e``'s
    arity, whose letters go to the children in order when planar and by
    every distinct arrangement when commutative: a word may repeat a
    letter, as in ``x·x <= y``, so its arrangements are deduplicated once,
    as the index of the words of the domain's arities is built.  No map
    comes twice, and no partial map is built that does not extend.
    """
    vertices, top = tree
    planar = codomain.flavour is Flavour.PLANAR
    words: dict[tuple[str, int], list[tuple[str, ...]]] = defaultdict(list)  # (x, arity) -> arrangements
    for x in codomain.carrier:
        words[x, 1].append((x,))  # a unary vertex's edge and child may share their image
    arities = {len(v) for v in vertices.values()}  # the only lengths looked up
    for letters, x in _relation_pairs(codomain):
        if len(letters) in arities:
            words[x, len(letters)].extend([letters] if planar else set(itertools.permutations(letters)))
    leaf = {x: [(x,)] for x in codomain.carrier}
    maps: dict[str, dict[str, list[tuple[str, ...]]]] = {}  # edge -> value -> blocks
    block: dict[str, tuple[str, ...]] = {}  # edge -> the edges of its subtree, as its blocks list them
    for e in reversed(_top_down(vertices, top)):
        if e not in vertices:
            maps[e], block[e] = leaf, (e,)
            continue
        kids = vertices[e]
        block[e] = (e, *itertools.chain.from_iterable(block[c] for c in kids))
        below = [maps[c] for c in kids]
        maps[e] = {}
        for x in codomain.carrier:
            found = [
                (x, *itertools.chain.from_iterable(parts))
                for image in words.get((x, len(kids)), ())
                for parts in itertools.product(*(m.get(y, ()) for m, y in zip(below, image)))
            ]
            if found:
                maps[e][x] = found
    place = {x: i for i, x in enumerate(block[top])}
    positions = [place[x] for x in elements]
    return sorted(tuple(m[i] for i in positions) for found in maps[top].values() for m in found)


def _assignments(
    domain: BroadPoset,
    codomain: BroadPoset,
    order: Sequence[str],
    candidates: Callable[[str, Mapping[str, str]], Iterable[str]],
    injective: bool,
) -> Iterator[dict[str, str]]:
    """Every monotone assignment, injective when asked.

    ``order`` lists the domain's carrier, and each element ``x`` takes its
    values from ``candidates(x, assignment)``, where the assignment holds
    the values of the elements before ``x``; assignments come in
    lexicographic order of their values along ``order``, each value ranked
    by its place among its candidates.  Every relation pair is filed under
    the last of its elements in ``order`` and checked once that element has
    a value.  The search keeps its own stack of candidate iterators, so its
    depth is not bounded by Python's.  An injective image that is a single
    letter equal to its target can only come from a reflexive pair, which
    is never stored, so one pair test serves both modes.
    """
    if not order:
        yield {}
        return
    index = {x: i for i, x in enumerate(order)}
    checkable: list[list[tuple[tuple[str, ...], str]]] = [[] for _ in order]
    for letters, target in _relation_pairs(domain):
        last = max([index[target]] + [index[x] for x in letters])
        checkable[last].append((letters, target))

    relation = frozenset(_relation_pairs(codomain))
    commutative = codomain.flavour is Flavour.COMMUTATIVE
    assignment: dict[str, str] = {}  # entries past the current element may be stale
    used: set[str] = set()  # when injective, the values before the current element
    stack = [iter(candidates(order[0], assignment))]  # one iterator per element up to the current one
    while stack:
        k = len(stack) - 1
        x = order[k]
        for value in stack[k]:
            if value in used:
                continue
            assignment[x] = value
            for letters, target in checkable[k]:
                image = tuple([assignment[y] for y in letters])
                if commutative:
                    image = tuple(sorted(image))
                ft = assignment[target]
                if image != (ft,) and (image, ft) not in relation:
                    break  # a pair fails: try the next value
            else:
                break  # every pair filed under x holds
        else:  # no value left for x: step back, freeing the value before it
            stack.pop()
            if injective and k:
                used.discard(assignment[order[k - 1]])
            continue
        if k + 1 == len(order):
            yield dict(assignment)
        else:
            if injective:
                used.add(value)
            stack.append(iter(candidates(order[k + 1], assignment)))


# ---------------------------------------------------------------------------
# Isomorphism search for arbitrary broad posets


def check_isomorphism(
    left: BroadPoset, right: BroadPoset, assignment: Mapping[str, str]
) -> bool:
    """Whether the assignment is a bijection that is monotone both ways."""
    if set(assignment) != set(left.carrier) or set(assignment.values()) != set(right.carrier):
        return False
    if len(set(assignment.values())) != len(assignment):
        return False
    image = {
        (_canonical(right.flavour, tuple([assignment[x] for x in letters])), assignment[t])
        for letters, t in _relation_pairs(left)
    }
    return image == frozenset(_relation_pairs(right))


def _is_isomorphism(left: BroadPoset, right: BroadPoset, assignment: Mapping[str, str]) -> bool:
    """:func:`check_isomorphism`, read off the vertex maps when both sides
    are trees that hold theirs: a bijection that sends root to root and each
    vertex word onto the image's.  A tree's vertices generate its relation."""
    (lv, ltop), (rv, rtop) = [p._known.get(_TREE, ({}, None)) for p in (left, right)]
    if ltop is None or rtop is None:
        return check_isomorphism(left, right, assignment)
    if set(assignment) != left.carrier or set(assignment.values()) != right.carrier:
        return False
    if len(left.carrier) != len(right.carrier) or assignment[ltop] != rtop:
        return False
    flavour = right.flavour
    return rv == {assignment[x]: _canonical(flavour, tuple([assignment[c] for c in w])) for x, w in lv.items()}


def _element_profiles(poset: BroadPoset, ids: dict[tuple, int]) -> dict[str, int]:
    """Each element's profile, numbered through ``ids``: its base profile,
    the sorted lengths of the words below it and of those it occurs in,
    and one refinement round over the shapes of the pairs that mention it,
    each shape numbered too.  Both sides of a search share ``ids``, so
    equal numbers mean equal profiles; base profiles, shapes and profiles
    are told apart by the kinds of their two entries."""
    pairs = _relation_pairs(poset)
    below: dict[str, list[int]] = {x: [] for x in poset.carrier}
    occurs: dict[str, list[int]] = {x: [] for x in poset.carrier}
    for letters, target in pairs:
        size = len(letters)
        below[target].append(size)
        for letter in letters:
            occurs[letter].append(size)
    base = {
        x: ids.setdefault((tuple(sorted(below[x])), tuple(sorted(occurs[x]))), len(ids)) for x in poset.carrier
    }
    # one refinement round over the relation's shape: each pair's shape
    # counts once for every element it mentions
    neighbours: dict[str, list[int]] = {x: [] for x in poset.carrier}
    for letters, t in pairs:
        shape = ids.setdefault((tuple(sorted([base[l] for l in letters])), base[t]), len(ids))
        for x in {t, *letters}:
            neighbours[x].append(shape)
    return {x: ids.setdefault((base[x], tuple(sorted(neighbours[x]))), len(ids)) for x in poset.carrier}


def find_isomorphism(left: BroadPoset, right: BroadPoset) -> dict[str, str] | None:
    """Search for a bijection monotone both ways; None when there is none.

    Sides that differ in flavour, carrier size or pair count get None at
    once (:func:`_told_apart`), the pairs of a tree counted, not written.
    The shared search's first injective monotone assignment needs no check:
    between carriers and relations of equal size it is an isomorphism."""
    if _told_apart(left, right):
        return None
    pairs = [_relation_pairs(side) for side in (left, right)]
    lengths = [sorted([len(letters) for letters, _ in side]) for side in pairs]
    if lengths[0] != lengths[1]:
        return None
    ids: dict[tuple, int] = {}
    lprof = _element_profiles(left, ids)
    rprof = _element_profiles(right, ids)
    if sorted(lprof.values()) != sorted(rprof.values()):
        return None
    same: dict[int, list[str]] = defaultdict(list)  # profile -> right elements, sorted
    for y in sorted(right.carrier):
        same[rprof[y]].append(y)
    candidates = {x: same[lprof[x]] for x in left.carrier}
    order = sorted(left.carrier, key=lambda x: (len(candidates[x]), x))
    return next(_assignments(left, right, order, lambda x, a: candidates[x], True), None)


# ---------------------------------------------------------------------------
# Finite ordinary posets and their embedding


class FinitePoset(_Frozen):
    """A finite partial order, stored as its strict transitively closed pairs."""

    __slots__ = ("elements", "strict")

    def __init__(self, elements: Iterable[str], strict: Iterable[tuple[str, str]]):
        elements, strict = frozenset(elements), frozenset(strict)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "strict", strict)
        for a, b in strict:
            if a not in elements or b not in elements:
                raise IdentifierError("order pair outside the element set")
            if a == b or (b, a) in strict:
                raise InvalidArgument("strict order must be irreflexive and anti-symmetric")
        for a, b in strict:
            for c, d in strict:
                if b == c and (a, d) not in strict:
                    raise InvalidArgument("strict order must be transitively closed")

    @classmethod
    def chain(cls, top: int, prefix: str = "c") -> "FinitePoset":
        """The linear order with elements ``prefix0 .. prefix<top>``."""
        top = _int_argument("top", top)
        names = [f"{prefix}{i}" for i in range(top + 1)]
        strict = {(names[i], names[j]) for i in range(top + 1) for j in range(i + 1, top + 1)}
        return cls(frozenset(names), frozenset(strict))

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.strict

    def product(self, other: "FinitePoset") -> "FinitePoset":
        names = _pair_names(self.elements, other.elements)
        strict = {
            (names[a1, b1], names[a2, b2])
            for a1 in self.elements
            for b1 in other.elements
            for a2 in self.elements
            for b2 in other.elements
            if self.leq(a1, a2) and other.leq(b1, b2) and (a1, b1) != (a2, b2)
        }
        return FinitePoset(frozenset(names.values()), frozenset(strict))


def embed_poset(poset: FinitePoset, flavour: Flavour = Flavour.COMMUTATIVE) -> BroadPoset:
    """View an ordinary poset as a broad poset with unary relation pairs."""
    pairs = [((a,), b) for a, b in poset.strict]
    return BroadPoset.build(flavour, poset.elements, pairs)


def underlying_poset(poset: BroadPoset) -> FinitePoset:
    """The ordinary poset carried by the unary part of the relation."""
    return FinitePoset(poset.carrier, frozenset(poset.unary_pairs()))


# ---------------------------------------------------------------------------
# Basic objects


def star(name: str = "x", flavour: Flavour = Flavour.COMMUTATIVE) -> BroadPoset:
    """The single-edge broad poset, unit of the tensor product."""
    return BroadPoset.build(flavour, [name])


def corolla(
    leaf_count: int,
    flavour: Flavour = Flavour.COMMUTATIVE,
    root: str = "r",
    leaf_prefix: str = "l",
) -> BroadPoset:
    """The corolla: one vertex relating the word of leaves to the root."""
    if _int_argument("leaf_count", leaf_count) < 0:
        raise InvalidArgument(f"leaf_count must be at least 0, not {leaf_count}")
    leaves = [f"{leaf_prefix}{i}" for i in range(1, leaf_count + 1)]
    return BroadPoset.build(flavour, [root, *leaves], [(tuple(leaves), root)])


# ---------------------------------------------------------------------------
# Products, tensor product, internal hom, pushouts


def product(
    left: BroadPoset, right: BroadPoset
) -> tuple[BroadPoset, MonotoneMap, MonotoneMap]:
    """Cartesian product with its two projections.

    A word of pairs is below a pair exactly when both coordinatewise words
    are below the respective coordinates, counting reflexive pairs.  The
    product is handed its letter pairs (:func:`_held`): each joins pair
    names of the carrier, so none is checked again.
    """
    if left.flavour is not right.flavour:
        raise FlavourMismatch("flavours differ")
    flavour = left.flavour
    names = _pair_names(left.carrier, right.carrier)
    carrier = {name: ab for ab, name in names.items()}
    left_words, right_words = _chunk_candidates(left), _chunk_candidates(right)

    pairs: set[tuple[tuple[str, ...], str]] = set()
    for name, (a, b) in carrier.items():
        for wa in left_words[a]:
            for wb in right_words[b]:
                if len(wa) != len(wb):
                    continue
                if wa == (a,) and wb == (b,):
                    continue
                if flavour is Flavour.PLANAR:
                    pairs.add((tuple([names[xy] for xy in zip(wa, wb)]), name))
                    continue
                for perm in itertools.permutations(wb):
                    pairs.add((tuple(sorted([names[xy] for xy in zip(wa, perm)])), name))

    poset = _held(flavour, frozenset(carrier), frozenset([(w, x) for w, x in pairs if w != (x,)]))
    proj_left = MonotoneMap.from_dict(poset, left, {n: ab[0] for n, ab in carrier.items()})
    proj_right = MonotoneMap.from_dict(poset, right, {n: ab[1] for n, ab in carrier.items()})
    return poset, proj_left, proj_right


def tensor(
    left: BroadPoset, right: BroadPoset, max_word_len: int | None = None
) -> BroadPoset:
    """Tensor product: generated by tensoring each side's pairs with points."""
    if left.flavour is not right.flavour:
        raise FlavourMismatch("flavours differ")
    flavour = left.flavour
    names = _pair_names(left.carrier, right.carrier)
    rows = {a: {b: names[a, b] for b in right.carrier} for a in left.carrier}
    generators: set[tuple[tuple[str, ...], str]] = set()
    right_pairs, left_pairs = _relation_pairs(right), _relation_pairs(left)
    for row in rows.values():
        for letters, b in right_pairs:
            generators.add((_canonical(flavour, tuple([row[y] for y in letters])), row[b]))
    for b in right.carrier:
        for letters, a in left_pairs:
            generators.add((_canonical(flavour, tuple([rows[x][b] for x in letters])), rows[a][b]))
    carrier = frozenset([name for row in rows.values() for name in row.values()])
    return _closure(flavour, carrier, generators, max_word_len)


def map_signature(assignment: Mapping[str, str]) -> str:
    return ",".join(f"{k}=>{v}" for k, v in sorted(assignment.items()))


def internal_hom(
    domain: BroadPoset, codomain: BroadPoset, budget: int = 10**7
) -> BroadPoset:
    """The broad poset of monotone maps, ordered pointwise.

    Maps are named by their assignments; two with one name raise
    :class:`IdentifierError`.  ``f1 ... fn <= g`` exactly when ``f1(a) ...
    fn(a) <= g(a)`` at every domain element ``a``.  So for each map ``g``
    and each length ``n`` of a word at or below ``g(a)`` at every ``a``,
    the words are spelled one map at a time, each element ``a`` keeping
    the letters still to place of the words of length ``n`` at or below
    ``g(a)`` that the maps so far fit.  The next map is one that takes a
    letter to place at every element: the maps grouped by their value,
    united over those letters and intersected over the elements.  Planar
    words place their letters in order, and commutative words take their
    maps in name order, so only words that hold are spelled, each once.
    The result is handed its letter pairs (:func:`_held`).  An empty
    domain raises :class:`InvalidArgument`: every word of its one map is
    below it.
    """
    maps = enumerate_monotone(domain, codomain, budget)
    if not domain.carrier:
        raise InvalidArgument("the internal hom out of an empty broad poset has words of every length")
    named: dict[str, dict[str, str]] = {}
    for f in maps:
        name = map_signature(f.mapping)
        if name in named:
            raise IdentifierError(f"maps {named[name]} and {f.mapping} are both named {name!r}")
        named[name] = f.mapping
    flavour = domain.flavour
    planar = flavour is Flavour.PLANAR
    points = sorted(domain.carrier)
    taking: dict[str, dict[str, set[str]]] = {a: defaultdict(set) for a in points}  # a -> value -> maps
    for name, f in named.items():
        for a in points:
            taking[a][f[a]].add(name)
    words: dict[str, dict[int, set[tuple[str, ...]]]] = {}  # x -> length -> letters of the words at or below x
    for x, us in _chunk_candidates(codomain).items():
        for u in us:
            words.setdefault(x, {}).setdefault(len(u), set()).add(u)

    pairs: set[tuple[tuple[str, ...], str]] = set()
    for target, g in named.items():
        at = [words[g[a]] for a in points]
        for n in set(at[0]).intersection(*at[1:]):
            if not n:
                pairs.add(((), target))
                continue
            stack = [((), [by_length[n] for by_length in at])]  # a word so far, and what each element leaves
            while stack:
                fs, rests = stack.pop()
                fitting: set[str] | None = None
                for a, left in zip(points, rests):
                    letters = {r[0] for r in left} if planar else {y for r in left for y in r}
                    here = set().union(*[taking[a][y] for y in letters])
                    fitting = here if fitting is None else fitting & here
                    if not fitting:
                        break
                last = len(fs) + 1 == n  # every map that fits ends a word
                for f in fitting:
                    if not planar and fs and f < fs[-1]:
                        continue
                    word = fs + (f,)
                    if last:
                        if word != (target,):
                            pairs.add((word, target))
                        continue
                    images = [named[f][a] for a in points]
                    if planar:
                        after = [{r[1:] for r in left if r[0] == y} for left, y in zip(rests, images)]
                    else:
                        after = [{rest for rest in (_take(r, (y,)) for r in left) if rest is not None}
                                 for left, y in zip(rests, images)]
                    stack.append((word, after))
    return _held(flavour, frozenset(named), frozenset(pairs))


def pushout(
    left_leg: MonotoneMap, right_leg: MonotoneMap, max_word_len: int | None = None
) -> tuple[BroadPoset, MonotoneMap, MonotoneMap]:
    """Pushout of two maps with common domain, with its injections.

    The carrier is the set pushout of the carriers; the relation is
    generated by the images of both relations.  Raises
    :class:`CollapseError` if generation identifies elements beyond the set
    pushout, which signals a failure of amalgamation.
    """
    if left_leg.domain != right_leg.domain:
        raise DomainMismatch("legs must share their domain")
    if left_leg.codomain.flavour is not right_leg.codomain.flavour:
        raise FlavourMismatch("flavours differ")
    shared = left_leg.domain
    left, right = left_leg.codomain, right_leg.codomain
    flavour = left.flavour

    # set pushout of the carriers on tagged elements
    tagged = [("L", x) for x in sorted(left.carrier)] + [("R", y) for y in sorted(right.carrier)]
    classes: dict[tuple[str, str], set[tuple[str, str]]] = {t: {t} for t in tagged}
    for c in shared.carrier:
        a, b = ("L", left_leg(c)), ("R", right_leg(c))
        merged = classes[a] | classes[b]
        for t in merged:
            classes[t] = merged
    unique: list[set[tuple[str, str]]] = []
    seen: set[frozenset] = set()
    for t in tagged:
        key = frozenset(classes[t])
        if key not in seen:
            seen.add(key)
            unique.append(classes[t])

    def class_key(cls: set[tuple[str, str]]) -> tuple:
        return (min(name for _, name in cls), tuple(sorted(cls)))

    names: dict[tuple[str, str], str] = {}
    used: set[str] = set()
    for cls in sorted(unique, key=class_key):
        name = min(n for _, n in cls)
        while name in used:
            name += "'"
        used.add(name)
        for t in cls:
            names[t] = name

    generators: set[tuple[tuple[str, ...], str]] = set()
    for side, poset in (("L", left), ("R", right)):
        for source, target in _relation_pairs(poset):
            letters = _canonical(flavour, tuple([names[side, x] for x in source]))
            if letters != (names[side, target],):
                generators.add((letters, names[side, target]))
    result = _closure(flavour, frozenset(used), generators, max_word_len)
    if result.meta.get("collapsed"):
        raise CollapseError(
            f"generation collapsed elements beyond the set pushout: {result.meta['collapsed']}"
        )
    inj_left = MonotoneMap.from_dict(left, result, {x: names[("L", x)] for x in left.carrier})
    inj_right = MonotoneMap.from_dict(right, result, {y: names[("R", y)] for y in right.carrier})
    return result, inj_left, inj_right


# ---------------------------------------------------------------------------
# Change of flavour


def abelianize(poset: BroadPoset) -> BroadPoset:
    """Forget word order: each planar source becomes its multiset.

    Closure may keep words as long as the input's, which can exceed the
    carrier size when a word repeats a letter.  A poset whose kept
    :func:`validate` report is ok, as every closure the kernel writes is,
    is not closed again: the multisets of a broad poset's words are closed
    under commutative substitution and have its unary and descendant
    pairs, so nothing would collapse and no word exceeds the bound.  They
    are handed over with the all-true report.  The report is read only
    when kept, never worked out, since validating costs more than closing.
    """
    if poset.flavour is not Flavour.PLANAR:
        raise FlavourMismatch("abelianize expects a planar broad poset")
    pairs = frozenset([(_canonical(Flavour.COMMUTATIVE, w), t) for w, t in _relation_pairs(poset)])
    report = poset._known.get(_VALIDATED)
    if report is not None and report.ok:
        return _held(Flavour.COMMUTATIVE, poset.carrier, pairs, None, {_VALIDATED: _VALID})
    bound = max([1, len(poset.carrier), *(len(w) for w, _ in pairs)])
    return _closure(Flavour.COMMUTATIVE, poset.carrier, pairs, bound)


def forget_symmetry(poset: BroadPoset) -> BroadPoset:
    """All orderings of each commutative source, as a planar broad poset.

    It is handed its letter pairs (:func:`_held`): each orders the
    letters of a pair of the input, so none is checked again.
    """
    if poset.flavour is not Flavour.COMMUTATIVE:
        raise FlavourMismatch("forget_symmetry expects a commutative broad poset")
    pairs = frozenset([(perm, target) for w, target in _relation_pairs(poset) for perm in itertools.permutations(w)])
    return _held(Flavour.PLANAR, poset.carrier, pairs)
