"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class DendroError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(DendroError, ValueError):
    """An argument the function does not accept; also a ValueError."""


class IdentifierError(DendroError):
    """An element identifier is missing from the relevant carrier."""


class FlavourMismatch(DendroError):
    """Commutative and planar values were mixed in one operation."""


class ClosureOverflow(DendroError):
    """A generated relation is infinite, through a cycle of generators
    with a word of two or more letters, or has a word longer than the
    configured bound."""


class CollapseError(DendroError):
    """A pushout identified more elements than the underlying set pushout."""


class BudgetExceeded(DendroError):
    """An enumeration would exceed its configured work budget."""


class NotDendroidal(DendroError):
    """The broad poset does not satisfy the tree axioms."""


class NoParent(DendroError):
    """The root has no parent edge."""


class NotALeaf(DendroError):
    """Grafting was attempted at an edge that is not a leaf."""


class NotInnerEdge(DendroError):
    """The edge is the root or a leaf, so it cannot be contracted."""


class NotOuterCluster(DendroError):
    """The vertex has a non-leaf child, so it cannot be pruned."""


class NoRootFace(DendroError):
    """The root vertex cannot be removed towards the given branch."""


class NotUnaryVertex(DendroError):
    """Degeneracies only collapse vertices with exactly one child."""


class NotMaximal(DendroError):
    """The subtree does not have degree one less than the ambient tree."""


class NotMonotone(DendroError):
    """The assignment fails to preserve the broad relation."""


class DomainMismatch(DendroError):
    """Composition of maps whose endpoints do not agree."""


class GraftUndefined(DendroError):
    """The grafting required by this operation is not defined."""


class ParseError(DendroError):
    """Invalid input: tree term syntax, a map literal, or serialized JSON
    that lacks a key or holds a value of the wrong kind."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class DuplicateEdge(DendroError):
    """A tree term repeats an edge identifier."""


class FactorizationError(DendroError):
    """No valid decomposition step could be found."""


class FrozenInstanceError(AttributeError):
    """An attribute of an immutable value was assigned or deleted; also an
    AttributeError."""
