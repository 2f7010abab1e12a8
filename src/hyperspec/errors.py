"""Exception hierarchy shared by all hyperspec modules.

Every domain failure raises a subclass of :class:`HypergraphError`, so CLI
and test code can catch one base type and still branch on the concrete kind.
"""

from __future__ import annotations


class HypergraphError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameterError(HypergraphError, ValueError):
    """A parameter is missing or outside its valid range. Also a
    ValueError, so callers may catch either."""


# ---------------------------------------------------------------- core


class OutOfRangeVertexError(HypergraphError):
    """An edge refers to a vertex index outside [0, num_vertices)."""


class DuplicateEdgeError(HypergraphError):
    """The same vertex set appears twice in an edge list."""


class EmptyEdgeError(HypergraphError):
    """An edge with no vertices was supplied."""


class EmptyHypergraphError(HypergraphError):
    """The operation needs at least one edge."""


class TooFewEdgesError(HypergraphError):
    """The operation needs more edges than the input provides."""


class EmptySetError(HypergraphError):
    """An edge-index set that must be nonempty is empty."""


class OverlappingSetsError(HypergraphError):
    """Two edge-index sets that must be disjoint overlap."""


class ParseError(HypergraphError):
    """Malformed ``.hg`` text. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ------------------------------------------------------- constructions


class SizeCapExceededError(HypergraphError):
    """A construction would exceed the configured edge-count cap."""


class TooManyEdgesRequestedError(HypergraphError):
    """More distinct edges were requested than the ground set allows."""


class NonUniformError(HypergraphError):
    """A uniform hypergraph was required but edge sizes differ."""


# ------------------------------------------------------------ coloring


class LengthMismatchError(HypergraphError):
    """A coloring's length does not match the vertex count."""


class NotIntersectingError(HypergraphError):
    """An intersecting hypergraph was required."""


class CompositionWitnessError(HypergraphError):
    """The composition-based monochromatic-edge finder found no forced edge;
    the inputs are not a composition of non-2-colorable factors."""


# -------------------------------------------------------------- lemmas


class MismatchedVertexCountError(HypergraphError):
    """Two hypergraphs that must share a vertex set have different sizes."""


class MismatchedEdgeCountError(HypergraphError):
    """Two hypergraphs that must have equally many edges do not."""


class WitnessViolationError(HypergraphError):
    """A claimed exclusive-common vertex set fails its membership contract."""


class SizeMismatchError(HypergraphError):
    """Two edge collections that must have equal size do not."""


class StepOutOfRangeError(HypergraphError):
    """A growth step count is negative or exceeds the remaining room."""


class NoDisjointEdgeError(HypergraphError):
    """Every edge meets the current vertex set; the implied proper 2-coloring
    is attached as a witness."""

    def __init__(self, subset: frozenset[int], witness_coloring: tuple[int, ...]):
        super().__init__(
            f"no edge is disjoint from {sorted(subset)}; "
            "a proper 2-coloring witness is attached"
        )
        self.subset = subset
        self.witness_coloring = witness_coloring


# ---------------------------------------------------------- extraction


class HypothesesViolatedError(HypergraphError):
    """The quantitative hypotheses of a probabilistic lemma do not hold."""


class PoolExhaustedError(HypergraphError):
    """The majority-filter pool emptied before enough pulls shared a color."""


class NoQualifyingSubsetError(HypergraphError):
    """No candidate edge subset met the pair-extraction conditions."""


class WidthTooLargeError(HypergraphError):
    """A requested subset width exceeds the anchor edge size."""
