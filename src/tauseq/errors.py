"""Exception hierarchy.

Diagnostics marked "internal consistency" signal that a structural fact the
engine relies on failed to hold at runtime; they indicate a bug (or an input
outside the supported class), never a normal error path.
"""


class TauSeqError(Exception):
    """Base class for all errors raised by this package."""


# --- algebra construction ---

class InfiniteDimensional(TauSeqError):
    """The bound quiver algebra has an unbounded family of nonzero paths."""


class MalformedRelation(TauSeqError):
    """A relation is not a composable path of length at least two."""


class UnknownVertex(TauSeqError):
    pass


class MalformedQuiver(TauSeqError):
    """Two vertices share an id, or two arrows share a name."""


class AlgebraMismatch(TauSeqError):
    """Modules over different algebras were mixed in one operation."""


# --- module arithmetic ---

class IdempotentSplitFailure(TauSeqError):
    """Direct sum decomposition could not be decided exactly.

    Should not occur over the supported fields at desk scale; treated as a
    bug signal rather than a soft failure.
    """


# --- enumeration ---

class BoundTooSmall(TauSeqError):
    """The dimension cap does not name one bound per vertex, or does not
    even contain the projectives."""


class NotCertifiablyComplete(TauSeqError):
    """Indecomposable enumeration did not stabilize under the cap."""


# --- torsion / wide layer ---

class NotTauRigid(TauSeqError):
    pass


class RankMismatch(TauSeqError):
    """Computed count of relative projectives disagrees with the rank formula."""


class NotInW(TauSeqError):
    """A module was used relative to a wide subcategory it does not lie in."""


class Incompatible(TauSeqError):
    """The pair T + X is not support tau-rigid."""


class NoUniqueMatch(TauSeqError):
    """Internal consistency: the shifted-case matching rule was not unique."""


class NoPreimage(TauSeqError):
    """Internal consistency: bijectivity violation, no preimage found."""


class MultiplePreimages(TauSeqError):
    """Internal consistency: bijectivity violation, several preimages found."""


# --- sequences and mutation ---

class NotTFOrdered(TauSeqError):
    pass


class NotAPair(TauSeqError):
    pass


class UnknownMutation(TauSeqError):
    """A mutation was asked for by a name other than "phi" or "psi"."""


class IrregularAmbiguity(TauSeqError):
    """Leftover matching for an irregular mutation found != 1 candidate."""


class IndexOutOfRange(TauSeqError):
    pass


class OrbitExhausted(TauSeqError):
    """Transposition search hit its bound without finding the target."""


class NoStrictIncrease(TauSeqError):
    """Internal consistency: a normalization step did not grow the torsion class."""


class DifferentJ(TauSeqError):
    """The two sequences do not determine the same wide subcategory."""


class Mismatch(TauSeqError):
    """Internal consistency: two routes to the same object disagree."""


class InconclusiveTest(TauSeqError):
    """An oracle cannot decide because its hypothesis fails on the input."""
