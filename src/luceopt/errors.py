"""Exception types raised across the library.

All errors derive from :class:`LuceOptError` so callers can catch the
library's failures with a single except clause.  Input problems (bad ids,
cycles, malformed JSON) are distinct from size guards and solver
preconditions, which the CLI maps to different exit codes.
"""


class LuceOptError(Exception):
    """Base class for all library errors."""


class IdOutOfRange(LuceOptError):
    """A dominance edge references a product id outside 1..n."""


class CycleError(LuceOptError):
    """The transitive closure of the input relation is not a strict partial
    order (it contains a cycle or an antisymmetry violation)."""


class NonPositiveInput(LuceOptError):
    """A quantity that must be positive (attractiveness, threshold) or
    non-negative (revenue, outside option) is out of range or not finite."""


class SchemaError(LuceOptError):
    """A JSON document does not match the instance schema."""


class WeightOrderError(LuceOptError):
    """General attraction model weights violate 0 <= w_j <= v_j."""


class TooLarge(LuceOptError):
    """An enumeration guard was exceeded (brute force / oracle size caps)."""


class ProblemTooLarge(LuceOptError):
    """No exact method is available at this instance size; the capacitated
    problem is NP-hard in general, so no heuristic is silently substituted."""


class NotATree(LuceOptError):
    """The transitive reduction of the dominance relation is not a forest."""


class NotAttractivenessCorrelated(LuceOptError):
    """The instance fails the attractiveness-correlation conditions."""


class NegativeArgument(LuceOptError):
    """Lambert W was called outside the non-negative principal domain."""


class ZeroOutsideOption(LuceOptError):
    """Pricing routines require a strictly positive outside-option
    attractiveness."""


class NoFeasibleCandidate(LuceOptError):
    """No boundary-group candidate passed the feasibility checks for a fixed
    assortment size."""


class BadGroupSizes(LuceOptError):
    """Boundary group sizes must satisfy k1 >= 1, k2 >= 1, k1 + k2 <= k."""
