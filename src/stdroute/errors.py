"""Exception hierarchy shared across the package."""


class StdRouteError(Exception):
    """Base class for all errors raised by this package."""


class NetworkFormatError(StdRouteError):
    """The network or observation document could not be parsed."""


class ValidationError(StdRouteError):
    """A structural invariant of the input data is violated."""


class PoiConsistencyError(ValidationError):
    """Scenarios inside one knowledge state disagree on a realized travel time.

    Only states constructed outside the canonical knowledge partition can
    trigger this; it signals a malformed state, not a model failure.
    """


class HorizonError(StdRouteError):
    """A cycle of links is reachable, so a trajectory may run past any trip horizon."""


class UnreachableDestinationError(StdRouteError):
    """A reachable state has no way forward to the destination."""


class PolicyExplosionError(StdRouteError):
    """Enumeration would exceed the configured cap."""


class EstimationError(StdRouteError):
    """Likelihood evaluation or fitting failed; the message names the offending observation."""
