"""Exception types shared across the package."""


class ClmatError(Exception):
    """Base class for every error this package raises on purpose."""


class DuplicateVertex(ClmatError):
    pass


class InvalidEnergy(ClmatError):
    pass


class UnknownVertex(ClmatError):
    pass


class SelfLoop(ClmatError):
    pass


class NonPositiveDistance(ClmatError):
    pass


class ParseError(ClmatError):
    """Structurally malformed topology input."""


class SemanticError(ClmatError):
    """Well-formed topology input that contradicts itself."""


class NoSpanningCandidate(ClmatError):
    """No candidate root reaches every node."""

    def __init__(self, message: str = "no candidate tree spans every node"):
        super().__init__(message)
