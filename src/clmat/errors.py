"""Exception types shared across the package. ParseError and SemanticError
are bad data (the CLI's exit 2) and NoSpanningCandidate a network no tree
spans (exit 3); a bad setting is a ValueError (exit 1)."""


class ClmatError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(ClmatError):
    """Structurally malformed topology input."""


class SemanticError(ClmatError):
    """Well-formed input that contradicts itself, or any write or lookup a graph rejects."""


class NoSpanningCandidate(ClmatError):
    """No candidate root reaches every node."""

    def __init__(self, message: str = "no candidate tree spans every node"):
        super().__init__(message)
