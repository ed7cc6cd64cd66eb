"""Exception hierarchy shared across the package.

Verification failures are *not* exceptions: verifiers return certificates.
Exceptions are reserved for violated preconditions, malformed inputs, and
resource guards.
"""


class SrgforgeError(Exception):
    """Base class for all package errors."""


class NotPrime(SrgforgeError):
    """Field characteristic is not prime."""


class TooLarge(SrgforgeError):
    """Input exceeds a hard resource guard (field size, vertex count)."""


class ParseError(SrgforgeError):
    """Malformed text input; carries a line number when available."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ShapeError(SrgforgeError):
    """Structurally inconsistent design/quasigroup/family data in a file."""


class ShapeMismatch(SrgforgeError):
    """Construction ingredients disagree on dimensions (m, q, point counts)."""


class PreconditionFailed(SrgforgeError):
    """A construction hypothesis does not hold for the supplied ingredients."""


class NotAClique(SrgforgeError):
    """Vertex set passed as a clique contains a non-edge."""


class NotRegularClique(SrgforgeError):
    """Clique attachment counts differ between two outside vertices."""


class NotSrg(SrgforgeError):
    """Operation requires a strongly regular input graph."""


class InfeasibleParams(SrgforgeError):
    """SRG parameters, or a DDG's traces, fail a feasibility condition."""


class NotAnnihilated(SrgforgeError):
    """Candidate eigenvalue set does not annihilate the adjacency matrix."""


class NonIntegralBound(SrgforgeError):
    """Clique bound 1 - k/s is not an integer; census undefined."""


class CensusTooLarge(TooLarge):
    """Clique census refused: instance exceeds the enumeration guard."""
