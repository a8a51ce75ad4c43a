"""Typed failures raised by planners, charts and lifting oracles.

Everything derives from ValueError or RuntimeError so that generic
callers can still catch broadly; the concrete classes exist because
tests and the CLI dispatch on them.
"""

from __future__ import annotations


class ZeroVector(ValueError):
    """Normalization of a (numerically) zero vector was requested."""


class DomainError(ValueError):
    """Path evaluated outside [0, 1] beyond tolerance."""


class AtPole(ValueError):
    """Stereographic chart or chart planner hit the north pole."""


class OddAmbientDim(ValueError):
    """The rotating tangent field needs an even number of coordinates."""


class EvenAmbientDim(ValueError):
    """The skew tangent field needs an odd number of coordinates."""


class BadMargin(ValueError):
    """Planner margin outside the supported (0, 0.1] range."""


class GermFileError(ValueError):
    """A germ file is missing, unreadable or not valid JSON."""


class AntipodalPair(ValueError):
    """Segment planner asked to join (nearly) antipodal points."""


class EqualPair(ValueError):
    """Detour planner asked to join (nearly) equal points."""


class PoleOfField(ValueError):
    """Detour planner asked to pivot where its tangent field vanishes."""


class Uncovered(RuntimeError):
    """No region of the planner accepts the query at the current margin."""


class LiftFailure(RuntimeError):
    """Numeric path lifting could not be completed or certified.

    t_star is the base-path parameter at which tracking gave up.
    """

    def __init__(self, t_star: float, message: str = ""):
        self.t_star = float(t_star)
        super().__init__(message or f"lift failed near t = {self.t_star:.6g}")


class TooFewPoints(RuntimeError):
    """Fiber/link sampler converged on fewer points than required."""


class AmbiguousAssignment(RuntimeError):
    """Monodromy endpoint could not be attached to a unique component."""


class WrongCodomain(ValueError):
    """Operation requires a plane-valued map (two real target dims)."""
