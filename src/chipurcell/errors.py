"""Exception hierarchy shared across the package.

Three families map onto the CLI exit codes: schema problems (2), physics
precondition violations (3) and quadrature failures (4).
"""

from __future__ import annotations


class SchemaError(ValueError):
    """Scenario/configuration input is malformed or fails validation."""


class PhysicsError(ValueError):
    """A physical precondition of the requested operation is violated."""


class LosslessRequiredError(PhysicsError):
    """Operation is only defined for real (non-absorbing) media."""


class RadiusTooLargeError(PhysicsError):
    """Small-cavity asymptotics invalid: k0 * a exceeds the validity threshold."""


class PoleError(PhysicsError):
    """A closed-form denominator vanished for the given parameters."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; the message names the
    channel and its error estimate."""
