"""Exception types shared across the simulation modules.

Validation mistakes (bad photon counts, dimension mismatches, malformed
grids) raise plain ``ValueError``; the classes below mark conditions that
arise *during* a structurally valid computation; the command-line runner
reports any of them as a failed run (exit code 2) with its message.  A
small post-selection weight is none of them: log I and P stay exact.
"""


class SimulationError(Exception):
    """Base class for runtime failures of the physics computations."""


class PoleProximityError(SimulationError):
    """The factored propagator was evaluated where w(z) is exactly 0, at a pole.

    The product form of the evolution operator is singular where w(z)
    vanishes (only below the loss threshold); near a zero its column bounds
    grow as 1/|w| and raise ``PrecisionError`` instead, so this error
    carries only z.  The operator itself is entire in z:
    ``evolution_operator`` evaluates it without the factors.
    """

    def __init__(self, z: float):
        super().__init__(
            f"factored propagator is singular at z={z!r}: w(z) = 0; "
            f"use evolution_operator at this z"
        )
        self.z = z


class EigensolverError(SimulationError):
    """The dense nonsymmetric eigensolver failed to converge."""


class OverflowGuardError(SimulationError):
    """A propagator or state evaluation left double-precision range.

    Raised instead of returning any non-finite number.
    """


class PrecisionError(SimulationError):
    """A state update or operator column could not be certified to the engine's error limit.

    Raised, naming z, when neither the SVD form's estimate nor the Horner
    bound meets the limit, when the bound of a column of
    ``evolution_operator`` or ``assemble_propagator`` exceeds it, or when log I
    leaves [ln ||a||^2 - 2 N Gamma z, ln ||a||^2], the decay law of loss in
    guide b alone (a point, unitarity, where Gamma z = 0).
    """

    def __init__(self, z: float, reason: str):
        super().__init__(f"state update at z={z!r} is not accurate: {reason}")
        self.z = z
