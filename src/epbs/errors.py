"""Exception types shared across the simulation modules.

Validation mistakes (bad photon counts, dimension mismatches, malformed
grids) raise plain ``ValueError``; the classes below mark conditions that
arise *during* a structurally valid computation; the command-line runner
reports any of them as a failed run (exit code 2) with its message.
"""


class SimulationError(Exception):
    """Base class for runtime failures of the physics computations."""


class PoleProximityError(SimulationError):
    """Evaluation requested too close to a pole of the factored propagator.

    The product form of the evolution operator is singular where the
    auxiliary function w(z) vanishes (only possible below the loss
    threshold).  The evolution operator itself is entire in z and
    ``evolution_operator`` evaluates it there without the factorization.
    """

    def __init__(self, z: float, w_abs: float, threshold: float):
        super().__init__(
            f"factored propagator is singular near z={z!r}: |w(z)|={w_abs:.3e} "
            f"< {threshold:.1e}; use evolution_operator at this z"
        )
        self.z = z
        self.w_abs = w_abs
        self.threshold = threshold


class RiccatiBlowupError(SimulationError):
    """The f+ Riccati equation blew up inside the requested z range."""

    def __init__(self, z_blowup: float, z_requested: float):
        super().__init__(
            f"f+ diverges near z={z_blowup:.6g} (first factorization pole); "
            f"cannot integrate the coefficient functions out to z={z_requested:.6g}"
        )
        self.z_blowup = z_blowup
        self.z_requested = z_requested


class EigensolverError(SimulationError):
    """The dense nonsymmetric eigensolver failed to converge."""


class IntensityUnderflowError(SimulationError):
    """Post-selection weight fell below the representable floor.

    Normalized occupations are a 0/0 at this point; the log-intensity of the
    trace remains finite and is the quantity to work with instead.
    """

    def __init__(self, z: float, log_intensity: float):
        super().__init__(
            f"post-selection intensity underflows at z={z!r} "
            f"(log I = {log_intensity:.1f} < log 1e-300); occupations undefined"
        )
        self.z = z
        self.log_intensity = log_intensity


class OverflowGuardError(SimulationError):
    """A propagator or state evaluation left double-precision range.

    Raised instead of returning any non-finite number.
    """
