"""Exception hierarchy shared by all robinopt modules."""


class RobinoptError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(RobinoptError):
    """Invalid domain parameters or a broken mesh invariant."""


class MeshResourceError(RobinoptError):
    """Mesh generation exceeded its refinement budget (node or layer cap)."""


class SpectralRangeError(RobinoptError):
    """A shift parameter sits at or above the admissible spectral range."""


class SolverError(RobinoptError):
    """A linear or eigenvalue solve failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ResolutionCapError(RobinoptError):
    """Requested constraint value needs a finer boundary layer than the mesh has.

    ``admissible_mu`` reports the most negative constraint value the current
    mesh can resolve.
    """

    def __init__(self, message, admissible_mu=None):
        super().__init__(message)
        self.admissible_mu = admissible_mu


class UsageError(RobinoptError):
    """Malformed user input on the command line."""


class BoundaryLayerWarning(UserWarning):
    """The mesh boundary spacing is too coarse for the requested shift."""
