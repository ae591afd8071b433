"""Exception types shared across the package."""


class CplabError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(CplabError):
    pass


class DegenerateSpectrum(CplabError):
    """Two eigenvalues closer than the degeneracy threshold."""


class ZeroColumnSum(CplabError):
    """An eigenvector has (near-)zero entry sum; v-normalization impossible."""


class NonConvergedEigensolve(CplabError):
    pass


class NotOnLevelSet(CplabError):
    """Input point violates the moment-map constraint."""


class OffDiagonalMismatch(CplabError):
    """Resolved off-diagonal structure disagrees with i*g/(x_i - x_j)."""


class ParticleCollision(CplabError):
    """Two particle coordinates closer than the collision threshold."""

    partial = None  # trajectory prefix, when aborting a flow


class PoleAtLambda(CplabError):
    """Lax matrix evaluated at a pole of its spectral parameter."""


class Overflow(CplabError):
    partial = None  # trajectory prefix, when aborting a flow


class UnsupportedSystem(CplabError):
    pass


class NonScalarInput(CplabError):
    pass


class ConfigError(CplabError):
    pass
