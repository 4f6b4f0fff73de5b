"""Exception types shared across the toolkit."""


class SpherepackError(Exception):
    """Base class for all toolkit errors."""


class NomeMismatch(SpherepackError):
    """Arithmetic attempted between series expanded in different nomes."""


class ZeroDivisionSeries(SpherepackError):
    """Division by the zero series."""


class DomainTooLow(SpherepackError):
    """Evaluation point below the Im(tau) floor, ``qseries.ETA_MIN``, or with no finite Re(tau)."""


class TruncationInsufficient(SpherepackError):
    """Series tail estimate exceeds the requested tolerance."""


class NonRealValue(SpherepackError):
    """A value expected to be real came back with too large an imaginary part."""


class TailBoundViolated(SpherepackError):
    """The contour's ray ends too early to certify its tail tolerance."""


class NonpositiveFhat0(SpherepackError):
    """Cohn-Elkies bound requested with fhat(0) <= 0."""


class InsufficientGrid(SpherepackError):
    """Verification grid does not cover the region a check requires."""


class InsufficientTable(SpherepackError):
    """Radial table too short or too coarse for the requested transform."""


class ResourceGuard(SpherepackError):
    """Request exceeds a configured enumeration cap."""


class ConfigError(SpherepackError):
    """Malformed or unknown configuration input."""
