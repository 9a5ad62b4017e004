"""Exception types shared across the package."""


class FsxError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(FsxError):
    pass


class InvalidExponent(FsxError):
    pass


class AliasingRisk(FsxError):
    """Sample grid too coarse for the requested bandlimit."""


class BandlimitExceeded(FsxError):
    pass


class HomogeneousDCViolation(FsxError):
    """An operator undefined at frequency zero met non-negligible DC content."""


class SpectrumHit(FsxError):
    """Resolvent shift coincides with an occupied Laplacian eigenvalue."""


class IndexOutOfRange(FsxError):
    pass


class LatticeTooSmall(FsxError):
    pass


class NotHilbertCouple(FsxError):
    pass


class ZeroField(FsxError):
    pass


class IllConditioned(FsxError):
    pass


class DimensionTooSmall(FsxError):
    pass


class UnknownSuite(FsxError):
    pass


class ConfigError(FsxError):
    pass


class IoError(FsxError):
    pass
