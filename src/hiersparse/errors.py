"""Exception types raised across the fitting and prediction pipeline."""


class DegenerateGeometryError(ValueError):
    """All input points coincide, so no pairwise-distance scale exists."""


class IllConditionedScaleError(ArithmeticError):
    """Penalized normal equations are singular to working precision."""


class DegenerateGCVError(ArithmeticError):
    """tr(I - U) vanished, so the GCV score is undefined (unpenalized
    full-rank interpolation); exclude the zero-penalty point from search."""


class FitError(RuntimeError):
    """No scale in the sweep produced a usable fit."""


class DegenerateDofError(ArithmeticError):
    """No noise variance: residual dof <= 0, or the RSS overflows; intervals suppressed."""


class CSVParseError(ValueError):
    """Malformed input file; message names the offending row/column."""
