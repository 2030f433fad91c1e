"""Student-t quantiles for the two-sided prediction intervals."""
from __future__ import annotations


def t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF: t with P(T <= t) = p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not df > 0:  # NaN too; inf, the normal limit, passes
        raise ValueError("df must be positive")
    # imported on first use: at module level scipy.special adds 0.04-0.07 s
    # to a 0.29-0.42 s `import hiersparse.cli` (CPython 3.11, scipy 1.17, one
    # 2-vCPU machine), and mean-only predictions and fits never need it
    from scipy.special import stdtrit

    return float(stdtrit(df, p))
