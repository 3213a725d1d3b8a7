"""incomefit: fit gamma / log-normal families and their two-component
mixtures to binned income data, on PDF or CCDF targets, scored with R^2."""

__version__ = "0.1.0"

from .empirical import (
    EmpiricalCurve,
    IncomeHistogram,
    load_histogram,
    rebin,
    save_histogram,
    subtract,
    to_ccdf_curve,
    to_pdf_curve,
)
from .fitter import FitConfig, FitResult, fit, initialize, r_squared, refit_nested
from .models import (
    ModelSpec,
    bigamma_model,
    bilognormal_model,
    ccdf,
    cdf,
    gamma_model,
    lognormal_model,
    pdf,
)

__all__ = [
    "__version__",
    "EmpiricalCurve",
    "IncomeHistogram",
    "load_histogram",
    "save_histogram",
    "to_pdf_curve",
    "to_ccdf_curve",
    "subtract",
    "rebin",
    "FitConfig",
    "FitResult",
    "fit",
    "initialize",
    "refit_nested",
    "r_squared",
    "ModelSpec",
    "gamma_model",
    "lognormal_model",
    "bigamma_model",
    "bilognormal_model",
    "pdf",
    "cdf",
    "ccdf",
]
