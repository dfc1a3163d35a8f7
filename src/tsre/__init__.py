"""Causal-effect estimation from many weak genetic instruments.

The core estimator regresses pairwise phenotype cross-products on genetic
relatedness and reports the slope ratio; the package also ships the classic
summary-statistics estimators (IVW, Egger, medians), two-stage least
squares, a simulation engine with closed-form bias/variance oracles, and a
Monte-Carlo replication harness with a command line front end.

The public API is the `__all__` of each module re-exported below.
"""

from . import engine, errors, estimators, genotype, harness, simulate, sumstats, theory
from .engine import *
from .errors import *
from .estimators import *
from .genotype import *
from .harness import *
from .simulate import *
from .sumstats import *
from .theory import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *genotype.__all__, *simulate.__all__, *sumstats.__all__,
    *estimators.__all__, *engine.__all__, *theory.__all__, *harness.__all__,
    "__version__",
]
