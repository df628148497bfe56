"""Relativistic continuum and bound states of a ring-shaped
Coulomb-plus-Poschl-Teller interaction, with scattering, spectral and
high-temperature thermodynamic observables."""

from . import angular, bound, errors, radial, special, thermo, xsec
from .angular import *
from .bound import *
from .errors import *
from .radial import *
from .special import *
from .thermo import *
from .xsec import *

__version__ = "0.1.0"

__all__ = [
    *angular.__all__,
    *bound.__all__,
    *errors.__all__,
    *radial.__all__,
    *special.__all__,
    *thermo.__all__,
    *xsec.__all__,
    "__version__",
]
