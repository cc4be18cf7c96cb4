"""Bound states, degeneracy bookkeeping and coherent states of the 2D Morse well."""

import os as _os

# Cap BLAS/OpenMP pools before numpy loads its backend.  Explicit
# user-set values for the individual variables still win.
_cap = _os.environ.get("MORSEKIT_THREADS")
if _cap:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _cap)

# The public names are each module's own __all__, re-exported here.
from . import coherent, errors, specfun, spectrum, states
from .errors import *
from .specfun import *
from .spectrum import *
from .states import *
from .coherent import *

__version__ = "0.1.0"

__all__ = [
    *(name for module in (errors, specfun, spectrum, states, coherent) for name in module.__all__),
    "__version__",
]
