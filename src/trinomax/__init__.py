"""Maximum-modulus analysis of trigonometric trinomials.

Canonical reduction of a three-frequency trigonometric polynomial, location
and classification of its maximum-modulus points, exposed/extreme point
classification of the unit ball, phase sweeps, Sidon and multiplier
constants, hypotrochoid geometry, and an independent brute-force oracle.

The public names are those of each module's ``__all__``, re-exported here.
"""

__version__ = "0.1.0"

from . import constants, extremal, geometry, maxmod, oracle, phasecurves, spectrum
from .constants import *  # noqa: F403
from .extremal import *  # noqa: F403
from .geometry import *  # noqa: F403
from .maxmod import *  # noqa: F403
from .oracle import *  # noqa: F403
from .phasecurves import *  # noqa: F403
from .spectrum import *  # noqa: F403

_MODULES = (constants, extremal, geometry, maxmod, oracle, phasecurves, spectrum)
__all__ = sorted({name for module in _MODULES for name in module.__all__})
