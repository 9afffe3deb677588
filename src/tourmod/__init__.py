"""tourmod: modular structure of tournaments.

Tournaments, their modules and co-modules, the co-modular and
decomposability indices, certified minimum arc-inversion sets, and
brute-force oracles that cross-check all of it.
"""

from .core import *
from .modular import *
from .comodular import *
from .inversion import *
from .oracle import *

__version__ = "0.1.0"
