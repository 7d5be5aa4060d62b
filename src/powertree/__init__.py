"""Decision-tree dynamic power modeling with a bit-exact hardware-monitor
simulator and multi-phase regulator phase shedding.

The package republishes each module's ``__all__``."""

from .workload import *
from .model import *
from .selection import *
from .tuning import *
from .hwsim import *
from .pdn import *

__version__ = "0.1.0"
