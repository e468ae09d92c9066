"""Joint record states of quantum measurement event pairs.

Build the density matrix carried by a pair of measurement records, witness
whether the two events were causally ordered or independent, predict one
record from the other, and check Bell-type bounds on families of settings.

The package re-exports every name in each module's ``__all__``; each module
declares its own public names once.  Besides the builders, witnesses and
file I/O, that makes these helpers public at package level:
``DensityCheck``, ``as_operator``, ``as_ket``, ``projector``,
``assert_density``, ``is_unitary``, ``assert_unitary``,
``exponential_tail_mass``, ``branching_amplitude``, ``check_buildable``,
``VERDICT_SIGNATURE``, ``VERDICT_CLEAR``, ``schema`` and ``load_json_file``.
"""

from . import policy, quantum_core, timing, event_states, witnesses, inference, bell, scenario, serialize
from .policy import *
from .quantum_core import *
from .timing import *
from .event_states import *
from .witnesses import *
from .inference import *
from .bell import *
from .scenario import *
from .serialize import *

__version__ = "0.1.0"

__all__ = [
    *policy.__all__,
    *quantum_core.__all__,
    *timing.__all__,
    *event_states.__all__,
    *witnesses.__all__,
    *inference.__all__,
    *bell.__all__,
    *scenario.__all__,
    *serialize.__all__,
    "__version__",
]
