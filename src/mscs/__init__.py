"""Analysis toolkit for multistate coherent systems.

Structure functions over components with graded performance levels:
evaluation and a small composition DSL, exhaustive verification of the
coherence conditions and the classical deterministic theorems, exact and
product-form system performance distributions under independence with
validated bounds, and a series-pipeline case study with a reproducible
parameter sweep.

Each public name is listed once, in the ``__all__`` of the module that
defines it; this package republishes those lists as its own.
"""

from . import coherence, core, enumeration, errors, pipeline, probability, structure
from .coherence import *
from .core import *
from .enumeration import *
from .errors import *
from .pipeline import *
from .probability import *
from .structure import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *coherence.__all__,
    *enumeration.__all__,
    *errors.__all__,
    *pipeline.__all__,
    *probability.__all__,
    *structure.__all__,
]
