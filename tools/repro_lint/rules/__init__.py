"""Rule plugins: importing this package registers every built-in checker.

Each module owns exactly one rule id (the module name matches the rule's
theme, the class docstring carries the full rationale).  Import order is
registration order, which is only cosmetic — findings are sorted by
location before reporting.
"""

from . import determinism
from . import numeric
from . import dtype
from . import threads
from . import registry
from . import exports
from . import api
from . import obs

__all__ = [
    "api",
    "determinism",
    "dtype",
    "exports",
    "numeric",
    "obs",
    "registry",
    "threads",
]
