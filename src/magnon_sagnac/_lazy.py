"""numpy bound at import but executed on first use.

The modules that compute on arrays call numpy only inside functions, so
they bind it through :func:`lazy_import` and the commands that never
touch an array (``isolate``, ``steady``, ``fizeau``, ``validate``) start
without loading it.

On older Pythons (3.11 included) the lazy load takes no lock, so the
first use must not race another thread; ``sweep`` calls numpy before it
starts its pool.
"""

from __future__ import annotations

import importlib.util
import sys
import types


class _Missing(types.ModuleType):
    """Stands in for a module that cannot be imported; any use raises."""

    def __getattr__(self, attr):
        raise ModuleNotFoundError(f"No module named {self.__name__!r}",
                                  name=self.__name__)


def lazy_import(name: str) -> types.ModuleType:
    """Module ``name``, executed on its first attribute access.

    An imported module comes back as it is.  A missing one (not installed,
    or blocked by ``sys.modules[name] = None``) comes back as a stand-in
    that raises ``ModuleNotFoundError`` on first use, so only the commands
    that need it fail.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Missing(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
