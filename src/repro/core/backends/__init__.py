"""Built-in execution backends.

Importing this package registers the ``event`` backend with
:mod:`repro.core.backend`'s registry (``reference`` registers itself when
the interface module loads).
"""

from __future__ import annotations

from ..backend import register_backend
from .events import EventBackend

__all__ = ["EventBackend"]

register_backend(EventBackend())
