"""Pickling of the frozen dataclasses that hold read-only arrays."""

from dataclasses import fields
from types import MappingProxyType


def reduce_by_constructor(obj):
    """``__reduce__`` that rebuilds a frozen dataclass through its constructor.

    numpy does not pickle an array's read-only flag, and plain unpickling
    skips ``__post_init__``, so a copy restored field by field would hold
    writable arrays that no check has seen. The constructor checks the
    fields and freezes them again. A read-only mapping, which does not
    pickle, is passed on as a dict.
    """
    values = (getattr(obj, f.name) for f in fields(obj))
    return type(obj), tuple(
        dict(v) if isinstance(v, MappingProxyType) else v for v in values)
