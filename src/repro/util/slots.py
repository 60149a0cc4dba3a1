"""Generated constructors for frozen slotted records.

The ``__init__`` that ``@dataclass(frozen=True, slots=True)`` writes
stores each field with ``object.__setattr__(self, name, value)``, the
only way past the class's own frozen ``__setattr__``.  Each such call
looks the name up again through the generic attribute machinery, and
the records built once per hop or per trace (``QuotedLse``,
``TraceHop``, ``Trace``, ``DetectedSegment`` ...) pay it for every
field of every object.

:func:`slot_init` replaces that ``__init__`` with one that stores each
field straight through its slot's member descriptor (``__set__``):
the same parameter names, order and defaults, and the same
``__post_init__`` call.  Everything else the dataclass generated stays:
assignment after construction still raises
:class:`dataclasses.FrozenInstanceError`, and ``__eq__``, ``__hash__``,
``__repr__`` and any ``__reduce__`` the class defines are untouched.
"""

from __future__ import annotations

import dataclasses
import inspect
import types
from typing import TypeVar

_C = TypeVar("_C", bound=type)


def slot_init(cls: _C) -> _C:
    """Class decorator: an ``__init__`` that stores through the slots.

    Place it above ``@dataclass(frozen=True, slots=True)``.  Raises
    :class:`TypeError` when the class is created if a field needs what
    the generated constructor does not do: a ``default_factory``,
    ``init=False``, ``kw_only`` or an ``InitVar``, or a field that is
    not stored in a slot.
    """
    fields = dataclasses.fields(cls)
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
            raise TypeError(f"{cls.__qualname__}.{f.name}: default_factory")
        if not f.init:
            raise TypeError(f"{cls.__qualname__}.{f.name}: init=False")
        if f.kw_only:
            raise TypeError(f"{cls.__qualname__}.{f.name}: kw_only")
    names = [f.name for f in fields]
    generated = cls.__init__
    if list(inspect.signature(generated).parameters)[1:] != names:
        # the dataclass constructor takes a parameter that is no field
        raise TypeError(f"{cls.__qualname__}: InitVar parameters")

    namespace: dict[str, object] = {}
    params = ["self"]
    body = []
    for i, f in enumerate(fields):
        descriptor = inspect.getattr_static(cls, f.name, None)
        if not isinstance(descriptor, types.MemberDescriptorType):
            raise TypeError(
                f"{cls.__qualname__}.{f.name} is not stored in a slot"
            )
        namespace[f"__slot_set_{i}"] = descriptor.__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            namespace[f"__slot_default_{i}"] = f.default
            params.append(f"{f.name}=__slot_default_{i}")
        body.append(f"    __slot_set_{i}(self, {f.name})\n")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    exec(f"def __init__({', '.join(params)}):\n{''.join(body)}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = dict(generated.__annotations__)
    cls.__init__ = init
    return cls
