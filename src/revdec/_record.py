"""Frozen value records: the part of ``dataclasses`` that revdec uses.

``@record`` makes a class whose body annotates its fields an immutable
value type.  The fields are the class's own annotations, in order, and a
class attribute of the same name is that field's default.  The class gains
an ``__init__`` that takes the fields by position or keyword and then calls
``__post_init__`` if the class defines one; ``__eq__`` (same class only)
and ``__hash__`` over the tuple of field values; a ``Name(field=value!r,
...)`` ``__repr__``; ``__match_args__``; and ``__setattr__``/``__delattr__``
that refuse every change.  ``object.__setattr__`` still stores a value, so
``__post_init__`` can coerce a field.  Instances keep a ``__dict__``, which
``functools.cached_property``, ``copy`` and ``pickle`` use.

Only ``__init__`` is generated source, compiled once per class.  Importing
``dataclasses`` would load ``inspect``, ``ast`` and ``dis``, and it compiles
every generated method separately.
"""

from operator import attrgetter


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields (see above)."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names)
    body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n self.__post_init__()"
    namespace = {"_cls": cls, "_set": object.__setattr__}
    exec(f"def __init__(self, {params}):{body}", namespace)
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = (__eq__, __hash__, __repr__, __setattr__, __delattr__)
    for method in (namespace["__init__"], *methods):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
