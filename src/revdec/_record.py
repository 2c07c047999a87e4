"""Frozen value records: the part of ``dataclasses`` that revdec uses.

``@record`` makes a class whose body annotates its fields an immutable
value type.  The fields are the class's own annotations, in order, and a
class attribute of the same name is that field's default.  The decorator
returns a new class made from the body with ``__slots__``: one per field,
plus ``__dict__`` (which ``functools.cached_property`` writes to) and
``__weakref__``.  The class gains an ``__init__`` that takes the fields by
position or keyword, stores each through its slot's descriptor and then
calls ``__post_init__`` if the class defines one; ``__eq__`` (same class
only) and ``__hash__`` over the tuple of field values; a
``Name(field=value!r, ...)`` ``__repr__``; ``__match_args__``;
``__setattr__``/``__delattr__`` that refuse every change; and a
``__reduce__`` that rebuilds an instance from its field values, so
``copy`` and ``pickle`` call the class (and its checks) again and leave
cached properties behind.  ``object.__setattr__`` still stores a value, so
``__post_init__`` can coerce a field.

A class that defines ``__new__`` gets no ``__init__``: its ``__new__``
checks the fields and makes or picks the instance itself, so a closed set
of values can hand out one shared instance per value.

The class method ``_trusted(*fields)`` stores the fields as given in a new
instance and skips the checks, so nothing is checked or coerced.  Only code
that has just proved what the checks would, for values already in their
stored form, may call it; its copies still run the checks.

Only ``__init__`` and ``_trusted`` are generated source.  ``__init__``
compiles with its class; ``_trusted`` compiles on its first use, since
few classes need it and each compile costs about as much as the rest of
the decorator.  Importing ``dataclasses`` would load ``inspect``, ``ast``
and ``dis``, and it compiles every generated method separately.
"""

from operator import attrgetter


class _Trusted:
    """A record class's ``_trusted`` until its first use, which compiles it
    and puts it on the class in place of this descriptor."""

    def __init__(self, cls: type, source: str, namespace: dict) -> None:
        self.cls, self.source, self.namespace = cls, source, namespace

    def __get__(self, instance: object, owner: type):
        exec(self.source, self.namespace)
        function = self.namespace["_trusted"]
        function.__qualname__ = f"{self.cls.__qualname__}._trusted"
        setattr(self.cls, "_trusted", classmethod(function))
        return function.__get__(owner)


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields (see above)."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    # A slot cannot share its name with a class attribute, so the defaults
    # leave the body and live in the generated __init__'s signature.
    body = {k: v for k, v in cls.__dict__.items()
            if k not in defaults and k not in ("__dict__", "__weakref__")}
    body["__slots__"] = (*names, "__dict__", "__weakref__")
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    cls.__qualname__ = qualname

    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    stores = "".join(f"\n _set{i}(self, {n})" for i, n in enumerate(names))
    check = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    namespace = {f"_set{i}": cls.__dict__[n].__set__ for i, n in enumerate(names)}
    namespace.update(_defaults=defaults, _new=object.__new__)
    cls._trusted = _Trusted(cls, f"def _trusted(cls, {params}):\n self = _new(cls){stores}\n"
                                 " return self", namespace)
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

    def __reduce__(self):
        return self.__class__, values(self)

    methods = (__eq__, __hash__, __repr__, __setattr__, __delattr__, __reduce__)
    if "__new__" not in body:  # a class that defines __new__ makes its instances there
        exec(f"def __init__(self, {params}):{stores}{check}", namespace)
        methods += (namespace["__init__"],)
    for method in methods:
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
