"""Value records: the base of quadrec's result, key and state types.

A record declares its fields as annotations, trailing ones with a default,
as a dataclass does.  They become its __slots__ and nothing is generated or
exec'd, which keeps `dataclasses` and the `inspect` it loads off every
command's start.  Records print as Name(field=value, ...), compare and hash
by class and field values, refuse assignment and pickle by value.
"""
import functools
from operator import attrgetter


class _DataclassView:
    """dataclasses.replace, fields and asdict read __dataclass_fields__; it
    comes from a dataclass of the same fields, built the first time one of
    them asks."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls):
        return getattr(_dataclass_twin(cls), self.name)


@functools.cache
def _dataclass_twin(cls):
    import dataclasses
    return dataclasses.make_dataclass(cls.__name__, cls._fields)


class _RecordType(type):
    """Moves a record's annotated fields into __slots__, after any extra
    slots the class body names, and their values into _defaults."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {n: ns.pop(n) for n in fields if n in ns}
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        ns["_fields"] = fields
        ns["_values"] = attrgetter(*fields) if fields else None
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordType):
    __dataclass_fields__ = _DataclassView()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # fill in keywords and defaults
            given = {**dict(zip(fields, args)), **kwargs}
            values = {**self._defaults, **given}
            if len(given) < len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}{fields} cannot take "
                                f"{len(args)} values and the keywords {sorted(kwargs)}")
            args = tuple(map(values.get, fields))
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return type(self), self._values(self)
