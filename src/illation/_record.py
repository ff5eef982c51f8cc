"""Record classes: the part of `dataclasses` the package uses, cheap to load.

`record` turns a class whose annotations name its fields into a record:

- `__init__` takes the fields positionally or by keyword, in annotation
  order; a class attribute of the same name is the field's default.  Python
  binds the arguments itself, so missing or unexpected ones raise the usual
  `TypeError`.  `__post_init__`, when the class defines one, runs last.
- `__repr__` is the dataclass text, e.g. `Var(name='a')`.
- `__eq__` compares the field tuples of two instances of the same class and
  returns `NotImplemented` for anything else, so `Prod(a, b) != Sum(a, b)`.
- `record(frozen=True)` adds `__hash__` (the hash of the field tuple) and
  makes assignment and deletion raise `FrozenInstanceError`.  A mutable
  record is unhashable.

Only the class's own annotations are fields; records do not inherit fields.
`functools.cached_property` works on frozen records, as it writes the
instance `__dict__` directly.

No source is compiled per class.  `dataclasses` builds every class by
`exec` of generated code (~0.8 ms a class) and imports `inspect` (~10 ms),
a large share of a one-shot command.  Here `__init__`, `__eq__` and
`__hash__` come from a fixed template for the class's field count, written
for fields named a..f; `code.replace` renames those to the real fields, so
the methods run the same bytecode as hand-written ones.  `__repr__`, which
only error messages use, is a closure.
"""

from __future__ import annotations

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


# Method templates, one per field count, for fields named a..f.
def _fields1(post):
    def __init__(self, a):
        _set(self, "a", a)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a,) == (other.a,)
        return NotImplemented

    def __hash__(self):
        return hash((self.a,))

    return __init__, __eq__, __hash__


def _fields2(post):
    def __init__(self, a, b):
        _set(self, "a", a)
        _set(self, "b", b)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b) == (other.a, other.b)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    return __init__, __eq__, __hash__


def _fields3(post):
    def __init__(self, a, b, c):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c) == (other.a, other.b, other.c)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    return __init__, __eq__, __hash__


def _fields6(post):
    def __init__(self, a, b, c, d, e, f):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)
        _set(self, "e", e)
        _set(self, "f", f)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            mine = (self.a, self.b, self.c, self.d, self.e, self.f)
            return mine == (other.a, other.b, other.c, other.d, other.e, other.f)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d, self.e, self.f))

    return __init__, __eq__, __hash__


_TEMPLATES = {1: _fields1, 2: _fields2, 3: _fields3, 6: _fields6}


def _methods(cls: type, names: tuple[str, ...]):
    """`__init__`, `__eq__` and `__hash__` for the fields `names` of `cls`."""
    template = _TEMPLATES.get(len(names))
    if template is None:
        raise TypeError(f"{cls.__name__}: no record template for {len(names)} fields")
    rename = dict(zip("abcdef", names))

    def swap(items: tuple) -> tuple:
        return tuple(rename.get(x, x) if isinstance(x, str) else x for x in items)

    methods = template(hasattr(cls, "__post_init__"))
    for method in methods:
        code = method.__code__
        method.__code__ = code.replace(
            co_varnames=swap(code.co_varnames),
            co_names=swap(code.co_names),
            co_consts=swap(code.co_consts),
        )
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    defaults = [cls.__dict__[n] for n in names if n in cls.__dict__]
    if any(n not in cls.__dict__ for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    methods[0].__defaults__ = tuple(defaults) or None
    return methods


def record(frozen: bool = False):
    """Class decorator; see the module docstring."""

    def build(cls: type) -> type:
        names = tuple(cls.__dict__.get("__annotations__", {}))
        __init__, __eq__, __hash__ = _methods(cls, names)

        def __repr__(self):
            inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
            return f"{type(self).__qualname__}({inner})"

        cls.__init__ = __init__
        cls.__repr__ = __repr__
        cls.__eq__ = __eq__
        if not frozen:
            cls.__hash__ = None
            return cls

        def __setattr__(self, name, value):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenInstanceError(f"cannot delete field {name!r}")

        cls.__hash__ = __hash__
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
        return cls

    return build
