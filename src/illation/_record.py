"""Record classes: the part of `dataclasses` the package uses, cheap to load.

`record` is the metaclass of a record: `class Var(PropFormula,
metaclass=record)` makes a class whose annotations name its fields.

- `__init__` takes every field, positionally or by keyword, in annotation
  order.  Python binds the arguments itself, so missing or unexpected ones
  raise the usual `TypeError`.  `__post_init__`, when the class defines one,
  runs last.
- `__repr__` is the dataclass text, e.g. `Var(name='a')`.
- `__eq__` compares the field tuples of two instances of the same class and
  returns `NotImplemented` for anything else, so `Prod(a, b) != Sum(a, b)`.
- `__hash__` is the hash of the field tuple (a dict field makes it raise
  `TypeError`, as in a frozen dataclass), and every record is frozen:
  assignment and deletion raise `FrozenInstanceError`.
- `copy` and `pickle` rebuild a record from its fields.

Only the class's own annotations are fields; records do not inherit fields.

A record has no instance `__dict__`: its `__slots__` are its fields and
nothing else.  A formula is a record per node, tens of thousands of them for
one long formula: with a dict per node, a parsed tree took ~87 bytes a node,
and takes ~47 in slots.  The class is built once, with its slots, as `type`
builds any class; a decorator would have to build it a second time, as slots
cannot be added to a class made without them.  (Bases of records define
`__slots__ = ()`, or every instance would get a `__dict__` from them.)

No source is compiled per class.  `dataclasses` builds every class by
`exec` of generated code (~0.8 ms a class) and imports `inspect` (~10 ms),
a large share of a one-shot command.  Only `__init__`, which every parse and
every engine step runs, comes from a template: one per field count, written
for fields named a..f, which `code.replace` renames to the real fields so
that keyword arguments take their names.  It fills each slot through the
slot's own descriptor, taken once when the class is made: `object.__setattr__`
by name looks the descriptor up again for every field, which made a binary
node ~30% dearer to build, and the readers build a node for every token.
`__eq__`, `__hash__` and `__repr__` are one function each, shared by every
record.  Formulas are records nested one level per connective, thousands of
levels deep in a folded chain, so each walks the nested records with an
explicit stack instead of recursing through the fields' own methods.  A
record does not keep its hash, as a tuple does not: each `hash` walks the
whole tree again, bottom-up (~0.3 s for a chain of 100,000 terms on CPython
3.11), so a dict or set keyed by a large formula pays a walk per lookup.
"""

from __future__ import annotations

_FOLD = object()  # on the stack of `_hash`: the fields above it are hashed


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


# `__init__` templates, one per field count, for fields named a..f, each
# filled through the setter of its slot.
def _fields1(post, set_a):
    def __init__(self, a):
        set_a(self, a)
        if post:
            self.__post_init__()

    return __init__


def _fields2(post, set_a, set_b):
    def __init__(self, a, b):
        set_a(self, a)
        set_b(self, b)
        if post:
            self.__post_init__()

    return __init__


def _fields3(post, set_a, set_b, set_c):
    def __init__(self, a, b, c):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        if post:
            self.__post_init__()

    return __init__


def _fields6(post, set_a, set_b, set_c, set_d, set_e, set_f):
    def __init__(self, a, b, c, d, e, f):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)
        set_e(self, e)
        set_f(self, f)
        if post:
            self.__post_init__()

    return __init__


_TEMPLATES = {1: _fields1, 2: _fields2, 3: _fields3, 6: _fields6}


def _init(cls: type, names: tuple[str, ...]):
    """`__init__` for the fields `names` of the record class `cls`."""
    template = _TEMPLATES.get(len(names))
    if template is None:
        raise TypeError(f"{cls.__qualname__}: no record template for {len(names)} fields")
    rename = dict(zip("abcdef", names))
    method = template("__post_init__" in cls.__dict__,
                      *(cls.__dict__[n].__set__ for n in names))
    code = method.__code__
    method.__code__ = code.replace(
        co_varnames=tuple(rename.get(x, x) for x in code.co_varnames))
    method.__qualname__ = f"{cls.__qualname__}.__init__"
    return method


def _fields(item) -> list:
    return [getattr(item, n) for n in item.__record_fields__]


def _eq(self, other):
    """Field tuples compared in order; a pair of records of one class is
    compared by the same loop, not by a nested call."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if x.__class__ is y.__class__ and x.__class__.__eq__ is _eq:
            stack.extend([(getattr(x, n), getattr(y, n)) for n in reversed(x.__record_fields__)])
        elif not x == y:
            return False
    return True


class _Hashed(int):
    """A nested record's hash, in its place in the field tuple: `hash` of a
    large int is not the int itself, so a plain int would not do."""

    __slots__ = ()
    __hash__ = int.__int__


def _hash(self):
    """`hash` of the field tuple, each nested record hashed before the
    record holding it and standing in for it by its hash."""
    todo, done = [self], []
    while todo:
        item = todo.pop()
        if item is _FOLD:
            count = todo.pop()
            done[-count:] = [_Hashed(hash(tuple(done[-count:])))]
        elif item.__class__.__hash__ is _hash:
            todo += (len(item.__record_fields__), _FOLD)
            todo += reversed(_fields(item))
        else:
            done.append(item)
    return int(done[0])


def _repr(self):
    """The dataclass text; a nested record's text is written in place."""
    out, stack = [], [self]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        parts = [f"{item.__class__.__qualname__}("]
        for i, (name, value) in enumerate(zip(item.__record_fields__, _fields(item))):
            parts.append(f"{', ' if i else ''}{name}=")
            parts.append(value if value.__class__.__repr__ is _repr else repr(value))
        parts.append(")")
        stack.extend(reversed(parts))
    return "".join(out)


def _reduce(self):
    """Copies and pickles are made through `__init__` from the fields, as
    the frozen `__setattr__` refuses to fill the slots of a bare instance."""
    return self.__class__, tuple(_fields(self))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(name: str, bases: tuple, namespace: dict) -> type:
    """Metaclass of the record class `name`; see the module docstring."""
    names = tuple(namespace.get("__annotations__", {}))
    namespace.update(
        __slots__=names,
        __record_fields__=names,
        __repr__=_repr,
        __eq__=_eq,
        __hash__=_hash,
        __reduce__=_reduce,
        __setattr__=_setattr,
        __delattr__=_delattr,
    )
    cls = type(name, bases, namespace)
    cls.__init__ = _init(cls, names)
    return cls
