"""The base of recordkit's record classes (Gate, Netlist, Stimulus, the
reports and the rest).

A record's fields are its ``__init__`` parameters, in order, unless the
class names them in ``_fields`` (Gate leaves its source line out).
Equality, the hash of a frozen record and the repr read those fields and
nothing else, so state kept beside them (Stimulus's kept draws, cached
properties) is neither compared, hashed nor shown. A record made with
``frozen=True`` refuses every assignment and deletion, so its ``__init__``
writes its fields past that guard: to the instance dict, or for Gate
through the slots' own setters. A record that is not frozen is
unhashable. Copy, deepcopy and pickle use Python's default protocol,
which restores the instance dict or slots as they were; only Gate,
slotted and frozen, names its state itself, in ``__reduce__``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple


class Record:
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]
        key = attrgetter(*cls._fields)  # a closure: no lookup per call

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return key(self) == key(other)

        cls.__eq__ = __eq__
        if not frozen:
            cls.__hash__ = None
            return
        cls.__hash__ = lambda self: hash(key(self))
        cls.__setattr__ = _refuse_assignment
        cls.__delattr__ = _refuse_deletion

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))


def _refuse_assignment(self, name, value):
    from dataclasses import FrozenInstanceError  # loaded only to raise
    raise FrozenInstanceError("cannot assign to field %r" % name)


def _refuse_deletion(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError("cannot delete field %r" % name)
