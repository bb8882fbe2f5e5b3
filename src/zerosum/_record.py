"""Record classes without ``dataclasses``, which imports ``inspect``, ``ast``
and ``dis`` and compiles each generated method with ``exec``: for this
package's records, about 27 ms of every CLI process's start-up."""

from operator import attrgetter


def record(*, frozen: bool = False):
    """Class decorator acting as ``dataclass(frozen=frozen)`` does on the
    annotated fields, their class-attribute defaults and ``__post_init__``:
    ``__init__``, ``Name(field=value, ...)`` reprs, equality within one class,
    and for a frozen record a field-tuple hash and
    ``dataclasses.FrozenInstanceError`` on assignment or deletion."""
    def build(cls):
        name, names = cls.__name__, tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {key: cls.__dict__[key] for key in names if key in cls.__dict__}
        post_init = cls.__dict__.get("__post_init__")
        get = attrgetter(*names)
        fields = get if len(names) > 1 else lambda self: (get(self),)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                rest = set(names[len(args):])
                if (len(args) > len(names) or not kwargs.keys() <= rest
                        or not rest <= kwargs.keys() | defaults.keys()):
                    raise TypeError(f"{name}() got unexpected, repeated or missing arguments")
                args = [*args, *(kwargs.get(key, defaults.get(key))
                                 for key in names[len(args):])]
            vars(self).update(zip(names, args))
            if post_init is not None:
                post_init(self)

        def __repr__(self):
            pairs = ", ".join(f"{key}={value!r}" for key, value in zip(names, fields(self)))
            return f"{type(self).__qualname__}({pairs})"

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        def refuse(self, key, value=None):
            from dataclasses import FrozenInstanceError  # only on this error path
            raise FrozenInstanceError(f"cannot assign to or delete field {key!r}")

        cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
        cls.__hash__ = (lambda self: hash(fields(self))) if frozen else None
        if frozen:
            cls.__setattr__ = cls.__delattr__ = refuse
        return cls
    return build
