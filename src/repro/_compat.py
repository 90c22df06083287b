"""Backward-compatibility helpers for the public configuration API.

The public config dataclasses (:class:`repro.experiments.runner.ReplicationConfig`,
:class:`repro.sim.signaling.SignalingConfig`) are keyword-only: their field
lists grow over time, and positional call sites silently change meaning when
a field is inserted.  Legacy positional construction keeps working for now
through :func:`positional_shim`, which maps positional arguments onto fields
in declaration order and emits a :class:`DeprecationWarning`.

Backend selection went through a similar migration: the scattered
``reference: bool`` flags on ``simulate`` / ``run_scenario`` became one
``backend=`` keyword (``"auto"`` / ``"fast"`` / ``"reference"``).
:func:`resolve_backend` collapses both spellings in one place and emits the
deprecation warning for the legacy flag.
"""

from __future__ import annotations

import warnings
from dataclasses import fields

__all__ = ["BACKENDS", "positional_shim", "resolve_backend"]

#: Valid values for the unified ``backend=`` keyword: ``auto`` and ``fast``
#: run the compiled admission kernel wherever it applies (the general loop
#: otherwise), ``reference`` forces the general event-loop oracle.
BACKENDS = ("auto", "fast", "reference")


def resolve_backend(
    backend: str | None = None,
    reference: bool | None = None,
    *,
    owner: str = "simulate",
    default: str = "auto",
) -> str:
    """Collapse the legacy ``reference=`` flag and ``backend=`` into one value.

    ``reference`` left at ``None`` means "not passed"; a real boolean maps to
    ``backend="reference"`` (``True``) or the default (``False``) with a
    :class:`DeprecationWarning`.  Passing both spellings is allowed only when
    they agree; a contradiction raises :class:`ValueError`, as does an unknown
    backend name.
    """
    if reference is not None:
        warnings.warn(
            f"{owner}(reference=...) is deprecated; pass "
            f'backend="reference" (or backend="auto") instead',
            DeprecationWarning,
            stacklevel=3,
        )
        mapped = "reference" if reference else default
        if backend is not None and backend != mapped:
            raise ValueError(
                f"conflicting backend selection: reference={reference!r} means "
                f"backend={mapped!r}, but backend={backend!r} was also passed"
            )
        backend = mapped
    if backend is None:
        backend = default
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    return backend


def positional_shim(cls):
    """Class decorator: accept deprecated positional args on a kw-only dataclass.

    Apply *above* ``@dataclass(kw_only=True)``.  Positional arguments are
    assigned to fields in declaration order — the pre-keyword-only calling
    convention — with a :class:`DeprecationWarning` naming the class, then
    handed to the real keyword-only ``__init__``.
    """
    original_init = cls.__init__
    names = [f.name for f in fields(cls)]

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(names):
                raise TypeError(
                    f"{cls.__name__}() takes at most {len(names)} "
                    f"arguments ({len(args)} given)"
                )
            warnings.warn(
                f"passing {cls.__name__} arguments positionally is deprecated; "
                f"use keyword arguments",
                DeprecationWarning,
                stacklevel=2,
            )
            for name, value in zip(names, args):
                if name in kwargs:
                    raise TypeError(
                        f"{cls.__name__}() got multiple values for argument {name!r}"
                    )
                kwargs[name] = value
        original_init(self, **kwargs)

    __init__.__qualname__ = f"{cls.__name__}.__init__"
    cls.__init__ = __init__
    return cls
