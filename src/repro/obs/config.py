"""The ``Network(layer=...)`` shorthand, once for every observer layer."""

from __future__ import annotations

from typing import Any, ClassVar, Optional, Type, TypeVar

C = TypeVar("C", bound="CoercibleConfig")


class CoercibleConfig:
    """Mixin for an observer layer's config dataclass.

    ``coerce`` normalizes what ``Network(timeseries=..., inband=...,
    traffic=...)`` accepts: ``None``/``False`` -> off (``None``),
    ``True`` -> defaults, an int -> the layer's ``INT_FIELD``, a dict ->
    field overrides (chaos schedules carry these through JSON), an
    instance -> itself.  Anything else is a ``TypeError`` at build time
    rather than an ``AttributeError`` at the first stamp.
    """

    #: the field a bare int sets
    INT_FIELD: ClassVar[str]

    @classmethod
    def coerce(cls: Type[C], value: Any) -> Optional[C]:
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(**{cls.INT_FIELD: value})
        if isinstance(value, dict):
            fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
            unknown = sorted(set(value) - set(fields))
            if unknown:
                raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
            return cls(**value)
        raise TypeError(f"expected bool, int, dict, or {cls.__name__}, got {value!r}")
