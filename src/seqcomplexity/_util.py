"""Shared formatting helpers and the package's integer rule."""

from __future__ import annotations

__all__ = ["sig12", "fmt12", "dot_escape", "is_int", "require_ints"]


def sig12(x: float) -> float:
    """Round to 12 significant digits (the precision of all CSV output)."""
    return float(f"{x:.12g}")


def fmt12(x) -> str:
    """Format a value for CSV: floats at 12 significant digits, None as an
    empty cell, anything else as str."""
    if x is None:
        return ""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def dot_escape(text: str) -> str:
    """Escape backslashes and double quotes for a DOT label."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def is_int(x) -> bool:
    """True iff ``x`` may be a count, size, index or length: an ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_ints(**values) -> None:
    """Raise ValueError naming the first of ``values`` that fails :func:`is_int`."""
    for name, value in values.items():
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
