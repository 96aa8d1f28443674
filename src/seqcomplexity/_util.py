"""Shared formatting helpers."""

from __future__ import annotations

__all__ = ["sig12", "fmt12", "dot_escape"]


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
