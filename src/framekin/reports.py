"""Deterministic JSON serialization for scenario reports.

Numbers are written with 17 significant digits, keys in sorted order, so a
fixed configuration always produces byte-identical output (the wall-time
field is the one documented exception and is excluded from determinism
comparisons).
"""

from __future__ import annotations

import math


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise ArithmeticError(f"cannot serialize non-finite number {x!r}")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


# JSON string escapes: the quote, the backslash and every code point below 0x20.
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    ord('"'): '\\"',
    ord("\\"): "\\\\",
    ord("\n"): "\\n",
    ord("\t"): "\\t",
}


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def serialize(obj, indent=0) -> str:
    """Render a report structure as deterministic JSON text."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return _fmt_number(obj)
    if hasattr(obj, "item") and not isinstance(obj, (list, tuple, dict)):
        return _fmt_number(obj.item())
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{inner}"{_escape(str(k))}": {serialize(obj[k], indent + 1)}'
            for k in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{serialize(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
