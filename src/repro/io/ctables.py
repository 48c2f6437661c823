"""Shared helpers for rendering Python tables as C source.

Two generators emit C in this repo: the embedded-target table export
(:mod:`repro.io.c_export`, C89 structs for the online scheduler) and
the per-plan simulator kernels
(:mod:`repro.runtime.engine.kernel.codegen`, C99 translation units
compiled at run time).  Both need the same low-level pieces — C
identifier sanitizing, brace-enclosed array lists chunked to readable lines,
and (for the kernel) double constants that survive the round trip
exactly — so they live here.

``c_double`` renders a float as a C99 hexadecimal literal
(``float.hex()`` output is valid C99), which reproduces the Python
value bit for bit in the compiled object: the kernel's claim to bit
identity with the NumPy engine rests on every constant crossing the
language boundary without decimal rounding.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence


def sanitize(symbol: str) -> str:
    """A C identifier fragment from an application/graph name."""
    cleaned = "".join(c if c.isalnum() else "_" for c in symbol)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "g_" + cleaned
    return cleaned.lower()


def c_double(value: float) -> str:
    """``value`` as an exact C99 hexadecimal floating literal."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot render non-finite constant {value!r}")
    return value.hex()


def c_int(value: int) -> str:
    """``value`` as an int64-safe C literal."""
    return f"INT64_C({int(value)})"


def render_array(
    name: str,
    ctype: str,
    values: Sequence[str],
    per_line: int = 8,
    indent: str = "    ",
) -> List[str]:
    """Lines of one ``static const`` array definition.

    ``values`` are pre-rendered element strings.  An empty sequence
    emits a one-element zero array (C forbids zero-length arrays) —
    callers guarantee such arrays are never indexed at run time.
    """
    if not values:
        return [f"static const {ctype} {name}[1] = {{0}};"]
    lines = [f"static const {ctype} {name}[{len(values)}] = {{"]
    for start in range(0, len(values), per_line):
        chunk = ", ".join(values[start : start + per_line])
        lines.append(f"{indent}{chunk},")
    lines.append("};")
    return lines


def render_int_array(
    name: str, values: Iterable[int], per_line: int = 8
) -> List[str]:
    """``render_array`` over int64 values."""
    return render_array(
        name, "int64_t", [c_int(v) for v in values], per_line=per_line
    )


def render_u64_array(
    name: str, values: Iterable[int], per_line: int = 4
) -> List[str]:
    """``render_array`` over uint64 bitmask words."""
    return render_array(
        name,
        "uint64_t",
        [f"UINT64_C({int(v):#018x})" for v in values],
        per_line=per_line,
    )


def render_double_array(
    name: str, values: Iterable[float], per_line: int = 4
) -> List[str]:
    """``render_array`` over exact hexadecimal double literals."""
    return render_array(
        name, "double", [c_double(v) for v in values], per_line=per_line
    )
