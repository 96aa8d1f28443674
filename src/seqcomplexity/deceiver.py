"""Complexity-deceiving sequence generators and divergence reporting.

Two families of strings with tiny generator descriptions but high
statistical complexity scores: prefixes of base-b Champernowne digit
concatenations, and a modular expander that appends its module each step
and extends the module every ``period`` steps.  ``divergence_report``
juxtaposes the generator's description length in bits against the
statistical and assembly measures of the generated string.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import bdm as _bdm
from . import coding as _coding
# assembly_index_split is kept importable here: bench/tracing.py wraps it by name
from .assembly import DEFAULT_EXACT_GUARD, assembly_index_split
from .ingest import text_to_bits
from .measures import MEASURES

__all__ = [
    "GeneratorSpec",
    "champernowne",
    "modular_generate",
    "generate",
    "divergence_report",
    "DivergenceReport",
    "DEFAULT_MEASURES",
]

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

DEFAULT_MEASURES = ("entropy", "huffman", "rle", "lzw", "ma_split")
_BDM_PARAMS = _bdm.BdmParams(block_size=2)


def _to_base(n: int, base: int) -> str:
    out = []
    while n:
        out.append(_DIGITS[n % base])
        n //= base
    return "".join(reversed(out))


def champernowne(n: int, base: int = 10) -> str:
    """First ``n`` characters of the digits of 1, 2, 3, ... written in ``base``."""
    if not 2 <= base <= 36:
        raise ValueError("base out of range [2, 36]")
    if n < 0:
        raise ValueError("n must be non-negative")
    parts = []
    total = 0
    k = 1
    while total < n:
        digits = _to_base(k, base)
        parts.append(digits)
        total += len(digits)
        k += 1
    return "".join(parts)[:n]


def _gamma_bits(n: int) -> str:
    """Elias gamma code of ``n`` >= 1 (2*floor(log2 n) + 1 bits)."""
    if n < 1:
        raise ValueError("gamma code needs n >= 1")
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def _symbol_bits(text: str) -> str:
    return "".join(format(b, "08b") for b in text.encode("utf-8"))


@dataclass
class GeneratorSpec:
    """Canonical description of a deceiver generator.

    ``description_bits`` is the length of the fixed bit encoding below: a
    2-bit kind tag, Elias-gamma integers, and 8 bits per seed/extension
    symbol.  It is an auditable stand-in for program length, not a claim
    about Kolmogorov complexity.
    """

    kind: str  # "champernowne" or "modular"
    base: int = 10
    length: int = 0
    seed: str = ""
    period: int = 1
    steps: int = 1
    extension_symbols: tuple[str, ...] = ()
    description_bits: int = field(init=False)

    def __post_init__(self):
        if self.kind not in ("champernowne", "modular"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "champernowne":
            if not 2 <= self.base <= 36:
                raise ValueError("base out of range [2, 36]")
            if self.length < 0:
                raise ValueError("length must be non-negative")
        else:
            if not self.seed:
                raise ValueError("empty seed")
            if self.period < 1 or self.steps < 1:
                raise ValueError("period and steps must be positive")
        self.description_bits = len(self.encode_bits())

    def encode_bits(self) -> str:
        if self.kind == "champernowne":
            return "00" + _gamma_bits(self.base) + _gamma_bits(self.length + 1)
        ext = "".join(self.extension_symbols)
        return (
            "01"
            + _gamma_bits(len(self.seed))
            + _symbol_bits(self.seed)
            + _gamma_bits(self.period)
            + _gamma_bits(self.steps)
            + _gamma_bits(len(self.extension_symbols) + 1)
            + _symbol_bits(ext)
        )

    def to_json(self) -> str:
        if self.kind == "champernowne":
            payload = {"kind": self.kind, "base": self.base, "length": self.length}
        else:
            payload = {
                "kind": self.kind,
                "seed": self.seed,
                "period": self.period,
                "steps": self.steps,
                "extension_symbols": list(self.extension_symbols),
            }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        data = json.loads(text)
        kind = data.get("kind")
        if kind == "champernowne":
            return cls(kind=kind, base=data["base"], length=data["length"])
        if kind == "modular":
            return cls(
                kind=kind,
                seed=data["seed"],
                period=data["period"],
                steps=data["steps"],
                extension_symbols=tuple(data.get("extension_symbols", ())),
            )
        raise ValueError(f"unknown generator kind {kind!r}")


def modular_generate(spec: GeneratorSpec) -> str:
    """Expand a modular spec: append the module each step; every ``period``
    steps the module gains the next extension symbol (cycling)."""
    if spec.kind != "modular":
        raise ValueError("spec kind must be 'modular'")
    module = spec.seed
    out = []
    ext_i = 0
    for i in range(1, spec.steps + 1):
        out.append(module)
        if i % spec.period == 0 and spec.extension_symbols:
            module += spec.extension_symbols[ext_i % len(spec.extension_symbols)]
            ext_i += 1
    result = "".join(out)
    expected = _modular_length(spec)
    assert len(result) == expected, "modular expansion length mismatch"
    return result


def _modular_length(spec: GeneratorSpec) -> int:
    if not spec.extension_symbols:
        return len(spec.seed) * spec.steps
    return sum(len(spec.seed) + (i - 1) // spec.period for i in range(1, spec.steps + 1))


def generate(spec: GeneratorSpec) -> str:
    """Deterministic output of a generator spec."""
    if spec.kind == "champernowne":
        return champernowne(spec.length, spec.base)
    return modular_generate(spec)


@dataclass(frozen=True)
class DivergenceReport:
    """Per-measure values for a generated string next to its spec size."""

    measures: dict
    description_bits: int
    normalized_entropy: float


def divergence_report(s: str, spec: GeneratorSpec, measures=DEFAULT_MEASURES, ctm_table=None) -> DivergenceReport:
    """Measure ``s`` and juxtapose the generator description length.

    ``measures`` may name any string measure of
    :data:`seqcomplexity.measures.MEASURES`; ``ma_exact`` is guarded at
    ``DEFAULT_EXACT_GUARD`` characters.  ``s`` must be exactly the output
    of ``spec``.  ``bdm1d`` (when requested with a table) is computed over
    the UTF-8 bit expansion of ``s`` with 2-symbol blocks, so any table
    alphabet works.
    """
    if generate(spec) != s:
        raise ValueError("payload does not match spec")
    values = {}
    for name in measures:
        entry = MEASURES.get(name)
        if entry is None or entry.matrix_only:
            raise ValueError(f"unknown measure {name!r}")
        if entry.ctm_dim and ctm_table is None:
            raise ValueError(f"{name} requested without a CTM table")
        x = text_to_bits(s) if entry.bits else s
        value, _ = entry.compute(x, ctm_table, _BDM_PARAMS, DEFAULT_EXACT_GUARD)
        values[name] = float(value)
    distinct = len(set(s))
    h = _coding.shannon_entropy(s)
    norm = h / math.log2(distinct) if distinct > 1 else 0.0
    return DivergenceReport(
        measures=values,
        description_bits=spec.description_bits,
        normalized_entropy=norm,
    )
