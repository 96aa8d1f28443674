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
from itertools import chain, islice, product

from . import bdm as _bdm
from . import coding as _coding
# assembly_index_split is kept importable here: bench/tracing.py wraps it by name
from .assembly import assembly_index_split
from .ingest import text_to_bits
from .measures import MEASURES, evaluate

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
_BDM_PARAMS = _bdm.BdmParams()
CHAMPERNOWNE_CAP = 10**8  # longest prefix champernowne builds, all of it in memory


def _check_champernowne(n, base):
    """Reject what :func:`champernowne` cannot build, a spec's ``length`` being its ``n``."""
    if not 2 <= base <= 36:
        raise ValueError("base out of range [2, 36]")
    if not 0 <= n <= CHAMPERNOWNE_CAP:
        raise ValueError(f"n outside [0, {CHAMPERNOWNE_CAP}]")


def champernowne(n: int, base: int = 10) -> str:
    """First ``n`` characters of the digits of 1, 2, 3, ... written in ``base``."""
    _check_champernowne(n, base)
    # the d-digit numbers in increasing order are the d-tuples of digits
    # with a nonzero lead, in lexicographic order
    digits = _DIGITS[:base]
    parts = []
    total = 0
    d = 1
    while total < n:
        numbers = product(digits[1:], *[digits] * (d - 1))
        part = "".join(chain.from_iterable(islice(numbers, -(-(n - total) // d))))
        parts.append(part)
        total += len(part)
        d += 1
    return "".join(parts)[:n]


def _gamma_bits(n: int) -> str:
    """Elias gamma code of ``n`` >= 1 (2*floor(log2 n) + 1 bits)."""
    if n < 1:
        raise ValueError("gamma code needs n >= 1")
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


# the fields each generator kind reads, which are also its JSON keys besides "kind"
_FIELDS = {
    "champernowne": ("base", "length"),
    "modular": ("seed", "period", "steps", "extension_symbols"),
}


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
        if not isinstance(self.kind, str) or self.kind not in _FIELDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for name in ("base", "length", "period", "steps"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if not isinstance(self.seed, str):
            raise ValueError(f"seed must be a string, not {self.seed!r}")
        # the expansion appends one character per extension
        ext = self.extension_symbols
        if not isinstance(ext, tuple) or not all(isinstance(c, str) and len(c) == 1 for c in ext):
            raise ValueError(f"extension_symbols must be a tuple of single characters, not {ext!r}")
        if self.kind == "champernowne":
            _check_champernowne(self.length, self.base)
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
            + text_to_bits(self.seed)
            + _gamma_bits(self.period)
            + _gamma_bits(self.steps)
            + _gamma_bits(len(self.extension_symbols) + 1)
            + text_to_bits(ext)
        )

    def to_json(self) -> str:
        return json.dumps({f: getattr(self, f) for f in ("kind", *_FIELDS[self.kind])}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        """Inverse of :meth:`to_json`; ``extension_symbols`` may be left out.

        A document that is not an object, lacks a field or holds a wrongly
        typed one raises ``ValueError`` naming it.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"generator spec must be a JSON object, not {type(data).__name__}")
        kind = data.get("kind")
        # an unknown kind reads no field, and __post_init__ rejects it
        fields = _FIELDS.get(kind, ()) if isinstance(kind, str) else ()
        for f in ("kind", *fields):
            if f not in data and f != "extension_symbols":
                raise ValueError(f"generator spec lacks field {f!r}")
        values = {f: data[f] for f in fields if f in data}
        if isinstance(values.get("extension_symbols"), list):
            values["extension_symbols"] = tuple(values["extension_symbols"])
        return cls(kind=kind, **values)


def modular_generate(spec: GeneratorSpec) -> str:
    """Expand a modular spec: append the module each step; every ``period``
    steps the module gains the next extension symbol (cycling)."""
    if spec.kind != "modular":
        raise ValueError("spec kind must be 'modular'")
    module = spec.seed
    out = []
    for i in range(1, spec.steps + 1):
        out.append(module)
        if i % spec.period == 0 and spec.extension_symbols:
            module += spec.extension_symbols[(i // spec.period - 1) % len(spec.extension_symbols)]
    return "".join(out)


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
    :data:`seqcomplexity.measures.MEASURES`, read as ``evaluate`` reads it;
    ``ma_exact`` is guarded at 25 characters.  ``s`` must be exactly the
    output of ``spec``.  ``bdm1d`` reads the UTF-8 bits of ``s`` in 2-symbol
    blocks, so it needs a 1D ``ctm_table`` whose alphabet holds 0 and 1.
    """
    if generate(spec) != s:
        raise ValueError("payload does not match spec")
    values = {}
    for name in measures:
        entry = MEASURES.get(name)
        if entry is None or entry.ctm_dim == 2:
            raise ValueError(f"unknown measure {name!r}")
        if entry.ctm_dim and ctm_table is None:
            raise ValueError(f"{name} requested without a CTM table")
        values[name] = float(evaluate(name, s, {1: ctm_table}, _BDM_PARAMS)[0])
    distinct = len(set(s))
    h = values["entropy"] if "entropy" in values else _coding.shannon_entropy(s)
    norm = h / math.log2(distinct) if distinct > 1 else 0.0
    return DivergenceReport(
        measures=values,
        description_bits=spec.description_bits,
        normalized_entropy=norm,
    )
