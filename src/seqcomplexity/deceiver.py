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
from itertools import islice, product

from . import coding as _coding
from ._util import require_ints
# assembly_index_split is kept importable here: bench/tracing.py wraps it by name
from .assembly import assembly_index_split
from .ingest import text_to_bits
from .measures import evaluate

__all__ = [
    "GeneratorSpec",
    "champernowne",
    "champernowne_chunks",
    "modular_generate",
    "generate",
    "divergence_report",
    "DivergenceReport",
    "DEFAULT_MEASURES",
]

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

DEFAULT_MEASURES = ("entropy", "huffman", "rle", "lzw", "ma_split")
# longest string a spec spells, Champernowne or modular; generate() holds all of it in memory
CHAMPERNOWNE_CAP = 10**8
CHAMPERNOWNE_CHUNK = 2**16  # most numbers one piece of champernowne_chunks spells


def _check_champernowne(n, base):
    """Reject what :func:`champernowne` cannot build, a spec's ``length`` being its ``n``."""
    require_ints(n=n, base=base)
    if not 2 <= base <= 36:
        raise ValueError("base out of range [2, 36]")
    if not 0 <= n <= CHAMPERNOWNE_CAP:
        raise ValueError(f"n outside [0, {CHAMPERNOWNE_CAP}]")


def champernowne(n: int, base: int = 10) -> str:
    """First ``n`` characters of the digits of 1, 2, 3, ... written in ``base``."""
    return "".join(champernowne_chunks(n, base))


def champernowne_chunks(n: int, base: int = 10):
    """The characters of :func:`champernowne` in order, as pieces of the
    digits of at most ``CHAMPERNOWNE_CHUNK`` numbers each.

    The arguments are checked when this is called, before the first piece.
    """
    _check_champernowne(n, base)
    return _chunks(n, _DIGITS[:base])


def _chunks(n, digits):
    # the d-digit numbers in increasing order are the d-tuples of digits
    # with a nonzero lead, in lexicographic order
    d = 1
    while n > 0:
        numbers = product(digits[1:], *[digits] * (d - 1))
        # an empty piece means the d-digit numbers ran out
        while n > 0 and (piece := "".join(map("".join, islice(numbers, min(CHAMPERNOWNE_CHUNK, -(-n // d)))))):
            yield piece[:n]
            n -= len(piece)
        d += 1


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
    2-bit kind tag, Elias-gamma integers, and 8 bits for each UTF-8 byte of
    the seed and extension symbols, so 8 bits per ASCII symbol.  It is an
    auditable stand-in for program length, not a claim about Kolmogorov
    complexity.
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
        require_ints(base=self.base, length=self.length, period=self.period, steps=self.steps)
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
            n = _modular_length(self)
            if n > CHAMPERNOWNE_CAP:
                raise ValueError(f"modular spec spells {n} characters, over the cap of {CHAMPERNOWNE_CAP}")
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


def _modular_length(spec):
    """Length of :func:`modular_generate`'s output, without spelling it."""
    if not spec.extension_symbols:
        return spec.steps * len(spec.seed)
    # step i appends the module after its (i - 1) // period extensions
    q, r = divmod(spec.steps, spec.period)
    return spec.steps * len(spec.seed) + spec.period * q * (q - 1) // 2 + r * q


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
    :data:`seqcomplexity.measures.MEASURES`, read as ``evaluate`` reads it.
    ``s`` must be exactly the output of ``spec``.  ``bdm1d`` reads the UTF-8
    bits of ``s`` in 2-symbol blocks, so it needs a 1D ``ctm_table`` whose
    alphabet holds 0 and 1.
    """
    if generate(spec) != s:
        raise ValueError("payload does not match spec")
    # one count of the symbols serves the measures and the normalized entropy
    counts = _coding._symbol_counts(s)
    measures = tuple(measures)
    values = {}
    for name, (value, _) in zip(measures, evaluate(measures, s, {1: ctm_table}, counts=counts)):
        if value is None:
            raise ValueError(f"measure {name!r} reads a matrix, not a string")
        values[name] = float(value)
    h = values["entropy"] if "entropy" in values else _coding.shannon_entropy(s, counts=counts)
    norm = h / math.log2(len(counts)) if len(counts) > 1 else 0.0
    return DivergenceReport(
        measures=values,
        description_bits=spec.description_bits,
        normalized_entropy=norm,
    )
