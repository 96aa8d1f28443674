"""Block Decomposition Method over CTM tables, and a small-machine CTM
table generator.

``ctm_enumerate`` exhaustively runs every 2-state binary Turing machine
(explicit halt) and turns halting-output frequencies into complexity
estimates ``-log2(freq/total)``.  ``bdm_1d``/``bdm_2d`` aggregate table
values over a block partition as ``sum(ctm(block) + log2(multiplicity))``
over distinct blocks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from . import coding
from ._util import sig12

__all__ = [
    "CtmTable",
    "BdmParams",
    "ctm_enumerate",
    "bdm_1d",
    "bdm_2d",
    "ctm_save",
    "ctm_load",
    "toy_table_1d",
    "toy_table_2d",
]

# (2,2) machines halt by one of two dedicated actions that write a symbol
# in place; every ordinary action writes, moves, and switches state, which
# gives (4*states + 2) actions per table cell.
_HALT_WRITE_0 = 8
_HALT_WRITE_1 = 9
_MIN_STEP_BOUND = 6  # maximum steps a halting (2,2) machine actually needs


@dataclass(eq=True)
class CtmTable:
    """CTM complexity estimates per block.

    1D entries are keyed by the block string; 2D entries by
    ``(rows, cols, row-major flattened string)``.  Values are bits and are
    normalized to 12 significant digits so that CSV round-trips are exact.
    """

    dimension: int
    alphabet_size: int
    entries: dict
    provenance: str = field(default="", compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        for key, bits in self.entries.items():
            block = key if self.dimension == 1 else key[2]
            if not block:
                raise ValueError("empty block")
            if not 0 < bits < math.inf:
                raise ValueError(f"non-positive or non-finite ctm_bits for block {block!r}")

    @property
    def alphabet(self) -> frozenset:
        chars = set()
        for key in self.entries:
            chars.update(key if self.dimension == 1 else key[2])
        return frozenset(chars)


@dataclass(frozen=True)
class BdmParams:
    """Partition parameters for block decomposition.

    ``block_size`` applies to 1D, ``block_shape`` to 2D; ``overlap`` must
    stay below the block size (2D decomposition is always non-overlapping).
    ``boundary`` is ``ignore`` (drop partial blocks) or ``pad``;
    ``missing_block_policy`` is ``error`` or ``entropy_surrogate``.
    """

    block_size: int | None = None
    block_shape: tuple[int, int] | None = None
    overlap: int = 0
    boundary: str = "ignore"
    missing_block_policy: str = "error"
    pad_symbol: str | None = None

    def __post_init__(self):
        if self.boundary not in ("ignore", "pad"):
            raise ValueError("boundary must be 'ignore' or 'pad'")
        if self.missing_block_policy not in ("error", "entropy_surrogate"):
            raise ValueError("missing_block_policy must be 'error' or 'entropy_surrogate'")
        if self.block_size is not None:
            if self.block_size < 1:
                raise ValueError("block_size must be positive")
            if not 0 <= self.overlap < self.block_size:
                raise ValueError("overlap must satisfy 0 <= overlap < block_size")
        if self.block_shape is not None:
            r, c = self.block_shape
            if r < 1 or c < 1:
                raise ValueError("block_shape entries must be positive")
        if self.boundary == "pad" and self.pad_symbol is None:
            raise ValueError("pad boundary requires pad_symbol")


def _run_machine(cells, blank, step_bound):
    """Run one rule table from an all-``blank`` tape; return the visited
    segment at halt or None when the step bound is exhausted."""
    tape = {}
    pos = state = 0
    lo = hi = 0
    for _ in range(step_bound):
        sym = tape.get(pos, blank)
        action = cells[2 * state + sym]
        if action >= _HALT_WRITE_0:
            tape[pos] = action - _HALT_WRITE_0
            return "".join(str(tape.get(i, blank)) for i in range(lo, hi + 1))
        tape[pos] = action >> 2
        pos += 1 if (action >> 1) & 1 else -1
        state = action & 1
        if pos < lo:
            lo = pos
        elif pos > hi:
            hi = pos
    return None


def ctm_enumerate(states: int, symbols: int, step_bound: int) -> CtmTable:
    """Exhaustive CTM table for the (2,2) rule space.

    All ``(4*states+2)**(2*states)`` rule tables are run from both uniform
    tapes (all-0 and all-1); using the two blank conventions makes the
    halting-output distribution exactly closed under symbol complement, to
    match the left/right mirror closure that direction reversal already
    provides.  ``ctm(block) = -log2(count/total_halting)``, rounded to 12
    significant digits.  No (2,2) machine halts after ``_MIN_STEP_BOUND``
    steps, so each is run for at most that many and every ``step_bound``
    at or above it gives the same table.
    """
    if (states, symbols) != (2, 2):
        raise ValueError(f"unsupported machine class ({states},{symbols}); only (2,2)")
    if step_bound < _MIN_STEP_BOUND:
        raise ValueError(f"step_bound {step_bound} below the (2,2) busy-beaver bound {_MIN_STEP_BOUND}")

    actions_per_cell = 4 * states + 2
    n_cells = 2 * states
    counts = Counter()
    total = 0
    for m in range(actions_per_cell ** n_cells):
        cells = []
        x = m
        for _ in range(n_cells):
            cells.append(x % actions_per_cell)
            x //= actions_per_cell
        for blank in (0, 1):
            out = _run_machine(cells, blank, _MIN_STEP_BOUND)
            if out is not None:
                counts[out] += 1
                total += 1

    entries = {
        block: sig12(-math.log2(c / total))
        for block, c in sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    }
    return CtmTable(
        dimension=1,
        alphabet_size=symbols,
        entries=entries,
        provenance=f"enumerated ({states},{symbols}), {step_bound}-step bound",
    )


def _lookup(table, key, block, policy):
    if key in table.entries:
        return table.entries[key]
    if policy == "entropy_surrogate":
        return len(block) * coding.shannon_entropy(block) + 1.0
    raise KeyError(f"block {block!r} absent from CTM table")


def _aggregate(counts, table, policy):
    return sum(
        _lookup(table, b, b if isinstance(b, str) else b[2], policy)
        + math.log2(mult)
        for b, mult in counts.items()
    )


def bdm_1d(s: str, table: CtmTable, params: BdmParams | None = None) -> float:
    """BDM of a string: partition into blocks, sum ctm + log2 multiplicity."""
    if params is None:
        params = BdmParams(block_size=2)
    if table.dimension != 1:
        raise ValueError("bdm_1d requires a 1-dimensional table")
    if params.block_size is None:
        raise ValueError("params.block_size required for 1D decomposition")
    size = params.block_size
    if len(s) < size:
        raise ValueError(f"input shorter than block size {size}")
    alphabet = table.alphabet
    bad = set(s) - alphabet
    if bad:
        raise ValueError(f"symbols {sorted(bad)} not in table alphabet")
    if params.boundary == "pad" and params.pad_symbol not in alphabet:
        raise ValueError("pad symbol not in table alphabet")

    # Block k is s[k*stride : k*stride + size], so its j-th symbol is the
    # k-th symbol of s[j::stride]: zipping those columns counts every block
    # without slicing it out.  Counter keeps first-occurrence order, so the
    # sum runs over distinct blocks in the order of the block sequence.
    stride = size - params.overlap
    n = (len(s) - size) // stride + 1
    counts = Counter(zip(*(s[j::stride][:n] for j in range(size))))
    counts = Counter({"".join(block): c for block, c in counts.items()})
    i = n * stride
    if i < len(s) and params.boundary == "pad":
        counts[(s[i:] + params.pad_symbol * size)[:size]] += 1
    return _aggregate(counts, table, params.missing_block_policy)


def bdm_2d(m, table: CtmTable, params: BdmParams | None = None) -> float:
    """BDM of a matrix, given as equal-length rows, tiled row-major with non-overlapping blocks."""
    if params is None:
        params = BdmParams(block_shape=(2, 2))
    if table.dimension != 2:
        raise ValueError("bdm_2d requires a 2-dimensional table")
    if params.block_shape is None:
        raise ValueError("params.block_shape required for 2D decomposition")
    if params.overlap:
        raise ValueError("2D decomposition is non-overlapping")
    try:
        cells = [[str(int(v)) for v in row] for row in m]
    except TypeError:
        raise ValueError("input must be a 2D matrix") from None
    if any(isinstance(row, str) for row in m) or any(len(row) != len(cells[0]) for row in cells):
        raise ValueError("input must be a 2D matrix")
    br, bc = params.block_shape
    rows, cols = len(cells), len(cells[0]) if cells else 0
    if rows < br or cols < bc:
        raise ValueError(f"matrix smaller than block shape {br}x{bc}")
    alphabet = table.alphabet
    bad = {v for row in cells for v in row} - alphabet
    if bad:
        raise ValueError(f"symbols {sorted(bad)} not in table alphabet")

    # every symbol is now one character, so a row is a string of width cols
    grid = ["".join(row) for row in cells]
    if params.boundary == "pad":
        if params.pad_symbol not in alphabet:
            raise ValueError("pad symbol not in table alphabet")
        grid = [row + params.pad_symbol * (-cols % bc) for row in grid]
        grid += [params.pad_symbol * len(grid[0])] * (-rows % br)

    blocks = [
        (br, bc, "".join(row[j : j + bc] for row in grid[i : i + br]))
        for i in range(0, len(grid) - br + 1, br)
        for j in range(0, len(grid[0]) - bc + 1, bc)
    ]
    return _aggregate(Counter(blocks), table, params.missing_block_policy)


def ctm_save(table: CtmTable, path) -> None:
    """Write a CTM table CSV (``block,ctm_bits`` or ``rows,cols,block,ctm_bits``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if table.dimension == 1:
            fh.write("block,ctm_bits\n")
            for block, bits in table.entries.items():
                fh.write(f"{block},{sig12(bits):.12g}\n")
        else:
            fh.write("rows,cols,block,ctm_bits\n")
            for (r, c, block), bits in table.entries.items():
                fh.write(f"{r},{c},{block},{sig12(bits):.12g}\n")


def ctm_load(path) -> CtmTable:
    """Load a CTM table CSV written by :func:`ctm_save` (or hand-made)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty file: missing header")
    header = lines[0].strip()
    if header == "block,ctm_bits":
        dimension = 1
    elif header == "rows,cols,block,ctm_bits":
        dimension = 2
    else:
        raise ValueError(f"line 1: unrecognized header {header!r}")
    entries = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        try:
            if dimension == 1:
                if len(parts) != 2:
                    raise ValueError("expected 2 fields")
                block, bits = parts[0], float(parts[1])
                key = block
            else:
                if len(parts) != 4:
                    raise ValueError("expected 4 fields")
                r, c, block = int(parts[0]), int(parts[1]), parts[2]
                bits = float(parts[3])
                if r * c != len(block):
                    raise ValueError("block length does not match rows*cols")
                key = (r, c, block)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate block {block!r}")
        entries[key] = sig12(bits)
    if not entries:
        raise ValueError("empty table: header only")
    alphabet = {ch for key in entries for ch in (key if dimension == 1 else key[2])}
    return CtmTable(
        dimension=dimension,
        alphabet_size=len(alphabet),
        entries=entries,
        provenance=f"loaded from {path}",
    )


def toy_table_1d() -> CtmTable:
    """Tiny fixed 1D table over binary blocks of size 2 (for demos/tests)."""
    return CtmTable(
        dimension=1,
        alphabet_size=2,
        entries={"00": 2.0, "11": 2.0, "01": 3.0, "10": 2.5},
        provenance="bundled toy table, 1D blocks of 2",
    )


def toy_table_2d() -> CtmTable:
    """Tiny fixed 2D table over all binary 2x2 blocks (for demos/tests)."""
    entries = {}
    for v in range(16):
        flat = format(v, "04b")
        if flat in ("0000", "1111"):
            bits = 4.0
        elif flat in ("0101", "1010"):
            bits = 5.0
        else:
            bits = 4.5
        entries[(2, 2, flat)] = bits
    return CtmTable(
        dimension=2,
        alphabet_size=2,
        entries=entries,
        provenance="bundled toy table, 2D blocks of 2x2",
    )
