"""Block Decomposition Method over CTM tables, and a small-machine CTM
table generator.

``ctm_enumerate`` exhaustively counts every 2-state binary Turing machine
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
from ._util import fmt12, is_int, require_ints, sig12
from .ingest import _csv_rows, _finite, write_csv

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

# A (2,2) rule table has one cell per (state, read symbol).  Each cell holds
# one of 2 symbols x 2 moves x 2 next states = 8 ordinary actions or one of
# two dedicated halts that write a symbol in place.
_CELLS = 4
_ACTIONS = 10
_HALT_WRITE_0 = 8  # 9 halts writing 1
_MIN_STEP_BOUND = 6  # maximum steps a halting (2,2) machine actually needs
_CTM_HEADERS = {1: ["block", "ctm_bits"], 2: ["rows", "cols", "block", "ctm_bits"]}


@dataclass(eq=True)
class CtmTable:
    """CTM complexity estimates per block.

    1D entries are keyed by the block string; 2D entries by
    ``(rows, cols, row-major flattened string)``.  Values are bits and are
    normalized to 12 significant digits so that CSV round-trips are exact.
    ``alphabet``, the symbols of every block, is taken when the table is
    made.
    """

    dimension: int
    entries: dict
    provenance: str = field(default="", compare=False)
    alphabet: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not is_int(self.dimension) or self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not self.entries:
            raise ValueError("empty table: no entries")
        entries, chars = {}, set()
        for key, bits in self.entries.items():
            block = _key_block(self.dimension, key)
            if not 0 < bits < math.inf:
                raise ValueError(f"non-positive or non-finite ctm_bits for block {block!r}")
            entries[key] = sig12(bits)
            chars.update(block)
        self.entries = entries
        self.alphabet = frozenset(chars)


def _key_block(dimension, key):
    """The block of a table key, a non-empty string; in 2D the key is ``(rows,
    cols, block)`` with positive ``int`` rows and cols that multiply to its length."""
    if dimension == 2 and not (isinstance(key, tuple) and len(key) == 3):
        raise ValueError(f"2D key {key!r} is not (rows, cols, block)")
    block = key[2] if dimension == 2 else key
    if not isinstance(block, str):
        raise ValueError(f"block {block!r} is not a string")
    if not block:
        raise ValueError("empty block")
    if dimension == 2:
        if not all(is_int(n) and n > 0 for n in key[:2]):
            raise ValueError(f"rows and cols of block {block!r} must be positive integers")
        if key[0] * key[1] != len(block):
            raise ValueError("block length does not match rows*cols")
    return block


@dataclass(frozen=True)
class BdmParams:
    """Partition parameters for block decomposition.

    ``bdm_1d`` reads ``block_size`` and ``overlap``, which must stay below
    it; ``bdm_2d`` reads ``block_shape`` and never overlaps.  A partial
    block is dropped when ``pad_symbol`` is None and padded with it
    otherwise; ``missing_block_policy`` is ``error`` or
    ``entropy_surrogate``.
    """

    block_size: int = 2
    block_shape: tuple[int, int] = (2, 2)
    overlap: int = 0
    missing_block_policy: str = "error"
    pad_symbol: str | None = None

    def __post_init__(self):
        if self.missing_block_policy not in ("error", "entropy_surrogate"):
            raise ValueError("missing_block_policy must be 'error' or 'entropy_surrogate'")
        require_ints(block_size=self.block_size, overlap=self.overlap)
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if not 0 <= self.overlap < self.block_size:
            raise ValueError("overlap must satisfy 0 <= overlap < block_size")
        shape = self.block_shape
        if not (isinstance(shape, (tuple, list)) and len(shape) == 2 and all(map(is_int, shape))):
            raise ValueError(f"block_shape must be two integers, not {shape!r}")
        if min(shape) < 1:
            raise ValueError("block_shape entries must be positive")
        # a list passes the checks above; stored as given it would leave the
        # frozen params mutable and unhashable
        object.__setattr__(self, "block_shape", tuple(shape))


def _tally(cells, blank, tape, pos, state, steps, counts):
    """Add to ``counts`` the output of each rule table that agrees with
    ``cells`` and halts within ``steps`` more steps of this configuration,
    once per table.  ``None`` marks a cell that no run has read yet."""
    while steps:
        cell = 2 * state + tape.get(pos, blank)
        action = cells[cell]
        if action is None:
            # the tables that differ only in this cell part from here on
            for action in range(_ACTIONS):
                cells[cell] = action
                _tally(cells, blank, dict(tape), pos, state, steps, counts)
            cells[cell] = None
            return
        if action >= _HALT_WRITE_0:
            tape[pos] = action - _HALT_WRITE_0
            # every visited square has been written, so the tape's keys
            # span the visited segment; each unread cell may hold any action
            out = "".join(str(tape.get(i, blank)) for i in range(min(tape), max(tape) + 1))
            counts[out] += _ACTIONS ** cells.count(None)
            return
        tape[pos] = action >> 2
        pos += 1 if action & 2 else -1
        state = action & 1
        steps -= 1


def ctm_enumerate(states: int, symbols: int, step_bound: int) -> CtmTable:
    """Exhaustive CTM table for the (2,2) rule space.

    All ``10**4`` rule tables are counted from both uniform tapes (all-0
    and all-1); using the two blank conventions makes the halting-output
    distribution exactly closed under symbol complement, to match the
    left/right mirror closure that direction reversal already provides.
    ``ctm(block) = -log2(count/total_halting)``, rounded to 12 significant
    digits.  No (2,2) machine halts after ``_MIN_STEP_BOUND`` steps, so
    each is run for at most that many and every ``step_bound`` at or above
    it gives the same table.

    Runs are grouped by the cells they read, as in Brady's tree normal form
    (Math. Comp. 40(162), 1983): a cell's action is chosen only when a run
    first reads it, and a halting run counts once for each of the
    ``10**(4 - cells read)`` tables that share it.  The 20,000 table-tape
    pairs (92,400 steps when each runs alone) share 668 runs to a halt or
    the step bound, 1,644 steps in all, and get the same integer counts.
    """
    if (states, symbols) != (2, 2):
        raise ValueError(f"unsupported machine class ({states},{symbols}); only (2,2)")
    if step_bound < _MIN_STEP_BOUND:
        raise ValueError(f"step_bound {step_bound} below the (2,2) busy-beaver bound {_MIN_STEP_BOUND}")

    counts = Counter()
    for blank in (0, 1):
        _tally([None] * _CELLS, blank, {}, 0, 0, _MIN_STEP_BOUND, counts)
    total = sum(counts.values())

    entries = {
        block: -math.log2(c / total)
        for block, c in sorted(counts.items(), key=lambda kv: (len(kv[0]), kv[0]))
    }
    return CtmTable(
        dimension=1,
        entries=entries,
        provenance=f"enumerated ({states},{symbols}), {step_bound}-step bound",
    )


def _lookup(table, key, policy):
    if key in table.entries:
        return table.entries[key]
    block = key if table.dimension == 1 else key[2]
    if policy == "entropy_surrogate":
        return len(block) * coding.shannon_entropy(block) + 1.0
    raise ValueError(f"block {block!r} absent from CTM table")


def _check_symbols(symbols, table, pad):
    """Reject symbols (the members of the iterables in ``symbols``) and a
    pad symbol that are not in the table's alphabet."""
    bad = set().union(*symbols) - table.alphabet
    if bad:
        raise ValueError(f"symbols {sorted(bad)} not in table alphabet")
    if pad is not None and pad not in table.alphabet:
        raise ValueError("pad symbol not in table alphabet")


def _aggregate(counts, table, policy):
    return sum(_lookup(table, b, policy) + math.log2(mult) for b, mult in counts.items())


def bdm_1d(s: str | bytes, table: CtmTable, params: BdmParams | None = None, *, counts=None) -> float:
    """BDM of a string: partition into blocks, sum ctm + log2 multiplicity.

    A list or tuple of one-character symbols scores as their joined string,
    and ``bytes`` as the string of their bits, MSB first.  ``counts``, if
    given, must be ``coding._symbol_counts(s)``; it is read only where the
    bytes are counted, and counted there when omitted.
    """
    params = params or BdmParams()
    if table.dimension != 1:
        raise ValueError("bdm_1d requires a 1-dimensional table")
    size = params.block_size
    stride = size - params.overlap
    bytewise = not params.overlap and 8 % stride == 0
    head, tail = b"", 0
    if isinstance(s, bytes):
        # the leading 1 keeps the first byte's leading zeros in bin()
        head, s = (s, "") if bytewise else (b"", bin(int.from_bytes(b"\x01" + s, "big"))[3:])
    elif not isinstance(s, str):
        s = "".join(s)
    if 8 * len(head) + len(s) < size:
        raise ValueError(f"input shorter than block size {size}")

    # Blocks enter ``blocks`` in the order of their first occurrence either
    # way, so ``_aggregate`` adds the same terms in the same order.  Bytes
    # whose blocks tile each byte are counted in Counter's order, and each
    # distinct byte is split into its blocks.  Otherwise block i is made of
    # the i-th symbols of the columns s[j::stride], zipped.
    if head:
        blocks = Counter()
        for v, c in (coding._symbol_counts(head) if counts is None else counts).items():
            for i in range(0, 8, stride):
                blocks[format(v, "08b")[i : i + size]] += c
    else:
        m = (len(s) - size) // stride + 1
        columns = Counter(zip(*(s[j::stride][:m] for j in range(size))))
        blocks = Counter({"".join(block): c for block, c in columns.items()})
        tail = m * stride

    # the blocks hold every symbol of s before the tail they leave out; the
    # tail is padded only when the last block ends before s does
    pad = params.pad_symbol
    _check_symbols([s[tail:], *blocks], table, pad)
    if tail + params.overlap < len(s) and pad is not None:
        blocks[(s[tail:] + pad * size)[:size]] += 1
    return _aggregate(blocks, table, params.missing_block_policy)


def bdm_2d(m, table: CtmTable, params: BdmParams | None = None) -> float:
    """BDM of a matrix, given as equal-length rows, tiled row-major with
    non-overlapping blocks of ``params.block_shape``; ``overlap`` is not read."""
    params = params or BdmParams()
    if table.dimension != 2:
        raise ValueError("bdm_2d requires a 2-dimensional table")
    try:
        m = list(m)
        widths = {len(row) for row in m}
        # int() rejects nan and the infinities, which are not integers either
        odd = [v for row in m for v in row if v != v or v in (math.inf, -math.inf) or int(v) != v]
    except (TypeError, ValueError):
        raise ValueError("input must be a 2D matrix") from None
    if any(isinstance(row, str) for row in m) or len(widths) > 1:
        raise ValueError("input must be a 2D matrix")
    br, bc = params.block_shape
    rows, cols = len(m), min(widths, default=0)
    if rows < br or cols < bc:
        raise ValueError(f"matrix smaller than block shape {br}x{bc}")
    if odd:
        raise ValueError(f"non-integer entry {odd[0]!r}")
    cells = [[str(int(v)) for v in row] for row in m]
    pad = params.pad_symbol
    _check_symbols(cells, table, pad)

    # every symbol is now one character, so a row is a string of width cols
    grid = ["".join(row) for row in cells]
    if pad is not None:
        grid = [row + pad * (-cols % bc) for row in grid]
        grid += [pad * len(grid[0])] * (-rows % br)

    blocks = [
        (br, bc, "".join(row[j : j + bc] for row in grid[i : i + br]))
        for i in range(0, len(grid) - br + 1, br)
        for j in range(0, len(grid[0]) - bc + 1, bc)
    ]
    return _aggregate(Counter(blocks), table, params.missing_block_policy)


def ctm_save(table: CtmTable, path) -> None:
    """Write a CTM table CSV (``block,ctm_bits`` or ``rows,cols,block,ctm_bits``)."""
    rows = ([*(key if table.dimension == 2 else (key,)), fmt12(bits)] for key, bits in table.entries.items())
    write_csv(path, [_CTM_HEADERS[table.dimension], *rows])


def ctm_load(path) -> CtmTable:
    """Load a CTM table CSV written by :func:`ctm_save` (or hand-made)."""
    header, rows, name = _csv_rows(path, _CTM_HEADERS[1])
    dimension = 2 if len(header) == 4 else 1
    if header != _CTM_HEADERS[dimension]:
        raise ValueError(f"unrecognized header {','.join(header)!r}")
    entries = {}
    for lineno, cells in rows:
        key = block = cells[-2]
        try:
            bits = _finite(cells[-1], "ctm_bits")
            if dimension == 2:
                try:
                    key = (int(cells[0]), int(cells[1]), block)
                except ValueError:
                    raise ValueError("non-integer rows or cols") from None
            _key_block(dimension, key)
            if key in entries:
                raise ValueError(f"duplicate block {block!r}")
        except ValueError as exc:
            raise ValueError(f"{name(lineno, cells)}: {exc}") from None
        entries[key] = bits
    return CtmTable(dimension=dimension, entries=entries, provenance=f"loaded from {path}")


def toy_table_1d() -> CtmTable:
    """Tiny fixed 1D table over binary blocks of size 2 (for demos/tests)."""
    return CtmTable(
        dimension=1,
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
        entries=entries,
        provenance="bundled toy table, 2D blocks of 2x2",
    )
