"""Command-line pipeline: dataset -> measures -> statistics -> reports.

Exit codes: 0 success, 1 an input file that fails to read or parse, 2 any
other rejected value.  All CSV output is deterministic for fixed inputs
and flags; floats are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import random
import sys

from . import bdm as bdm_mod
from . import coding, deceiver, stats
from .assembly import assembly_index_exact, assembly_index_split, assembly_tree_dot
from .ingest import (
    DATASET_HEADER,
    _finite,
    binarize_matrix,
    load_dataset,
    load_matrix_csv,
    load_results,
    save_matrix_csv,
    text_to_bits,  # kept importable here: bench/tracing.py wraps it by name
    write_csv,
    write_results,
    write_text,
)
from ._util import fmt12
from .measures import MEASURES, evaluate

__all__ = ["main", "entrypoint", "ALPHABET16"]

ALPHABET16 = "ABCDEFGHIJKLMNOP"
SYNTHETIC_CAP = 10**6  # most records synthetic generates, all of them in memory


class InputError(Exception):
    """An input file failed to read or parse: maps to exit code 1."""


def _read(what, load, path):
    """``load(path)``, with a missing, undecodable or malformed file as an
    InputError naming ``what`` (exit 1)."""
    try:
        return load(path)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:  # UnicodeDecodeError included
        raise InputError(f"{what}: {exc}") from None


def _finite_float(text):
    """argparse ``type`` of an option that takes a finite number."""
    try:
        return _finite(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _binary_matrix(record, threshold):
    """The record's matrix as rows of 0/1 ints, binarized first if a threshold is given."""
    m = record.payload
    if threshold is not None:
        m = binarize_matrix(m, threshold)
    if not {v for row in m for v in row} <= {0, 1}:
        raise ValueError(
            f"record {record.id!r}: matrix has non-binary entries; pass --threshold"
        )
    return [[int(v) for v in row] for row in m]


def _bdm_params(args) -> "bdm_mod.BdmParams":
    try:
        r, c = args.block_shape.lower().split("x")
        block_shape = (int(r), int(c))
    except ValueError:
        raise ValueError("--block-shape must look like RxC, e.g. 2x2") from None
    return bdm_mod.BdmParams(
        block_size=args.block,
        block_shape=block_shape,
        overlap=args.overlap,
        missing_block_policy="entropy_surrogate" if args.missing_block == "entropy" else "error",
        pad_symbol="0" if args.boundary == "pad" else None,
    )


def cmd_measure(args) -> int:
    measures = tuple(m.strip() for m in args.measures.split(",")) if args.measures else ()
    for i, m in enumerate(measures):
        if m not in MEASURES:
            raise ValueError(f"unknown measure {m!r}; choose from {','.join(MEASURES)}")
        if m in measures[:i]:
            raise ValueError(f"--measures names {m!r} twice")
    if args.toy_ctm and args.ctm_table:
        raise ValueError("--toy-ctm and --ctm-table are mutually exclusive")
    tables = (bdm_mod.toy_table_1d(), bdm_mod.toy_table_2d()) if args.toy_ctm else ()
    if args.ctm_table:
        tables = (_read(f"CTM table {args.ctm_table}", bdm_mod.ctm_load, args.ctm_table),)
    tables = {t.dimension: t for t in tables}
    dims = [MEASURES[m].ctm_dim for m in measures]
    for m, dim in zip(measures, dims):
        if dim and dim not in tables:
            raise ValueError(f"{m} requires --ctm-table ({dim}D) or --toy-ctm")
    params = _bdm_params(args) if any(dims) else None
    if not measures:
        raise ValueError("--measures is required")
    records = _read(f"dataset {args.input}", load_dataset, args.input)
    rows = []
    for record in records:
        x = record.payload if isinstance(record.payload, str) else _binary_matrix(record, args.threshold)
        results = evaluate(measures, x, tables, params)  # a measure's ValueError comes out of its next()
        for m in measures:
            try:
                rows.append((record.id, record.category, m, *next(results)))
            except ValueError as exc:
                raise ValueError(f"record {record.id!r}, measure {m!r}: {exc}") from None
    write_results(rows, args.out)
    return 0


def cmd_correlate(args) -> int:
    table = _read(f"results file {args.input}", load_results, args.input)
    present = {m for _, m in table}
    for m in (args.x, args.y):
        if m not in present:
            raise ValueError(f"measure {m!r} absent from results file")
    values = {key: v for key, (_, v) in table.items() if v is not None}
    shared = [i for i, m in values if m == args.x and (i, args.y) in values]
    xs = [values[i, args.x] for i in shared]
    ys = [values[i, args.y] for i in shared]
    fn = stats.pearson if args.method == "pearson" else stats.spearman
    try:
        rep = fn(xs, ys, ci_level=args.ci)
    except ValueError as exc:
        raise ValueError(f"{args.method} {args.x} vs {args.y}: {exc}") from None
    cells = [fmt12(v) for v in (rep.statistic, rep.df, rep.p_one_tail, rep.p_two_tail, rep.ci_low, rep.ci_high)]
    stat, df, p_one, p_two, ci_low, ci_high = cells
    print(
        f"{args.method} {args.x} vs {args.y}: n={len(shared)} statistic={stat} "
        f"df={df} p_one={p_one} p_two={p_two} ci=[{ci_low},{ci_high}]"
    )
    if args.out:
        write_csv(args.out, [
            ["x", "y", "method", "n", "statistic", "df", "p_one_tail", "p_two_tail", "ci_low", "ci_high"],
            [args.x, args.y, args.method, len(shared), *cells],
        ])
    return 0


def cmd_classify(args) -> int:
    table = _read(f"results file {args.input}", load_results, args.input)
    values = {}
    for (_, m), (g, v) in table.items():
        if v is not None:
            values.setdefault((m, g), []).append(v)
    measures = list(dict.fromkeys(m for m, _ in values))
    groups = sorted({g for _, g in values})
    if len(groups) < 2:
        raise ValueError(f"need >= 2 groups in column 'category', found {len(groups)}")
    out_rows = []
    header = ["measure", "group_a", "group_b", "test", "n_a", "n_b", "statistic", "df", "p_one_tail", "p_two_tail", "note"]
    for m in measures:
        for ga, gb in itertools.combinations(groups, 2):
            a, b = values.get((m, ga), []), values.get((m, gb), [])
            row = [m, ga, gb, args.test, len(a), len(b)]
            try:
                rep = (stats.welch_t if args.test == "welch_t" else stats.ks_two_sample)(a, b)
            except ValueError as exc:
                out_rows.append(row + ["", "", "", "", f"skipped: {exc}"])
                continue
            out_rows.append(row + [fmt12(rep.statistic), fmt12(rep.df), fmt12(rep.p_one_tail), fmt12(rep.p_two_tail), rep.notes])
    table = [header, *out_rows]
    csv.writer(sys.stdout).writerows(table)
    if args.out:
        write_csv(args.out, table)
    return 0


def cmd_tree(args) -> int:
    if args.split and args.method == "huffman":
        raise ValueError("--split picks an assembly pathway; it does not apply to --method huffman")
    s = args.string
    if not s:
        raise ValueError("empty input string")
    s.encode("utf-8")  # a non-UTF-8 argument arrives with lone surrogates: fail before any work
    if args.method == "huffman":
        dot = coding.huffman_tree_dot(coding.huffman(s))
    else:
        try:
            _, pathway = assembly_index_split(s) if args.split else assembly_index_exact(s)
        except ValueError as exc:
            raise ValueError(f"{exc}: pass --split") from None
        dot = assembly_tree_dot(pathway)
    write_text(args.out, dot)
    return 0


def cmd_ctm_gen(args) -> int:
    # the only supported class; every step bound >= 6 gives the same table
    bdm_mod.ctm_save(bdm_mod.ctm_enumerate(2, 2, 6), args.out)
    return 0


def cmd_binarize(args) -> int:
    matrix = _read(f"matrix {args.input}", load_matrix_csv, args.input)
    save_matrix_csv(binarize_matrix(matrix, args.threshold), args.out)
    return 0


def cmd_champernowne(args) -> int:
    # piece by piece, so the prefix is never whole in memory
    sys.stdout.writelines(deceiver.champernowne_chunks(args.n, args.base))
    print()
    return 0


def synthetic_corpus(seed: int, size: int):
    """Deterministic benchmark corpus: four construction categories over a
    16-symbol alphabet, lengths 20-200.

    Returns (id, category, payload) triples; the RNG stream depends only
    on ``(seed, size)``.
    """
    rng = random.Random(seed)
    cats = ("repetition", "modular", "champernowne", "random")
    base, rem = divmod(size, len(cats))
    counts = [base + (1 if i < rem else 0) for i in range(len(cats))]
    digit_map = str.maketrans("0123456789abcdef", ALPHABET16)
    rows = []
    for cat, count in zip(cats, counts):
        for k in range(count):
            target = rng.randint(20, 200)
            if cat == "repetition":
                # one trailing marker symbol keeps >= 2 distinct symbols so
                # entropy-based bounds stay non-degenerate
                unit = rng.choice(ALPHABET16)
                marker = rng.choice(ALPHABET16.replace(unit, ""))
                payload = unit * (target - 1) + marker
            elif cat == "modular":
                seed_str = "".join(rng.choice(ALPHABET16) for _ in range(rng.randint(1, 2)))
                period = rng.randint(2, 6)
                extensions = tuple(rng.choice(ALPHABET16) for _ in range(3))
                # step i appends len(seed_str) + (i - 1) // period symbols
                steps, length = 1, len(seed_str)
                while length + len(seed_str) + steps // period <= target:
                    length += len(seed_str) + steps // period
                    steps += 1
                spec = deceiver.GeneratorSpec(
                    kind="modular", seed=seed_str, period=period,
                    steps=steps, extension_symbols=extensions,
                )
                payload = deceiver.modular_generate(spec)
                if len(payload) < 20:
                    payload = (payload * (20 // len(payload) + 1))[:20]
            elif cat == "champernowne":
                b = rng.randint(2, 16)
                payload = deceiver.champernowne(target, b).translate(digit_map)
            else:
                payload = "".join(rng.choice(ALPHABET16) for _ in range(target))
            rows.append((f"{cat[:3]}{k:03d}", cat, payload))
    return rows


def cmd_synthetic(args) -> int:
    if not 1 <= args.size <= SYNTHETIC_CAP:
        raise ValueError(f"--size must be positive and at most {SYNTHETIC_CAP}, got {args.size}")
    rows = synthetic_corpus(args.seed, args.size)
    write_csv(args.out, [DATASET_HEADER, *([rid, cat, "string", payload, ""] for rid, cat, payload in rows)])
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcomplexity",
        description="Complexity-measure benchmark pipeline (measures, statistics, trees).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="run measures over a dataset CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--measures", required=True, help="comma-separated subset of " + ",".join(MEASURES))
    p.add_argument("--ctm-table", dest="ctm_table")
    p.add_argument("--toy-ctm", dest="toy_ctm", action="store_true")
    p.add_argument("--threshold", type=_finite_float)
    p.add_argument("--block", type=int, default=2)
    p.add_argument("--block-shape", dest="block_shape", default="2x2")
    p.add_argument("--overlap", type=int, default=0)
    p.add_argument("--boundary", choices=("ignore", "pad"), default="ignore")
    p.add_argument("--missing-block", dest="missing_block", choices=("error", "entropy"), default="error")

    p = sub.add_parser("correlate", help="correlate two measures from a results CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--method", choices=("pearson", "spearman"), default="pearson")
    p.add_argument("--ci", type=float, default=0.99)
    p.add_argument("--out")

    p = sub.add_parser("classify", help="two-sample tests per measure across categories")
    p.add_argument("--input", required=True)
    p.add_argument("--test", choices=("welch_t", "ks"), default="welch_t")
    p.add_argument("--out")

    p = sub.add_parser("tree", help="write the assembly or Huffman tree as DOT")
    p.add_argument("--string", required=True)
    p.add_argument("--method", choices=("assembly", "huffman"), default="assembly")
    p.add_argument("--out", required=True)
    p.add_argument("--split", action="store_true", help="use the heuristic pathway")

    p = sub.add_parser("ctm-gen", help="enumerate the (2,2)-machine CTM table")
    p.add_argument("--out", required=True)

    p = sub.add_parser("binarize", help="threshold a matrix CSV to 0/1")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=_finite_float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("champernowne", help="print a Champernowne digit prefix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, default=10)

    p = sub.add_parser("synthetic", help="emit the seeded synthetic benchmark corpus")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, not stored in the cached parser, so that a wrapper
    # set on a cmd_* function later is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    # argparse in CPython 3.10-3.12 reads --opt=-- as an empty list of values
    empty = [name for name, value in vars(args).items() if value == []]
    try:
        if empty:
            raise ValueError(f"argument --{empty[0].replace('_', '-')}: expected one argument")
        return handler(args)
    except (ValueError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
