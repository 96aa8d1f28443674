"""Command-line pipeline: dataset -> measures -> statistics -> reports.

Exit codes: 0 success, 1 I/O or parse failure, 2 usage or configuration
error.  All CSV output is deterministic for fixed inputs and flags;
floats are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import random
import sys
from dataclasses import dataclass

from . import bdm as bdm_mod
from . import coding, deceiver, stats
from .assembly import (
    DEFAULT_EXACT_GUARD,
    assembly_index_exact,
    assembly_index_split,
    assembly_tree_dot,
)
from .ingest import (
    RESULTS_HEADER,
    binarize_matrix,
    load_dataset,
    load_matrix_csv,
    save_matrix_csv,
    text_to_bits,
    write_results,
)
from ._util import fmt12
from .measures import MEASURES

__all__ = ["main", "entrypoint", "RunConfig", "MeasureResult", "MEASURE_NAMES", "ALPHABET16"]

MEASURE_NAMES = tuple(MEASURES)
ALPHABET16 = "ABCDEFGHIJKLMNOP"


class UsageError(Exception):
    """Configuration problem: maps to exit code 2."""


class InputError(Exception):
    """I/O or parse problem: maps to exit code 1."""


@dataclass(frozen=True)
class MeasureResult:
    """One measured value for one record."""

    measure: str
    value: float | int | None
    metadata: str = ""


@dataclass
class RunConfig:
    """Resolved options shared by the measurement pipeline."""

    measures: tuple[str, ...] = ()
    ctm_table_1d: "bdm_mod.CtmTable | None" = None
    ctm_table_2d: "bdm_mod.CtmTable | None" = None
    binarize_threshold: float | None = None
    bdm_params: "bdm_mod.BdmParams | None" = None  # set only when a BDM measure is requested
    exact_guard: int = DEFAULT_EXACT_GUARD


def _binary_matrix(record, config):
    """The record's matrix as rows of 0/1 ints, binarized first if a threshold is given."""
    m = record.payload
    if config.binarize_threshold is not None:
        m = binarize_matrix(m, config.binarize_threshold)
    if not {v for row in m for v in row} <= {0, 1}:
        raise UsageError(
            f"record {record.id!r}: matrix has non-binary entries; pass --threshold"
        )
    return [[int(v) for v in row] for row in m]


def _payload_string(record, config):
    """String form of a payload: matrices are binarized (if a threshold is
    given) and flattened row-major to digit characters."""
    if record.payload_kind == "string":
        return record.payload, "string"
    return "".join(str(v) for row in _binary_matrix(record, config) for v in row), "matrix_flat"


def _ctm_table(config, dim):
    return {1: config.ctm_table_1d, 2: config.ctm_table_2d}.get(dim)


def compute_measure(record, measure, config: RunConfig) -> MeasureResult:
    """Measure one record with ``MEASURES[measure]``; inapplicable
    combinations yield an empty value."""
    entry = MEASURES[measure]
    if entry.matrix_only:
        if record.payload_kind != "matrix":
            return MeasureResult(measure, None, "not applicable: string payload")
        x, suffix = _binary_matrix(record, config), ""
    else:
        x, source = _payload_string(record, config)
        if entry.bits and source == "string":
            x, source = text_to_bits(x), "utf8_bits"
        suffix = f";input={source}"
    try:
        value, note = entry.compute(x, _ctm_table(config, entry.ctm_dim), config.bdm_params, config.exact_guard)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"record {record.id!r}, measure {measure!r}: {exc.args[0] if exc.args else exc}") from None
    if entry.ctm_dim and config.bdm_params.missing_block_policy != "error":
        suffix += f";missing={config.bdm_params.missing_block_policy}"
    return MeasureResult(measure, value, note + suffix)


def _build_config(args) -> RunConfig:
    measures = tuple(m.strip() for m in args.measures.split(",")) if args.measures else ()
    for m in measures:
        if m not in MEASURES:
            raise UsageError(f"unknown measure {m!r}; choose from {','.join(MEASURE_NAMES)}")
    table_1d = table_2d = None
    if args.toy_ctm and args.ctm_table:
        raise UsageError("--toy-ctm and --ctm-table are mutually exclusive")
    if args.toy_ctm:
        table_1d, table_2d = bdm_mod.toy_table_1d(), bdm_mod.toy_table_2d()
    elif args.ctm_table:
        try:
            table = bdm_mod.ctm_load(args.ctm_table)
        except OSError as exc:
            raise InputError(f"cannot read CTM table: {exc}") from None
        except ValueError as exc:
            raise InputError(f"CTM table: {exc}") from None
        if table.dimension == 1:
            table_1d = table
        else:
            table_2d = table
    config = RunConfig(
        measures=measures,
        ctm_table_1d=table_1d,
        ctm_table_2d=table_2d,
        binarize_threshold=args.threshold,
        exact_guard=args.exact_guard,
    )
    for m in measures:
        dim = MEASURES[m].ctm_dim
        if dim and _ctm_table(config, dim) is None:
            raise UsageError(f"{m} requires --ctm-table ({dim}D) or --toy-ctm")
    if any(MEASURES[m].ctm_dim for m in measures):
        config.bdm_params = _bdm_params(args)
    return config


def _bdm_params(args) -> "bdm_mod.BdmParams":
    block_shape = (2, 2)
    if args.block_shape:
        try:
            r, c = args.block_shape.lower().split("x")
            block_shape = (int(r), int(c))
        except ValueError:
            raise UsageError("--block-shape must look like RxC, e.g. 2x2") from None
    try:
        return bdm_mod.BdmParams(
            block_size=args.block,
            block_shape=block_shape,
            overlap=args.overlap,
            boundary=args.boundary,
            missing_block_policy="entropy_surrogate" if args.missing_block == "entropy" else "error",
            pad_symbol="0" if args.boundary == "pad" else None,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_measure(args) -> int:
    config = _build_config(args)
    if not config.measures:
        raise UsageError("--measures is required")
    try:
        records = load_dataset(args.input)
    except OSError as exc:
        raise InputError(f"cannot read dataset: {exc}") from None
    except ValueError as exc:
        raise InputError(f"dataset: {exc}") from None
    rows = []
    for record in records:
        for measure in config.measures:
            result = compute_measure(record, measure, config)
            rows.append((record.id, record.category, result.measure, result.value, result.metadata))
    write_results(rows, args.out)
    return 0


def _read_results(path):
    """Rows of a results CSV, with ``value`` parsed to a float (None if empty)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if set(RESULTS_HEADER) - set(reader.fieldnames or []):
                raise InputError(f"results file {path} lacks header {','.join(RESULTS_HEADER)}")
            rows = list(reader)
    except OSError as exc:
        raise InputError(f"cannot read results: {exc}") from None
    for r in rows:
        try:
            r["value"] = float(r["value"]) if r["value"] else None
        except ValueError:
            raise InputError(f"results file {path}: row {r['id']!r}: non-numeric value {r['value']!r}") from None
    return rows


def cmd_correlate(args) -> int:
    rows = _read_results(args.input)
    present = {r["measure"] for r in rows}
    for m in (args.x, args.y):
        if m not in present:
            raise UsageError(f"measure {m!r} absent from results file")
    xs_by_id, ys_by_id, order = {}, {}, []
    for r in rows:
        if r["value"] is None:
            continue
        if r["measure"] == args.x:
            if r["id"] not in xs_by_id:
                order.append(r["id"])
            xs_by_id[r["id"]] = r["value"]
        if r["measure"] == args.y:
            ys_by_id[r["id"]] = r["value"]
    shared = [i for i in order if i in ys_by_id]
    if len(shared) < 3:
        raise UsageError(f"need >= 3 shared ids with both measures, found {len(shared)}")
    xs = [xs_by_id[i] for i in shared]
    ys = [ys_by_id[i] for i in shared]
    fn = stats.pearson if args.method == "pearson" else stats.spearman
    try:
        rep = fn(xs, ys, ci_level=args.ci)
    except ValueError as exc:
        raise UsageError(f"{args.method} {args.x} vs {args.y}: {exc}") from None
    cells = [fmt12(v) for v in (rep.statistic, rep.df, rep.p_one_tail, rep.p_two_tail, rep.ci_low, rep.ci_high)]
    stat, df, p_one, p_two, ci_low, ci_high = cells
    print(
        f"{args.method} {args.x} vs {args.y}: n={len(shared)} statistic={stat} "
        f"df={df} p_one={p_one} p_two={p_two} ci=[{ci_low},{ci_high}]"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "method", "n", "statistic", "df", "p_one_tail", "p_two_tail", "ci_low", "ci_high"])
            writer.writerow([args.x, args.y, args.method, len(shared), *cells])
    return 0


def cmd_classify(args) -> int:
    rows = _read_results(args.input)
    group_col = args.group_col
    if rows and group_col not in rows[0]:
        raise UsageError(f"group column {group_col!r} not in results file")
    measures, groups = [], []
    values = {}
    for r in rows:
        if r["value"] is None:
            continue
        m, g = r["measure"], r[group_col]
        if m not in measures:
            measures.append(m)
        if g not in groups:
            groups.append(g)
        values.setdefault((m, g), []).append(r["value"])
    if len(groups) < 2:
        raise UsageError(f"need >= 2 groups in column {group_col!r}, found {len(groups)}")
    out_rows = []
    header = ["measure", "group_a", "group_b", "test", "n_a", "n_b", "statistic", "df", "p_one_tail", "p_two_tail", "note"]
    for m in measures:
        for ga, gb in itertools.combinations(sorted(groups), 2):
            a, b = values.get((m, ga), []), values.get((m, gb), [])
            row = [m, ga, gb, args.test, len(a), len(b)]
            if args.test == "welch_t" and min(len(a), len(b)) < 2:
                out_rows.append(row + ["", "", "", "", "skipped: group with < 2 members"])
            elif not a or not b:
                out_rows.append(row + ["", "", "", "", "skipped: empty group"])
            else:
                try:
                    rep = (stats.welch_t if args.test == "welch_t" else stats.ks_two_sample)(a, b)
                except ValueError as exc:
                    out_rows.append(row + ["", "", "", "", f"skipped: {exc}"])
                    continue
                out_rows.append(row + [fmt12(rep.statistic), fmt12(rep.df), fmt12(rep.p_one_tail), fmt12(rep.p_two_tail), rep.notes])
    stdout = csv.writer(sys.stdout, lineterminator="\n")
    stdout.writerow(header)
    stdout.writerows(out_rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(out_rows)
    return 0


def cmd_tree(args) -> int:
    s = args.string
    if not s:
        raise InputError("empty input string")
    if args.method == "huffman":
        dot = coding.huffman_tree_dot(coding.huffman(s))
    else:
        if args.split:
            _, pathway = assembly_index_split(s)
        else:
            if len(s) > args.exact_guard:
                raise UsageError(
                    f"length {len(s)} exceeds exact guard {args.exact_guard}; "
                    "pass --split for the heuristic pathway"
                )
            _, pathway = assembly_index_exact(s, limit=args.exact_guard)
        dot = assembly_tree_dot(pathway)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(dot)
    return 0


def cmd_ctm_gen(args) -> int:
    try:
        table = bdm_mod.ctm_enumerate(args.states, args.symbols, args.step_bound)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    bdm_mod.ctm_save(table, args.out)
    return 0


def cmd_binarize(args) -> int:
    try:
        matrix = load_matrix_csv(args.input)
    except OSError as exc:
        raise InputError(f"cannot read matrix: {exc}") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    save_matrix_csv(binarize_matrix(matrix, args.threshold), args.out)
    return 0


def cmd_champernowne(args) -> int:
    try:
        print(deceiver.champernowne(args.n, args.base))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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

                def length(steps):
                    return sum(len(seed_str) + (i - 1) // period for i in range(1, steps + 1))

                steps = 1
                while length(steps + 1) <= target:
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
    rows = synthetic_corpus(args.seed, args.size)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "category", "payload_kind", "payload", "reference_value"])
        for rid, cat, payload in rows:
            writer.writerow([rid, cat, "string", payload, ""])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqcomplexity",
        description="Complexity-measure benchmark pipeline (measures, statistics, trees).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="run measures over a dataset CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--measures", required=True, help="comma-separated subset of " + ",".join(MEASURE_NAMES))
    p.add_argument("--ctm-table", dest="ctm_table")
    p.add_argument("--toy-ctm", dest="toy_ctm", action="store_true")
    p.add_argument("--threshold", type=float)
    p.add_argument("--block", type=int, default=2)
    p.add_argument("--block-shape", dest="block_shape")
    p.add_argument("--overlap", type=int, default=0)
    p.add_argument("--boundary", choices=("ignore", "pad"), default="ignore")
    p.add_argument("--missing-block", dest="missing_block", choices=("error", "entropy"), default="error")
    p.add_argument("--exact-guard", dest="exact_guard", type=int, default=DEFAULT_EXACT_GUARD)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("correlate", help="correlate two measures from a results CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--method", choices=("pearson", "spearman"), default="pearson")
    p.add_argument("--ci", type=float, default=0.99)
    p.add_argument("--out")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("classify", help="two-sample tests per measure across groups")
    p.add_argument("--input", required=True)
    p.add_argument("--group-col", dest="group_col", default="category")
    p.add_argument("--test", choices=("welch_t", "ks"), default="welch_t")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tree", help="write the assembly or Huffman tree as DOT")
    p.add_argument("--string", required=True)
    p.add_argument("--method", choices=("assembly", "huffman"), default="assembly")
    p.add_argument("--out", required=True)
    p.add_argument("--split", action="store_true", help="use the heuristic pathway")
    p.add_argument("--exact-guard", dest="exact_guard", type=int, default=DEFAULT_EXACT_GUARD)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("ctm-gen", help="enumerate a small-machine CTM table")
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--symbols", type=int, default=2)
    p.add_argument("--step-bound", dest="step_bound", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ctm_gen)

    p = sub.add_parser("binarize", help="threshold a matrix CSV to 0/1")
    p.add_argument("--input", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_binarize)

    p = sub.add_parser("champernowne", help="print a Champernowne digit prefix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, default=10)
    p.set_defaults(func=cmd_champernowne)

    p = sub.add_parser("synthetic", help="emit the seeded synthetic benchmark corpus")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthetic)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
