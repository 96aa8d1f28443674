"""The benchmark's workloads.

Each workload makes a pool of inputs from the seed in ``setup``; item ``k``
runs pool entry ``k % len(pool)``, so a run sweeps the pool again and again.
``run`` is the timed call into the package; ``collect`` (untimed) turns its
result into the item's output; ``check`` tests that output against
``oracles``; ``canonical`` gives the bytes that enter the output digest.

``tail_pct`` is the percentile reported as ``item_tail_ms``: a high one
that had at least ten items beyond it in every run when the benchmark was
defined.  It stays fixed, so that a faster program, which fits more items
into a run, is compared at the same percentile.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random

from seqcomplexity import assembly, bdm, cli, coding, deceiver

import oracles


class Corpus:
    """One item is the documented batch flow over a 100-record synthetic
    corpus: ``measure``, then ``correlate`` and ``classify`` on its results.
    The corpus is half the CLI's default size, so that a run holds enough
    items for a median and a tail."""

    name = "corpus"
    tail_pct = 75
    POOL = 24
    SIZE = 100
    MEASURES = ("entropy", "huffman", "rle", "lzw", "ma_split", "bdm1d")
    OTHERS = ("entropy", "huffman", "rle", "lzw", "bdm1d")
    TESTS = ("welch_t", "ks")

    def setup(self, seed, workdir):
        self.workdir = workdir
        self.toy_entries = bdm.toy_table_1d().entries
        self.pool = []
        for k in range(self.POOL):
            rows = cli.synthetic_corpus(seed + k, self.SIZE)
            path = os.path.join(workdir, f"corpus{k}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["id", "category", "payload_kind", "payload", "reference_value"])
                writer.writerows([rid, cat, "string", payload, ""] for rid, cat, payload in rows)
            self.pool.append((path, rows))

    def input_bytes(self):
        for path, _ in self.pool:
            with open(path, "rb") as fh:
                yield fh.read()

    def _out(self, name):
        return os.path.join(self.workdir, name)

    def _argvs(self, k):
        path = self.pool[k % len(self.pool)][0]
        results = self._out("results.csv")
        yield ["measure", "--input", path, "--out", results,
               "--measures", ",".join(self.MEASURES), "--toy-ctm"]
        for y in self.OTHERS:
            yield ["correlate", "--input", results, "--x", "ma_split", "--y", y,
                   "--method", "spearman", "--out", self._out(f"spearman-{y}.csv")]
        yield ["correlate", "--input", results, "--x", "ma_split", "--y", "lzw",
               "--method", "pearson", "--out", self._out("pearson-lzw.csv")]
        for test in self.TESTS:
            yield ["classify", "--input", results, "--test", test,
                   "--out", self._out(f"classify-{test}.csv")]

    def run(self, k):
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in self._argvs(k)]

    def collect(self, codes):
        names = ["results.csv", "pearson-lzw.csv"]
        names += [f"spearman-{y}.csv" for y in self.OTHERS]
        names += [f"classify-{t}.csv" for t in self.TESTS]
        files = {}
        for name in names:
            with open(self._out(name), encoding="utf-8", newline="") as fh:
                files[name] = fh.read()
        return {"codes": codes, "files": files}

    def canonical(self, out):
        return json.dumps(out, sort_keys=True).encode()

    def check(self, k, out):
        problems = []
        if any(out["codes"]):
            problems.append(f"exit codes {out['codes']}")
        rows = self.pool[k % len(self.pool)][1]
        results = list(csv.DictReader(io.StringIO(out["files"]["results.csv"])))
        values = {(r["id"], r["measure"]): r["value"] for r in results}
        wanted = {(rid, m) for rid, _, _ in rows for m in self.MEASURES}
        if len(results) != len(wanted) or set(values) != wanted:
            return problems + ["results lack a row for some (record, measure) or repeat one"]
        for rid, _, s in rows:
            v = {m: float(values[(rid, m)]) for m in self.MEASURES}
            problems += [f"{rid}: {p}" for p in _string_problems(s, v, self.toy_entries)]
            if not oracles.ceil_log2(len(s)) <= v["ma_split"] <= len(s) - 1:
                problems.append(f"{rid}: ma_split {v['ma_split']} outside [ceil(log2 n), n-1]")
        for name, text in out["files"].items():
            if name == "results.csv":
                continue
            problems += [f"{name}: {p}" for p in _stat_problems(name, text, self.SIZE)]
        return problems


def _string_problems(s, v, bdm_entries):
    """Check entropy, huffman, rle, lzw and bdm1d values of one string."""
    problems = []
    if not oracles.close(v["entropy"], oracles.entropy(s)):
        problems.append(f"entropy {v['entropy']} != {oracles.entropy(s)}")
    if not oracles.huffman_bits_ok(s, v["huffman"]):
        problems.append(f"huffman {v['huffman']} outside [nH, nH + n)")
    if v["rle"] != oracles.rle_length(s):
        problems.append(f"rle {v['rle']} != {oracles.rle_length(s)}")
    lzw = coding.lzw_encode(s)
    if oracles.lzw_decode(lzw.codes, s) != s:
        problems.append("lzw codes do not decode to the input")
    if v["lzw"] != lzw.bit_length:
        problems.append(f"lzw {v['lzw']} != bit length {lzw.bit_length} of its codes")
    want = oracles.bdm_1d(oracles.utf8_bits(s), bdm_entries)
    if not oracles.close(v["bdm1d"], want):
        problems.append(f"bdm1d {v['bdm1d']} != {want}")
    return problems


def _stat_problems(name, text, n):
    """p-values in [0, 1]; correlations have n pairs and |r| <= 1."""
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["no rows"]
    for row in rows:
        for col in ("p_one_tail", "p_two_tail"):
            if row[col] and not 0.0 <= float(row[col]) <= 1.0:
                problems.append(f"{col} {row[col]} outside [0, 1]")
        if "method" in row:
            if int(row["n"]) != n or not -1.0 <= float(row["statistic"]) <= 1.0:
                problems.append(f"n={row['n']} statistic={row['statistic']}")
        elif not row["p_two_tail"] and not row["note"].startswith("skipped"):
            problems.append(f"{row['measure']} {row['group_a']}/{row['group_b']}: no p-value")
    return problems


class Exact:
    """One item is one binary string of length 10 through the exact search
    and then the split heuristic.  The pool is every such string, in an
    order drawn from the seed, so every seed does the same total work; these
    are among the strings acceptance criterion 4 sweeps."""

    name = "exact"
    tail_pct = 99
    LENGTH = 10

    def setup(self, seed, workdir):
        self.pool = [format(v, f"0{self.LENGTH}b") for v in range(1 << self.LENGTH)]
        random.Random(seed).shuffle(self.pool)

    def input_bytes(self):
        yield "\n".join(self.pool).encode()

    def run(self, k):
        s = self.pool[k % len(self.pool)]
        return s, assembly.assembly_index_exact(s), assembly.assembly_index_split(s)

    def collect(self, raw):
        return raw

    def canonical(self, out):
        s, (ex, ex_path), (sp, sp_path) = out
        steps = [
            ";".join(f"{st.left},{st.right},{st.result}" for st in path.steps)
            for path in (ex_path, sp_path)
        ]
        return f"{s} {ex} {sp} {steps[0]} {steps[1]}\n".encode()

    def check(self, k, out):
        s, (ex, ex_path), (sp, sp_path) = out
        problems = []
        for label, idx, path in (("exact", ex, ex_path), ("split", sp, sp_path)):
            if not assembly.verify_pathway(path, s):
                problems.append(f"{s}: {label} witness fails verify_pathway")
            if path.index != idx:
                problems.append(f"{s}: {label} index {idx} != witness length {path.index}")
        if not sp >= ex >= oracles.ceil_log2(len(s)):
            problems.append(f"{s}: not split {sp} >= exact {ex} >= ceil(log2 n)")
        return problems

    @staticmethod
    def slack(outs):
        """Sum of split - exact over the given outputs."""
        return sum(sp - ex for _, (ex, _), (sp, _) in outs)


class Long:
    """One item is one deceiver string of 2e4 to 1e5 characters through
    ``divergence_report`` with the coding and BDM measures; no assembly."""

    name = "long"
    tail_pct = 90
    POOL = 48
    MIN_LEN, MAX_LEN = 20_000, 100_000
    SYMBOLS = "abcdefghijklmnop"
    # passed explicitly: deceiver.DEFAULT_MEASURES includes ma_split
    MEASURES = ("entropy", "huffman", "rle", "lzw", "bdm1d")

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        self.table = bdm.ctm_enumerate(2, 2, 30)
        # every seed gets the same evenly spaced lengths, alternately of
        # each kind, so that the pool's work hardly depends on the seed
        span = self.MAX_LEN - self.MIN_LEN
        order = list(range(self.POOL))
        rng.shuffle(order)
        self.pool = []
        for j in order:
            target = self.MIN_LEN + span * j // (self.POOL - 1)
            if j % 2 == 0:
                spec = deceiver.GeneratorSpec(kind="champernowne", base=rng.randint(2, 16), length=target)
            else:
                spec = self._modular_spec(rng, target)
            self.pool.append((spec, deceiver.generate(spec)))

    def _modular_spec(self, rng, target):
        """Modular expander spec whose output is the longest not above ``target``."""
        seed = "".join(rng.choice(self.SYMBOLS) for _ in range(rng.randint(1, 3)))
        fresh = [c for c in self.SYMBOLS if c not in seed]
        extensions = tuple(rng.choice(fresh) for _ in range(rng.randint(1, 4)))
        period = rng.randint(2, 8)
        steps = total = 0
        # step i appends the module, which has grown by (i - 1) // period symbols
        while total + len(seed) + steps // period <= target:
            total += len(seed) + steps // period
            steps += 1
        return deceiver.GeneratorSpec(
            kind="modular", seed=seed, period=period, steps=steps, extension_symbols=extensions
        )

    def input_bytes(self):
        for spec, s in self.pool:
            yield f"{spec.to_json()}\n{s}\n".encode()

    def run(self, k):
        spec, s = self.pool[k % len(self.pool)]
        return deceiver.divergence_report(s, spec, measures=self.MEASURES, ctm_table=self.table)

    def collect(self, report):
        return report

    def canonical(self, report):
        return json.dumps(
            {
                "measures": {m: repr(v) for m, v in report.measures.items()},
                "description_bits": report.description_bits,
                "normalized_entropy": repr(report.normalized_entropy),
            },
            sort_keys=True,
        ).encode()

    def check(self, k, report):
        _, s = self.pool[k % len(self.pool)]
        if set(report.measures) != set(self.MEASURES):
            return [f"measures {sorted(report.measures)}"]
        problems = _string_problems(s, report.measures, self.table.entries)
        if not 0.0 <= report.normalized_entropy <= 1.0:
            problems.append(f"normalized entropy {report.normalized_entropy} outside [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (Corpus, Exact, Long)}
