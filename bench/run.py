"""seqcomplexity benchmark: one workload per process, one caller, closed loop.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Set-up makes every input from ``--seed`` before timing starts: a pool of
items.  The timed loop then sweeps the pool, one item after another, until
``--seconds`` of item time have passed and every entry has run at least
once.  Every output is checked outside the timed region.  The script prints
human-readable lines and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Other processes on a shared machine change its speed by a third and more,
for seconds to minutes at a time, and they slow all interpreted code alike.
So the loop also calls a fixed reference loop, which uses no package code,
once per ``REF_EVERY_S`` of item time.  Each item's time is scaled by
``REF_NOMINAL_S`` over the reference loop's mean time around that item, and
set-up time by the same ratio taken during set-up: the timings read as on a
machine on which the reference loop takes ``REF_NOMINAL_S``.  The raw
times and the scale are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop, then installs span wrappers, repeats the set-up once and one sweep of
the pool under them, and reports the per-layer metrics.  These include the
tracing overhead: traced versus untraced items per second on that sweep.
Spans are written to ``.bench_out/trace-<workload>-<seed>.jsonl``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
REF_EVERY_S = 0.1
REF_WINDOW_S = 1.0
REF_NOMINAL_S = 0.002
REF_CALLS_PER_SETUP = 10


def _reference_loop():
    """Fixed pure-Python work (integer, dict, string and sort operations)
    that tracks the machine's speed for interpreted code."""
    counts = {}
    chars = []
    x = 12345
    for i in range(3000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 255, i & 7)
        counts[key] = counts.get(key, 0) + 1
        chars.append("abcdefghijklmnop"[x & 15])
    text = "".join(chars)
    return len(counts) + len(sorted(text[i : i + 4] for i in range(0, len(text) - 4, 3)))


def _reference_time():
    t = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t


def _import_package():
    """Import seqcomplexity from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "seqcomplexity", "__init__.py")):
        sys.exit(f"error: {SRC} holds no seqcomplexity package; run from a repository checkout")
    sys.path.insert(0, SRC)
    import seqcomplexity

    if not os.path.abspath(seqcomplexity.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: seqcomplexity imported from {seqcomplexity.__file__}, not {SRC}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "exact", "long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


Item = collections.namedtuple("Item", "k seconds out digest error")


def _run_item(wl, k, keep):
    """Run item ``k``.  The output is kept only if ``keep``; its canonical
    bytes are always hashed, so that later sweeps can be compared with the
    first without holding their outputs."""
    t = time.perf_counter()
    try:
        raw = wl.run(k)
    except Exception as exc:  # an item that raises counts as failed
        return _failed_item(k, time.perf_counter() - t, f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t
    try:
        out = wl.collect(raw)
        digest = hashlib.sha256(wl.canonical(out)).digest()
    except Exception as exc:  # so does one whose output cannot be read
        return _failed_item(k, dt, f"unreadable output: {type(exc).__name__}: {exc}")
    return Item(k, dt, out if keep else None, digest, None)


def _failed_item(k, dt, error):
    return Item(k, dt, None, error.encode(), error)


def _timed_loop(wl, seconds, on_item=None):
    """Closed loop until ``seconds`` of item time and one full sweep.

    Calls ``on_item(k)`` before item ``k`` when given.  Between items, calls
    the reference loop once per ``REF_EVERY_S`` of item time.  Returns the
    items, the reference times, and the item time elapsed before each
    reference call."""
    items, refs, ref_at, busy, since_ref = [], [], [], 0.0, 0.0
    while busy < seconds or len(items) < len(wl.pool):
        if on_item:
            on_item(len(items))
        items.append(_run_item(wl, len(items), keep=len(items) < len(wl.pool)))
        busy += items[-1].seconds
        since_ref += items[-1].seconds
        while since_ref >= REF_EVERY_S:
            refs.append(_reference_time())
            ref_at.append(busy)
            since_ref -= REF_EVERY_S
    if not refs:
        refs.append(_reference_time())
        ref_at.append(busy)
    return items, refs, ref_at


def _scaled_times(items, refs, ref_at):
    """Each item's time times ``REF_NOMINAL_S`` over the mean reference time
    within ``REF_WINDOW_S`` of item time (at least the item's own length)
    of the item's midpoint."""
    prefix = list(itertools.accumulate(refs, initial=0.0))
    overall = REF_NOMINAL_S * len(refs) / prefix[-1]
    scaled, busy = [], 0.0
    for item in items:
        mid = busy + item.seconds / 2
        busy += item.seconds
        half = max(REF_WINDOW_S, item.seconds)
        lo = bisect.bisect_left(ref_at, mid - half)
        hi = bisect.bisect_right(ref_at, mid + half)
        scale = REF_NOMINAL_S * (hi - lo) / (prefix[hi] - prefix[lo]) if hi > lo else overall
        scaled.append(item.seconds * scale)
    return scaled


class Checker:
    """Checks the first output of each pool entry; a later item on the same
    entry must give the same canonical bytes."""

    def __init__(self, wl):
        self.wl = wl
        self.seen = {}
        self.problems = []

    def failed(self, item):
        error = item.error or self._problem(item)
        if error:
            self.problems.append(f"item {item.k}: {error}")
        return bool(error)

    def _problem(self, item):
        entry = item.k % len(self.wl.pool)
        if entry in self.seen:
            return None if self.seen[entry] == item.digest else "output differs from an earlier item on the same input"
        self.seen[entry] = item.digest
        try:
            return "; ".join(self.wl.check(item.k, item.out)[:5]) or None
        except Exception as exc:  # a malformed output fails its item
            return f"check raised {type(exc).__name__}: {exc}"


def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def _sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _end_to_end(wl, items, failed, scaled, setup_s, rss_mb):
    times = sorted(scaled)
    tail = _percentile(times, wl.tail_pct)
    beyond = sum(1 for t in times if t > tail)
    print(f"item_tail_ms is p{wl.tail_pct} of {len(times)} items, {beyond} beyond it")
    return {
        "items_per_s": ((len(items) - failed) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _traced(wl, seed, workdir, untraced_s, checker):
    """Set up once and sweep the pool once under spans.  ``untraced_s`` is
    the mean scaled time of one sweep in the untraced loop."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.item = "setup"
        wl.setup(seed, workdir)
        items, refs, ref_at = _timed_loop(wl, 0.0, on_item=lambda k: setattr(tracer, "item", k))
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-{seed}.jsonl"))

    failed = sum(checker.failed(item) for item in items)
    traced_s = sum(_scaled_times(items, refs, ref_at))
    raw_s = sum(item.seconds for item in items)
    metrics = tracer.layer_metrics()
    slack = wl.slack([item.out for item in items if item.out]) if hasattr(wl, "slack") else 0
    metrics["assembly.split.slack"] = (slack, "count")
    # unscaled, like the spans' self times, whose shares it is the base of
    metrics["trace.item_s"] = (raw_s, "s")
    metrics["trace.items_per_s"] = (len(items) / traced_s, "1/s")
    metrics["trace.untraced_items_per_s"] = (len(items) / untraced_s, "1/s")

    shares = sorted(((t / raw_s, layer) for layer, t in tracer.item_self_times().items()), reverse=True)
    print(f"traced sweep: {len(items)} items, scaled {traced_s:.3f} s against "
          f"{untraced_s:.3f} s untraced (overhead {traced_s / untraced_s - 1:+.1%})")
    print("self time as share of traced item time: "
          + ", ".join(f"{layer} {share:.1%}" for share, layer in shares))
    return metrics, len(items), failed


def main(argv=None):
    args = _parse_args(argv)
    _import_package()
    import workloads

    import_s = time.perf_counter() - _START
    wl = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t)
            setup_refs += [_reference_time() for _ in range(REF_CALLS_PER_SETUP)]
        setup_scale = REF_NOMINAL_S / statistics.fmean(setup_refs)
        raw_setup_s = import_s + statistics.median(setup_times)
        input_digest = _sha256(wl.input_bytes())

        items, refs, ref_at = _timed_loop(wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled = _scaled_times(items, refs, ref_at)

        checker = Checker(wl)
        failed = sum(checker.failed(item) for item in items)
        output_digest = _sha256(item.digest for item in items[: len(wl.pool)])
        attempted = len(items)
        item_s = sum(item.seconds for item in items)
        print(f"workload={wl.name} seed={args.seed} items={attempted} failed={failed} "
              f"failed_frac={failed / attempted:.4f}")
        print(f"raw: item_s={item_s:.3f} items_per_s={(attempted - failed) / item_s:.4f} "
              f"setup_s={raw_setup_s:.4f} (import {import_s:.4f} + median of "
              f"{', '.join(f'{t:.4f}' for t in setup_times)})")
        print(f"reference loop: {len(refs)} calls, mean {statistics.fmean(refs) * 1e3:.4f} ms, "
              f"scale {sum(scaled) / item_s:.4f}; in set-up mean {statistics.fmean(setup_refs) * 1e3:.4f} ms, "
              f"scale {setup_scale:.4f}")
        print(f"inputs sha256={input_digest}")
        print(f"outputs sha256={output_digest} (first sweep, {len(wl.pool)} items)")

        if args.trace:
            sweep_s = sum(scaled) * len(wl.pool) / len(items)
            metrics, n, n_failed = _traced(wl, args.seed, workdir, sweep_s, checker)
            attempted += n
            failed += n_failed
        else:
            metrics = _end_to_end(wl, items, failed, scaled, raw_setup_s * setup_scale, rss_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
