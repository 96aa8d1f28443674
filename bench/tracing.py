"""Spans around the package's public functions, installed from outside it.

Each wrapper replaces a name where its caller looks it up (a module
attribute), records one span per call and a work count, and is removed by
``Tracer.uninstall``.  Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import time

from seqcomplexity import assembly, bdm, cli, coding, deceiver, stats


def _first_len(args, kwargs, result):
    return len(args[0])


def _both_len(args, kwargs, result):
    return len(args[0]) + len(args[1])


def _result_len(args, kwargs, result):
    return len(result)


# layer -> (work counter name or None, whether the call count is reported)
LAYERS = {
    "assembly.exact": ("chars", True),
    "assembly.split": ("chars", True),
    "coding.shannon_entropy": ("chars", True),
    "coding.huffman": ("chars", True),
    "coding.rle_encode": ("chars", True),
    "coding.lzw_encode": ("chars", True),
    "bdm.bdm_1d": ("bits", True),
    "bdm.ctm_enumerate": (None, False),
    "ingest.text_to_bits": ("chars", False),
    "ingest.load_dataset": ("rows", False),
    "ingest.write_results": ("rows", False),
    "stats.pearson": ("pairs", True),
    "stats.spearman": ("pairs", True),
    # for the two-sample tests, "pairs" counts the values of both samples
    "stats.welch_t": ("pairs", True),
    "stats.ks_two_sample": ("pairs", True),
    "deceiver.generate": (None, False),
    "deceiver.divergence_report": (None, False),
    "cli.measure": (None, False),
    "cli.correlate": (None, False),
    "cli.classify": (None, False),
}

# (module, attribute, layer, work count); a name imported into another
# module is wrapped there too, since that is where its caller finds it
TARGETS = [
    (assembly, "assembly_index_exact", "assembly.exact", _first_len),
    (cli, "assembly_index_exact", "assembly.exact", _first_len),
    (assembly, "assembly_index_split", "assembly.split", _first_len),
    (cli, "assembly_index_split", "assembly.split", _first_len),
    (deceiver, "assembly_index_split", "assembly.split", _first_len),
    (coding, "shannon_entropy", "coding.shannon_entropy", _first_len),
    (coding, "huffman", "coding.huffman", _first_len),
    (coding, "rle_encode", "coding.rle_encode", _first_len),
    (coding, "lzw_encode", "coding.lzw_encode", _first_len),
    (bdm, "bdm_1d", "bdm.bdm_1d", _first_len),
    (bdm, "ctm_enumerate", "bdm.ctm_enumerate", None),
    (cli, "text_to_bits", "ingest.text_to_bits", _first_len),
    (deceiver, "text_to_bits", "ingest.text_to_bits", _first_len),
    (cli, "load_dataset", "ingest.load_dataset", _result_len),
    (cli, "write_results", "ingest.write_results", _first_len),
    (stats, "pearson", "stats.pearson", _first_len),
    (stats, "spearman", "stats.spearman", _first_len),
    (stats, "welch_t", "stats.welch_t", _both_len),
    (stats, "ks_two_sample", "stats.ks_two_sample", _both_len),
    (deceiver, "generate", "deceiver.generate", None),
    (deceiver, "divergence_report", "deceiver.divergence_report", None),
    (cli, "cmd_measure", "cli.measure", None),
    (cli, "cmd_correlate", "cli.correlate", None),
    (cli, "cmd_classify", "cli.classify", None),
]


class Tracer:
    """Records spans ``[layer, item, parent, start, end, work]`` in memory.

    ``item`` is set by the caller before each benchmark item (``"setup"``
    for set-up); ``parent`` is the index of the enclosing span or None.
    """

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, layer, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [layer, self.item, parent, time.perf_counter(), None, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, layer, work in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, work))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self):
        """Per-layer calls, self time and work, over every span recorded."""
        totals = {layer: [0, 0.0, 0] for layer in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            t = totals[span[0]]
            t[0] += 1
            t[1] += own
            t[2] += span[5]
        metrics = {}
        for layer, (work_name, with_calls) in LAYERS.items():
            calls, own, work = totals[layer]
            if with_calls:
                metrics[f"{layer}.calls"] = (calls, "count")
            metrics[f"{layer}.self_s"] = (own, "s")
            if work_name:
                metrics[f"{layer}.{work_name}"] = (work, work_name)
        return metrics

    def item_self_times(self):
        """Each layer's self time summed over the spans of items, set-up
        spans excluded."""
        own_by_layer = {}
        for span, own in zip(self.spans, self.self_times()):
            if span[1] != "setup":
                own_by_layer[span[0]] = own_by_layer.get(span[0], 0.0) + own
        return own_by_layer

    def write(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, item, parent, start, end, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "layer": layer, "item": item, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0, "work": work,
                }) + "\n")
