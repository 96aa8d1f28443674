"""The benchmark's outputs, pinned: a change that claims byte-identical
outputs must leave each workload's seed-7 digest as it is.  And the
measures still reach the functions that the benchmark's tracer wraps."""

import json
import os
import re
import subprocess
import sys

import pytest

from seqcomplexity.bdm import toy_table_1d
from seqcomplexity.cli import main
from seqcomplexity.deceiver import GeneratorSpec, divergence_report, generate

from test_exports import _tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of the canonical outputs of the first sweep, seed 7
DIGESTS = {
    "corpus": "b9641bfaf2e3981b2b9bf95403497e3ede3bb17059576be89666ea2a041840f9",
    "exact": "62845fcf2005288a3a09aaba9ea14bc669bf9e62a3dee29a50bb6301e717bec8",
    "long": "fe64d3e83eda55117192daeb88972caf769a6ded725904959c8f8212abde3e71",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_7_outputs_pinned(workload, tmp_path):
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.01", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout.splitlines()[-1])
    assert verdict["correct"] is True and verdict["failed"] == 0, verdict
    assert re.search(f"^outputs sha256={DIGESTS[workload]} ", proc.stdout, re.M), proc.stdout


# the layers that bench-smoke's traced step requires to read calls, for
# both the corpus and the long workload
COUNTING_LAYERS = ["coding.shannon_entropy", "coding.huffman", "coding.lzw_encode", "bdm.bdm_1d"]


def _traced_calls(run):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    return {layer: metrics[f"{layer}.calls"][0] for layer in COUNTING_LAYERS}


def test_tracer_sees_every_counting_layer(tmp_path):
    corpus = os.path.join(ROOT, "tests", "data", "synthetic_corpus.csv")
    args = ["measure", "--input", corpus, "--out", str(tmp_path / "r.csv"),
            "--measures", "entropy,huffman,lzw,bdm1d", "--toy-ctm"]
    assert _traced_calls(lambda: main(args)) == dict.fromkeys(COUNTING_LAYERS, 200)

    spec = GeneratorSpec(kind="champernowne", base=10, length=2000)
    measures = ("entropy", "huffman", "rle", "lzw", "bdm1d")
    report = lambda: divergence_report(generate(spec), spec, measures=measures, ctm_table=toy_table_1d())
    assert _traced_calls(report) == dict.fromkeys(COUNTING_LAYERS, 1)
