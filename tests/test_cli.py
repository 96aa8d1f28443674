import argparse
import csv
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from seqcomplexity import cli, coding
from seqcomplexity._util import fmt12
from seqcomplexity.cli import main, synthetic_corpus
from seqcomplexity.deceiver import CHAMPERNOWNE_CAP, GeneratorSpec, champernowne, modular_generate
from seqcomplexity.measures import Measure

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS = os.path.join(DATA_DIR, "synthetic_corpus.csv")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _write_dataset(tmp_path, rows):
    path = tmp_path / "data.csv"
    lines = ["id,category,payload_kind,payload,reference_value"] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestMeasure:
    def test_shape_contract(self, tmp_path):
        data = _write_dataset(
            tmp_path,
            ["m1,c1,string,ABRA,", "m2,c1,string,CAD,", "m3,c2,string,ABBA,"],
        )
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--measures", "entropy,rle"]) == 0
        rows = _read_csv(out)
        assert len(rows) == 6
        assert [r["measure"] for r in rows] == ["entropy", "rle"] * 3
        assert [r["id"] for r in rows] == ["m1", "m1", "m2", "m2", "m3", "m3"]

    def test_bdm_without_table_exits_2(self, tmp_path):
        data = _write_dataset(tmp_path, ["m1,c,string,0101,"])
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--measures", "bdm1d"]) == 2

    def test_unreadable_input_exits_1(self, tmp_path):
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", str(tmp_path / "nope.csv"), "--out", out, "--measures", "entropy"]) == 1

    def test_repeated_measure_exits_2(self, tmp_path, capsys):
        # a repeated name would write each of its rows twice, and classify would count them twice
        data = _write_dataset(tmp_path, ["m1,c,string,ABRA,"])
        out = tmp_path / "res.csv"
        assert main(["measure", "--input", data, "--out", str(out), "--measures", "entropy,entropy,lzw"]) == 2
        assert "--measures names 'entropy' twice" in capsys.readouterr().err
        assert not out.exists()

    def test_abracadabra_ma_exact(self, tmp_path):
        data = _write_dataset(tmp_path, ["abra11,demo,string,ABRACADABRA,"])
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--measures", "ma_exact"]) == 0
        rows = _read_csv(out)
        assert rows[0]["value"] == "7"

    def test_unknown_measure_exits_2(self, tmp_path):
        data = _write_dataset(tmp_path, ["m1,c,string,AB,"])
        assert main(["measure", "--input", data, "--out", str(tmp_path / "o.csv"), "--measures", "gzip"]) == 2

    def test_ma_exact_over_guard_exits_2(self, tmp_path):
        data = _write_dataset(tmp_path, ["m1,c,string," + "AB" * 20 + ","])
        assert (
            main(["measure", "--input", data, "--out", str(tmp_path / "o.csv"), "--measures", "ma_exact"]) == 2
        )

    def test_toy_ctm_bdm1d(self, tmp_path):
        data = _write_dataset(tmp_path, ["m1,c,string,AB,"])
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--measures", "bdm1d", "--toy-ctm"]) == 0
        rows = _read_csv(out)
        assert float(rows[0]["value"]) > 0

    def test_matrix_payload_bdm2d(self, tmp_path):
        (tmp_path / "m.csv").write_text("0,0,5,5\n0,0,5,5\n5,5,0,0\n5,5,0,0\n")
        data = _write_dataset(tmp_path, ["m1,c,matrix,m.csv,"])
        out = str(tmp_path / "res.csv")
        assert (
            main([
                "measure", "--input", data, "--out", out,
                "--measures", "bdm2d,entropy", "--toy-ctm", "--threshold", "3",
            ])
            == 0
        )
        rows = _read_csv(out)
        assert len(rows) == 2
        assert float(rows[0]["value"]) > 0

    def test_ctm_dim_decides_input(self, tmp_path):
        assert [f.name for f in dataclasses.fields(Measure)] == ["compute", "ctm_dim"]
        (tmp_path / "m.csv").write_text("0,1\n1,1\n")
        data = _write_dataset(tmp_path, ["s1,c,string,AB,", "m1,c,matrix,m.csv,"])
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--measures", "entropy,bdm1d,bdm2d", "--toy-ctm"]) == 0
        inputs = {(r["id"], r["measure"]): r["metadata"].rpartition("input=")[2] for r in _read_csv(out)}
        assert inputs == {
            ("s1", "entropy"): "string", ("s1", "bdm1d"): "utf8_bits", ("s1", "bdm2d"): "not applicable: string payload",
            ("m1", "entropy"): "matrix_flat", ("m1", "bdm1d"): "matrix_flat", ("m1", "bdm2d"): "block_shape=2x2;boundary=ignore",
        }

    def test_bdm2d_on_string_not_applicable(self, tmp_path):
        data = _write_dataset(tmp_path, ["m1,c,string,0101,"])
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--measures", "bdm2d", "--toy-ctm"]) == 0
        rows = _read_csv(out)
        assert rows[0]["value"] == ""
        assert "not applicable" in rows[0]["metadata"]

    def test_matrix_without_threshold_exits_2(self, tmp_path):
        (tmp_path / "m.csv").write_text("0,7\n2,9\n")
        data = _write_dataset(tmp_path, ["m1,c,matrix,m.csv,"])
        assert main(["measure", "--input", data, "--out", str(tmp_path / "o.csv"), "--measures", "entropy"]) == 2

    def test_empty_measures_exits_2(self, tmp_path, capsys):
        data = _write_dataset(tmp_path, ["m1,c,string,AB,"])
        out = tmp_path / "o.csv"
        assert main(["measure", "--input", data, "--out", str(out), "--measures", ""]) == 2
        assert "--measures is required" in capsys.readouterr().err
        assert not out.exists()

    def test_toy_ctm_with_ctm_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "ctm.csv"
        table.write_text("block,ctm_bits\n01,1.5\n")
        data = _write_dataset(tmp_path, ["m1,c,string,AB,"])
        out = tmp_path / "o.csv"
        argv = ["measure", "--input", data, "--out", str(out), "--measures", "bdm1d", "--toy-ctm", "--ctm-table", str(table)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --toy-ctm and --ctm-table are mutually exclusive\n"
        assert not out.exists()

    def test_non_binary_matrix_under_bdm_exits_2(self, tmp_path, capsys):
        (tmp_path / "m.csv").write_text("0,7\n2,9\n")
        data = _write_dataset(tmp_path, ["s1,c,string,AB,", "m1,c,matrix,m.csv,"])
        out = tmp_path / "o.csv"
        code = main(["measure", "--input", data, "--out", str(out), "--measures", "bdm2d,bdm1d", "--toy-ctm"])
        assert code == 2
        assert "record 'm1': matrix has non-binary entries; pass --threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_payload_over_csv_field_limit(self, tmp_path):
        # longer than the csv module's default 131,072-character field limit
        s = champernowne(200_000, 10)
        data = _write_dataset(tmp_path, [f"long,c,string,{s},"])
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--measures", "entropy,lzw"]) == 0
        rows = _read_csv(out)
        assert rows[0]["value"] == fmt12(coding.shannon_entropy(s))
        assert rows[1]["value"] == str(coding.lzw_encode(s).bit_length)


class TestCorrelate:
    @pytest.fixture()
    def results(self, tmp_path):
        data = _write_dataset(
            tmp_path,
            [
                "m1,c,string,AAAAAAAAAAAAAAAAAAAAB,",
                "m2,c,string,ABABABABABABABABABAB,",
                "m3,c,string,ABCDEFGHIJKLMNOPABCD,",
                "m4,c,string,AABBAABBAABBAABBAABB,",
            ],
        )
        out = str(tmp_path / "res.csv")
        main(["measure", "--input", data, "--out", out, "--measures", "entropy,huffman,rle,ma_split"])
        return out

    def test_self_correlation(self, results, capsys):
        assert main(["correlate", "--input", results, "--x", "entropy", "--y", "entropy"]) == 0
        assert "statistic=1" in capsys.readouterr().out

    def test_absent_measure_exits_2(self, results):
        assert main(["correlate", "--input", results, "--x", "lzw", "--y", "entropy"]) == 2

    def test_too_few_shared_exits_2(self, tmp_path):
        data = _write_dataset(tmp_path, ["m1,c,string,AB,", "m2,c,string,BA,"])
        out = str(tmp_path / "r.csv")
        main(["measure", "--input", data, "--out", out, "--measures", "entropy,rle"])
        assert main(["correlate", "--input", out, "--x", "entropy", "--y", "rle"]) == 2

    def test_out_csv_row(self, results, tmp_path):
        row_path = str(tmp_path / "corr.csv")
        assert (
            main([
                "correlate", "--input", results, "--x", "ma_split", "--y", "huffman",
                "--method", "spearman", "--out", row_path,
            ])
            == 0
        )
        rows = _read_csv(row_path)
        assert rows[0]["method"] == "spearman"
        assert rows[0]["n"] == "4"

    def test_constant_measure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata\n"
            "m1,c,flat,2,\nm2,c,flat,2,\nm3,c,flat,2,\nm1,c,e,1,\nm2,c,e,2,\nm3,c,e,3,\n",
            encoding="utf-8",
        )
        assert main(["correlate", "--input", str(path), "--x", "flat", "--y", "e", "--method", "spearman"]) == 2
        assert "spearman flat vs e: zero variance" in capsys.readouterr().err

    @pytest.mark.parametrize("ci", ["0", "1", "1.5", "-0.2"])
    def test_ci_outside_unit_interval_exits_2(self, results, capsys, ci):
        assert main(["correlate", "--input", results, "--x", "entropy", "--y", "huffman", "--ci", ci]) == 2
        assert "pearson entropy vs huffman: ci_level outside (0, 1)" in capsys.readouterr().err


class TestClassify:
    def test_two_groups_disjoint_ranges(self, tmp_path, capsys):
        data = _write_dataset(
            tmp_path,
            [
                "m1,g1,string,AAAAAAAAAAAAAAAAAAAA,",
                "m2,g1,string,AAAAABAAAAABAAAAABAA,",
                "m3,g2,string,ABCDEFGHIJKLMNOPQRST,",
                "m4,g2,string,AQBRCSDTEUFVGWHXIYJZ,",
            ],
        )
        res = str(tmp_path / "r.csv")
        main(["measure", "--input", data, "--out", res, "--measures", "entropy,rle"])
        assert main(["classify", "--input", res, "--test", "ks"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("measure,")]
        assert len(lines) == 2  # one group pair per measure
        for line in lines:
            fields = line.split(",")
            assert float(fields[6]) == 1.0  # disjoint ranges: D = 1

    def test_group_column_absent_from_header_exits_2(self, tmp_path, capsys):
        # with no rows to look at, the header alone names the columns
        path = tmp_path / "r.csv"
        path.write_text("id,category,measure,value,metadata\n", encoding="utf-8")
        assert main(["classify", "--input", str(path), "--group-col", "group"]) == 2
        assert "group column 'group' not in results file" in capsys.readouterr().err

    def test_single_group_exits_2(self, tmp_path):
        data = _write_dataset(tmp_path, ["m1,g1,string,ABAB,", "m2,g1,string,BABA,"])
        res = str(tmp_path / "r.csv")
        main(["measure", "--input", data, "--out", res, "--measures", "entropy"])
        assert main(["classify", "--input", res, "--test", "welch_t"]) == 2

    def test_small_group_skipped_with_warning(self, tmp_path, capsys):
        data = _write_dataset(
            tmp_path,
            ["m1,g1,string,ABAB,", "m2,g1,string,AABB,", "m3,g2,string,ABCD,"],
        )
        res = str(tmp_path / "r.csv")
        main(["measure", "--input", data, "--out", res, "--measures", "entropy"])
        assert main(["classify", "--input", res, "--test", "welch_t"]) == 0
        assert "skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("test, rows, note", [
        # measure f has values in group b only
        ("ks", ["m1,a,e,1,", "m2,b,e,2,", "m3,b,f,3,"], "skipped: empty group"),
        ("welch_t", ["m1,a,e,1,", "m2,a,e,1,", "m3,b,e,2,", "m4,b,e,2,"],
         "skipped: zero variance in both samples with unequal means"),
    ])
    def test_skip_notes(self, tmp_path, capsys, test, rows, note):
        path = tmp_path / "r.csv"
        path.write_text("\n".join(["id,category,measure,value,metadata", *rows]) + "\n", encoding="utf-8")
        assert main(["classify", "--input", str(path), "--test", test]) == 0
        assert list(csv.reader(capsys.readouterr().out.splitlines()))[-1][-1] == note

    def test_identical_groups_t_zero(self, tmp_path, capsys):
        data = _write_dataset(
            tmp_path,
            [
                "m1,g1,string,ABAB,", "m2,g1,string,ABBA,",
                "m3,g2,string,ABAB,", "m4,g2,string,ABBA,",
            ],
        )
        res = str(tmp_path / "r.csv")
        main(["measure", "--input", data, "--out", res, "--measures", "rle"])
        assert main(["classify", "--input", res, "--test", "welch_t"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("rle,")][0]
        fields = line.split(",")
        assert float(fields[6]) == 0.0 and float(fields[9]) == 1.0


class TestTree:
    def test_assembly_tree(self, tmp_path):
        out = str(tmp_path / "t.dot")
        assert main(["tree", "--string", "ABRACADABRA", "--method", "assembly", "--out", out]) == 0
        dot = Path(out).read_text()
        assert dot.count("shape=box") == 7

    def test_huffman_tree_depth(self, tmp_path):
        out = str(tmp_path / "t.dot")
        assert main(["tree", "--string", "ABRACADABRA", "--method", "huffman", "--out", out]) == 0
        dot = Path(out).read_text()
        assert dot.count("shape=box") == 5
        # walk the rendered edges: the deepest leaf sits at edge level 4
        edges = {}
        leaves = set()
        for line in dot.splitlines():
            line = line.strip()
            if "->" in line:
                src, rest = line.split("->")
                dst = rest.split("[")[0]
                edges.setdefault(src.strip(), []).append(dst.strip())
            elif "shape=box" in line:
                leaves.add(line.split("[")[0].strip())
        roots = set(edges) - {d for ds in edges.values() for d in ds}
        (root,) = roots

        def leaf_depths(node, d=0):
            if node in leaves:
                yield d
            else:
                for child in edges[node]:
                    yield from leaf_depths(child, d + 1)

        assert max(leaf_depths(root)) == 4

    def test_empty_string_exits_2(self, tmp_path):
        assert main(["tree", "--string", "", "--out", str(tmp_path / "t.dot")]) == 2

    @pytest.mark.parametrize("method", ["assembly", "huffman"])
    def test_non_utf8_string_exits_2(self, tmp_path, capsys, method):
        # a non-UTF-8 argument reaches sys.argv with lone surrogates
        out = tmp_path / "t.dot"
        assert main(["tree", "--string", "AB\udcffA", "--method", method, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_over_guard_suggests_split(self, tmp_path, capsys):
        out = str(tmp_path / "t.dot")
        assert main(["tree", "--string", "AB" * 30, "--method", "assembly", "--out", out]) == 2
        assert "--split" in capsys.readouterr().err
        assert main(["tree", "--string", "AB" * 30, "--method", "assembly", "--out", out, "--split"]) == 0


class TestSmallCommands:
    def test_champernowne_prints(self, capsys):
        assert main(["champernowne", "--n", "20", "--base", "10"]) == 0
        assert capsys.readouterr().out.strip() == "12345678910111213141"

    def test_champernowne_bad_base_exits_2(self):
        assert main(["champernowne", "--n", "5", "--base", "1"]) == 2

    def test_champernowne_over_cap_exits_2(self, capsys):
        assert main(["champernowne", "--n", str(CHAMPERNOWNE_CAP + 1)]) == 2
        assert capsys.readouterr().err == f"error: n outside [0, {CHAMPERNOWNE_CAP}]\n"

    def test_ctm_gen_complement_rows(self, tmp_path):
        out = str(tmp_path / "ctm.csv")
        assert main(["ctm-gen", "--out", out]) == 0
        rows = {r.split(",")[0]: r.split(",")[1] for r in Path(out).read_text().splitlines()[1:]}
        assert rows["0"] == rows["1"]

    def test_binarize(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,4\n3,2\n")
        out = str(tmp_path / "b.csv")
        assert main(["binarize", "--input", str(src), "--threshold", "3", "--out", out]) == 0
        assert Path(out).read_text() == "0,1\n0,0\n"

    @pytest.mark.parametrize("command", ["binarize", "measure"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "x"])
    def test_bad_threshold_exits_2(self, tmp_path, capsys, command, threshold):
        (tmp_path / "m.csv").write_text("1,2\n3,4\n")
        out = tmp_path / "o.csv"
        if command == "binarize":
            argv = ["binarize", "--input", str(tmp_path / "m.csv"), "--out", str(out)]
        else:
            data = _write_dataset(tmp_path, ["m1,c,matrix,m.csv,"])
            argv = ["measure", "--input", data, "--out", str(out), "--toy-ctm", "--measures", "bdm2d"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"--threshold={threshold}"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--threshold" in errors[0]
        assert not out.exists()

    def test_binarize_missing_input_exits_1(self, tmp_path):
        assert main(["binarize", "--input", str(tmp_path / "no.csv"), "--threshold", "1", "--out", str(tmp_path / "b.csv")]) == 1

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = cli.argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        assert main(["champernowne", "--n", "5"]) == 0
        assert main(["champernowne", "--n", "7"]) == 0
        assert built.count("seqcomplexity") == 1
        assert capsys.readouterr().out == "12345\n1234567\n"

    def test_handler_replaced_after_parser_built_runs(self, monkeypatch, capsys):
        # a wrapper set on a cmd_* function (as a tracer does) must run
        # even though the parser was built before it was set
        assert main(["champernowne", "--n", "3"]) == 0
        calls = []
        real = cli.cmd_champernowne
        monkeypatch.setattr(cli, "cmd_champernowne", lambda args: calls.append(args.n) or real(args))
        assert main(["champernowne", "--n", "4"]) == 0
        assert calls == [4]
        assert capsys.readouterr().out == "123\n1234\n"


class TestSynthetic:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["synthetic", "--seed", "42", "--size", "200", "--out", p1]) == 0
        assert main(["synthetic", "--seed", "42", "--size", "200", "--out", p2]) == 0
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_matches_bundled_fixture(self, tmp_path):
        regenerated = str(tmp_path / "c.csv")
        main(["synthetic", "--seed", "42", "--size", "200", "--out", regenerated])
        assert Path(regenerated).read_bytes() == Path(CORPUS).read_bytes()

    def test_categories_and_lengths(self):
        rows = synthetic_corpus(42, 200)
        assert len(rows) == 200
        cats = {cat for _, cat, _ in rows}
        assert cats == {"repetition", "modular", "champernowne", "random"}
        assert all(20 <= len(p) <= 200 for _, _, p in rows)
        assert all(len(set(p)) >= 2 for _, _, p in rows)
        alphabet = set()
        for _, _, p in rows:
            alphabet.update(p)
        assert alphabet <= set("ABCDEFGHIJKLMNOP")

    def test_short_modular_payload_padded(self):
        rows = synthetic_corpus(86, 8)
        assert all(20 <= len(p) <= 200 for _, _, p in rows)
        # mod001 expands seed G, period 4, over 10 steps to 18 characters
        expansion = modular_generate(GeneratorSpec(kind="modular", seed="G", period=4, steps=10, extension_symbols=("B", "F")))
        assert len(expansion) == 18
        assert dict((rid, p) for rid, _, p in rows)["mod001"] == (expansion * 2)[:20]

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_non_positive_size_exits_2(self, tmp_path, capsys, size):
        out = tmp_path / "c.csv"
        assert main(["synthetic", "--size", size, "--out", str(out)]) == 2
        assert "--size must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_different_seed_differs(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["synthetic", "--seed", "42", "--size", "40", "--out", p1])
        main(["synthetic", "--seed", "43", "--size", "40", "--out", p2])
        assert Path(p1).read_text() != Path(p2).read_text()


class TestMeasureDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        data = _write_dataset(
            tmp_path, ["m1,c,string,ABRACADABRA,", "m2,c,string,AAAABBBB,"]
        )
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["measure", "--input", data, "--measures", "entropy,huffman,rle,lzw,ma_split"]
        assert main(args + ["--out", p1]) == 0
        assert main(args + ["--out", p2]) == 0
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_record_reorder_reorders_rows(self, tmp_path):
        d1 = _write_dataset(tmp_path, ["m1,c,string,ABAB,", "m2,c,string,BABA,"])
        out1 = str(tmp_path / "r1.csv")
        main(["measure", "--input", d1, "--out", out1, "--measures", "entropy,rle"])
        d2 = _write_dataset(tmp_path, ["m2,c,string,BABA,", "m1,c,string,ABAB,"])
        out2 = str(tmp_path / "r2.csv")
        main(["measure", "--input", d2, "--out", out2, "--measures", "entropy,rle"])
        r1, r2 = _read_csv(out1), _read_csv(out2)
        key = lambda r: (r["id"], r["measure"], r["value"], r["metadata"])
        assert sorted(map(key, r1)) == sorted(map(key, r2))


class TestMeasureFailures:
    def test_block_absent_from_toy_table_exits_2(self, capsys):
        code = main([
            "measure", "--input", CORPUS, "--out", os.devnull,
            "--measures", "bdm1d", "--toy-ctm", "--block", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "record 'rep000', measure 'bdm1d'" in err
        assert "block '010' absent from CTM table" in err

    def test_symbols_outside_table_alphabet_exit_2(self, tmp_path, capsys):
        table = tmp_path / "ctm.csv"
        table.write_text("block,ctm_bits\n0,1.5\n")
        data = _write_dataset(tmp_path, ["m1,c,string,AB,"])
        code = main([
            "measure", "--input", data, "--out", str(tmp_path / "o.csv"),
            "--measures", "bdm1d", "--ctm-table", str(table),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "record 'm1', measure 'bdm1d'" in err
        assert "not in table alphabet" in err

    def test_bad_reference_value_exits_1(self, tmp_path, capsys):
        data = _write_dataset(tmp_path, ["m1,c,string,AB,notanumber"])
        assert main(["measure", "--input", data, "--out", str(tmp_path / "o.csv"), "--measures", "entropy"]) == 1
        assert "row 'm1'" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", ["nan", "inf"])
    def test_non_finite_ctm_bits_exit_1(self, tmp_path, capsys, bits):
        table = tmp_path / "ctm.csv"
        table.write_text(f"block,ctm_bits\n0,1.5\n1,{bits}\n")
        data = _write_dataset(tmp_path, ["m1,c,string,AB,"])
        out = tmp_path / "o.csv"
        code = main(["measure", "--input", data, "--out", str(out), "--measures", "bdm1d", "--ctm-table", str(table)])
        assert code == 1
        assert f"CTM table {table}: line 3: non-finite ctm_bits '{bits}'" in capsys.readouterr().err
        assert not out.exists()


class TestBdmFlags:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    # the defaults are drawn often, so that some runs get past every check
    @given(
        block=st.one_of(st.just(2), st.integers(-2, 6)),
        overlap=st.one_of(st.just(0), st.integers(-2, 6)),
        shape=st.one_of(
            st.sampled_from(["", "2x2", "0x1", "ax2", "1x2", "3X1"]),
            st.builds("{}x{}".format, st.integers(-1, 4), st.integers(-1, 4)),
            st.text("0123x-a ", max_size=5),
        ),
        threshold=st.one_of(st.sampled_from([3.0, math.nan, math.inf, -math.inf]), st.floats(), st.none()),
        boundary=st.sampled_from(["ignore", "pad"]),
        missing=st.sampled_from(["error", "entropy"]),
    )
    @example(block=2, overlap=1, shape="2x2", threshold=3.0, boundary="ignore", missing="error")
    # argparse in CPython 3.10-3.12 gives --block-shape=-- an empty list, not a string
    @example(block=2, overlap=0, shape="--", threshold=None, boundary="ignore", missing="error")
    def test_exits_0_or_2(self, tmp_path, block, overlap, shape, threshold, boundary, missing):
        """Every value of the BDM flags exits 0 with both rows, or 2, and
        never raises anything but argparse's exit."""
        (tmp_path / "m.csv").write_text("0,7,5,1\n9,0,5,5\n5,4,0,0\n")
        data = _write_dataset(tmp_path, ["m1,c,matrix,m.csv,"])
        out = tmp_path / "res.csv"
        out.unlink(missing_ok=True)
        argv = [
            "measure", "--input", data, "--out", str(out), "--toy-ctm", "--measures", "bdm1d,bdm2d",
            f"--block={block}", f"--overlap={overlap}", f"--block-shape={shape}",
            f"--boundary={boundary}", f"--missing-block={missing}",
        ]
        if threshold is not None:
            argv.append(f"--threshold={threshold!r}")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2)
        if code == 0:
            assert [r["measure"] for r in _read_csv(out)] == ["bdm1d", "bdm2d"]


# a valid value of every value-taking option a command needs; None marks a flag
VALID_OPTIONS = {
    "measure": {"--input": "data.csv", "--out": "res.csv", "--measures": "entropy,bdm1d,bdm2d",
                "--toy-ctm": None, "--threshold": "3"},
    "correlate": {"--input": "res.csv", "--x": "e", "--y": "f"},
    "classify": {"--input": "res.csv"},
    "tree": {"--string": "ABRACADABRA", "--out": "t.dot"},
    "ctm-gen": {"--out": "ctm.csv"},
    "binarize": {"--input": "m.csv", "--threshold": "3", "--out": "b.csv"},
    "champernowne": {"--n": "5"},
    "synthetic": {"--size": "4", "--out": "syn.csv"},
}


def _value_options():
    """``(command, option)`` for every option of every subcommand that takes a value."""
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0])
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings and action.nargs != 0
    ]


def _double_dash_value_is_empty():
    """Whether this argparse stores ``--opt=--`` as an empty list, as
    CPython 3.10-3.12 do; 3.13 stores the string ``--``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--opt")
    return parser.parse_args(["--opt=--"]).opt == []


class TestDoubleDashValue:
    @pytest.mark.parametrize("command, option", _value_options())
    def test_exits_2_naming_the_option(self, tmp_path, monkeypatch, capsys, command, option):
        """``--opt=--``, the rest of argv valid: where argparse stores an
        empty list for it, main exits 2 with one line naming the option.
        Nothing but SystemExit may leave main on any version."""
        monkeypatch.chdir(tmp_path)  # on 3.13 --out=-- writes a file named "--"
        (tmp_path / "m.csv").write_text("1,4\n3,2\n")
        _write_dataset(tmp_path, ["a,x,string,ABAB,", "b,x,matrix,m.csv,"])
        (tmp_path / "res.csv").write_text(
            "id,category,measure,value,metadata\n"
            + "".join(f"{i},{'xy'[i % 2]},{m},{v},\n" for i in range(6) for m, v in (("e", i), ("f", i * i)))
        )
        argv = [command] + [o if v is None else f"{o}={v}" for o, v in VALID_OPTIONS[command].items() if o != option]
        try:
            code = main(argv + [f"{option}=--"])
        except SystemExit as exc:
            code = exc.code
        if _double_dash_value_is_empty():
            err = capsys.readouterr().err.splitlines()
            assert code == 2 and len(err) == 1 and option in err[0]


class TestExtremeResults:
    """A results file may hold any finite value; squares of 1e200 overflow
    unless the statistics scale their samples first."""

    @pytest.fixture()
    def results(self, tmp_path):
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata\n"
            "m1,a,e,0,\nm2,a,e,0,\nm3,b,e,1e200,\nm4,b,e,5,\n"
            "m1,a,f,1,\nm2,a,f,3,\nm3,b,f,2,\nm4,b,f,4,\n",
            encoding="utf-8",
        )
        return str(path)

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_correlate_exits_0(self, results, capsys, method):
        assert main(["correlate", "--input", results, "--x", "e", "--y", "f", "--method", method]) == 0
        assert capsys.readouterr().out.startswith(f"{method} e vs f: n=4 statistic=")

    @pytest.mark.parametrize("test", ["welch_t", "ks"])
    def test_classify_exits_0(self, results, capsys, test):
        assert main(["classify", "--input", results, "--test", test]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["measure"] for r in rows] == ["e", "f"]
        assert all(r["statistic"] and not r["note"].startswith("skipped") for r in rows)


    def test_classify_welch_t_tiny_spread(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata\nm1,a,e,1,\nm2,a,e,1,\nm3,b,e,0,\nm4,b,e,2e-155,\n",
            encoding="utf-8",
        )
        assert main(["classify", "--input", str(path), "--test", "welch_t"]) == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert float(row["statistic"]) == pytest.approx(1e155) and float(row["df"]) == 1.0


class TestMalformedResults:
    @pytest.fixture()
    def results(self, tmp_path):
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata\n"
            "m1,a,e,1,\nm2,a,e,oops,\nm3,b,e,2,\nm4,b,e,3,\n",
            encoding="utf-8",
        )
        return str(path)

    def test_correlate_non_numeric_value_exits_1(self, results, capsys):
        assert main(["correlate", "--input", results, "--x", "e", "--y", "e"]) == 1
        err = capsys.readouterr().err
        assert results in err and "row 'm2'" in err and "'oops'" in err

    def test_classify_non_numeric_value_exits_1(self, results, capsys):
        assert main(["classify", "--input", results]) == 1
        err = capsys.readouterr().err
        assert results in err and "row 'm2'" in err and "'oops'" in err

    @pytest.mark.parametrize("command", ["correlate", "classify"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, command, cell):
        # an unchecked NaN cell would make correlate print statistic=1 p_two=0
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata\n"
            f"m1,a,e,1,\nm2,a,e,{cell},\nm3,b,e,2,\nm4,b,e,3,\n",
            encoding="utf-8",
        )
        argv = [command, "--input", str(path)] + (["--x", "e", "--y", "e"] if command == "correlate" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "row 'm2'" in err and f"non-finite value '{cell}'" in err

    @pytest.mark.parametrize("row", ["m2,a,e,2", "m2,a,e,2,,extra"])
    def test_ragged_row_exits_1(self, tmp_path, capsys, row):
        # a short row leaves None cells, which classify cannot sort as groups
        path = tmp_path / "res.csv"
        path.write_text(f"id,category,measure,value,metadata\nm1,a,e,1,x\n{row}\nm3,b,e,3,y\n", encoding="utf-8")
        assert main(["classify", "--input", str(path), "--group-col", "metadata"]) == 1
        assert "row 'm2': field count differs from the header" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["correlate", "classify"])
    def test_repeated_row_exits_1(self, tmp_path, capsys, command):
        # classify would count m1's value twice in group a
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata\n"
            "m1,a,e,1,\nm2,a,e,2,\nm1,a,e,1,\nm3,b,e,3,\nm4,b,e,4,\n",
            encoding="utf-8",
        )
        argv = [command, "--input", str(path)] + (["--x", "e", "--y", "e"] if command == "correlate" else [])
        assert main(argv) == 1
        assert "row 'm1': measure 'e' repeated" in capsys.readouterr().err

    def test_classify_stdout_quotes_commas(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        path.write_text(
            "id,category,measure,value,metadata\n"
            'm1,"x,1",m1,1,\nm2,"x,1",m1,2,\nm3,y,m1,3,\nm4,y,m1,5,\n',
            encoding="utf-8",
        )
        assert main(["classify", "--input", str(path), "--test", "welch_t"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[1][:4] == ["m1", "x,1", "y", "welch_t"]
        assert len(rows[1]) == len(rows[0])


class TestInputFiles:
    """Every input file, missing, undecodable or malformed, exits 1 with a
    message and no traceback."""

    VALID = {
        "dataset": "id,category,payload_kind,payload,reference_value\nm1,c,string,0101,\n",
        "results": "id,category,measure,value,metadata\nm1,a,e,1,\nm2,b,e,2,\nm3,b,e,3,\n",
        "matrix": "1,4\n3,2\n",
        "CTM table": "block,ctm_bits\n0,1.5\n1,1.5\n",
    }
    MALFORMED = {
        "dataset": "id,category\nm1,c\n",
        "results": "id,category,measure\nm1,a,e\n",
        "matrix": "1,4\n3,x\n",
        "CTM table": "block,bits\n0,1.5\n",
    }
    # a well-formed header over a row with an extra field or a non-finite entry
    BAD_ROW = {
        "dataset": "id,category,payload_kind,payload,reference_value\nm1,c,string,AB,,x\n",
        "results": "id,category,measure,value,metadata\nm1,a,e,1,,x\nm2,b,e,2,\nm3,b,e,3,\n",
        "matrix": "nan,1\n1e999,0\n",
        "CTM table": "block,ctm_bits\n0,1.5,x\n1,1.5\n",
    }

    def _argv(self, kind, path, tmp_path):
        out = str(tmp_path / "out.csv")
        if kind == "dataset":
            return ["measure", "--input", path, "--out", out, "--measures", "entropy"]
        if kind == "results-correlate":
            return ["correlate", "--input", path, "--x", "e", "--y", "e"]
        if kind == "results-classify":
            return ["classify", "--input", path]
        if kind == "matrix":
            return ["binarize", "--input", path, "--threshold", "2", "--out", out]
        dataset = _write_dataset(tmp_path, ["m1,c,string,0101,"])
        return ["measure", "--input", dataset, "--out", out, "--measures", "bdm1d", "--block", "1", "--ctm-table", path]

    @pytest.mark.parametrize("kind", ["dataset", "results-correlate", "results-classify", "matrix", "CTM table"])
    @pytest.mark.parametrize("case", ["missing", "non_utf8", "malformed", "bad_row"])
    def test_bad_file_exits_1(self, tmp_path, capsys, kind, case):
        what = kind.partition("-")[0]
        path = tmp_path / "input.csv"
        if case == "non_utf8":
            path.write_bytes(self.VALID[what].encode("utf-8") + b"\xff\xfe\n")
        elif case == "malformed":
            path.write_text(self.MALFORMED[what], encoding="utf-8")
        elif case == "bad_row":
            path.write_text(self.BAD_ROW[what], encoding="utf-8")
        assert main(self._argv(kind, str(path), tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and what in err and str(path) in err

    @pytest.mark.parametrize("kind", ["dataset", "results-correlate", "results-classify", "matrix", "CTM table"])
    def test_valid_file_exits_0(self, tmp_path, kind):
        path = tmp_path / "input.csv"
        path.write_text(self.VALID[kind.partition("-")[0]], encoding="utf-8")
        assert main(self._argv(kind, str(path), tmp_path)) == 0

    # each file kind's header names and cell values, with the noise a broken file carries
    NOISE = [b",", b'"', b"nan", b"1e999", b"\xff", b"\r", b"\n", b"\r\n", b"-", b"0", b"1", b"2.5", b"x", b" "]
    WORDS = {
        "dataset": [b"id", b"category", b"payload_kind", b"payload", b"reference_value", b"string", b"matrix", b"m1"],
        "results": [b"id", b"category", b"measure", b"value", b"metadata", b"e", b"a", b"b", b"m1", b"m2"],
        "matrix": [],
        "CTM table": [b"block", b"ctm_bits", b"rows", b"cols", b"01", b"0101"],
    }

    @pytest.mark.parametrize("kind", ["dataset", "results-correlate", "results-classify", "matrix", "CTM table"])
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_file_exits_with_message(self, tmp_path, capsys, kind, data):
        what = kind.partition("-")[0]
        # start from the valid file's header line half of the time, so the rows get parsed too
        header = data.draw(st.sampled_from([b"", self.VALID[what].encode("utf-8").partition(b"\n")[0] + b"\n"]))
        body = data.draw(st.lists(st.sampled_from(self.NOISE + self.WORDS[what]), max_size=40))
        content = header + b"".join(body)
        path = tmp_path / "input.csv"
        path.write_bytes(content)
        capsys.readouterr()
        code = main(self._argv(kind, str(path), tmp_path))
        err = capsys.readouterr().err
        if b"\xff" in content:
            assert code == 1
        # a fragment file can still be well formed
        assert code in (0, 1, 2)
        assert (err.startswith("error: ") and err.count("\n") == 1) if code else not err


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestGoldenOutputs:
    """SHA-256 digests of the CLI outputs, pinned so that refactors keep
    every output byte-identical."""

    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("golden") / "res.csv")
        assert main([
            "measure", "--input", CORPUS, "--out", out,
            "--measures", "entropy,huffman,rle,lzw,ma_split,bdm1d,bdm2d", "--toy-ctm",
        ]) == 0
        return out

    def test_measure(self, results):
        assert _sha256(results) == "996ad75a727fa949739eb8c82dc8cfb068e550f76a56375d096be849b4c291ff"

    def test_measure_pad_with_entropy_surrogate(self, tmp_path):
        out = str(tmp_path / "res_pad.csv")
        assert main([
            "measure", "--input", CORPUS, "--out", out, "--measures", "bdm1d", "--toy-ctm",
            "--boundary", "pad", "--missing-block", "entropy", "--block", "3", "--overlap", "1",
        ]) == 0
        assert _sha256(out) == "03de8798700376bad0d2f83b087cf86eb3eb6923b8cd5f08275e05f312523996"

    def test_correlate(self, results, tmp_path):
        out = str(tmp_path / "corr.csv")
        assert main([
            "correlate", "--input", results, "--x", "ma_split", "--y", "lzw",
            "--method", "spearman", "--out", out,
        ]) == 0
        assert _sha256(out) == "b1a2062f11b934f75f54fe0cb926327784470d78bb553fc39ae8538add08d240"

    def test_classify(self, results, tmp_path, capsys):
        out = str(tmp_path / "cls.csv")
        assert main(["classify", "--input", results, "--test", "welch_t", "--out", out]) == 0
        assert _sha256(out) == "d1537d5f04b2e28d0173cad7a51499b3c87f48fac28574876f1a03a19ac146d3"
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == "909aa3d790b08a7975853cb478583db6eb044789410a575f5ebc0b780e70aee2"

    @pytest.mark.parametrize("flags, digest", [
        (
            ["--measures", "entropy,huffman,rle,lzw,ma_exact,ma_split,bdm1d,bdm2d",
             "--missing-block", "entropy", "--block-shape", "1x2"],
            "2bbbcdb5bbc2b5d998263914e74b8beacf2db9319bf2df004be1b62dac119212",
        ),
        (
            ["--measures", "bdm1d,bdm2d,entropy", "--boundary", "pad"],
            "6a8878e1a0c3e9dd6828bd406f8f389c91add448dd3dbc5776f73cc838ec8384",
        ),
    ])
    def test_measure_matrix_payload(self, tmp_path, flags, digest):
        (tmp_path / "m.csv").write_text("0,7,5,1\n9,0,5,5\n5,4,0,0\n")
        data = _write_dataset(tmp_path, ["abra,s,string,ABRACADABRA,1.5", "mat,m,matrix,m.csv,"])
        out = str(tmp_path / "res.csv")
        assert main(["measure", "--input", data, "--out", out, "--toy-ctm", "--threshold", "3"] + flags) == 0
        assert _sha256(out) == digest

    def test_matrix_payload_without_numpy(self, tmp_path):
        """The first matrix-payload case, in a fresh interpreter where any
        import of numpy fails, gives the same digest and leaves numpy
        unimported."""
        (tmp_path / "m.csv").write_text("0,7,5,1\n9,0,5,5\n5,4,0,0\n")
        data = _write_dataset(tmp_path, ["abra,s,string,ABRACADABRA,1.5", "mat,m,matrix,m.csv,"])
        out = str(tmp_path / "res.csv")
        script = (
            "import sys\n"
            "class BlockNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'numpy':\n"
            "            raise ImportError('numpy is blocked')\n"
            "sys.meta_path.insert(0, BlockNumpy())\n"
            "from seqcomplexity.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "assert 'numpy' not in sys.modules\n"
            "sys.exit(code)\n"
        )
        argv = [
            "measure", "--input", data, "--out", out, "--toy-ctm", "--threshold", "3",
            "--measures", "entropy,huffman,rle,lzw,ma_exact,ma_split,bdm1d,bdm2d",
            "--missing-block", "entropy", "--block-shape", "1x2",
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert _sha256(out) == "2bbbcdb5bbc2b5d998263914e74b8beacf2db9319bf2df004be1b62dac119212"
