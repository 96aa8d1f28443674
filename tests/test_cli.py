import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqcomplexity.cli import main, synthetic_corpus

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

    def test_empty_string_exits_1(self, tmp_path):
        assert main(["tree", "--string", "", "--out", str(tmp_path / "t.dot")]) == 1

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

    def test_ctm_gen_complement_rows(self, tmp_path):
        out = str(tmp_path / "ctm.csv")
        assert main(["ctm-gen", "--states", "2", "--symbols", "2", "--step-bound", "30", "--out", out]) == 0
        rows = {r.split(",")[0]: r.split(",")[1] for r in Path(out).read_text().splitlines()[1:]}
        assert rows["0"] == rows["1"]

    def test_ctm_gen_unsupported_exits_2(self, tmp_path):
        assert main(["ctm-gen", "--states", "3", "--out", str(tmp_path / "x.csv")]) == 2

    def test_binarize(self, tmp_path):
        src = tmp_path / "m.csv"
        src.write_text("1,4\n3,2\n")
        out = str(tmp_path / "b.csv")
        assert main(["binarize", "--input", str(src), "--threshold", "3", "--out", out]) == 0
        assert Path(out).read_text() == "0,1\n0,0\n"

    def test_binarize_missing_input_exits_1(self, tmp_path):
        assert main(["binarize", "--input", str(tmp_path / "no.csv"), "--threshold", "1", "--out", str(tmp_path / "b.csv")]) == 1


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
        assert "CTM table: non-positive or non-finite ctm_bits for block '1'" in capsys.readouterr().err
        assert not out.exists()


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
