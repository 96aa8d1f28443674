import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import seqcomplexity

MODULES = ["seqcomplexity"] + [f"seqcomplexity.{m.name}" for m in pkgutil.iter_modules(seqcomplexity.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_only_ingest_opens_files():
    """Every file, read or written, goes through ``ingest``: one CSV reader,
    and one policy for writing (UTF-8, no newline translation)."""
    package = Path(seqcomplexity.__file__).parent
    openers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "ingest.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "open"
    ]
    assert not openers


def test_ctm_tables_and_matrices_written_through_write_csv():
    """``bdm`` does not import ``csv``; CTM tables and matrices are written
    by ``ingest.write_csv``, in the dialect of every other CSV."""
    tree = ast.parse((Path(seqcomplexity.__file__).parent / "bdm.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert "csv" not in imported
    assert {("bdm.py", "ctm_save"), ("ingest.py", "save_matrix_csv")} <= _callers("write_csv")


def _callers(name, *args):
    """``(file, function)`` of every function in the package that calls
    ``name``, with the constants ``args`` as its first arguments if given;
    an ``...`` in ``args`` matches any argument."""
    package = Path(seqcomplexity.__file__).parent
    return {
        (path.name, fn.name)
        for path in sorted(package.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        and len(node.args) >= len(args)
        and all(want is ... or getattr(arg, "value", None) == want for arg, want in zip(node.args, args))
    }


def test_only_overwrite_opens_a_file_for_writing():
    """``ingest._overwrite`` is the one place a file is opened for writing
    (with ``os.open``, or ``open`` in mode ``"w"``), so no writer can
    truncate its target on open; the one other opener, the CSV reader,
    reads."""
    assert _callers("open") == {("ingest.py", "_csv_rows"), ("ingest.py", "_overwrite")}
    assert _callers("open", ..., "r") == {("ingest.py", "_csv_rows")}
    assert _callers("open", ..., "w") == {("ingest.py", "_overwrite")}


def test_only_evaluate_spells_a_payload_in_bits():
    """``measures.evaluate`` alone decides what a measure reads, and hands a
    string payload to ``bdm1d`` as its UTF-8 bytes, which ``bdm_1d`` reads
    bit by bit: no measure spells 8 characters per byte.  The generator
    spec's own encoding is the one user of ``text_to_bits``.  The bytes
    come from ``coding._utf8``, which ``evaluate`` alone calls."""
    assert _callers("text_to_bits") == {("deceiver.py", "encode_bits")}
    assert _callers("_utf8") == {("measures.py", "evaluate")}
    assert ("coding.py", "_utf8") in _callers("encode", "utf-8")


def test_only_fold_pathway_builds_a_step():
    """A step's span of the target is worked out in one place, for both
    assembly searches."""
    assert _callers("JoinStep") == {("assembly.py", "_fold_pathway")}


def test_only_is_int_reads_a_bool():
    """A count, size, index or length is an ``int`` that is not a ``bool``;
    ``_util.is_int`` is the one place that rule is written."""
    package = Path(seqcomplexity.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk meets an outer function before the ones nested in it, so the innermost owner wins
        owner = {node: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        found += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and any(getattr(n, "id", None) == "bool" for arg in node.args[1:] for n in ast.walk(arg))
        ]
    assert found == [("_util.py", "is_int")]


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_traced_name_resolves():
    """The benchmark's tracer wraps package functions by name; a name it
    wraps must not vanish from the module it is looked up in."""
    targets = _tracing().TARGETS
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in targets if not callable(getattr(module, attr, None))]
    assert targets and not missing


def _references(path):
    """Every name that the file at ``path`` reads, as a name or an
    attribute, outside the ``def`` of that name: a function's call to
    itself is not a reader."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owners = owners | {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_every_exported_function_has_a_reader():
    """A public function stays only while a command, demo, measure or the
    benchmark reads it: a module of the package other than ``__init__``, a
    demo, or a file under ``bench/``, where a name the tracer wraps counts."""
    root = Path(__file__).resolve().parents[1]
    package = Path(seqcomplexity.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    read = set().union(*map(_references, sources)) | {attr for _, attr, *_ in _tracing().TARGETS}
    functions = [n for n in seqcomplexity.__all__ if inspect.isfunction(getattr(seqcomplexity, n))]
    assert functions
    assert [n for n in functions if n not in read] == []


def _imports(tree):
    """``(line, bound name)`` of every import in ``tree``, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_no_dead_imports(name):
    """An imported name is used, exported, or wrapped there by the benchmark's tracer."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | set(getattr(module, "__all__", ())) | {attr for m, attr, *_ in _tracing().TARGETS if m is module}
    dead = [f"{line}:{n}" for line, n in _imports(tree) if n not in kept]
    assert not dead
