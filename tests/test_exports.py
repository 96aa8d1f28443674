import ast
import importlib
import importlib.util
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


def _reads_a_file(call):
    """Whether ``call`` is an ``open`` call whose mode can read: no mode, a
    mode that is not a constant, or one with ``r`` or ``+``."""
    func = call.func
    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("r+"))


def test_only_ingest_opens_files_for_reading():
    """Every input file goes through the one CSV reader in ``ingest``."""
    package = Path(seqcomplexity.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "ingest.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _reads_a_file(node)
    ]
    assert not readers


def test_only_evaluate_spells_a_payload_in_bits():
    """``measures.evaluate`` alone decides what a measure reads; the generator
    spec's own encoding is the one other user of ``text_to_bits``."""
    package = Path(seqcomplexity.__file__).parent
    callers = {
        (path.name, fn.name)
        for path in sorted(package.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "text_to_bits"
    }
    assert callers == {("measures.py", "evaluate"), ("deceiver.py", "encode_bits")}


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
