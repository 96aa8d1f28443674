"""Mutation probe: change one operator or constant of a package module at a
time and run the given tests against each mutant.

Run from the repository root:

    python tools/mutation_probe.py src/seqcomplexity/bdm.py tests/test_bdm.py tests/test_measures.py

The mutations follow DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978: flip a comparison (``<`` and ``>=``,
``>`` and ``<=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and
``is not``), swap ``+`` and ``-`` or ``*`` and ``//`` (augmented assignments
included), or add 1 to an int constant.  Each mutant is written into a copy
of ``src/`` and ``tests/`` in a temporary directory, so the checkout is never
changed, and the tests stop at their first failure.  A mutant survives when
every test passes; a run past ``TIMEOUT_S`` seconds (a mutant that loops
forever) counts as killed.  The probe prints each survivor with its line,
then the totals.  It makes one pytest run per mutant, which is why the test
suite does not run it.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120
FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
SYMBOL = {
    ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=", ast.In: "in",
    ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.FloorDiv: "//",
}


def sites(tree):
    """``(k, i)`` for each mutation: ``k`` numbers the node in ``ast.walk``
    order, ``i`` the operator of a comparison."""
    for k, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            yield from ((k, i) for i, op in enumerate(node.ops) if type(op) in FLIP)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            yield k, 0
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield k, 0


def mutate(source, k, i):
    """The mutated source and a one-line description of the change."""
    tree = ast.parse(source)
    node = next(n for j, n in enumerate(ast.walk(tree)) if j == k)
    if isinstance(node, ast.Compare):
        old, node.ops[i] = node.ops[i], FLIP[type(node.ops[i])]()
        change = f"{SYMBOL[type(old)]} -> {SYMBOL[type(node.ops[i])]}"
    elif isinstance(node, ast.Constant):
        node.value += 1
        change = f"{node.value - 1} -> {node.value}"
    else:
        old, node.op = node.op, SWAP[type(node.op)]()
        change = f"{SYMBOL[type(old)]} -> {SYMBOL[type(node.op)]}"
    return ast.unparse(tree), f"line {node.lineno}: {change}"


def passes(workdir, tests):
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    # every mutant rewrites the same file, often at the same size within one
    # second, which a cached .pyc cannot tell from the mutant before it
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="path of the module to mutate, relative to the repository root")
    ap.add_argument("tests", nargs="+", help="test files to run against each mutant")
    args = ap.parse_args()
    with open(os.path.join(ROOT, args.module), encoding="utf-8") as fh:
        source = fh.read()
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if os.path.isdir(os.path.join(ROOT, name)) else shutil.copy
            copy(os.path.join(ROOT, name), os.path.join(workdir, name))
        target = os.path.join(workdir, args.module)
        if not passes(workdir, args.tests):
            sys.exit("the tests fail on the unchanged module")
        survivors = []
        todo = list(sites(ast.parse(source)))
        for k, i in todo:
            mutant, change = mutate(source, k, i)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutant)
            if passes(workdir, args.tests):
                survivors.append(change)
                print("survived", change, flush=True)
        print(f"{len(todo)} mutants, {len(todo) - len(survivors)} killed, {len(survivors)} survived")


if __name__ == "__main__":
    main()
