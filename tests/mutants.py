"""Mutation ledger of the operator search's fast path.

Each mutant changes one node of one function the search runs: it swaps an
arithmetic or comparison operator, drops a term, or shifts an index or a
bound by one.  The run applies one mutant at a time to a temporary copy of
src/ and runs TESTS on it serially, stopping at the first failure; a mutant
is killed when the tests fail or run past TIMEOUT_S.  It compares the
mutants with those of the ledger (tests/mutants_search.json) and stops,
naming it, at a ledger mutant that no longer applies to the source.  Every
mutant must be killed or marked equivalent in the ledger, with a reason.

    python3 tests/mutants.py           # run, and report against the ledger
    python3 tests/mutants.py --write   # run, and rewrite the ledger

The file name keeps pytest from collecting it.  At most two mutants run at
once, each test run in its own process under a 1 GiB address-space limit.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import copy
import json
import os
import pathlib
import queue
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / "tests" / "mutants_search.json"
TESTS = ["tests/test_search_pruning.py", "tests/test_operators.py", "tests/test_scan_reference.py"]
# (module, qualified name) of each mutated function, nested functions included
FUNCTIONS = [
    ("operators", "_file_polynomials"),
    ("operators", "_variables"),
    ("operators", "_vanish"),
    ("operators", "_backtrack"),
    ("operators", "_signed_counter"),
    ("operators", "_FreeMap._poly_applier"),
    ("core", "_poly_column_applier"),
    ("core", "EvenBilinear._poly_applier"),
]
WORKERS = 2
TIMEOUT_S = 60  # a clean run of TESTS takes about 17 s, 25 s beside another
MEMORY_BYTES = 1 << 30

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
TERMS = (ast.Add, ast.Sub)  # operators whose terms a mutant may drop


def find_function(tree, qualname):
    node = tree
    for name in qualname.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def plus_one(node):
    return ast.BinOp(node, ast.Add(), ast.Constant(1))


def variants(node):
    """(kind, replacement) of each mutant of node; a replacement is a node of
    the same class (a statement for a statement), or None for `pass`."""
    out = []
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
        swapped = copy.deepcopy(node)
        swapped.op = SWAPS[type(node.op)]()
        out.append(("swap", swapped))
        if isinstance(node, ast.BinOp) and type(node.op) in TERMS:
            out += [("drop", node.left), ("drop", node.right)]
        elif type(node.op) in TERMS:
            out.append(("drop", None))
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in SWAPS:
                swapped = copy.deepcopy(node)
                swapped.ops[k] = SWAPS[type(op)]()
                out.append(("swap", swapped))
    if isinstance(node, ast.Subscript) and not isinstance(node.slice, (ast.Slice, ast.Tuple)):
        shifted = copy.deepcopy(node)
        shifted.slice = plus_one(node.slice)
        out.append(("shift", shifted))
    if isinstance(node, ast.Slice):
        for bound in ("lower", "upper"):
            if getattr(node, bound) is not None:
                shifted = copy.deepcopy(node)
                setattr(shifted, bound, plus_one(getattr(node, bound)))
                out.append(("shift", shifted))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        out.append(("shift", ast.Constant(node.value + 1)))
    return out


def nodes_of(fn):
    """The nodes of fn's body, nested functions included, in source order;
    annotations and docstrings are left out."""
    body = fn.body[1:] if ast.get_docstring(fn) else fn.body
    seen = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.arg, ast.arguments)):
                continue
            if hasattr(node, "lineno") or isinstance(node, ast.Slice):
                seen.append(node)
    for node in seen:
        for ann in ("returns", "annotation"):
            if getattr(node, ann, None) is not None:
                drop = set(map(id, ast.walk(getattr(node, ann))))
                seen = [n for n in seen if id(n) not in drop]
    return sorted(seen, key=lambda n: (n.lineno, n.col_offset, -n.end_lineno, -n.end_col_offset))


def offset(lines, lineno, col):
    """The string index of a node position, whose column counts UTF-8 bytes."""
    return sum(map(len, lines[:lineno - 1])) + len(lines[lineno - 1].encode()[:col].decode())


def mutants():
    """Every mutant of FUNCTIONS: a dict with its id, function, line (from
    the def line), kind, original and mutant text, and the mutated module
    source (key "source", with its "module")."""
    out = []
    for module, qualname in FUNCTIONS:
        path = SRC / "superalt" / f"{module}.py"
        source = path.read_text()
        lines = source.splitlines(keepends=True)
        fn = find_function(ast.parse(source), qualname)
        k = 0
        for node in nodes_of(fn):
            start = offset(lines, node.lineno, node.col_offset)
            end = offset(lines, node.end_lineno, node.end_col_offset)
            original = source[start:end]
            for kind, new in variants(node):
                if isinstance(node, ast.stmt):
                    text = "pass" if new is None else ast.unparse(new)
                elif isinstance(node, ast.Slice):
                    text = ast.unparse(ast.Subscript(ast.Name("_"), new))[2:-1]
                else:
                    text = f"({ast.unparse(new)})"
                out.append({
                    "id": f"{module}.{qualname}#{k}",
                    "function": f"{module}.{qualname}",
                    "line": node.lineno - fn.lineno,
                    "kind": kind,
                    "original": original,
                    "mutant": text,
                    "module": module,
                    "source": source[:start] + text + source[end:],
                })
                k += 1
    return out


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tests(src, scratch):
    """(exit code or None on a timeout, the first failing test id or None)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(scratch / ".hypothesis"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rfE", *TESTS]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return None, None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return done.returncode, failed and failed.group(1)


class Worker:
    """A copy of src/ into which one mutant at a time is written."""

    def __init__(self, root):
        self.scratch = pathlib.Path(root)
        self.src = self.scratch / "src"
        shutil.copytree(SRC, self.src)

    def run(self, mutant):
        path = self.src / "superalt" / f"{mutant['module']}.py"
        original = path.read_text()
        path.write_text(mutant["source"])
        try:
            code, test = run_tests(self.src, self.scratch)
        finally:
            path.write_text(original)
        if code is None:
            return True, "timeout"
        if code == 0:
            return False, None
        return True, test or f"exit {code}"


def key(m):
    return tuple(m[k] for k in ("id", "kind", "original", "mutant"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the ledger")
    args = parser.parse_args(argv)

    found = mutants()
    ledger = json.loads(LEDGER.read_text())["mutants"] if LEDGER.exists() else []
    current = {key(m) for m in found}
    for entry in ledger:
        if key(entry) not in current:
            print(f"ledger mutant {entry['id']} ({entry['original']!r} -> {entry['mutant']!r}) "
                  "no longer applies to the source", file=sys.stderr)
            return 2
    reasons = {key(e): e["equivalent"] for e in ledger if e.get("equivalent")}

    start = time.perf_counter()
    rows, survivors = [], []
    with tempfile.TemporaryDirectory() as tmp:
        free = queue.Queue()
        for i in range(WORKERS):
            free.put(Worker(pathlib.Path(tmp) / f"w{i}"))
        clean = free.get()
        code, test = run_tests(clean.src, clean.scratch)
        if code != 0:
            print(f"the tests fail on the unmutated source ({test or 'timeout'})", file=sys.stderr)
            return 2
        free.put(clean)

        def job(m):
            worker = free.get()
            try:
                return worker.run(m)
            finally:
                free.put(worker)

        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            for m, (killed, by) in zip(found, pool.map(job, found)):
                row = {k: m[k] for k in ("id", "function", "line", "kind", "original", "mutant")}
                row.update(killed=killed, killed_by=by)
                if killed:
                    status = f"killed by {by}"
                elif key(m) in reasons:
                    row["equivalent"] = reasons[key(m)]
                    status = "equivalent"
                else:
                    survivors.append(m)
                    status = "SURVIVED"
                rows.append(row)
                print(f"{m['id']:44} {m['original']!r} -> {m['mutant']!r}: {status}", flush=True)
    elapsed = time.perf_counter() - start
    killed = sum(r["killed"] for r in rows)
    print(f"{len(rows)} mutants, {killed} killed, {len(rows) - killed - len(survivors)} "
          f"equivalent, {len(survivors)} surviving, in {elapsed:.0f} s")
    if args.write:
        LEDGER.write_text(json.dumps({
            "tests": TESTS,
            "functions": [f"{m}.{q}" for m, q in FUNCTIONS],
            "line": "counted from the function's def line",
            "mutants": rows,
        }, indent=1, ensure_ascii=False) + "\n")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
