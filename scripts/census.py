#!/usr/bin/env python3
"""List the package functions, or statements, that no workflow reaches.

    python3 scripts/census.py
    python3 scripts/census.py --statements

The workflows are the ones the paper's claims are checked through: the
verification battery and the extra reports of ``scripts/ab.py --reports``
(``theorem1 --nu 1000``, ``paper-pq --parties 6``), three refused CLI runs,
one convergence-study row and one pass of each perfbench workload with
its warm-up job. Each runs in this process under ``sys.settrace``, which
records every call into ``src/loccverify``. The script then prints each
function and method defined there that no workflow called, with its line
count (decorators and docstring included), and a total. Nested functions
count as part of the function that defines them. What only tests or
README reach shows up here as a candidate for deletion.

With ``--statements`` the workflows run under line events instead, and
the script prints, for each function that some workflow calls, the
statements that none executes, as ranges of source lines, and a total: a
route inside a reached function that no workflow takes.
"""

import argparse
import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loccverify"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
import ab  # noqa: E402  (caps BLAS at one thread, imports perfbench's)

import loccverify  # noqa: E402
from loccverify import cli  # noqa: E402

# Runs the CLI refuses with exit 2: a flag out of its range, input that is
# not JSON, and a run over the memory budget.
REFUSED = (["protocol", "--nu", "0"], ["zonoid-check", "--z", "{broken"],
           ["theorem1", "--samples", "100000000"])


def _functions():
    """(file name, qualified name) and the AST node of every top-level
    function and every method (classes nested in classes too) of the
    package."""
    def visit(body, prefix, name):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (name, prefix + node.name), node

    for path in sorted(PACKAGE.glob("*.py")):
        yield from visit(ast.parse(path.read_text()).body, "", path.name)


def _first_line(node) -> int:
    """The first line of a statement, its decorators included."""
    return min([d.lineno for d in getattr(node, "decorator_list", ())]
               + [node.lineno])


def package_functions() -> dict:
    """Line count of every top-level function and every method (classes
    nested in classes too) of the package, keyed by (file name,
    qualified name); a property's getter and setter share one key."""
    found = {}
    for key, node in _functions():
        lines = node.end_lineno - _first_line(node) + 1
        found[key] = found.get(key, 0) + lines
    return found


def package_statements() -> dict:
    """The (first line, last line) of each statement of every function, in
    order, keyed as :func:`package_functions` keys them. Statements that
    run no code, so that no line event reports them, are left out:
    docstrings and other constant expressions, and global and nonlocal
    declarations."""
    found = {}
    for key, node in _functions():
        for stmt in ast.walk(node):
            if (stmt is node or not isinstance(stmt, ast.stmt)
                    or isinstance(stmt, (ast.Global, ast.Nonlocal))
                    or (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant))):
                continue
            found.setdefault(key, []).append((_first_line(stmt),
                                              stmt.end_lineno))
    return {key: sorted(lines) for key, lines in found.items()}


def cli_run(argv):
    """A workflow: one CLI run of ``argv``, its output dropped."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))
    return run


def perfbench_pass(workload: str, seed: int = 1):
    """A workflow: one pass of a perfbench workload and its warm-up job."""
    def run():
        wl = ab.wl
        work = wl.Workload(loccverify, workload, wl.load_reference())
        jobs = wl.make_jobs(workload, seed, 1)[0]
        jobs.append(wl.warmup_job(workload, seed))
        for job in work.prepare(jobs):
            work.run(job)
    return run


def workflows() -> list:
    """Every workflow the census runs, as callables."""
    study = runpy.run_path(str(ROOT / "scripts" / "convergence_study.py"))
    return ([cli_run(argv) for argv in ab.report_argvs() + list(REFUSED)]
            + [lambda: study["study_row"](100, 0.5, 1000, 42)]
            + [perfbench_pass(w) for w in ("protocol", "theorem", "geometry")])


def reached(runs) -> set:
    """(file name, qualified name) of every package function that the
    callables ``runs`` call."""
    seen = set()
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            seen.add((Path(code.co_filename).name, code.co_qualname))

    sys.settrace(trace)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(None)
    return seen


def unreached(runs) -> dict:
    """Line count of each package function that ``runs`` never calls."""
    hit = reached(runs)
    return {key: lines for key, lines in package_functions().items()
            if key not in hit}


def executed(runs) -> set:
    """(file name, line) of every line of the package that the callables
    ``runs`` execute."""
    seen = set()
    prefix = str(PACKAGE) + "/"

    def line(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        for run in runs:
            run()
    finally:
        sys.settrace(None)
    return {(Path(path).name, lineno) for path, lineno in seen}


def unexecuted(runs) -> dict:
    """For each package function that ``runs`` call, the statements that
    they never execute: how many, and their (first line, last line)
    ranges, each a run of consecutive statements."""
    hit = executed(runs)
    missed = {}
    for key, statements in package_statements().items():
        ran = [(key[0], first) in hit for first, _ in statements]
        if not any(ran) or all(ran):
            continue
        ranges = []
        for (first, last), done, before in zip(statements, ran,
                                               [True] + ran):
            if not done and before:
                ranges.append((first, last))
            elif not done:
                ranges[-1] = (ranges[-1][0], max(ranges[-1][1], last))
        missed[key] = (ran.count(False), ranges)
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--statements", action="store_true",
                        help="list the statements that no workflow executes")
    args = parser.parse_args(argv)
    runs = workflows()
    if args.statements:
        missed = unexecuted(runs)
        for (name, qualname), (_, ranges) in sorted(missed.items()):
            print(f"{name}:{qualname}  " + ", ".join(
                str(first) if first == last else f"{first}-{last}"
                for first, last in ranges))
        print(f"{sum(count for count, _ in missed.values())} statements in "
              f"{len(missed)} reached functions, executed by none of "
              f"{len(runs)} workflows")
        return 0
    total = len(package_functions())
    missed = unreached(runs)
    for (name, qualname), lines in sorted(missed.items()):
        print(f"{lines:5d}  {name}:{qualname}")
    print(f"{len(missed)} of {total} functions, "
          f"{sum(missed.values())} lines, reached by none of "
          f"{len(runs)} workflows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
