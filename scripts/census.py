#!/usr/bin/env python3
"""List the package functions that no workflow reaches.

    python3 scripts/census.py

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
"""

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


def package_functions() -> dict:
    """Line count of every top-level function and every method (classes
    nested in classes too) of the package, keyed by (file name,
    qualified name); a property's getter and setter share one key."""
    found = {}

    def visit(body, prefix, name):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in node.decorator_list]
                            + [node.lineno])
                key = (name, prefix + node.name)
                found[key] = found.get(key, 0) + node.end_lineno - first + 1

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()).body, "", path.name)
    return found


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


def main() -> int:
    runs = workflows()
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
