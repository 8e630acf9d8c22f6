"""Traced request: runs one ``opideal`` CLI request with every public
function of the package timed from outside.

    python -m bench.tracer SPANS_PATH REQUEST_ID -- <opideal argv...>

1. Times ``import opideal.cli``.
2. Wraps each public function (a module's ``__all__``, else its public
   functions, as for ``utils`` and ``cli``) on its own module and at every
   binding of it in another ``opideal`` module, so cross-layer calls nest.
3. Wraps ``json.dumps`` as seen by ``cli``.
4. Calls ``cli.main(argv)`` and exits with its status.

Spans (name, start, end, parent index, raised) stay in memory and are
written as JSON lines to SPANS_PATH at exit, after a header line with the
request id, the import time and the tracer's own install time; a trailer
line gives the time taken to write them.  Stdout is the CLI's, unchanged.
The call stack is a single list, so calls must come from one thread.
"""

import functools
import json
import sys
import time
import types

MODULES = ("amenable", "classical", "cli", "factor", "harish", "nest",
           "serialize", "symfunc", "utils")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {n: getattr(module, n) for n in names
            if isinstance(getattr(module, n), types.FunctionType)
            and getattr(module, n).__module__ == module.__name__}


def install(package, spans: list) -> None:
    """Replace every public function of the package's modules by a timing wrapper."""
    stack = [-1]
    clock = time.perf_counter

    def wrap(name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, raised)
        return timed

    modules = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
    replaced = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(module).items():
            replaced[id(fn)] = wrap(f"{short}.{name}", fn)
    for module in modules + [package]:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and id(value) in replaced:
                setattr(module, attr, replaced[id(value)])

    cli = sys.modules[f"{package.__name__}.cli"]
    seen_by_cli = types.ModuleType("json")
    seen_by_cli.__dict__.update(vars(json))
    seen_by_cli.dumps = wrap("json.dumps", json.dumps)
    cli.json = seen_by_cli


def main(argv) -> int:
    spans_path, request_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: python -m bench.tracer SPANS_PATH REQUEST_ID -- ARGV...")
    t0 = time.perf_counter()
    import opideal
    import opideal.cli
    t1 = time.perf_counter()
    spans = []
    install(opideal, spans)
    t2 = time.perf_counter()
    try:
        status = opideal.cli.main(cli_argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    t3 = time.perf_counter()
    with open(spans_path, "w") as fh:
        fh.write(json.dumps({"request": int(request_id), "import_s": t1 - t0,
                             "install_s": t2 - t1}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
        fh.flush()
        fh.write(json.dumps({"dump_s": time.perf_counter() - t3}) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
