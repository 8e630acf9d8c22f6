"""End-to-end benchmark of the ``opideal`` command line.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all        # every workload, one after another

Run from a checkout holding ``src/opideal``.  Each workload is a closed loop
with one client: requests come from the workload's fixed list, reshuffled
every cycle with the seed, and each is a fresh ``python -m opideal ...``
process spawned after the previous one exits.  Whole cycles are run until
about ``--seconds`` have passed, so every run sees the same request mix.
Every report is checked against an independent numpy recomputation
(``checks.py``), outside the timed interval.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs the
same requests through ``tracer.py`` and prints the per-layer metrics.  The
last line of stdout is one JSON object; the lines before it are the same
numbers for people, with sample counts and the environment record.
"""

import os
import sys

# The checks' numpy runs single-threaded so that no idle BLAS thread of this
# process competes with a request; requests keep the caller's BLAS settings.
_CHILD_BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import selectors  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = ".bench_work"
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 60.0

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "requests_per_s": "req/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

MODULE_LAYERS = ("cli", "serialize", "symfunc", "nest", "factor", "classical",
                 "harish", "amenable", "utils")
HOT_FUNCTIONS = (
    "nest.is_in_nest_algebra", "utils.opnorm", "utils.cond2", "utils.frob",
    "serialize.matrix_from_obj", "serialize.matrix_to_obj", "serialize.resolve_group",
    "amenable.gns_regular", "amenable.left_regular_rep", "amenable.invariant_means",
    "symfunc.adjoint_phi_eval", "symfunc.boyd_estimate", "nest.truncation_norm_experiment",
    "factor.qb_nest", "factor.ldl_nest", "classical.cartan_decompose",
    "classical.group_membership", "json.dumps",
)
STAGES = ("load", "compute", "verify", "emit")
# The subcommand's primary calls: the compute stage.  Top-level calls under
# cli.main after the first of them are residual checks (verify), except
# loads and emits.
PRIMARY = {
    "svalues": {"symfunc.singular_values"},
    "norm": {"symfunc.phi_norm"},
    "dualnorm": {"symfunc.adjoint_phi_eval"},
    "boyd": {"symfunc.boyd_estimate"},
    "truncate": {"nest.truncate_diag", "nest.truncate_upper", "nest.truncate_lower"},
    "integral": {"nest.triangular_integral"},
    "ldl-nest": {"factor.ldl_nest"},
    "qr-nest": {"factor.qb_nest"},
    "cartan": {"classical.cartan_decompose"},
    "iwasawa": {"classical.iwasawa_decompose"},
    "hc": {"harish.hc_factorize", "harish.hc_domain_test", "harish.hc_action",
           "harish.hc_cocycle"},
    "mean": {"amenable.invariant_means"},
    "gns": {"amenable.uniform_mean", "amenable.gns_regular"},
    "arens": {"amenable.arens_product"},
    "experiment": {"nest.truncation_norm_experiment"},
}
EMIT_CALLS = {"serialize.matrix_to_obj", "json.dumps"}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order.  Times are
    means per request; counts and bytes are exact totals per cycle."""
    units = {"import.self_s": "s", "interp.self_s": "s"}
    for layer in MODULE_LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count/cycle",
                      f"{layer}.errors": "count/cycle"})
    units.update({f"stage.{s}_s": "s" for s in STAGES})
    units.update({"serialize.bytes_in": "B/cycle", "serialize.bytes_out": "B/cycle"})
    for fn in HOT_FUNCTIONS:
        units.update({f"{fn}.calls": "count/cycle", f"{fn}.self_s": "s"})
    units.update({"trace.overhead_s": "s", "trace.self_s": "s"})
    return units


def layer_of(span_name: str) -> str:
    # json.dumps as seen by cli encodes the report: the serialization layer.
    return "serialize" if span_name == "json.dumps" else span_name.split(".", 1)[0]


# --- spawning ---------------------------------------------------------------

@dataclass
class Outcome:
    status: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool = False


def spawn(cmd, env, timeout=REQUEST_TIMEOUT_S) -> Outcome:
    """Run one child to exit; wall time is spawn to reap, rusage from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                left = start + timeout - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        out[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, wstatus, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        stdout = b"".join(out[proc.stdout.fileno()])
        stderr = b"".join(out[proc.stderr.fileno()])
        proc.stdout.close()
        proc.stderr.close()
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr, timed_out)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OPIDEAL_SEED", None)
    if _CHILD_BLAS_THREADS is None:
        env.pop("OPENBLAS_NUM_THREADS", None)
    else:
        env["OPENBLAS_NUM_THREADS"] = _CHILD_BLAS_THREADS
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_ENV_PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy
from importlib.metadata import version
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": version("scipy"),
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads,
                  "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}))
"""


def environment(env) -> dict:
    """Versions and BLAS threads as a request sees them."""
    out = spawn([sys.executable, "-c", _ENV_PROBE], env)
    if out.status != 0:
        return {"probe_error": out.stderr.decode(errors="replace")[-300:]}
    return json.loads(out.stdout)


# --- one workload -----------------------------------------------------------

@dataclass
class Record:
    index: int          # position in the workload's request list
    wall_s: float
    maxrss_mb: float
    failure: str | None
    sha: str
    stdout_bytes: int
    spans: dict | None = None       # traced requests: header, spans, dump time


@dataclass
class Result:
    workload: str
    seed: int
    requests_per_cycle: int
    setup_times: list
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    traced_cycles: int = 0
    env: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    bytes_in: list = field(default_factory=list)    # per request-list index
    requests: list = field(default_factory=list)
    sha_of: dict = field(default_factory=dict)      # request index -> stdout digest

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced)

    @property
    def failed(self) -> int:
        return sum(r.failure is not None for r in self.untraced + self.traced)


def _setup(workload: str, seed: int, env):
    """Generate the inputs and make one untimed warm-up request (pyc compile,
    page cache); repeated, and the median reported as setup_s."""
    rel_dir = os.path.join(WORK_DIR, workload)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(os.path.join(ROOT, rel_dir), ignore_errors=True)
        reqs, arrays = workloads.build(workload, seed, ROOT, rel_dir)
        warm = spawn([sys.executable, "-m", "opideal", "--help"], env)
        if warm.status != 0:
            raise RuntimeError("warm-up request failed: "
                               + warm.stderr.decode(errors="replace")[-500:])
        times.append(time.perf_counter() - start)
    return reqs, arrays, times


def _run_request(result: Result, index: int, arrays, env, traced: bool) -> Record:
    req = result.requests[index]
    if traced:
        spans_path = os.path.join(ROOT, WORK_DIR, "spans", f"{len(result.traced)}.jsonl")
        # Run as a module, like the plain request: how the interpreter
        # was started changes how long scipy takes to import.
        cmd = [sys.executable, "-m", f"{os.path.basename(BENCH_DIR)}.tracer",
               spans_path, str(len(result.traced)), "--", *req.argv]
    else:
        cmd = [sys.executable, "-m", "opideal", *req.argv]
    out = spawn(cmd, env)
    failure = None
    if out.timed_out:
        failure = f"timed out after {REQUEST_TIMEOUT_S:g} s"
    elif out.status != 0:
        failure = f"exit status {out.status}: {out.stderr.decode(errors='replace')[-300:]}"
    sha = hashlib.sha256(out.stdout).hexdigest()
    if failure is None:
        first = (result.sha_of.get(index) if traced
                 else result.sha_of.setdefault(index, sha))
        if first != sha:
            failure = "stdout differs from an earlier run of the same request"
    if failure is None and not traced:
        failure = checks.check(req, out.stdout, arrays)
    rec = Record(index, out.wall_s, out.maxrss_mb, failure, sha, len(out.stdout))
    if traced:
        rec.spans = _read_spans(spans_path) if failure is None else None
    if failure is not None:
        result.failures.append(f"{req.key}: {failure}")
    return rec


def _read_spans(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    os.remove(path)
    return {"header": lines[0], "spans": lines[1:-1], "dump_s": lines[-1]["dump_s"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    env = child_env()
    reqs, arrays, setup_times = _setup(workload, seed, env)
    result = Result(workload, seed, len(reqs), setup_times, requests=reqs)
    result.env = environment(env)
    result.env["loadavg_start"] = os.getloadavg()
    result.bytes_in = [sum(os.path.getsize(os.path.join(ROOT, a)) for a in r.argv
                           if a in arrays) for r in reqs]
    shuffler = random.Random(seed)
    os.makedirs(os.path.join(ROOT, WORK_DIR, "spans"), exist_ok=True)
    cycles = 0
    start = time.perf_counter()
    while True:
        order = list(range(len(reqs)))
        shuffler.shuffle(order)
        for index in order:
            result.untraced.append(_run_request(result, index, arrays, env, traced=False))
            if trace:
                # Traced right after untraced, so both see the same host load.
                result.traced.append(_run_request(result, index, arrays, env, traced=True))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            break
    result.traced_cycles = cycles if trace else 0
    result.env["loadavg_end"] = os.getloadavg()
    result.env["requests_per_run"] = result.attempted
    return result


# --- metrics ----------------------------------------------------------------

def end_to_end(result: Result) -> dict:
    walls = [r.wall_s for r in result.untraced]
    done = sum(r.failure is None for r in result.untraced)
    return {
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[8],
        "requests_per_s": done / sum(walls),
        "peak_rss_mb": max(r.maxrss_mb for r in result.untraced),
        "setup_s": statistics.median(result.setup_times),
    }


def request_layers(rec: Record, command: str) -> dict:
    """Self time, calls and errors per layer and hot function, and the stage
    split, for one traced request."""
    spans = rec.spans["spans"]
    header = rec.spans["header"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    main_idx = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    seen_primary = False
    for i, (name, start, end, parent, raised) in enumerate(spans):
        layer = layer_of(name)
        self_s = end - start - child_time[i]
        add(f"{layer}.self_s", self_s)
        add(f"{layer}.calls", 1)
        add(f"{layer}.errors", int(raised))
        if name in HOT_FUNCTIONS:
            add(f"{name}.self_s", self_s)
            add(f"{name}.calls", 1)
        if parent != main_idx or name == "cli.build_parser":
            continue
        if name.startswith("serialize.load_") or name == "serialize.resolve_group":
            stage = "load"
        elif name in EMIT_CALLS:
            stage = "emit"
        elif name in PRIMARY[command]:
            stage, seen_primary = "compute", True
        else:
            stage = "verify" if seen_primary else "compute"
        add(f"stage.{stage}_s", end - start)
    main = spans[main_idx]
    tracer_s = header["install_s"] + rec.spans["dump_s"]
    out["import.self_s"] = header["import_s"]
    out["trace.self_s"] = tracer_s
    out["interp.self_s"] = rec.wall_s - header["import_s"] - (main[2] - main[1]) - tracer_s
    return out


def per_layer(result: Result) -> dict:
    units = per_layer_units()
    totals = dict.fromkeys(units, 0.0)
    traced = [r for r in result.traced if r.spans is not None]
    for rec in traced:
        for key, value in request_layers(rec, result.requests[rec.index].command).items():
            totals[key] += value
        totals["serialize.bytes_in"] += result.bytes_in[rec.index]
        totals["serialize.bytes_out"] += rec.stdout_bytes
    n = len(traced)
    metrics = {}
    for key, unit in units.items():
        if unit == "s":
            metrics[key] = totals[key] / n
        else:
            per_cycle = totals[key] / result.traced_cycles
            metrics[key] = int(per_cycle) if per_cycle == int(per_cycle) else per_cycle
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in result.untraced))
    return metrics


def by_command(result: Result) -> dict:
    """Mean traced self time per layer for each subcommand."""
    acc = {}
    for rec in (r for r in result.traced if r.spans is not None):
        cmd = result.requests[rec.index].command
        layers = request_layers(rec, cmd)
        row = acc.setdefault(cmd, {"n": 0})
        row["n"] += 1
        for layer in ("import", "interp") + MODULE_LAYERS:
            row[layer] = row.get(layer, 0.0) + layers.get(f"{layer}.self_s", 0.0)
    return {cmd: {k: (v / row["n"] if k != "n" else v) for k, v in row.items()}
            for cmd, row in acc.items()}


# --- reporting --------------------------------------------------------------

def describe(result: Result, e2e: dict, layers: dict | None) -> list:
    n = len(result.untraced)
    beyond = sum(r.wall_s > e2e["latency_p90_s"] for r in result.untraced)
    lines = [f"workload {result.workload}  seed {result.seed}  "
             f"cycles {n // result.requests_per_cycle}  requests {n} "
             f"({result.requests_per_cycle} per cycle)"]
    counts = {"latency_p50_s": f"n={n}", "latency_p90_s": f"n={n}, {beyond} beyond",
              "requests_per_s": f"n={n}", "peak_rss_mb": f"n={n}",
              "setup_s": f"n={len(result.setup_times)}"}
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<16} {e2e[name]:>12.6g} {unit:<6} {counts[name]}")
    lines.append(f"  {'failure_rate':<16} {result.failed / result.attempted:>12.6g} "
                 f"{'1':<6} {result.failed}/{result.attempted}")
    for failure in result.failures:
        lines.append(f"  FAILED {failure}")
    lines.append("  env " + json.dumps(result.env, sort_keys=True))
    if layers is not None:
        lines.append(f"  per-layer (traced: {len(result.traced)} requests, "
                     f"{result.traced_cycles} cycles)")
        for name, unit in per_layer_units().items():
            lines.append(f"  {name:<40} {layers[name]:>14.6g} {unit}")
        lines.append("  traced self time per subcommand, s (mean per request)")
        for cmd, row in sorted(by_command(result).items()):
            top = sorted(((row[k], k) for k in row if k != "n"), reverse=True)[:4]
            lines.append(f"    {cmd:<11} n={row['n']:<3} "
                         + "  ".join(f"{k} {v:.3f}" for v, k in top))
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    result = measure(workload, seed, seconds, trace)
    e2e = end_to_end(result)
    layers = per_layer(result) if trace else None
    print("\n".join(describe(result, e2e, layers)), flush=True)
    metrics = layers if trace else e2e
    units = per_layer_units() if trace else END_TO_END
    return result, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "opideal", "cli.py")):
        print(f"no opideal sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result, m = run_one(name, seed, args.seconds, bool(args.trace))
        attempted += result.attempted
        failed += result.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
