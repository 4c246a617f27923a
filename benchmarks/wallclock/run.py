#!/usr/bin/env python3
"""Host wall-clock benchmark of the CuCC reproduction, measured from outside.

One run of one workload, as the benchmark driver calls it::

    python3 benchmarks/wallclock/run.py --workload serve_small --seed 3 \\
        --seconds 8 --trace 0

prints diagnostics on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The whole suite, for people::

    python3 benchmarks/wallclock/run.py --seed 0 [--out DIR]
        [--workload NAME] [--pass untraced|traced|counted|all]

runs every workload in its own child process, first untraced and then
traced, checks every output, prints every metric by name with its unit
and exits non-zero on any correctness violation.  ``--out`` also gets
``results.json`` and one Chrome trace per workload.

    python3 benchmarks/wallclock/run.py compare A/results.json B/results.json

See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

import schema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 170
#: set-ups made per untraced run (the median is reported) ...
SETUP_SAMPLES = 3
#: ... unless the set-ups so far already took this long: a 5 s set-up
#: repeats within 2 %, and repeating it would double the run
SETUP_BUDGET_S = 5.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    src = ROOT / "src"
    if not (src / "repro" / "api.py").is_file():
        raise SystemExit(
            f"error: {src}/repro is missing — run from a checkout of the "
            "repository (the benchmark measures src/repro, it does not "
            "contain it)"
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_ENV:
        env[var] = "1"
    # users run with bytecode caches; without them every cold start
    # recompiles src/repro and import time reads ~50 % high
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env, work: Path, workload: str, mode: str, seed: int,
          seconds: float, trace_out: Path | None = None) -> dict:
    """Run one child to completion and return its result document."""
    result = work / f"{mode}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--work", str(work),
        "--result", str(result), "--t0", repr(time.monotonic()),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # the child's stdout is not ours: the driver reads our last line
    p = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0 or not result.is_file():
        raise SystemExit(
            f"error: {workload} [{mode}] child exited {p.returncode}"
        )
    doc = json.loads(result.read_text())
    result.unlink()
    return doc


@contextmanager
def work_dir(workload: str):
    """A scratch directory inside the checkout, removed on exit."""
    path = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def run_untraced(env, workload: str, seed: int, seconds: float) -> dict:
    with work_dir(workload) as work:
        doc = spawn(env, work, workload, "untraced", seed, seconds)
        setups = [doc["setup_s"]]
        while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
            setups.append(
                spawn(env, work, workload, "setup", seed, seconds)["setup_s"]
            )
    doc["metrics"]["setup_s"] = statistics.median(setups)
    doc["details"]["setup_s.samples"] = setups
    doc["details"]["setup"] = doc.pop("setup")
    return doc


def run_single(env, workload: str, seed: int, seconds: float,
               mode: str = "traced", trace_out: Path | None = None) -> dict:
    """One child in ``traced`` or ``counted`` mode."""
    with work_dir(workload) as work:
        return spawn(env, work, workload, mode, seed, seconds, trace_out)


def _units() -> dict[str, str]:
    units = {m.name: m.unit for m in schema.END_TO_END}
    units.update({m.name: m.unit for m in schema.PER_LAYER})
    return units


def driver_line(doc: dict, names) -> dict:
    """The contract's result object for one run."""
    units = _units()
    d = doc["details"]
    return {
        "correct": d["failed"] == 0,
        "attempted": d["attempted"],
        "failed": d["failed"],
        "metrics": {
            n: {"value": doc["metrics"][n], "unit": units[n]} for n in names
        },
    }


def report_failures(doc: dict) -> None:
    for f in doc.get("failures", []):
        log(f"  FAILED {doc['workload']}: {f}")


def driver_main(a) -> int:
    env = child_env()
    if a.trace:
        doc = run_single(env, a.workload, a.seed, a.seconds)
        names = schema.PER_LAYER_NAMES
    else:
        doc = run_untraced(env, a.workload, a.seed, a.seconds)
        names = [m.name for m in schema.END_TO_END]
    report_failures(doc)
    print(json.dumps(driver_line(doc, names)), flush=True)
    return 0


# ---------------------------------------------------------------------
# the suite, for people
# ---------------------------------------------------------------------
def environment() -> dict:
    """What the numbers depend on besides the code (recorded per run)."""
    libs = {}
    for lib in ("numpy", "scipy"):
        try:
            libs[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **libs,
        "threads": {v: "1" for v in THREAD_ENV},
        "bytecode_cache": True,
    }


def print_table(title: str, metrics: dict, names) -> None:
    units = _units()
    print(f"\n{title}")
    for n in names:
        if n in metrics:
            v = metrics[n]
            shown = f"{v:.6g}" if isinstance(v, float) else str(v)
            print(f"  {n:<32} {shown:>14} {units[n]}")


def suite_main(a) -> int:
    env = child_env()
    names = [a.workload] if a.workload else [w.name for w in schema.WORKLOADS]
    out = Path(a.out).resolve() if a.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results = {"seed": a.seed, "seconds": a.seconds,
               "environment": environment(), "workloads": {}}
    failed = 0
    e2e = [m.name for m in schema.END_TO_END] + list(schema.EXACT_END_TO_END)
    layer_names = [n for n in schema.PER_LAYER_NAMES
                   if n not in schema.EXACT_END_TO_END]
    for name in names:
        entry: dict = {}
        if a.passes in ("untraced", "all"):
            doc = run_untraced(env, name, a.seed, a.seconds)
            report_failures(doc)
            failed += doc["details"]["failed"]
            entry["end_to_end"] = doc["metrics"]
            entry["end_to_end_details"] = doc["details"]
            print_table(f"== {name}: end to end (untraced, "
                        f"{doc['details']['wall_s.count']} rounds)",
                        doc["metrics"], e2e)
        if a.passes in ("traced", "all"):
            trace_out = out / f"trace_{name}.json" if out else None
            doc = run_single(env, name, a.seed, a.seconds,
                             trace_out=trace_out)
            report_failures(doc)
            failed += doc["details"]["failed"]
            entry["per_layer"] = doc["metrics"]
            entry["per_layer_details"] = doc["details"]
            print_table(f"== {name}: per layer (traced, "
                        f"{doc['details']['traced.rounds']} rounds)",
                        doc["metrics"], layer_names)
            if a.passes == "traced":
                print_table("   exact", doc["metrics"],
                            schema.EXACT_END_TO_END)
        if a.passes == "counted":
            doc = run_single(env, name, a.seed, a.seconds, mode="counted")
            entry["per_layer"] = doc["metrics"]
            print_table(f"== {name}: counted pass", doc["metrics"],
                        layer_names)
        results["workloads"][name] = entry
    if out is not None:
        (out / "results.json").write_text(json.dumps(results, indent=1))
        print(f"\nwrote {out / 'results.json'}")
    if failed:
        print(f"\n{failed} operation(s) failed or mis-verified",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--workload", choices=[w.name for w in schema.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=schema.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver mode: one run of --workload, result as "
                         "the last line of stdout")
    ap.add_argument("--pass", dest="passes", default="all",
                    choices=("untraced", "traced", "counted", "all"))
    ap.add_argument("--out", help="directory for results.json and traces")
    a = ap.parse_args(argv)
    if a.trace is not None:
        if not a.workload:
            ap.error("--trace needs --workload")
        return driver_main(a)
    return suite_main(a)


if __name__ == "__main__":
    sys.exit(main())
