"""Compile once per process, proved by call counts.

Everything that is a pure function of the kernel source — lexing and
parsing, the simplify / analysis / codegen passes, the JIT's structural
fingerprint — or of (kernel, launch geometry) — the finalized
distribution plan — runs once per process however many jobs the server
builds a fresh spec and a fresh runtime for.  ``sys.setprofile`` counts
Python calls by the file (or function) they land in: deterministic, so
"zero" means zero.
"""

import sys
from collections import Counter

from repro.serve import CuCCServer, ServeConfig
from repro.serve.queue import JobRequest

#: files no second job of a seen source may enter, and the two functions
#: whose bodies are counted by name
_FRONT_END = (
    "repro/frontend/lexer.py",
    "repro/transform/simplify.py",
    "repro/analysis/writes.py",
)
_BY_NAME = {
    ("repro/interp/jit/compiler.py", "program_key"),
    ("repro/analysis/distributable.py", "_build_plan"),
}


def _calls_during(fn) -> Counter:
    calls: Counter = Counter()

    def prof(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        path = code.co_filename.replace("\\", "/")
        for suffix in _FRONT_END:
            if path.endswith(suffix):
                calls[suffix] += 1
        for suffix, name in _BY_NAME:
            if code.co_name == name and path.endswith(suffix):
                calls[name] += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _jobs(workloads, first_seed, nodes=2):
    return [
        JobRequest(job_id=f"job-{first_seed + i:04d}", workload=w,
                   nodes=nodes, seed=first_seed + i)
        for i, w in enumerate(workloads)
    ]


def _serve(requests):
    report = CuCCServer(ServeConfig(nodes=4)).run(requests)
    assert all(r.status == "ok" for r in report.results)


def test_second_job_of_a_seen_source_recompiles_nothing():
    mix = ["FIR", "KMeans", "Transpose"]
    _serve(_jobs(mix, 100))  # every source seen once (here or earlier)
    calls = _calls_during(lambda: _serve(_jobs(mix * 2, 200)))
    # new data, new runtimes, six launches — and not one call into the
    # lexer, the simplifier, the write collector, the JIT fingerprint or
    # the plan builder
    assert calls == Counter()


def test_plan_body_runs_once_per_config_nodes_and_scalars():
    from repro.cluster import make_cluster
    from repro.runtime import CuCCRuntime
    from repro.workloads import PERF_WORKLOADS

    # forget FIR's plans: every runtime compiling the kernel its source
    # parses to gets the same analysis, this throwaway one included
    kernel = PERF_WORKLOADS["FIR"]("small").kernel
    rt = CuCCRuntime(make_cluster("simd-focused", 1))
    rt.compile(kernel).analysis.plans.clear()

    def serve_two_widths():
        _serve(_jobs(["FIR"] * 4, 400))  # one (config, 2 nodes, scalars)
        # same config and scalars on another width
        _serve(_jobs(["FIR"] * 3, 500, nodes=4))

    calls = _calls_during(serve_two_widths)
    assert calls == Counter({"_build_plan": 2})
    # and a repeat of both shapes builds none
    assert _calls_during(serve_two_widths) == Counter()
