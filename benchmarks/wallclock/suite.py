"""The seven workloads.

Each workload is closed-loop, one client, one thread: the next op starts
when the previous one has been verified.  A workload has

* ``setup()`` — input synthesis from the seed plus a warm-up and the
  correctness identities that are checked once, all part of ``setup_s``;
* ``prepare(i)`` / ``round(i, inputs)`` / ``after_round(i)`` — only
  ``round`` is timed; it runs every op under :meth:`Ctx.op`, which
  counts the op as failed when it raises or mis-verifies;
* ``post()`` — untimed checks after the last timed round;
* ``counted_round()`` — a reduced round for the call-counting pass.

The seed reaches only the input generators (workload builders, request
synthesis, buffer contents); nothing in ``src/repro`` sees it otherwise.
Everything from ``repro`` is looked up through its module at call time,
so the traced pass's wrappers (see ``spans.py``) are on the path.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

CLUSTER = "simd-focused"


class CheckError(Exception):
    """A benchmark-side correctness identity did not hold."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Ctx:
    """What a workload needs from the harness: the seed, a scratch
    directory, the span recorder (``None`` when tracing is off) and the
    per-round ledgers of ops, simulated time, legs and counts."""

    def __init__(self, seed: int, work: Path, traced: bool = False):
        self.seed = seed
        self.work = work
        self.traced = traced
        self.rec = None
        self.failures: list[str] = []
        #: per-layer metrics that are measured once, during set-up
        self.setup_metrics: dict[str, float] = {}
        self.start_round()

    def start_round(self) -> None:
        self.ok = 0
        self.failed = 0
        self.sim_s = 0.0
        #: wall seconds by leg name (a leg is a named part of a round)
        self.legs: dict[str, float] = {}
        #: wall seconds of each op by label
        self.op_walls: dict[str, list[float]] = {}
        #: counts the workload reads off its own results
        self.counts: dict[str, float] = {}

    @contextmanager
    def op(self, label: str):
        """One benchmark operation: timed, given an op id in the trace,
        and counted as failed if its body raises."""
        rec = self.rec
        if rec is not None:
            rec.new_op(label)
        t0 = time.perf_counter()
        try:
            yield
        except Exception as e:  # the op boundary: record, keep measuring
            self.failed += 1
            tb = traceback.extract_tb(e.__traceback__)[-1]
            self.failures.append(
                f"{label}: {type(e).__name__}: {e} "
                f"({Path(tb.filename).name}:{tb.lineno})"
            )
        else:
            self.ok += 1
        finally:
            self.op_walls.setdefault(label, []).append(
                time.perf_counter() - t0
            )
            if rec is not None:
                rec.op = 0

    @contextmanager
    def leg(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.legs[name] = self.legs.get(name, 0.0) + (
                time.perf_counter() - t0
            )

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, stem: str):
        """A span recorded by the workload itself, for work no wrapper
        can reach (a subprocess); free when tracing is off."""
        rec = self.rec
        if rec is None:
            yield
            return
        idx = rec.begin(stem)
        try:
            yield
        finally:
            rec.end(idx)


class WorkloadBase:
    name = ""
    #: timed rounds never go below this, whatever ``--seconds`` says
    min_rounds = 3

    def __init__(self, ctx: Ctx):
        self.ctx = ctx

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        return None

    def round(self, i: int, inputs) -> None:
        raise NotImplementedError

    def after_round(self, i: int) -> None:
        pass

    def post(self) -> None:
        pass

    def counted_round(self):
        """A callable running the reduced round, or ``None`` to skip."""
        return None

    def extra_metrics(self, traced_rounds: list[dict]) -> dict:
        """Per-layer metrics the traced rounds cannot yield in-process."""
        return {}


def _run_spec(spec, nodes: int = 4, **kwargs):
    """One verified ``run_on_cucc`` on a fresh flat cluster (the harness
    checks every output against the NumPy reference with
    ``check_consistency=True``)."""
    from repro import api
    from repro.bench import harness

    return harness.run_on_cucc(
        spec, api.make_cluster(CLUSTER, nodes), **kwargs
    )


# ---------------------------------------------------------------------
# 1. kernels_paper
# ---------------------------------------------------------------------
class KernelsPaper(WorkloadBase):
    """Masked loop + intrinsics (NBody), mask-free DSL kernel (MatMul),
    nested divergent loops (KMeans), shared memory + barriers
    (BinomialOption), ``while`` divergence (EP).  Paper-size Transpose
    and FIR are left out: Transpose's 64 MiB x N replicas measured
    0.8-5.5 s for the same run (page-fault noise), FIR is 5 s a launch."""

    name = "kernels_paper"
    KERNELS = ("NBody", "MatMul", "KMeans", "BinomialOption", "EP")

    def setup(self) -> None:
        from repro import api

        build = api.PERF_WORKLOADS
        self.specs = {
            k: build[k]("paper", seed=self.ctx.seed) for k in self.KERNELS
        }
        # warm-up on the small size: fills the JIT program memo and every
        # lazy import at a hundredth of a paper-size round's cost; the
        # median over >= 3 timed rounds absorbs what is left
        for k in self.KERNELS:
            _run_spec(build[k]("small", seed=self.ctx.seed))

    def round(self, i: int, inputs) -> None:
        ctx = self.ctx
        for k, spec in self.specs.items():
            with ctx.op(k):
                ctx.sim_s += _run_spec(spec, backend="auto").time


# ---------------------------------------------------------------------
# 2. + 3. serve_small / serve_observed
# ---------------------------------------------------------------------
class ServeSmall(WorkloadBase):
    """Kernel *source* repeats across jobs and rounds (3 sources / 300
    jobs) while input data never does: every round rewrites each
    request's data seed — the sharing real serving traffic has."""

    name = "serve_small"
    min_rounds = 5
    JOBS = 300
    WARM_JOBS = 60
    MIX = "FIR:2,KMeans:1,Transpose:1"
    POOL = 8

    def config(self, observed: bool = False):
        from repro import api

        if not observed:
            return api.ServeConfig(nodes=self.POOL)
        return api.ServeConfig(
            nodes=self.POOL, trace=True, observatory=True, netflow=True,
            slo="wait<=1,latency<=1",
        )

    def setup(self) -> None:
        from repro import api

        seed = self.ctx.seed
        t0 = time.perf_counter()
        base = api.synth_requests(
            self.MIX, rate=1e6, jobs=self.JOBS, nodes=2, size="small",
            seed=seed,
        )
        self.ctx.setup_metrics["serve.synth_s"] = time.perf_counter() - t0
        # the arrival schedule is synth_requests'; the workload draws are
        # replaced by an exact 2:1:1 multiset in seeded order, so every
        # seed serves the same amount of work
        names = np.array(["FIR", "FIR", "KMeans", "Transpose"] * (self.JOBS // 4))
        np.random.default_rng(seed).shuffle(names)
        self.base = [
            dataclasses.replace(r, workload=str(w))
            for r, w in zip(base, names)
        ]
        warm = self.requests(-1)[: self.WARM_JOBS]
        report = self.serve(warm)
        serial = api.serve_serially(warm, self.config())
        diffs = api.verify_against_serial(report, serial)
        check(not diffs, f"concurrent != serial: {diffs[:2]}")
        check(report.stats.failed == 0, "warm-up jobs failed")
        self.warm, self.warm_makespan = warm, report.stats.makespan_s

    def requests(self, i: int, jobs: int | None = None):
        n = self.JOBS
        first = self.ctx.seed + 1000 + i * n
        return [
            dataclasses.replace(r, seed=first + k, fault_seed=first + k)
            for k, r in enumerate(self.base[: jobs or n])
        ]

    def serve(self, reqs, observed: bool = False):
        from repro import api

        self.server = api.CuCCServer(self.config(observed))
        return self.server.run(reqs)

    def prepare(self, i: int):
        return self.requests(i)

    def account(self, report) -> None:
        ctx, st = self.ctx, report.stats
        ctx.ok += st.completed
        ctx.failed += st.failed
        ctx.failures += [
            f"{r.request.job_id}: {r.error}"
            for r in report.results if r.status != "ok"
        ]
        ctx.sim_s += st.makespan_s
        ctx.count("serve.jobs", st.jobs)
        ctx.count("serve.sim_launches_per_s", st.launches_per_sec)

    def round(self, i: int, inputs) -> None:
        self.account(self.serve(inputs))

    def counted_round(self):
        reqs = self.requests(0, jobs=60)
        return lambda: self.round(0, reqs)


class ServeObserved(ServeSmall):
    """Uses the serve/runtime/cluster layers *differently*: every
    ``is not None`` hook is taken and the exports run inside the round."""

    name = "serve_observed"

    def setup(self) -> None:
        super().setup()
        from repro import api

        api.METRICS.enabled = True
        self.out = self.ctx.work / "observed"
        self.out.mkdir(parents=True, exist_ok=True)
        observed = self.serve(self.warm, observed=True)
        check(observed.stats.makespan_s == self.warm_makespan,
              "observed warm-up makespan != unobserved")

    def round(self, i: int, inputs) -> None:
        import repro.obs as obs
        from repro import api

        ctx = self.ctx
        with ctx.leg("run"):
            report = self.serve(inputs, observed=True)
        with ctx.leg("export"):
            trace = obs.write_chrome_trace(
                self.server.tracer, self.out / "trace.json"
            )
            report.netflow.dump(self.out / "netflow.json")
            api.METRICS.snapshot_json()
            report.format_report()
        self.account(report)
        self.last = (inputs, report.stats.makespan_s)
        ctx.count("obs.trace_bytes", os.path.getsize(trace))
        ctx.count("obs.spans", len(self.server.tracer.spans))
        ctx.count("obs.netflow_collectives", len(report.netflow.collectives()))
        ctx.count("obs.ledger_events", len(report.fleet.events))

    def twin(self) -> None:
        """Serve the last round's requests unobserved: the makespan must
        be bit-equal (observers never move the simulated clock)."""
        inputs, makespan = self.last
        with self.ctx.leg("twin"):
            plain = self.serve(inputs)
        if plain.stats.makespan_s != makespan:
            self.ctx.failed += 1
            self.ctx.failures.append(
                f"observed makespan {makespan!r} != unobserved "
                f"{plain.stats.makespan_s!r}"
            )

    def after_round(self, i: int) -> None:
        # traced pass: every round is checked against its unobserved twin
        # (which also yields obs.hooks_on_ratio); the untraced pass checks
        # the warm-up and the last round only, to keep the run short
        if self.ctx.traced:
            self.twin()

    def post(self) -> None:
        if not self.ctx.traced:
            self.twin()


# ---------------------------------------------------------------------
# 4. collectives
# ---------------------------------------------------------------------
class Collectives(WorkloadBase):
    """``Communicator`` byte movement + ``collectives`` schedule pricing
    are ~all of the time and kernel execution is zero.  In-place (inside
    autotune), out-of-place and the v-variant are separate code today,
    so all three are exercised."""

    name = "collectives"
    min_rounds = 5
    TOPOLOGIES = ("flat", "fat-tree", "ring", "torus")
    TOTAL_BYTES = 64 * 1024
    CALLS = 20
    #: autotune's default sweep without its 4 MiB bucket: at 16 nodes it
    #: page-faults 64 MiB per trial, was two thirds of the round, and put
    #: a 5 % run-to-run spread on it (1.2 % without) — the same reason
    #: paper-size Transpose is not in kernels_paper
    PAYLOADS = tuple(1 << k for k in range(10, 21, 2))

    def setup(self) -> None:
        rng = np.random.default_rng(self.ctx.seed)
        n = 16
        self.payload = rng.integers(0, 256, self.TOTAL_BYTES, dtype=np.uint8)
        # ragged extents: a seeded composition of TOTAL_BYTES into n parts
        cuts = np.sort(rng.choice(
            np.arange(1, self.TOTAL_BYTES), n - 1, replace=False
        ))
        self.counts = np.diff(
            np.concatenate([[0], cuts, [self.TOTAL_BYTES]])
        ).tolist()
        self.sweep(("flat", "ring"), (8,), calls=2)

    def sweep(self, topologies, sizes, calls: int) -> None:
        from repro import api

        ctx = self.ctx
        for topo in topologies:
            cache = api.TuningCache()
            for n in sizes:
                with ctx.op(f"autotune {topo}x{n}"):
                    cluster = api.make_cluster(CLUSTER, n, topology=topo)
                    api.autotune(cluster, cache=cache,
                                 payloads=self.PAYLOADS)  # verify=True
                    check(len(cache) > 0, "autotune recorded nothing")
            cluster = api.make_cluster(CLUSTER, 16, topology=topo,
                                       tuning=cache)
            for _ in range(calls):
                with ctx.op(f"allgather-oop {topo}"):
                    ctx.sim_s += self.out_of_place(cluster)
                with ctx.op(f"allgatherv {topo}"):
                    ctx.sim_s += self.ragged(cluster)

    def out_of_place(self, cluster) -> float:
        comm, data, span = cluster.comm, self.payload, self.ctx.span
        per = data.size // comm.size
        with span("bench.fill"):
            for r, node in enumerate(comm.nodes):
                node.alloc("src", per, np.uint8)[:] = data[r * per:(r + 1) * per]
                node.alloc("dst", data.size, np.uint8)
        t = comm.allgather_out_of_place(
            "src", "dst", per, copy_GBs=comm.nodes[0].spec.mem_bw_gbs,
            algo="auto",
        )
        with span("bench.check"):
            for node in comm.nodes:
                check(np.array_equal(node.buffer("dst"), data),
                      f"allgather-oop wrong bytes on rank {node.rank}")
                node.free("src")
                node.free("dst")
        return t

    def ragged(self, cluster) -> float:
        comm, data, span = cluster.comm, self.payload, self.ctx.span
        offsets = np.concatenate([[0], np.cumsum(self.counts)])
        with span("bench.fill"):
            for r, node in enumerate(comm.nodes):
                buf = node.alloc("v", data.size, np.uint8)
                buf[offsets[r]:offsets[r + 1]] = data[offsets[r]:offsets[r + 1]]
        t = comm.allgatherv_in_place("v", 0, self.counts, algo="auto")
        with span("bench.check"):
            for node in comm.nodes:
                check(np.array_equal(node.buffer("v"), data),
                      f"allgatherv wrong bytes on rank {node.rank}")
                node.free("v")
        return t

    def round(self, i: int, inputs) -> None:
        self.sweep(self.TOPOLOGIES, (8, 16), self.CALLS)

    def counted_round(self):
        return lambda: self.sweep(("flat", "torus"), (8,), calls=3)


# ---------------------------------------------------------------------
# 5. cli_cold
# ---------------------------------------------------------------------
class CliCold(WorkloadBase):
    """Users pay interpreter start + import on every command; import is
    most of each op, so lazy-import work shows here and in ``setup_s``."""

    name = "cli_cold"
    min_rounds = 5

    def setup(self) -> None:
        seed = str(self.ctx.seed)
        self.commands = {
            "specs": ["specs"],
            "run": ["run", "FIR", "--nodes", "4", "--seed", seed],
            "serve": ["serve", "--jobs", "8", "--seed", seed],
        }
        self.round(-1, None)  # warm-up: bytecode and page caches
        check(not self.ctx.failed, "; ".join(self.ctx.failures))

    def cli(self, argv: list[str]) -> str:
        with self.ctx.span("cli.command"):
            p = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=120,
            )
        check(p.returncode == 0,
              f"repro {argv[0]} exited {p.returncode}: {p.stderr[-200:]}")
        return p.stdout

    def round(self, i: int, inputs) -> None:
        ctx = self.ctx
        with ctx.op("specs"):
            check("A100" in self.cli(self.commands["specs"]),
                  "specs table lacks the A100 row")
        with ctx.op("run"):
            check("verified on all 4 node replicas"
                  in self.cli(self.commands["run"]),
                  "run FIR did not verify on all 4 replicas")
        with ctx.op("serve"):
            out = self.cli(self.commands["serve"])
            m = re.search(r"makespan ([0-9.]+) ms", out)
            check(m is not None and "8 ok, 0 failed" in out,
                  "serve did not complete 8 jobs")
            ctx.sim_s += float(m.group(1)) * 1e-3

    def extra_metrics(self, traced_rounds: list[dict]) -> dict:
        import coldstart

        return coldstart.measure(statistics.median(
            w for r in traced_rounds for w in r["op_walls"]["specs"]
        ))


# ---------------------------------------------------------------------
# 6. elastic_drill
# ---------------------------------------------------------------------
class ElasticDrill(WorkloadBase):
    """The only workload on ``_launch_fault_tolerant``, ``repro.ops``
    checkpoint encode/CRC/atomic write, and resume."""

    name = "elastic_drill"
    min_rounds = 5
    KERNELS = ("FIR", "KMeans", "NBody", "Transpose")

    def setup(self) -> None:
        from repro import api

        self.specs = {
            k: api.PERF_WORKLOADS[k]("small", seed=self.ctx.seed)
            for k in self.KERNELS
        }
        self.dir = self.ctx.work / "ckpt"
        for i in (-2, -1):
            self.round(i, None)
            self.after_round(i)
        check(not self.ctx.failed, "; ".join(self.ctx.failures))

    def drill(self, name: str, spec) -> None:
        from repro import api
        from repro.cluster import faults
        from repro.errors import CheckpointHalt
        from repro.ops import latest_checkpoint

        ctx = self.ctx

        def plan():
            return api.FaultPlan(
                (faults.NodeCrash(rank=3, phase="allgather"),), seed=1
            )

        times = {}
        meta = {"workload": spec.name}
        with ctx.op(f"{name} crash"), ctx.leg("crash"):
            res = _run_spec(spec, fault_plan=plan())
            check(res.record.recoveries == 1, "expected one recovery")
            times["crash"] = res.time
            ctx.sim_s += res.time
        with ctx.op(f"{name} checkpointed"), ctx.leg("checkpointed"):
            policy = api.CheckpointPolicy(directory=str(self.dir / name / "b"))
            res = _run_spec(spec, fault_plan=plan(), checkpoint=policy,
                            app_meta=meta)
            check(res.record.recoveries == 1, "expected one recovery")
            times["checkpointed"] = res.time
        halt_dir = self.dir / name / "c"
        with ctx.op(f"{name} halt"), ctx.leg("halt"):
            policy = api.CheckpointPolicy(directory=str(halt_dir),
                                          halt_after=1)
            try:
                _run_spec(spec, fault_plan=plan(), checkpoint=policy,
                          app_meta=meta)
            except CheckpointHalt:
                pass
            else:
                raise CheckError("halt_after=1 did not halt the run")
        with ctx.op(f"{name} resume"), ctx.leg("resume"):
            res = api.resume_on_cucc(spec, latest_checkpoint(halt_dir))
            times["resumed"] = res.time
            check(len(set(times.values())) == 1 and len(times) == 3,
                  f"crash/checkpointed/resumed simulated times differ: {times}")

    def round(self, i: int, inputs) -> None:
        for name, spec in self.specs.items():
            self.drill(name, spec)

    def after_round(self, i: int) -> None:
        files = [p for p in self.dir.rglob("*") if p.is_file()]
        self.ctx.count("ops.ckpt_files", len(files))
        self.ctx.count("ops.ckpt_bytes", sum(p.stat().st_size for p in files))
        shutil.rmtree(self.dir)

    def counted_round(self):
        def go():
            self.drill("FIR", self.specs["FIR"])
            shutil.rmtree(self.dir)

        return go


# ---------------------------------------------------------------------
# 7. debug_interp
# ---------------------------------------------------------------------
class DebugInterp(WorkloadBase):
    """The same ``interp`` layer as kernels_paper used the other way:
    tree-walking ``BlockExecutor`` and its hook paths.  A JIT change must
    predict no change here."""

    name = "debug_interp"
    min_rounds = 5

    def setup(self) -> None:
        from repro import api

        self.specs = {
            k: build("small", seed=self.ctx.seed)
            for k, build in api.PERF_WORKLOADS.items()
        }
        self.legs(self.specs)
        check(not self.ctx.failed, "; ".join(self.ctx.failures))

    def sanitized(self, spec):
        """``run_on_cucc`` with ``CuCCRuntime(sanitize=True)`` (the
        harness has no switch for it): static pass at compile, dynamic
        shadow checks at launch."""
        from repro import api

        rt = api.CuCCRuntime(api.make_cluster(CLUSTER, 4), sanitize=True)
        for name, arr in spec.arrays.items():
            rt.memory.alloc(name, arr.size, arr.dtype)
            rt.memory.memcpy_h2d(name, arr)
        compiled = rt.compile(spec.kernel)
        record = rt.launch(compiled, spec.grid, spec.block, spec.args())
        spec.verify({
            o: rt.memory.memcpy_d2h(o, check_consistency=True)
            for o in spec.outputs
        })
        found = (len(compiled.sanitizer_report.findings)
                 + len(record.sanitizer_report.findings))
        check(found == 0, f"{found} sanitizer finding(s)")
        return record

    def legs(self, specs) -> None:
        ctx = self.ctx
        times = {}
        with ctx.leg("plain"):
            for k, spec in specs.items():
                with ctx.op(f"{k} interp"):
                    times[k] = _run_spec(spec, backend="interp").time
                    ctx.sim_s += times[k]
        with ctx.leg("profiled"):
            for k, spec in specs.items():
                with ctx.op(f"{k} profiled"):
                    res = _run_spec(spec, backend="interp", profile=True,
                                    trace=True)
                    check(res.time == times.get(k),
                          "profiled simulated time != plain")
        with ctx.leg("sanitized"):
            for k, spec in specs.items():
                with ctx.op(f"{k} sanitized"):
                    check(self.sanitized(spec).time == times.get(k),
                          "sanitized simulated time != plain")

    def round(self, i: int, inputs) -> None:
        self.legs(self.specs)

    def counted_round(self):
        few = {k: self.specs[k] for k in ("FIR", "KMeans", "BinomialOption")}
        return lambda: self.legs(few)


ALL = (KernelsPaper, ServeSmall, ServeObserved, Collectives, CliCold,
       ElasticDrill, DebugInterp)
BY_NAME = {cls.name: cls for cls in ALL}
