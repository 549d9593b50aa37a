"""The bursting middleware's benchmark.

Builds one workload from a seed, serves it through a long-lived
``BurstingService`` driven by closed-loop clients in this process,
checks every job's result against a reference computed once at set-up,
and prints the metrics as one JSON object on the last line of stdout::

    python3 perfbench/run.py --workload fold-kmeans --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures for ``--seconds`` with tracing off and prints the
end-to-end metrics.  ``--trace 1`` splits ``--seconds`` into an untraced
half and a traced half and prints the per-layer metrics (including the
tracing overhead between the halves).  The line before the result holds
provenance, sample counts, and how each per-layer metric was obtained.
Exits 1 when any job failed or returned a wrong result.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stats  # noqa: E402
from tracing import TimedStore, Tracer, patched, timed_scheduler_factory  # noqa: E402
from workloads import WORKLOADS, Client, Env, Hooks, Workload  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A job not resolved after this long counts as failed; with the
#: shutdown bound below a stuck job still lets the run end in time.
JOB_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 20.0
#: Fleet slave threads (threaded transport) and feeder threads (process
#: transport): the threads whose time the layer ledger accounts for.
WORKER_THREAD = re.compile(r"^(svc|feeder)-.+-w\d+$")

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "throughput_mb_s": "MB/s",
    "cpu_s_per_gb": "s/GB",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "apps.fold.calls": "count/job",
    "apps.fold.wall_s": "s/job",
    "apps.fold.cpu_s": "s/job",
    "apps.fold.ns_per_byte": "ns/B",
    "storage.codecs.decode.calls": "count/job",
    "storage.codecs.decode.wall_s": "s/job",
    "storage.codecs.decode.cpu_s": "s/job",
    "storage.codecs.decode.ratio": "ratio",
    "storage.get.calls": "count/job",
    "storage.get.mb": "MB/job",
    "storage.get.wall_s": "s/job",
    "storage.get.stalls": "count/job",
    "storage.transfer.fetch.calls": "count/job",
    "storage.transfer.fetch.wall_s": "s/job",
    "storage.transfer.fetch.wait_s": "s/job",
    "storage.transfer.fetch.gets_per_chunk": "ratio",
    "storage.transfer.fetch.useful_frac": "fraction",
    "storage.erasure.reassemble.calls": "count/job",
    "storage.erasure.reassemble.wall_s": "s/job",
    "runtime.scheduler.request.calls": "count/job",
    "runtime.scheduler.request.wall_s": "s/job",
    "runtime.scheduler.request.jobs_per_call": "ratio",
    "runtime.scheduler.stolen_frac": "fraction",
    "service.submit.wall_s": "s",
    "service.queue_s": "s",
    "service.multi.request.wall_s": "s/job",
    "service.tenant_share": "fraction",
    "service.job_p50_s.q1": "s",
    "service.job_p50_s.q4": "s",
    "rss_growth_kb_per_job": "KB/job",
    "core.global_reduction.calls": "count/job",
    "core.global_reduction.wall_s": "s/job",
    "core.serialization.robj_kb": "KB",
    "core.serialization.wall_s": "s/job",
    "runtime.process_engine.fork.calls": "count/job",
    "runtime.process_engine.fork.wall_s": "s/job",
    "runtime.process_engine.shm_mb": "MB/job",
    "ledger.unaccounted_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


# -- measurement ---------------------------------------------------------------


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs
    (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def cpu_seconds() -> float:
    """Process CPU, self plus reaped children."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


def children_cpu_seconds() -> float:
    return _cpu(resource.RUSAGE_CHILDREN)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


@dataclass
class JobRecord:
    kind: str
    tenant: str
    t_submit: float
    t_done: float
    submit_s: float
    nbytes: int
    n_chunks: int
    ok: bool
    run_s: float = 0.0
    run_stats: Any = None
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.t_done - self.t_submit


@dataclass
class Phase:
    t_start: float
    t_end: float = 0.0
    cpu_s: float = 0.0
    children_cpu_s: float = 0.0
    records: list[JobRecord] = field(default_factory=list)
    #: (jobs completed so far, RSS bytes) sampled after every job.
    rss: list[tuple[int, int]] = field(default_factory=list)
    stalls: int = 0

    @property
    def ok(self) -> list[JobRecord]:
        return [r for r in self.records if r.ok]


def run_one(env: Env, kind, tenant: str) -> JobRecord:
    """Submit one job, wait for it, and check its result."""
    t0 = time.perf_counter()
    try:
        handle = env.service.submit(kind.spec, kind.index, tenant=tenant)
        t1 = time.perf_counter()
        rr = handle.result(timeout=JOB_TIMEOUT_S)
        t2 = time.perf_counter()
    except Exception as exc:  # a failed job is a result, not a crash
        now = time.perf_counter()
        return JobRecord(kind.name, tenant, t0, now, now - t0,
                         kind.nbytes, len(kind.index.chunks), False,
                         error=repr(exc))
    ok = bool(kind.check(rr.result))
    return JobRecord(
        kind.name, tenant, t0, t2, t1 - t0, kind.nbytes,
        len(kind.index.chunks), ok,
        run_s=rr.stats.total_s, run_stats=rr.stats,
        error="" if ok else "result differs from reference",
    )


def stall_count(env: Env) -> int:
    return sum(s.injection_counts()["stall"] for s in env.fault_stores)


def run_phase(env: Env, seconds: float) -> Phase:
    """Closed loop: each client submits its next job when the last one
    returns, until ``seconds`` have passed; in-flight jobs finish."""
    lock = threading.Lock()
    phase = Phase(t_start=time.perf_counter())
    phase.stalls = -stall_count(env)
    c0, k0 = cpu_seconds(), children_cpu_seconds()
    phase.rss.append((0, rss_bytes()))
    deadline = phase.t_start + seconds

    def loop(client: Client) -> None:
        n = 0
        while time.perf_counter() < deadline:
            kind = client.kinds[n % len(client.kinds)]
            n += 1
            rec = run_one(env, kind, client.tenant)
            with lock:
                phase.records.append(rec)
                phase.rss.append((len(phase.records), rss_bytes()))

    threads = [
        threading.Thread(target=loop, args=(c,), name=f"bench-client-{i}")
        for i, c in enumerate(env.clients)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    phase.t_end = max((r.t_done for r in phase.records), default=time.perf_counter())
    phase.cpu_s = cpu_seconds() - c0
    phase.children_cpu_s = children_cpu_seconds() - k0
    phase.stalls += stall_count(env)
    return phase


def setup(
    w: Workload, seed: int, hooks: Hooks
) -> tuple[Env, list[float], list[JobRecord]]:
    """Set up ``SETUP_REPS`` times; keep the last environment.

    Each set-up generates the data, writes, places, stripes or
    replicates it, starts the service, and runs one warm-up job of each
    kind.  The reference results are computed once, outside the timing.
    Returns the environment, each set-up's seconds, and the warm-up
    jobs.
    """
    env: Env | None = None
    refs = None
    times = []
    warm: list[JobRecord] = []
    for _ in range(SETUP_REPS):
        if env is not None:
            env.service.shutdown(cancel_pending=True, timeout=SHUTDOWN_TIMEOUT_S)
            env = None
            gc.collect()
        t0 = time.perf_counter()
        inputs = w.generate(seed)
        ref_s = 0.0
        if refs is None:
            r0 = time.perf_counter()
            refs = w.reference(inputs)
            ref_s = time.perf_counter() - r0
        env = w.build(inputs, refs, hooks)
        kinds = {k.name: k for c in env.clients for k in c.kinds}
        for kind in kinds.values():
            warm.append(run_one(env, kind, env.clients[0].tenant))
        times.append(time.perf_counter() - t0 - ref_s)
        del inputs
    assert env is not None
    return env, times, warm


def child_pids() -> list[int]:
    """Processes whose parent is this process."""
    pids: list[int] = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as f:
                pids.extend(int(p) for p in f.read().split())
    except OSError:
        pass
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Worker processes are reaped per job, but a failed run may leave
    some.  The process transport also starts multiprocessing's resource
    tracker, which ignores SIGTERM and would outlive this process (as a
    zombie until init reaps it) unless its pipe is closed and it is
    waited for.  Anything still left after that is killed and reaped.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# -- metrics -------------------------------------------------------------------


def end_to_end(phase: Phase, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced phase, and their details."""
    lat = [r.latency_s for r in phase.records]
    tail_v, tail_pct, n = stats.tail(lat)
    gb = sum(r.nbytes for r in phase.ok) / 1e9
    wall = phase.t_end - phase.t_start
    values = {
        "setup_s": stats.median(setup_times),
        "job_p50_s": stats.median(lat),
        "job_tail_s": tail_v,
        "throughput_mb_s": gb * 1e3 / wall,
        "cpu_s_per_gb": phase.cpu_s / gb if gb else float("inf"),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "samples": {
            "setup_s": len(setup_times),
            "job_p50_s": n,
            "job_tail_s": n,
            "throughput_mb_s": len(phase.ok),
            "cpu_s_per_gb": len(phase.ok),
            "peak_rss_mb": 1,
        },
        "job_latency_quartiles_s": stats.quartiles(lat),
        "job_tail_percentile": round(tail_pct, 2),
        "job_tail_samples_beyond": n - round(tail_pct * n / 100),
        "setup_runs_s": setup_times,
        "phase_wall_s": wall,
        "jobs_per_kind": {
            k: sum(1 for r in phase.records if r.kind == k)
            for k in sorted({r.kind for r in phase.records})
        },
        "job_p50_s_per_kind": {
            k: stats.median([r.latency_s for r in phase.records if r.kind == k])
            for k in sorted({r.kind for r in phase.records})
        },
    }
    return values, detail


def rss_growth_kb_per_job(phase: Phase) -> float:
    """Least-squares slope of RSS against jobs completed."""
    return stats.slope(
        [float(n) for n, _ in phase.rss], [b / 1024.0 for _, b in phase.rss]
    )


def quarter_p50s(phase: Phase) -> tuple[float, float]:
    """Median latency of the first and of the last quarter of the jobs."""
    recs = sorted(phase.records, key=lambda r: r.t_submit)
    q = max(1, len(recs) // 4)
    return (
        stats.median([r.latency_s for r in recs[:q]]),
        stats.median([r.latency_s for r in recs[-q:]]),
    )


def per_layer(
    tracer: Tracer, traced: Phase, untraced: Phase, process: bool
) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, and how each was obtained.

    Times and counts are per job served in the traced phase.
    """
    jobs = max(1, len(traced.ok))
    spans = {}
    for s in tracer.spans:
        if traced.t_start <= s.t0 <= traced.t_end:
            spans.setdefault(s.layer, []).append(s)

    def layer(name):
        return spans.get(name, [])

    def total(name, attr="wall_s"):
        return sum(getattr(s, attr) for s in layer(name))

    def run_sum(attr):
        return sum(getattr(r.run_stats, attr) for r in traced.ok)

    m: dict[str, float] = {}
    how: dict[str, str] = {}

    fold = layer("apps.fold")
    if process:
        m["apps.fold.calls"] = run_sum("n_fold_calls") / jobs
        m["apps.fold.wall_s"] = run_sum("fold_s") / jobs
        m["apps.fold.cpu_s"] = traced.children_cpu_s / jobs
        folded = run_sum("bytes_folded")
        m["apps.fold.ns_per_byte"] = (
            run_sum("fold_s") * 1e9 / folded if folded else 0.0
        )
        for k in ("calls", "wall_s", "ns_per_byte"):
            how[f"apps.fold.{k}"] = "program counter (RunStats, worker processes)"
        how["apps.fold.cpu_s"] = "program counter (CPU of reaped worker processes, all layers)"
    else:
        m["apps.fold.calls"] = len(fold) / jobs
        m["apps.fold.wall_s"] = total("apps.fold") / jobs
        m["apps.fold.cpu_s"] = total("apps.fold", "cpu_s") / jobs
        folded = sum(s.n for s in fold)
        m["apps.fold.ns_per_byte"] = (
            total("apps.fold") * 1e9 / folded if folded else 0.0
        )

    dec = layer("storage.codecs.decode")
    m["storage.codecs.decode.calls"] = len(dec) / jobs
    m["storage.codecs.decode.wall_s"] = total("storage.codecs.decode") / jobs
    m["storage.codecs.decode.cpu_s"] = total("storage.codecs.decode", "cpu_s") / jobs
    frame = sum(s.n for s in dec)
    m["storage.codecs.decode.ratio"] = sum(s.m for s in dec) / frame if frame else 0.0
    if process:
        # Encoded chunks on the process transport decode in the workers.
        m["storage.codecs.decode.wall_s"] = run_sum("decode_s") / jobs
        how["storage.codecs.decode.wall_s"] = "program counter (RunStats decode_s)"

    gets = layer("storage.get")
    fetched = sum(s.n for s in gets)
    m["storage.get.calls"] = len(gets) / jobs
    m["storage.get.mb"] = fetched / 1e6 / jobs
    m["storage.get.wall_s"] = total("storage.get") / jobs
    m["storage.get.stalls"] = traced.stalls / jobs
    how["storage.get.stalls"] = "program counter (FaultInjectingStore stalls)"

    fetches = layer("storage.transfer.fetch")
    worker = {
        tid for tid, name in tracer.thread_names.items()
        if WORKER_THREAD.match(name)
    }
    m["storage.transfer.fetch.calls"] = len(fetches) / jobs
    m["storage.transfer.fetch.wall_s"] = total("storage.transfer.fetch") / jobs
    m["storage.transfer.fetch.wait_s"] = sum(
        s.wall_s
        for s in fetches + layer("storage.transfer.wait")
        if s.thread in worker
    ) / jobs
    m["storage.transfer.fetch.gets_per_chunk"] = (
        len(gets) / len(fetches) if fetches else 0.0
    )
    m["storage.transfer.fetch.useful_frac"] = (
        sum(s.n for s in fetches) / fetched if fetched else 0.0
    )

    m["storage.erasure.reassemble.calls"] = len(layer("storage.erasure.reassemble")) / jobs
    m["storage.erasure.reassemble.wall_s"] = total("storage.erasure.reassemble") / jobs

    req = layer("runtime.scheduler.request")
    handed = sum(s.n for s in req)
    m["runtime.scheduler.request.calls"] = len(req) / jobs
    m["runtime.scheduler.request.wall_s"] = total("runtime.scheduler.request") / jobs
    m["runtime.scheduler.request.jobs_per_call"] = handed / len(req) if req else 0.0
    m["runtime.scheduler.stolen_frac"] = sum(s.m for s in req) / handed if handed else 0.0

    m["service.submit.wall_s"] = stats.median([r.submit_s for r in traced.ok])
    m["service.queue_s"] = stats.median(
        [max(0.0, r.latency_s - r.run_s) for r in traced.ok]
    )
    how["service.queue_s"] = "submit-to-result minus the job's RunStats.total_s"
    m["service.multi.request.wall_s"] = total("service.multi.request") / jobs
    chunks = {}
    for r in traced.ok:
        chunks[r.tenant] = chunks.get(r.tenant, 0) + r.n_chunks
    m["service.tenant_share"] = chunks.get("a", 0) / max(1, sum(chunks.values()))
    how["service.tenant_share"] = (
        "tenant a's share of chunks folded (weight 2 of 3 on the service mixes)"
    )
    q1, q4 = quarter_p50s(untraced)
    m["service.job_p50_s.q1"] = q1
    m["service.job_p50_s.q4"] = q4
    m["rss_growth_kb_per_job"] = rss_growth_kb_per_job(untraced)
    for name in ("service.job_p50_s.q1", "service.job_p50_s.q4", "rss_growth_kb_per_job"):
        how[name] = "untraced half"

    m["core.global_reduction.calls"] = len(layer("core.global_reduction")) / jobs
    m["core.global_reduction.wall_s"] = total("core.global_reduction") / jobs
    ser = layer("core.serialization")
    m["core.serialization.robj_kb"] = (
        sum(s.n for s in ser) / 1024.0 / len(ser) if ser else 0.0
    )
    m["core.serialization.wall_s"] = total("core.serialization") / jobs

    m["runtime.process_engine.fork.calls"] = len(layer("runtime.process_engine.fork")) / jobs
    m["runtime.process_engine.fork.wall_s"] = total("runtime.process_engine.fork") / jobs
    m["runtime.process_engine.shm_mb"] = run_sum("shm_nbytes") / 1e6 / jobs
    how["runtime.process_engine.shm_mb"] = "program counter (RunStats shm_nbytes)"

    # Ledger: worker-thread time inside the traced phase not covered by
    # any span; each thread is accounted from its first span to its last.
    by_thread: dict[int, list[tuple[float, float]]] = {}
    for s in tracer.spans:
        if s.thread in worker:
            by_thread.setdefault(s.thread, []).append((s.t0, s.t1))
    windows = {}
    for tid, ivs in by_thread.items():
        a = max(traced.t_start, min(t0 for t0, _ in ivs))
        b = min(traced.t_end, max(t1 for _, t1 in ivs))
        if b > a:
            windows[tid] = (a, b)
    m["ledger.unaccounted_frac"] = stats.unaccounted_frac(windows, by_thread)
    p50_traced = stats.median([r.latency_s for r in traced.records])
    p50_untraced = stats.median([r.latency_s for r in untraced.records])
    m["trace.overhead_frac"] = p50_traced / p50_untraced - 1.0
    for name in m:
        how.setdefault(name, "span")
    samples = {
        "traced_jobs": len(traced.ok),
        "untraced_jobs": len(untraced.records),
        "spans": {name: len(v) for name, v in sorted(spans.items())},
    }
    return m, {
        "how": how,
        "samples": samples,
        "ledger_self_s_per_job": ledger(tracer, worker, traced, jobs),
    }


def ledger(tracer: Tracer, worker: set, phase: Phase, jobs: int) -> dict:
    """Self time per layer on worker threads, per job.

    Spans of one thread nest (they follow its call stack), so a span's
    descendants are the spans that start before it ends, in start order.
    """
    out: dict[str, float] = {}
    by_thread: dict[int, list] = {}
    for s in tracer.spans:
        if s.thread in worker and phase.t_start <= s.t0 <= phase.t_end:
            by_thread.setdefault(s.thread, []).append(s)
    for spans in by_thread.values():
        spans.sort(key=lambda s: (s.t0, -s.t1))
        for i, s in enumerate(spans):
            kids = []
            j = i + 1
            while j < len(spans) and spans[j].t0 < s.t1:
                kids.append((spans[j].t0, spans[j].t1))
                j += 1
            out[s.layer] = out.get(s.layer, 0.0) + stats.self_time((s.t0, s.t1), kids)
    return {k: v / jobs for k, v in sorted(out.items())}


# -- provenance ----------------------------------------------------------------


def provenance(w: Workload, seed: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": w.name,
        "loop": w.loop,
        "clients": w.n_clients,
        "why": w.why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        # Thread-pool settings change fold cost several-fold on few cores.
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# -- main ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        return bench(argv)
    finally:
        stop_children()


def bench(argv: list[str] | None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    info = provenance(w, args.seed)
    info["loadavg_before"] = os.getloadavg()
    steal0 = steal_seconds()
    tracer = Tracer()
    hooks = Hooks()
    if args.trace:
        hooks = Hooks(
            store=lambda s: TimedStore(s, tracer),
            options={"scheduler_factory": timed_scheduler_factory(tracer)},
        )
    env, setup_times, warm = setup(w, args.seed, hooks)
    try:
        if args.trace:
            untraced = run_phase(env, args.seconds / 2)
            specs = {id(k.spec): k.spec for c in env.clients for k in c.kinds}
            with patched(tracer, list(specs.values())):
                traced = run_phase(env, args.seconds / 2)
            phases = [untraced, traced]
            metrics, detail = per_layer(
                tracer, traced, untraced, env.service.engine_name == "process"
            )
            units = LAYER_UNITS
        else:
            phases = [run_phase(env, args.seconds)]
            metrics, detail = end_to_end(phases[0], setup_times)
            units = END_TO_END_UNITS
    finally:
        env.service.shutdown(cancel_pending=True, timeout=SHUTDOWN_TIMEOUT_S)
    records = warm + [r for p in phases for r in p.records]
    failed = sum(not r.ok for r in records)
    attempted = len(records)
    info["loadavg_after"] = os.getloadavg()
    info["steal_s"] = steal_seconds() - steal0
    info["errors"] = sorted({r.error for r in records if not r.ok})
    info["failed_frac"] = failed / attempted
    print(json.dumps({"provenance": info, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
