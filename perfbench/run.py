"""sterngf benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload closure_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workers are fresh interpreters running
`perfbench/worker.py` with `src` on PYTHONPATH; at most one runs at a time
(a cold pass's worker serves each op in a child forked for it and waits for
it) and none starts threads.  After all timing, `perfbench/check.py` checks every
distinct output in its own interpreter.  Human-readable lines start with
"# "; the last line of stdout is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

REPLY_TIMEOUT_S = 120.0
CHECK_TIMEOUT_S = 120.0
SETUP_PROBES = 15  # interpreter starts for service_warm's set-up median
HORIZON_VAR = "STERNGF_DEADNESS_HORIZON"

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
COUNTERS = {
    "core.evolve.picks": "count", "core.evolve.targets": "count",
    "core.evolve.merge_ratio": "ratio",
    "core.is_dead.distinct": "count", "core.is_dead.dead_ratio": "ratio",
    "cfinite.certify_eventually_positive.unknown_ratio": "ratio",
    "closure.build_system.states": "count", "closure.build_system.nnz": "count",
    "closure.build_system.limit_exceeded": "count",
    "closure.dead_discarded": "count",
    "linalg.bareiss_solve_last.singular_ratio": "ratio",
    "gfs.fit_recurrence.terms": "count", "gfs.fit_recurrence.rejected": "count",
    "closure.stream_terms.nnz_ops": "count", "closure.stream_terms.max_bits": "bits",
    "closure.stream_terms.computed_bytes": "B",
    "core.expand_Fn.coeffs": "count", "core.expand_Fn.python_path": "count",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in tracer.SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    for layer in tracer.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class BenchError(RuntimeError):
    pass


class Worker:
    """One worker interpreter and its line protocol."""

    def __init__(self, env: dict, cpu: int, mode: str | None = None):
        cmd = [sys.executable, str(HERE / "worker.py")] + ([mode] if mode else [])
        t_spawn = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, start_new_session=True,
                                     preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            hello = self._read()
        except BaseException:
            self.kill()
            self.close()
            raise
        self.setup_s = hello["ready"] - t_spawn
        self.versions = {"python": hello["python"], "numpy": hello["numpy"]}
        self.ref_loop_s = hello["ref_loop_s"]

    def _read(self) -> dict:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not self._sel.select(left):
                raise BenchError("worker did not answer in time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"worker exited (code {self.proc.wait()})")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, op: dict, trace: bool, out_dir: Path) -> dict:
        req = {"argv": workloads.argv(op), "trace": trace, "out_dir": str(out_dir)}
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()
        reply = self._read()
        if "child_failed" in reply:
            raise BenchError(f"forked worker failed (status {reply['child_failed']})")
        return reply

    def kill(self) -> None:
        """Kills the worker and a child it may have forked (its own session)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b'{"quit": true}\n')
                self.proc.stdin.flush()
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            self.proc.wait()
        finally:
            self._sel.close()
            self.proc.stdout.close()


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.ops = workloads.build(workload, seed)
        self.out_dir = workdir / "out"
        self.out_dir.mkdir(parents=True)
        self.workdir = workdir
        self.env = worker_env()
        self.setup: list[float] = []
        self.passes: list[dict] = []  # {"traced", "timed", "replies": [(idx, reply)]}
        self.versions: dict = {}
        self.ref_loop: list[float] = []
        self.live: list[Worker] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.warm: Worker | None = None  # service_warm's long-lived worker

    def spawn(self, cpu: int, mode: str | None = None) -> Worker:
        w = Worker(self.env, cpu, mode)
        self.live.append(w)
        self.setup.append(w.setup_s)
        self.versions = w.versions
        self.ref_loop.append(w.ref_loop_s)
        return w

    def retire(self, w: Worker) -> None:
        w.close()
        self.live.remove(w)

    def close_all(self) -> None:
        for w in list(self.live):
            self.retire(w)

    def run_pass(self, indices, traced: bool, timed: bool, cpu: int) -> None:
        """One pass with its worker on one CPU.  Passes change CPU in turn:
        on a shared host one vCPU can be slowed for seconds while the other
        is not, and each op's best time should see both.  A cold pass has a
        forking worker of its own; a warm pass uses the long-lived one."""
        replies = []
        self.passes.append({"traced": traced, "timed": timed, "replies": replies})
        if self.warm is None:
            w = self.spawn(cpu, "--fork")
        else:
            w = self.warm
            os.sched_setaffinity(w.proc.pid, {cpu})
        for idx in indices:
            replies.append((idx, w.request(self.ops[idx], traced, self.out_dir)))
        if self.warm is None:
            self.retire(w)

    def measure(self) -> None:
        """Passes over the op list for `seconds` after set-up and warm-up,
        at least two per CPU; a traced run alternates untraced and traced
        passes, each pair on one CPU."""
        everything = range(len(self.ops))

        def cpu(i):
            return self.cpus[i // (1 + self.trace) % len(self.cpus)]

        if self.workload not in workloads.COLD:
            for i in range(SETUP_PROBES):
                self.retire(self.spawn(cpu(i), "--probe"))
            self.warm = self.spawn(cpu(0))
            self.run_pass(workloads.warmup(self.ops), traced=False, timed=False,
                          cpu=cpu(0))
        t_start = time.monotonic()  # set-up and warm-up are not measuring time
        i = 0
        while i < 2 * len(self.cpus) or time.monotonic() - t_start < self.seconds:
            self.run_pass(everything, traced=self.trace and i % 2 == 1, timed=True,
                          cpu=cpu(i))
            i += 1
        if self.warm is not None:
            self.retire(self.warm)
            self.warm = None

    def check(self) -> dict[tuple, str | None]:
        """Checks each distinct (op, exit code, output, stderr) once."""
        records, seen = [], set()
        for p in self.passes:
            for idx, r in p["replies"]:
                key = reply_key(idx, r)
                if key not in seen:
                    seen.add(key)
                    records.append({"key": "|".join(map(str, key)), "op": self.ops[idx],
                                    "rc": r["rc"], "exc": r["exc"], "err": r["err"],
                                    "out_file": str(self.out_dir / r["out_sha"])})
        rec_path, res_path = self.workdir / "records.json", self.workdir / "results.json"
        rec_path.write_text(json.dumps(records))
        proc = subprocess.run([sys.executable, str(HERE / "check.py"), str(rec_path),
                               str(res_path)], cwd=ROOT, env=self.env,
                              timeout=CHECK_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"checker failed with code {proc.returncode}")
        results = json.loads(res_path.read_text())
        return {tuple(k.split("|")): v for k, v in results.items()}


def reply_key(idx: int, r: dict) -> tuple:
    err = hashlib.sha256(r["err"].encode()).hexdigest()[:16]
    return (str(idx), str(r["rc"]), r["out_sha"], err)


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != HORIZON_VAR}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # numpy must not start BLAS threads: one worker, one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def op_times(passes: list[dict]) -> dict[int, float]:
    """Each op's best time over the passes.  The ops are deterministic and
    CPU-bound, and a shared machine only ever slows them, in spells of about
    a second; the best of the passes is clear of a spell whenever one
    execution is, where a median would need most of them to be."""
    per_op = defaultdict(list)
    for p in passes:
        for idx, r in p["replies"]:
            per_op[idx].append(r["elapsed_s"])
    return {idx: min(v) for idx, v in per_op.items()}


def end_to_end(run: Run) -> tuple[dict, dict]:
    timed = [p for p in run.passes if p["timed"] and not p["traced"]]
    walls = [sum(r["elapsed_s"] for _, r in p["replies"]) for p in timed]
    # one latency sample per op of the list: its best time over the passes
    samples = list(op_times(timed).values())
    untraced = [r for p in run.passes if not p["traced"] for _, r in p["replies"]]
    metrics = {
        "wall_s": sum(samples),
        "op_p50_s": statistics.median(samples),
        "op_p90_s": p90(samples),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": max(r["rss_kb"] for r in untraced) / 1024.0,
    }
    info = {"passes": len(timed), "latency_samples": len(samples),
            "beyond_p90": sum(1 for s in samples if s > metrics["op_p90_s"]),
            "setup_samples": len(run.setup), "walls": walls,
            "ref_loop_ms": 1000 * statistics.median(run.ref_loop)}
    return metrics, info


def op_table(run: Run) -> list[str]:
    """Best time of each cold op, or count and summed best times per command
    of the warm stream, over the untraced timed passes."""
    timed = [p for p in run.passes if p["timed"] and not p["traced"]]
    rows, counts = defaultdict(float), defaultdict(int)
    for idx, t in op_times(timed).items():
        op = run.ops[idx]
        key = workloads.label(op) if run.workload in workloads.COLD else op["cmd"]
        rows[key] += t
        counts[key] += 1
    return [f"op {key}{f' x{counts[key]}' if counts[key] > 1 else ''}: {rows[key]:.3f} s"
            for key in sorted(rows)]


def per_layer(run: Run) -> dict:
    traced = [p for p in run.passes if p["traced"]]
    untraced = [p for p in run.passes if p["timed"] and not p["traced"]]
    sums = defaultdict(float)
    for p in traced:
        for _, r in p["replies"]:
            lay = r["layers"]
            for name, v in lay["self_s"].items():
                sums[f"{name}.self_s"] += v
                sums[f"layer.{name.split('.')[0]}.self_s"] += v
            for name, v in lay["calls"].items():
                sums[f"{name}.calls"] += v
            for name, v in lay["counts"].items():
                if name.endswith("max_bits"):
                    sums[name] = max(sums[name], v)
                else:
                    sums[name] += v
    k = len(traced)
    m = {name: (sums[name] if name.endswith("max_bits") else sums[name] / k)
         for name in per_layer_units()}

    def ratio(a, b):
        return sums[a] / sums[b] if sums[b] else 0.0

    m["core.evolve.merge_ratio"] = ratio("core.evolve.targets", "core.evolve.picks")
    m["core.is_dead.dead_ratio"] = ratio("core.is_dead.dead", "core.is_dead.distinct")
    m["cfinite.certify_eventually_positive.unknown_ratio"] = ratio(
        "cfinite.certify_eventually_positive.unknown",
        "cfinite.certify_eventually_positive.calls")
    m["linalg.bareiss_solve_last.singular_ratio"] = ratio(
        "linalg.bareiss_solve_last.singular", "linalg.bareiss_solve_last.calls")
    if run.workload not in workloads.COLD:
        # history-dependent in a long-lived process (known defect, see README)
        m["closure.dead_discarded"] = 0
    wall, base = sum(op_times(traced).values()), sum(op_times(untraced).values())
    m["trace.overhead_s"] = wall - base
    m["trace.overhead_share"] = (wall - base) / base
    return m


def environment(run: Run, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sterngf").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": run.workload, "seed": seed, "seconds": run.seconds,
            "trace": int(run.trace), "python": run.versions.get("python"),
            "numpy": run.versions.get("numpy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            HORIZON_VAR: "unset (default 64)"}


def declared_metrics(trace: bool) -> dict[str, str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "sterngf" / "cli.py").is_file():
        print(f"error: no sterngf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if HORIZON_VAR in os.environ:
        print(f"error: {HORIZON_VAR} is set; the benchmark measures the default "
              "horizon, unset it", file=sys.stderr)
        return 2

    units = per_layer_units() if args.trace else dict(END_TO_END)
    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != units:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    try:
        run.measure()
        results = run.check()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = failed = 0
    failures = []
    for p in run.passes:
        for idx, r in p["replies"]:
            attempted += 1
            problem = results[reply_key(idx, r)]
            if problem is not None:
                failed += 1
                failures.append(f"{workloads.label(run.ops[idx])}: {problem}")

    e2e, info = end_to_end(run)
    metrics = per_layer(run) if args.trace else e2e

    print("# env " + json.dumps(environment(run, args.seed)))
    for name, value in e2e.items():
        print(f"# {name} = {value:.6g} {END_TO_END[name]}")
    print(f"# fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"# passes = {info['passes']} (pass walls {', '.join(f'{w:.3f}' for w in info['walls'])} s); "
          f"latency samples = {info['latency_samples']} ({info['beyond_p90']} beyond p90); "
          f"set-up samples = {info['setup_samples']}")
    print(f"# machine speed: fixed reference loop {info['ref_loop_ms']:.3f} ms "
          f"(median over the run's {info['setup_samples']} interpreter starts)")
    for line in op_table(run):
        print("# " + line)
    for f in failures[:20]:
        print(f"# FAILED {f}")
    if args.trace:
        for name, value in metrics.items():
            print(f"# {name} = {value:.6g} {units[name]}")
    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
