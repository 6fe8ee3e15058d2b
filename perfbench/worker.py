"""Benchmark worker: one interpreter that serves ops through `sterngf.cli.main`.

Run as `python3 perfbench/worker.py [--probe | --fork]` from the checkout
root with `src` on PYTHONPATH.  The first line it writes is a hello carrying
the CLOCK_MONOTONIC time at which `import sterngf.cli` finished, so `run.py`
can compute set-up time from its own spawn time.  Then it reads one JSON
request per line on stdin and answers one JSON line on stdout:

    request  {"op": {...}, "argv": [...], "trace": bool, "out_dir": path}
    reply    {"rc", "elapsed_s", "rss_kb", "out_sha", "err", "exc", "layers"}

`elapsed_s` brackets `cli.main(argv)` only.  The op's stdout is stored under
`out_dir` by content hash for the checker; nothing here inspects it, so the
worker never calls into the package outside the timed call.

With `--fork` the worker serves each request in a child forked for it and
waits for the child to end: every op starts from the state right after
`import sterngf.cli`, with no cache filled by an earlier op, as in a fresh
interpreter, but without paying the interpreter start again.  `--probe`
exits after the hello.
"""

import sys
import time

import sterngf.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up timestamp on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402

CHUNK = 1 << 20


def store(text: str, out_dir: str) -> str:
    """Write text under its sha256 (chunked, so no full-size copy is made)."""
    h = hashlib.sha256()
    for i in range(0, len(text), CHUNK):
        h.update(text[i:i + CHUNK].encode())
    sha = h.hexdigest()
    path = os.path.join(out_dir, sha)
    if not os.path.exists(path):
        with open(path + ".part", "w", encoding="utf-8") as fh:
            for i in range(0, len(text), CHUNK):
                fh.write(text[i:i + CHUNK])
        os.replace(path + ".part", path)
    return sha


def reference_loop() -> float:
    """Best of three runs of a fixed integer loop, taken after set-up: the
    speed of the shared machine at this moment, recorded beside the timings
    so that runs made at different times can be compared."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def serve(proto, fork: bool) -> None:
    tracer = Tracer()
    main = sterngf.cli.main
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("quit"):
            return
        if fork:
            pid = os.fork()
            if pid:
                status = os.waitpid(pid, 0)[1]
                if status:
                    proto.write(json.dumps({"child_failed": status}) + "\n")
                    proto.flush()
                continue
            code = 1
            try:
                answer(req, tracer, main, proto)
                code = 0
            finally:
                os._exit(code)
        else:
            main = answer(req, tracer, main, proto)


def answer(req, tracer, main, proto):
    """Serves one request; returns the entry point to use for the next."""
    if req["trace"]:
        tracer.install()
        main = sterngf.cli.main
    elif tracer.installed:
        tracer.uninstall()
        main = sterngf.cli.main
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(req["argv"])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            exc = traceback.format_exc()
        elapsed = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reply = {
        "rc": rc, "elapsed_s": elapsed, "rss_kb": rss, "exc": exc,
        "out_sha": store(out.getvalue(), req["out_dir"]),
        "err": err.getvalue()[-65536:],
        "layers": tracer.summary() if req["trace"] else None,
    }
    proto.write(json.dumps(reply) + "\n")
    proto.flush()
    return main


def main() -> None:
    if "STERNGF_DEADNESS_HORIZON" in os.environ:
        raise SystemExit("worker: STERNGF_DEADNESS_HORIZON must not be set")
    import numpy

    proto = sys.stdout
    hello = {"ready": READY, "pid": os.getpid(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "ref_loop_s": reference_loop()}
    proto.write(json.dumps(hello) + "\n")
    proto.flush()
    if "--probe" not in sys.argv:
        serve(proto, fork="--fork" in sys.argv)


if __name__ == "__main__":
    main()
