"""Run one benchmark operation in a fresh process and print one JSON line.

    python3 perfbench/worker.py '<op spec as JSON>'

A fresh process per operation starts with divmax's in-process caches empty,
as a ``divmax solve`` invocation does, and its peak resident memory is the
operation's own.  The spec names either a CLI argument list, run through
``divmax.cli.main``, or a ``min_bisection`` library call on an instance file
and a file of set indices.
"""
import contextlib
import io
import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import divmax  # noqa: E402
import divmax.cli  # noqa: E402
import speed  # noqa: E402

READY = time.perf_counter()


def peak_rss_kb() -> int:
    """Peak resident memory of this process.

    ``ru_maxrss`` of a process started by fork or vfork plus exec also counts
    the parent's resident set at the time of the fork, so the kernel's
    ``VmHWM`` of the process's own address space is read where it exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(spec: dict) -> dict:
    out: dict = {"ready": READY, "probe_s": speed.probe_time()}
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if "argv" in spec:
                code = divmax.cli.main(spec["argv"])
                if code != 0:
                    error = f"exit {code}: {stderr.getvalue().strip()}"
            else:
                inst = divmax.load_instance(spec["instance"], q=spec["q"])
                with open(spec["set"]) as fh:
                    multiset = [int(t) for t in fh.read().split()]
                res = divmax.min_bisection(inst, multiset, spec["eps"])
                out["left"] = list(res.left)
                out["value"] = res.value
    except Exception as exc:  # the operation failed; the benchmark counts it
        error = f"{type(exc).__name__}: {exc}"
    out["t0"], out["t1"] = t0, time.perf_counter()
    out["error"] = error
    out["result_lines"] = [ln for ln in stdout.getvalue().splitlines()
                           if ln.startswith("RESULT ")]
    out["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
