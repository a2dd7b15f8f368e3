"""End-to-end benchmark of the agentcast CLI against a loopback stub.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run sets up three times and reports
the median set-up time: generate the inputs from the seed, start the stub,
check that the agentcast CLI starts (for replay_long also record the
cassette). The stub's transport self-check runs after the timed part. It then runs the workload's agentcast command(s) as child processes,
one timed iteration after another, until S seconds have passed, and checks
every iteration's outputs against results it computes itself.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics, each the median over the run's set-ups or iterations.
setup_s and wall_s are given at a reference host speed: on a shared
host the speed at which the interpreter runs swings by half with the
neighbours' load, in phases that can outlast a run. So a fixed pure-Python
probe is timed before and after every set-up and iteration, and the CPU
part of each time is scaled by PROBE_REF_S / probe; waiting on the stub is
not scaled. The raw times and the probe are in the detail line. With
--trace 1 the run alternates untraced and traced iterations (the latter
through launcher.py) and reports the per-layer metrics instead, in raw
seconds. The line before the result holds the details: per-iteration
values, sample counts, stub counters and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from rollup import iteration_layers, summarize  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
WATCHDOG_S = 170  # a run must end within 180 s
# host_probe() on a 2-vCPU Xeon (Sapphire Rapids) KVM guest when its
# neighbours are idle; times are reported as if the host ran at this speed.
PROBE_REF_S = 0.013


class Child:
    """Starts agentcast processes with a fixed environment and reports their
    wall time and rusage from wait4 (sandbox children included)."""

    def __init__(self, root: Path, work: Path):
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.cwd = work
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(root / "src"),
            "HOME": str(work),
            "TMPDIR": str(tmp),
            "LANG": "C.UTF-8",
            "LLM_API_KEY": "perfbench-dummy-key",
            "SEARCH_API_KEY": "perfbench-dummy-key",
            "NO_PROXY": "127.0.0.1,localhost",
            "no_proxy": "127.0.0.1,localhost",
        }

    def run(self, args: list[str], log: Path, trace: Path | None = None) -> dict:
        if trace is None:
            argv = [sys.executable, "-m", "agentcast.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), str(trace), *args]
        with open(log, "ab") as fh:
            started = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=self.cwd)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "started": started,
            "ended": ended,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }

    def cli(self, args: list[str], where: Path) -> None:
        """Run one untimed command that must succeed (set-up work)."""
        result = self.run(args, where / "setup.log")
        if result["code"] != 0:
            tail = (where / "setup.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"agentcast {args[0]} exited {result['code']} during set-up:\n{tail}")


def host_probe() -> float:
    """Best of three runs of a fixed pure-Python loop, in seconds: how fast
    this host runs interpreter code at the moment."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def machine() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (Path.cwd() / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "requests": version("requests"),
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
    }


def iterate(workload, child: Child, setup_dir: Path, work: Path, index: int, traced: bool) -> dict:
    """One timed iteration: run the commands, check the outputs."""
    out = work / f"iter{index}"
    out.mkdir()
    if workload.stub is not None:
        workload.stub.reset()
    probe = host_probe()
    runs, traces = [], []
    for j, args in enumerate(workload.commands(setup_dir, out)):
        trace = out / f"trace{j}.json" if traced else None
        result = child.run(args, out / "agentcast.log", trace)
        runs.append(result)
        if result["code"] != 0:
            break
        if trace is not None:
            spans, written = trace.read_text(encoding="utf-8").splitlines()
            traces.append({**json.loads(spans), **json.loads(written)})
    stub = workload.stub.snapshot() if workload.stub is not None else None
    probe = (probe + host_probe()) / 2
    codes = [r["code"] for r in runs]
    if any(codes):
        log = (out / "agentcast.log").read_text(errors="replace")[-1500:]
        check = Check(workload.items, workload.items, (f"agentcast exited {codes}: {log}",))
    else:
        check = workload.check(setup_dir, out)
    problems = list(check.problems)
    failed = check.failed
    if stub is not None:
        counters = stub["counters"]
        if counters["unexpected"] or counters["search_without_cutoff"]:
            problems.append(f"stub saw unplanned requests: {counters['unexpected'][:3]}, "
                            f"searches without the cutoff: {counters['search_without_cutoff']}")
            failed = workload.items
    wall = runs[-1]["ended"] - runs[0]["started"]
    cpu = sum(r["cpu_s"] for r in runs)
    scale = PROBE_REF_S / probe
    record = {
        "traced": traced,
        "wall_s": wall - cpu + cpu * scale,
        "cpu_s": cpu * scale,
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "raw_wall_s": wall,
        "raw_cpu_s": cpu,
        "probe_s": probe,
        "attempted": check.attempted,
        "failed": failed,
        "problems": problems,
        "stub": {k: v for k, v in (stub or {}).get("counters", {}).items() if k != "retry_gaps"},
        "accepts": (stub or {}).get("accepts"),
    }
    if traced and not any(codes):
        processes = [(r["started"], r["ended"]) for r in runs]
        record["layers"] = iteration_layers(traces, stub, processes, workload.items)
        record["layers"][0]["failed_share"] = failed / check.attempted
        record["layers"][0]["cli.cpu_s"] = cpu
    shutil.rmtree(out, ignore_errors=True)
    return record


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> tuple[dict, dict]:
    child = Child(root, work)
    setups, raw_setups = [], []
    workload = None
    try:
        for i in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            setup_dir = work / f"setup{i}"
            setup_dir.mkdir()
            probe = host_probe()
            t0 = time.perf_counter()
            workload = WORKLOADS[name](seed)
            workload.setup(setup_dir, child.cli)
            child.cli(["--help"], setup_dir)
            took = time.perf_counter() - t0
            raw_setups.append(took)
            setups.append(took * PROBE_REF_S / ((probe + host_probe()) / 2))
            workload.check_transport()
        iterations = []
        deadline = time.monotonic() + seconds
        while True:
            if trace:
                iterations.append(iterate(workload, child, setup_dir, work, len(iterations), traced=False))
                iterations.append(iterate(workload, child, setup_dir, work, len(iterations), traced=True))
            else:
                iterations.append(iterate(workload, child, setup_dir, work, len(iterations), traced=False))
            done = len(iterations) // (2 if trace else 1)
            if time.monotonic() >= deadline and done >= MIN_ITERATIONS or any(it["failed"] for it in iterations):
                break
    finally:
        if workload is not None:
            workload.close()

    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"] and "layers" in it]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    problems = [p for it in iterations for p in it["problems"]]
    median = {k: statistics.median(it[k] for it in plain) for k in ("wall_s", "peak_rss_mb")}
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": median["wall_s"], "unit": "s"},
        "peak_rss_mb": {"value": median["peak_rss_mb"], "unit": "MB"},
    }
    counts = {"setup_s": len(setups), "wall_s": len(plain), "peak_rss_mb": len(plain)}
    if trace:
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        if traced:
            values, counts = summarize([it["layers"] for it in traced])
            values["trace.overhead_s"] = statistics.median(it["wall_s"] for it in traced) - median["wall_s"]
            counts["trace.overhead_s"] = len(traced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": failed == 0 and len(traced if trace else plain) > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "setup": workload.describe(),
        "transport_self_check": workload.self_check,
        "machine": machine(),
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "iterations": [{k: v for k, v in it.items() if k != "layers"} for it in iterations],
        "sample_counts": counts,
        "problems": problems[:10],
    }
    return result, detail


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


class Stopped(Exception):
    """Raised from a signal handler so that cleanup runs: the agentcast child
    is killed and waited for, the stub stops and the work directory goes."""


def _stop(signum, frame):
    if signum == signal.SIGALRM:
        raise Stopped(f"run exceeded {WATCHDOG_S} s")
    raise Stopped(f"stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "agentcast" / "cli.py").is_file():
        print(f"perfbench: {root} has no src/agentcast; run from the root of an agentcast checkout", file=sys.stderr)
        return 2
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, _stop)
    signal.alarm(WATCHDOG_S)
    work = root / ".perfbench_work" / f"{ns.workload}-{ns.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, detail = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace), root, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
