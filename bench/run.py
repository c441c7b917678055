"""Benchmark of the k3batman CLI: three workloads, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy, and a directory without
``src/k3batman`` exits 2 before measuring anything.

A run sets the workload up ``SETUP_REPEATS`` times, each in a fresh process
(interpreter start, ``import k3batman`` and input preparation), and reports
the median as ``setup_s``. It then repeats passes of the workload's command
sequence, each in a fresh process, for ``--seconds``, and reports the
median pass. With ``--trace 1`` every second pass is traced and the run
reports per-layer metrics instead, together with the tracing overhead. Every command's output is checked, and outputs that do not depend
on the seed must match the digests in ``digests.json`` and agree between
traced and untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import CACHE_FRESH, CACHE_NONE, WORKLOADS, expected_digests

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPEATS = 3
# Every run must end within 180 s; no step starts that could run past this.
DEADLINE_S = 170.0
BENCH_DIR = Path(__file__).resolve().parent


class StepFailed(RuntimeError):
    pass


def _step(root: Path, work: Path, job: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    job_path = work / f"{job['run_id']}.job.json"
    job["result"] = str(work / f"{job['run_id']}.result.json")
    job["src"] = str(root / "src")
    job_path.write_text(json.dumps(job))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise StepFailed(f"{job['run_id']}: no time left before the deadline")
    # Without byte-code caches every process compiles the package alike, so
    # the first set-up in a fresh checkout is no slower than the others.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{job['run_id']}: killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise StepFailed(f"{job['run_id']}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(Path(job["result"]).read_text())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _medians(rows: list[dict]) -> dict[str, float]:
    return {key: _median([row[key] for row in rows]) for key in rows[0]} if rows else {}


def _describe(name: str, values: list[float], unit: str) -> str:
    return (f"{name} = {_median(values):.6g} {unit} (median of {len(values)}; "
            f"min {min(values):.6g}, max {max(values):.6g})")


def run_workload(workload, seed: int, seconds: float, trace: bool, root: Path,
                 setup_repeats: int = SETUP_REPEATS, log=print) -> dict:
    """Set up and measure one workload; return the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    work = root / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        base = {"workload": workload.name, "p": workload.p, "seed": seed,
                "cache_mode": workload.cache}
        prepared = work / "prepared"
        setup_times, setup_layers = [], []
        for k in range(setup_repeats):
            shutil.rmtree(prepared, ignore_errors=True)
            t0 = time.perf_counter()
            job = dict(base, mode="setup", trace=trace, run_id=f"{work.name}-setup{k}",
                       cache=str(prepared))
            result = _step(root, work, job, deadline)
            setup_times.append(time.perf_counter() - t0)
            if trace:
                setup_layers.append(spans.setup_metrics(result["spans"]))

        # Passes start while the next one, if it takes as long as the last,
        # still ends inside the window of --seconds.
        passes, broken = [], None
        window_end = time.perf_counter() + seconds
        while True:
            k = len(passes)
            traced = trace and k % 2 == 1
            pass_dir = work / f"pass{k}"
            cache = {CACHE_NONE: None, CACHE_FRESH: str(pass_dir / "cache")}.get(
                workload.cache, str(prepared))
            job = dict(base, mode="pass", trace=traced, run_id=f"{work.name}-pass{k}",
                       cache=cache, out=str(pass_dir / "out"))
            step_start = time.perf_counter()
            try:
                result = _step(root, work, job, deadline)
            except StepFailed as exc:
                broken = str(exc)
                break
            finally:
                shutil.rmtree(pass_dir, ignore_errors=True)
            result["traced"] = traced
            passes.append(result)
            now = time.perf_counter()
            if len(passes) >= (2 if trace else 1) and 2 * now - step_start > window_end:
                break
        return _report(workload, passes, broken, setup_times, setup_layers, trace, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()


def _failures(workload, passes: list[dict]) -> list[str]:
    """Problems with the outputs, at most one per command run."""
    expected = expected_digests(workload.p)
    first = {c["label"]: c["sha256"] for c in passes[0]["commands"]} if passes else {}
    seeded = {c.label for c in workload.commands if c.seeded}
    problems = []
    for k, result in enumerate(passes):
        for c in result["commands"]:
            label, digest = c["label"], c["sha256"]
            if c["problem"]:
                problems.append(f"pass{k} {label}: {c['problem']}")
            elif label not in seeded and label in expected and digest != expected[label]:
                problems.append(f"pass{k} {label}: digest {digest} != recorded {expected[label]}")
            elif digest != first[label]:
                problems.append(f"pass{k} {label}: output differs from pass0")
    return problems


def _report(workload, passes, broken, setup_times, setup_layers, trace, log) -> dict:
    problems = _failures(workload, passes)
    attempted = sum(len(r["commands"]) for r in passes)
    failed = len(problems)
    if broken is not None:
        problems.append(broken)
        attempted += len(workload.commands)
        failed += len(workload.commands)
    for problem in problems:
        log(f"FAILED {problem}")

    untraced = [r for r in passes if not r["traced"]]
    if not untraced:
        raise StepFailed(f"no pass of {workload.name} completed: {broken}")
    samples = {
        "wall_s": [r["wall_s"] for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "setup_s": setup_times,
    }
    for name, unit in END_TO_END.items():
        log(_describe(name, samples[name], unit))
    log(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} commands)")

    if trace:
        traced = [r for r in passes if r["traced"]]
        layers = _medians([spans.pass_metrics(r["spans"]) for r in traced])
        layers.update(_medians(setup_layers))
        layers["cli.emit_bytes"] = _median(
            [sum(c["emit_bytes"] for c in r["commands"]) for r in traced])
        layers["trace.wall_s"] = _median([r["wall_s"] for r in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - _median(samples["wall_s"])
        for name, value in layers.items():
            log(f"{name} = {value:.6g} {spans.unit_of(name)}")
        metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": _median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(root: Path, args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_model": _cpu_model(), "loadavg": os.getloadavg(),
        "commit": _commit(root), "src_sha256": _src_digest(root / "src" / "k3batman"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "k3batman" / "__init__.py").is_file():
        print(f"error: no k3batman sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(root, args)), flush=True)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), root)
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
