"""One fresh-process step of a benchmark run.

    python3 bench/worker.py JOB.json

The job's ``mode`` is ``setup``, which prepares a workload's inputs, or
``pass``, which runs the workload's command sequence once through
``k3batman.cli.dispatch`` with stdout captured. The step writes its result
as JSON to the job's ``result`` path. ``run.py`` starts these processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _setup(job: dict, tracer) -> dict:
    from k3batman import cache, hurwitz

    from fftgen import generate_trace_table
    from spans import GENERATOR_SPAN
    from workloads import CACHE_PREPARED

    cache_dir = Path(job["cache"])
    cache_dir.mkdir(parents=True, exist_ok=True)
    if job["cache_mode"] != CACHE_PREPARED:
        return {}
    p = job["p"]
    # The file names are the ones the CLI looks up in --cache-dir.
    save_traces = getattr(cache, "save_trace_table", None)
    if save_traces is not None:  # a library without a trace cache rebuilds in the pass
        with tracer.span(GENERATOR_SPAN) if tracer else contextlib.nullcontext():
            table = generate_trace_table(p, job["seed"])
        save_traces(cache_dir / f"trace_p{p}.bin", table)
    htable = hurwitz.build_hurwitz_table(4 * p)
    cache.save_hurwitz_table(cache_dir / f"hurwitz_d{4 * p}.bin", htable)
    return {}


def _run_command(dispatch, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # one broken command must not hide the others' results
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _pass(job: dict, tracer) -> dict:
    from k3batman.cli import dispatch

    from workloads import WORKLOADS

    workload = WORKLOADS[job["workload"]].at(job["p"])
    out_dir = Path(job["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if job["cache"] is not None:
        Path(job["cache"]).mkdir(parents=True, exist_ok=True)
    argvs = [c.resolve(workload.p, job["seed"], job["cache"], str(out_dir))
             for c in workload.commands]

    t0, c0 = time.perf_counter(), os.times()
    captured = [_run_command(dispatch, argv) for argv in argvs]
    wall, c1 = time.perf_counter() - t0, os.times()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    cpu = sum(c1[:4]) - sum(c0[:4])  # user + system, own and children's

    commands = []
    for command, (code, stdout, stderr) in zip(workload.commands, captured):
        emitted = stdout.encode()
        data = emitted
        if command.output is not None:
            path = out_dir / command.output
            data = path.read_bytes() if path.exists() else b""
            emitted += data
        if code != 0:
            problem = f"exit code {code}: {stderr.strip()[-500:]}"
        else:
            problem = command.check(data.decode(), workload.p)
        commands.append({
            "label": command.label,
            "sha256": hashlib.sha256(data).hexdigest(),
            "emit_bytes": len(emitted),
            "problem": problem,
        })
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0, "commands": commands}


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import k3batman  # loads, with the three below, every module the tracer wraps
    import k3batman.cache
    import k3batman.cli
    import k3batman.svg

    if Path(job["src"]).resolve() not in Path(k3batman.__file__).resolve().parents:
        raise ImportError(f"k3batman was imported from {k3batman.__file__}, not {job['src']}")

    from spans import Tracer

    tracer = Tracer(job["run_id"]) if job["trace"] else None
    if tracer is not None:
        tracer.install()
    step = _setup if job["mode"] == "setup" else _pass
    result = step(job, tracer)
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
