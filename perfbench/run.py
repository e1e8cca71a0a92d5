"""fockmzi benchmark.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28     # every workload in turn

Run from the root of a source checkout.  Each workload is a sequence of
`fockmzi` command lines (see workloads.py), run one at a time as fresh
`python3 -m fockmzi.cli` subprocesses.  The children inherit this process's
environment unchanged apart from PYTHONPATH=src, which stands in for
installing the checkout: no `--threads` flag and no BLAS thread pinning, so the
thread oversubscription a user meets by default is part of what is measured.

--trace 0 repeats passes over the commands for --seconds, times every child
from outside (wall clock and os.wait4 rusage), checks every output with
gate.py, and reports the end-to-end metrics of BENCHMARK.json.
--trace 1 alternates untraced passes with traced ones (tracer.py) and reports
the per-layer metrics: calls and self times of each module boundary, computed
kernel counts, and the tracing overhead.

The last line of stdout is the JSON result; lines before it are a readable
report.  Spans and full results go to .perfbench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_SAMPLES_PER_PASS = 2  # interleaved with the passes, so set-up sees the same machine state
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 120
ENV_POLICY = ("children inherit the benchmark's environment unchanged except PYTHONPATH=src; "
              "no --threads flag and no BLAS thread pinning, because the default thread "
              "oversubscription is a real cost that later changes must be able to remove")


@dataclass
class Child:
    start: float
    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    command_walls: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # (command index, message)


def run_child(argv: list[str], stdout_path: Path, env: dict) -> Child:
    """Run one command to completion; time and rusage are taken from outside."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class Runner:
    """Runs passes over one workload's commands and checks every output."""

    def __init__(self, root: Path, commands):
        self.commands = commands
        self.refs = {}
        self.digests = {}  # command index -> sha256 of the first output seen
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0

    def run_pass(self, traced: bool) -> tuple[Pass, list]:
        result, traces = Pass(), []
        for i, command in enumerate(self.commands):
            stdout_path = OUT_DIR / f"cmd{i}.out"
            if traced:
                spans_path = OUT_DIR / f"cmd{i}.spans.json"
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *command.argv]
            else:
                argv = [sys.executable, "-m", "fockmzi.cli", *command.argv]
            child = run_child(argv, stdout_path, self.env)
            self.attempted += 1
            result.command_walls.append(child.wall)
            result.wall += child.wall
            result.cpu += child.cpu
            result.rss_mb = max(result.rss_mb, child.rss_mb)
            problems = self.check(i, command, child, stdout_path)
            if traced and child.code == 0:
                traces.append((child, json.loads(spans_path.read_text(encoding="utf-8"))))
            result.problems += [(i, p) for p in problems]
        return result, traces

    def check(self, i: int, command, child: Child, stdout_path: Path) -> list[str]:
        data = stdout_path.read_bytes()
        if child.code != 0:
            err = stdout_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace").strip()
            return [f"exit code {child.code}: {err[-300:]}"]
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(i, digest)
        problems = [] if digest == first else [f"output differs from the first run's ({digest} != {first})"]
        return problems + gate.check_output(command, data.decode("utf-8", errors="replace"), self.refs)


def setup_seconds(env: dict, setups, samples: int) -> list[float]:
    """Set-up time, measured inside fresh interpreters, one at a time."""
    args = [f"{scheme}:{n}" for scheme, n in setups]
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(HERE / "setup_time.py"), *args], env=env,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def tail(values: list[float]) -> dict:
    """Highest percentile that has at least ten samples beyond it, when there is one."""
    n = len(values)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(values)[k - 1], "samples": n}


def metadata(root: Path, env: dict) -> dict:
    probe = subprocess.run([sys.executable, str(HERE / "probe_env.py")], env=env,
                           capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True)
    commit = None  # a checkout without .git (or without git) records only the source digest
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **json.loads(probe.stdout),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "child_env": ENV_POLICY,
        "concurrency": "one child at a time, from a single parent process",
    }


def timed_passes(runner: Runner, seconds: float, traced_too: bool, between=None):
    """Passes until the time is spent; traced passes alternate with untraced ones.

    between() runs after every pass, inside the measured time.
    """
    plain, traced, traces = [], [], []
    begin = time.perf_counter()
    while True:
        result, _ = runner.run_pass(traced=False)
        plain.append(result)
        if traced_too:
            result, pass_traces = runner.run_pass(traced=True)
            traced.append(result)
            traces.append(pass_traces)
        if between is not None:
            between()
        elapsed = time.perf_counter() - begin
        done = len(plain) >= (1 if traced_too else MIN_PASSES)
        if done and elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, traces


def layer_values(pass_traces, points: int) -> tuple[dict, list[str], list]:
    """Per-layer values of one traced pass, its span-tree problems, and its spans."""
    calls, self_s, counters = defaultdict(int), defaultdict(float), defaultdict(float)
    problems, rows = [], []
    startup = splitter_keys = 0.0
    for i, (child, data) in enumerate(pass_traces):
        spans = data["spans"]
        own = tracer.self_times(spans)
        problems += tracer.tree_problems(spans, own)
        for sid, parent, name, start, end, thread in spans:
            calls[name] += 1
            self_s[name] += own[sid]
            rows.append({"command": i, "id": sid, "parent": parent, "name": name, "start": start,
                         "end": end, "thread": thread, "self": own[sid]})
        for key, value in data["counters"].items():
            if key == "states.cutoff_max":
                counters[key] = max(counters[key], value)
            elif key == "splitter_keys":
                splitter_keys += value
            else:
                counters[key] += value
        startup += data["t_imported"] - child.start
    values = dict(counters)
    for name in set(calls) | set(self_s):
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = self_s[name]
    values["elements.splitter_builds_per_setup"] = (
        calls["elements.beam_splitter"] / splitter_keys if splitter_keys else 0.0)
    values["estimation.evolves_per_point"] = calls["elements.evolve"] / points if points else 0.0
    values["trace.startup_s"] = startup
    values["trace.self_sum_s"] = sum(self_s.values())
    values["trace.spans"] = sum(calls.values())
    return values, problems, rows


def per_layer_metrics(spec, plain, traced, traces, points, workload: str):
    per_pass, problems = [], []
    for result, pass_traces in zip(traced, traces):
        values, tree, rows = layer_values(pass_traces, points)
        problems += tree
        values["trace.wall_s"] = result.wall
        values["trace.unattributed_s"] = result.wall - values["trace.startup_s"] - values["trace.self_sum_s"]
        per_pass.append(values)
    with open(OUT_DIR / f"spans-{workload}.jsonl", "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps({"workload": workload, **row}) + "\n")
    untraced = statistics.median(p.wall for p in plain)
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "trace.untraced_wall_s":
            value = untraced
        elif name == "trace.overhead_s":
            value = statistics.median(v["trace.wall_s"] for v in per_pass) - untraced
        else:
            value = statistics.median(v.get(name, 0) for v in per_pass)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def end_to_end_metrics(spec, plain, setup_times, points):
    walls = [p.wall for p in plain]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu for p in plain),
        "phase_evals_per_s": points / wall,
        "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
        "setup_s": statistics.median(setup_times),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}, tail(walls)


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report lines, and return its result object."""
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    points = sum(c.points for c in commands)
    runner = Runner(root, commands)

    load_before = os.getloadavg()
    meta = metadata(root, runner.env)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
              "commands": [" ".join(c.argv) for c in commands], "phase_points": points}
    if trace:
        plain, traced, traces = timed_passes(runner, seconds, traced_too=True)
        metrics, tree_problems = per_layer_metrics(spec["per_layer"], plain, traced, traces, points, name)
        report["span_tree_problems"] = tree_problems[:20]
        passes = plain + traced
    else:
        setup_seconds(runner.env, workload.setups, 1)  # warm-up: bytecode caches, file cache
        setup_times = []
        plain, _, _ = timed_passes(runner, seconds, traced_too=False, between=lambda: setup_times.extend(
            setup_seconds(runner.env, workload.setups, SETUP_SAMPLES_PER_PASS)))
        metrics, wall_tail = end_to_end_metrics(spec["end_to_end"], plain, setup_times, points)
        report["wall_s_tail"] = wall_tail
        report["setup_s_samples"] = setup_times
        passes = plain
    meta["loadavg_before"], meta["loadavg_after"] = load_before, os.getloadavg()

    failed_commands = {(k, i) for k, p in enumerate(passes) for i, _ in p.problems}
    report.update({
        "meta": meta,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb, "command_wall_s": p.command_walls}
                   for p in passes],
        "stdout_sha256": runner.digests,
        "problems": [f"command {i}: {msg}" for p in passes for i, msg in p.problems][:20],
        "failed_frac": len(failed_commands) / runner.attempted,
    })
    out_name = f"result-{name}-seed{seed}-trace{trace}.json"
    (OUT_DIR / out_name).write_text(json.dumps({"report": report, "metrics": metrics}, indent=1), encoding="utf-8")

    print(f"# workload {name}, seed {seed}, {len(passes)} passes, {runner.attempted} commands")
    for key in ("meta", "wall_s_tail", "stdout_sha256", "failed_frac", "problems", "span_tree_problems"):
        if key in report:
            print(f"# {key}: {json.dumps(report[key])}")
    for metric_name, m in metrics.items():
        print(f"{name} {metric_name}: {m['value']:.6g} {m['unit']}")
    return {"correct": not failed_commands, "attempted": runner.attempted,
            "failed": len(failed_commands), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fockmzi" / "cli.py").is_file():
        print("error: run from the root of a fockmzi checkout (src/fockmzi/cli.py not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(root, spec, name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:  # metrics keyed "<workload>.<metric>"
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
