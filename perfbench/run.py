"""The cycleflow benchmark.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it benchmarks the package under
the checkout's ``src/``.  One client runs a workload's ``cycleflow``
invocations closed-loop, one child process at a time, and repeats the
whole pass until ``--seconds`` of passes have been measured.  Every
report is refereed (see ``workloads.referee``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of ``import cycleflow`` plus ``load_model`` on the
workload's files), ``batch_s`` (median pass wall, interpreter start
included) and ``peak_rss_mb`` (median over passes of the largest child
peak RSS).  ``--trace 1`` runs one untraced and one traced pass and
prints the per-layer metrics named in ``BENCHMARK.json``, summed over
the workload's invocations, plus ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the environment, and every invocation's record, with the
sha256 of its canonical report, is written to
``.perfbench_work/records/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as layer_trace  # noqa: E402
from workloads import WORKLOADS, generate, reference_law, referee, write_model  # noqa: E402

SETUP_REPEATS = 5
# every child is killed once the run has used this much wall time
DEADLINE_S = 165.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, log_stem, deadline):
    """Run one child to completion; (exit code, wall s, peak RSS MB)."""
    with open(str(log_stem) + ".out", "wb") as out, \
            open(str(log_stem) + ".err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=_child_env(), cwd=str(ROOT))
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
    # wait4 reaped the child; tell Popen so it never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.paths = {}
        self.laws = {}
        for inv in workload.invocations:
            self.paths[inv.model] = write_model(inv.model, seed, work)
            if inv.law:
                self.laws[inv.model] = reference_law(generate(inv.model, seed))
        self.records = []

    def setup(self):
        """(setup seconds, environment) from one fresh interpreter."""
        stem = self.work / "setup"
        code, _, _ = run_child(
            [sys.executable, str(HERE / "probe.py"),
             *[str(p) for p in self.paths.values()]], stem, self.deadline)
        if code != 0:
            raise RuntimeError("set-up probe exited %d: %s" % (
                code, Path(str(stem) + ".err").read_text()[-2000:]))
        probe = json.loads(Path(str(stem) + ".out").read_text())
        return probe.pop("setup_s"), probe

    def run_pass(self, index, traced=False):
        """Run every invocation once; returns the pass's records."""
        records = []
        for i, inv in enumerate(self.workload.invocations):
            stem = self.work / ("p%d-%d" % (index, i))
            report = Path(str(stem) + ".json")
            argv = inv.argv(self.paths[inv.model]) + ["--output", str(report)]
            if traced:
                argv = [sys.executable, "-X", "importtime",
                        str(HERE / "tracer.py"), str(stem) + ".spans"] + argv
            else:
                argv = [sys.executable, "-m", "cycleflow.cli"] + argv
            code, wall, rss = run_child(argv, stem, self.deadline)
            text = report.read_bytes() if report.exists() else b""
            problems = referee(inv, code, text,
                               self.laws.get(inv.model))
            records.append({
                "invocation": inv.label, "pass": index, "traced": traced,
                "exit_code": code, "wall_s": wall, "peak_rss_mb": rss,
                "sha256": hashlib.sha256(text).hexdigest(),
                "problems": problems, "stem": str(stem),
            })
        self.records.extend(records)
        return records

    def mark_nondeterminism(self):
        """Same inputs must give the same report bytes in every pass."""
        first = {}
        for rec in self.records:
            want = first.setdefault(rec["invocation"], rec["sha256"])
            if rec["sha256"] != want:
                rec["problems"].append("report bytes differ between passes")

    def failed(self):
        return sum(1 for rec in self.records if rec["problems"])


def _batch_s(records):
    return sum(rec["wall_s"] for rec in records)


def end_to_end(run, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, env = run.setup()
        setups.append(setup_s)
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        if passes and time.monotonic() + _batch_s(passes[-1]) > run.deadline:
            break
        passes.append(run.run_pass(len(passes)))
        measured += _batch_s(passes[-1])
    metrics = {
        "setup_s": statistics.median(setups),
        "batch_s": statistics.median(_batch_s(p) for p in passes),
        "peak_rss_mb": statistics.median(
            max(rec["peak_rss_mb"] for rec in p) for p in passes),
    }
    return metrics, env


def per_layer(run, names):
    plain = run.run_pass(0)
    traced = run.run_pass(1, traced=True)
    spans = []
    import_s = [0.0, 0.0]
    for rec in traced:
        spans_path = Path(rec["stem"] + ".spans")
        if spans_path.exists():
            spans.append(json.loads(spans_path.read_text()))
        err = Path(rec["stem"] + ".err").read_text(errors="replace")
        for k, value in enumerate(layer_trace.import_times(err)):
            import_s[k] += value
    layers = layer_trace.aggregate(spans)
    layers["import.cycleflow_s"], layers["import.scipy_s"] = import_s
    layers["trace.overhead_s"] = _batch_s(traced) - _batch_s(plain)
    targets = {layer_trace.metric_prefix(m, q)
               for m, q, _ in layer_trace.TARGETS}
    metrics = {}
    for name in names:
        if name not in layers and name.rsplit(".", 1)[0] not in targets:
            raise KeyError("no per-layer metric %r" % name)
        # a counter of a callable that never ran reads zero
        metrics[name] = layers.get(name, 0)
    return metrics


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cycleflow" / "__init__.py").is_file():
        print("perfbench: no src/cycleflow in %s" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    workload = WORKLOADS[args.workload]
    # models and logs of the latest run only; records of every run
    work = ROOT / ".perfbench_work" / ("%s-trace%d" % (
        workload.name, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records = ROOT / ".perfbench_work" / "records" / (
        "%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    records.parent.mkdir(exist_ok=True)
    run = Run(workload, args.seed, work, started + DEADLINE_S)

    if args.trace:
        _, env = run.setup()
        values = per_layer(run, units)
    else:
        values, env = end_to_end(run, args.seconds)
    run.mark_nondeterminism()

    env.update(nproc=len(os.sched_getaffinity(0)), git_commit=_git_commit(),
               workload=workload.name, why=workload.why, seed=args.seed)
    attempted = len(run.records)
    failed = run.failed()
    records.write_text(json.dumps(
        {"env": env, "records": run.records, "metrics": values}, indent=1))
    for rec in run.records:
        if rec["problems"]:
            print("FAILED %s (pass %d): %s" % (
                rec["invocation"], rec["pass"], "; ".join(rec["problems"])),
                file=sys.stderr)
    for name in units:
        print("%-44s %14.6f %s" % (name, values[name], units[name]),
              file=sys.stderr)
    print("%-44s %14.6f %s" % ("failed_frac", failed / attempted, "1"),
          file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
