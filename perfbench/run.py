"""The spinchain benchmark: CLI operations in fresh processes, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client. Each operation starts a fresh
Python process, times `import spinchain.cli` (numpy included) and one
`cli.main(argv)` call, as a user of the `spinchain` command pays for a run,
and then the output is checked untimed (checker.py). Operations repeat
until --seconds of wall time are used up.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of
op_s, setup_s and peak_rss_mib (VmHWM) over the run's operations. Each
operation is preceded by one import-only process, so a run has twice as
many set-up samples as operations. --trace 1 alternates untraced and traced operations
and reports the per-layer metrics: medians over the traced operations, plus
trace.overhead_s (traced minus untraced op_s). Failed operations (nonzero
exit, exception, or a failed output check) are counted in `failed`;
fail_ratio = failed / attempted is printed by name.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_OPERATIONS = 3


def child_env() -> dict[str, str]:
    """The environment of every operation: the package from this checkout,
    with its bytecode cached as an installed package has it, the serial
    sweep path, and no more BLAS threads than cores."""
    env = dict(os.environ)
    env.pop("SPINCHAIN_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "").strip()
        if value.isdigit() and int(value) > cores:
            env[var] = str(cores)
    return env


def git_commit() -> str:
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env: dict[str, str], seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


class Runner:
    """Starts one child process at a time and collects its result."""

    def __init__(self, rundir: Path, env: dict[str, str]):
        self.rundir = rundir
        self.env = env
        self.count = 0

    def child(self, files: dict[str, str], argv: list[str] | None, traced: bool = False):
        """Run child.py in a fresh directory; returns (result or None, dir, stdout)."""
        self.count += 1
        workdir = self.rundir / f"p{self.count}"
        workdir.mkdir(parents=True)
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        cmd = [sys.executable, str(HERE / "child.py"), "result.json"]
        if traced:
            cmd += ["--trace", "spans.json"]
        if argv is not None:
            cmd += ["--", *argv]
        with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=workdir, env=self.env, stdout=out, stderr=err)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        stdout = (workdir / "stdout.txt").read_text(encoding="utf-8", errors="replace")
        result_file = workdir / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            return None, workdir, stdout
        result = json.loads(result_file.read_text())
        package = Path(result["package"]).resolve()
        if SRC.resolve() not in package.parents:
            sys.exit(f"perfbench: imported {package}, not the package under {SRC}")
        if traced:
            result["trace"] = json.loads((workdir / "spans.json").read_text())
        return result, workdir, stdout


def judge(op: dict, result, workdir: Path, stdout: str):
    """Check one operation's outputs: (ok, worst state residual, reason)."""
    try:
        if result is None:
            err = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
            raise checker.CheckFailed(f"process failed: {err[-1] if err else 'no output'}")
        return True, checker.check_operation(op, workdir, result["exit_code"], stdout), ""
    except (checker.CheckFailed, OSError, ValueError) as exc:
        return False, None, str(exc)


def run_operation(runner: Runner, op: dict, traced: bool):
    """One operation, checked untimed: (result or None, ok, worst residual, reason)."""
    result, workdir, stdout = runner.child(op["files"], op["argv"], traced)
    ok, worst, reason = judge(op, result, workdir, stdout)
    shutil.rmtree(workdir)
    return result, ok, worst, reason


def measure(op: dict, seconds: float, trace: bool, runner: Runner):
    # Untimed: writes the package's bytecode cache and loads its files into
    # the page cache, as an installed package has them.
    runner.child({}, None)

    attempted = failed = 0
    setup, untraced, traced, residuals = [], [], [], []
    start = time.monotonic()
    while True:
        is_traced = trace and attempted % 2 == 1
        if not trace:
            probe, _, _ = runner.child({}, None)
            if probe is not None:
                setup.append(probe["setup_s"])
        result, ok, worst, reason = run_operation(runner, op, is_traced)
        attempted += 1
        if not ok:
            failed += 1
            print(f"operation {attempted} failed: {reason}", flush=True)
        else:
            print(f"operation {attempted}{' traced' if is_traced else ''}: "
                  f"op_s {result['op_s']:.4f} setup_s {result['setup_s']:.4f} "
                  f"at {time.monotonic() - start:.1f} s", flush=True)
            residuals.append(worst)
            (traced if is_traced else untraced).append(result)
            if not is_traced:
                setup.append(result["setup_s"])
        # stop where the run is closest to --seconds long
        elapsed = time.monotonic() - start
        if attempted >= MIN_OPERATIONS and elapsed + 0.5 * elapsed / attempted > seconds:
            return attempted, failed, setup, untraced, traced, residuals


def end_to_end_metrics(setup, untraced) -> dict[str, tuple[float, str]]:
    n = f"median of {len(untraced)}"
    return {
        "op_s": (statistics.median(r["op_s"] for r in untraced), n),
        "setup_s": (statistics.median(setup), f"median of {len(setup)}"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] / 1024.0 for r in untraced), n),
    }


def per_layer_metrics(untraced, traced, residuals) -> dict[str, tuple[float, str]]:
    per_op = [spans.layer_metrics(r["trace"]) for r in traced]
    n = f"median of {len(traced)} traced"
    out = {name: (statistics.median(m[name] for m in per_op), n) for name in per_op[0]}
    out["import.numpy_s"] = (statistics.median(r["numpy_s"] for r in traced), n)
    out["import.spinchain_s"] = (statistics.median(r["setup_s"] - r["numpy_s"] for r in traced), n)
    out["trace.overhead_s"] = (statistics.median(r["op_s"] for r in traced)
                               - statistics.median(r["op_s"] for r in untraced),
                               f"{n} minus median of {len(untraced)} untraced")
    out["dynamics.max_err_vs_analytic"] = (max(residuals), f"max of {len(residuals)}")
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if ".us_per_" in name:
        return "us"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spinchain" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a spinchain checkout; {SRC / 'spinchain'} "
              f"or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    env = child_env()
    op = workloads.make_operation(args.workload, args.seed)
    other = workloads.make_operation(args.workload, args.seed + 1)
    shape_ok = op["shape"] == other["shape"]
    print("env " + json.dumps(environment(env, args.seed)))
    print(f"inputs {args.workload} " + json.dumps(op["inputs"]) + " shape " + json.dumps(op["shape"])
          + ("" if shape_ok else f" differs from seed {args.seed + 1}: {json.dumps(other['shape'])}"))

    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        attempted, failed, setup, untraced, traced, residuals = measure(
            op, args.seconds, bool(args.trace), Runner(rundir, env))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if not untraced or (args.trace and not traced):
        print(f"perfbench: no operation succeeded ({failed}/{attempted} failed)", file=sys.stderr)
        return 1

    if args.trace:
        wanted = spec["per_layer"]
        measured = per_layer_metrics(untraced, traced, residuals)
    else:
        wanted = spec["end_to_end"]
        measured = end_to_end_metrics(setup, untraced)
    units = {m["name"]: m["unit"] for m in wanted}
    for name in sorted(measured):
        value, how = measured[name]
        print(f"metric {name} {value:.6g} {units.get(name) or unit_of(name)} ({how})")
    absent = [name for name in units if name not in measured]
    if absent:
        print("absent (no longer defined by the package): " + ", ".join(absent))
    print(f"metric fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")

    report = {
        "correct": failed == 0 and shape_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name][0], "unit": unit}
                    for name, unit in units.items() if name in measured},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
