"""Show that the benchmark's output check can fail.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs one `trajectory` and one `validate-quick` operation exactly as the
benchmark does, confirms their outputs pass, then injects three defects and
confirms each one counts as a failed operation:

  1. one state entry of the CSV off by 1e-5;
  2. the CSV's final sample missing;
  3. one `FAIL` line in the `validate` output.

Also confirms that the seeds 1..5 give every workload the same step, row
and draw counts. Exits 1 if any expectation does not hold.
"""

from __future__ import annotations

import shutil
import sys

import run
import workloads


def main() -> int:
    if not (run.SRC / "spinchain" / "cli.py").is_file():
        print(f"selftest: {run.SRC / 'spinchain'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    rundir = run.WORK / "selftest"
    shutil.rmtree(rundir, ignore_errors=True)
    runner = run.Runner(rundir, run.child_env())
    problems = []

    def expect(label: str, op: dict, result, workdir, stdout: str, ok_expected: bool):
        ok, _, reason = run.judge(op, result, workdir, stdout)
        verdict = "passes" if ok else f"fails ({reason})"
        good = ok == ok_expected
        print(f"{'PASS' if good else 'FAIL'}  {label}: check {verdict}")
        if not good:
            problems.append(label)

    try:
        for name in workloads.WORKLOADS:
            shapes = {str(workloads.make_operation(name, seed)["shape"]) for seed in range(1, 6)}
            good = len(shapes) == 1
            print(f"{'PASS' if good else 'FAIL'}  {name}: seeds 1..5 give shape {' / '.join(shapes)}")
            if not good:
                problems.append(f"{name} shape")

        op = workloads.make_operation("trajectory", 1)
        result, workdir, stdout = runner.child(op["files"], op["argv"])
        expect("trajectory as written", op, result, workdir, stdout, True)
        csv = workdir / op["csv"]
        clean = csv.read_text(encoding="ascii")
        lines = clean.split("\n")

        header = lines[0].split(",")
        row = len(lines) // 2
        fields = lines[row].split(",")
        col = header.index("rho22")
        fields[col] = repr(float(fields[col]) + 1e-5)
        csv.write_text("\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]), encoding="ascii")
        expect("defect 1, rho22 off by 1e-5 in one row", op, result, workdir, stdout, False)

        csv.write_text("\n".join(lines[:-2] + [""]), encoding="ascii")
        expect("defect 2, final sample missing", op, result, workdir, stdout, False)

        op = workloads.make_operation("validate-quick", 1)
        result, workdir, stdout = runner.child(op["files"], op["argv"])
        expect("validate-quick as printed", op, result, workdir, stdout, True)
        broken = stdout.replace("PASS ", "FAIL ", 1)
        expect("defect 3, one FAIL line in validate output", op, result, workdir, broken, False)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    print("selftest: " + ("OK" if not problems else "FAIL (" + ", ".join(problems) + ")"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
