"""One benchmark operation, in the fresh interpreter a CLI user would start.

Usage: child.py RESULT_JSON [--trace SPANS_JSON] [-- CLI ARGS...]

Times `import numpy` and then `import spinchain.cli` (together: the set-up
time), then one `cli.main(argv)` call, with no warm-up in between. Without
CLI arguments it only times the import. Writes the timings, the exit code
and the process's peak resident memory to RESULT_JSON. With --trace, the
package's public functions are wrapped (after the import is timed) and the
spans are written to SPANS_JSON when the operation ends.
"""

import json
import sys
import time


def peak_rss_kib() -> int:
    """This process's own peak resident memory (VmHWM).

    Not ru_maxrss: on Linux that keeps the high-water mark of the process
    image replaced by exec, so it would report the peak of the parent
    benchmark process (run.py) whenever that is the larger one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    args = sys.argv[1:]
    argv = args[args.index("--") + 1:] if "--" in args else None
    head = args[:args.index("--")] if "--" in args else args
    result_path = head[0]
    spans_path = head[head.index("--trace") + 1] if "--trace" in head else None

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import spinchain.cli as cli
    t2 = time.perf_counter()
    result = {"numpy_s": t1 - t0, "setup_s": t2 - t0, "package": cli.__file__}

    if argv is not None:
        tracer = None
        if spans_path is not None:
            import spans
            tracer = spans.install()
        t3 = time.perf_counter()
        exit_code = cli.main(argv)
        t4 = time.perf_counter()
        result.update(exit_code=exit_code, op_s=t4 - t3)
        if tracer is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)

    result["peak_rss_kib"] = peak_rss_kib()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
