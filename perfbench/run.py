"""DSspy end-to-end benchmark: time from program start to use-case report.

Run from the repository root::

    python3 perfbench/run.py --workload table5-inproc --seed 1 --seconds 30 --trace 0

Workloads: ``table5-inproc`` and ``table5-daemon`` (see
``scenarios.py``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
from spans recorded around the calls into each layer, writes the spans
and a per-program layer table to ``.perfbench/``, and checks that the
traced analysis agrees with the untraced one.  Every metric is printed
as ``name value unit``; the last line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is the ``src/`` tree next to this directory; the
benchmark exits non-zero without a result when it is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("table5-inproc", "table5-daemon")


def commit_of(root: Path) -> str | None:
    """HEAD of the checkout's own git directory, read without git."""
    git = root / ".git"
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
    return None


def source_digest(src: Path) -> str:
    """sha1 over every ``.py``/``.c`` file of the program's source."""
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def layer_table(workload: str, rows: dict[str, dict[str, float]], coverage: float) -> str:
    """Markdown: self-time milliseconds per layer for each program."""
    layers = sorted({k for row in rows.values() for k in row if k not in ("total", "other")})
    layers = [k for k in layers if "not in total" not in k] + ["other"]
    extra = sorted({k for row in rows.values() for k in row if "not in total" in k})
    head = ["program", *layers, "total", "coverage", *extra]
    lines = [
        f"### {workload}",
        "",
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    short = []
    for name, row in rows.items():
        total = row.get("total", 0.0)
        cov = (total - row.get("other", 0.0)) / total if total else 0.0
        if cov < 0.95:
            short.append(name)
        cells = [name] + [f"{row.get(k, 0.0):.1f}" for k in layers]
        cells += [f"{total:.1f}", f"{cov:.1%}"] + [f"{row.get(k, 0.0):.1f}" for k in extra]
        lines.append("| " + " | ".join(cells) + " |")
    verdict = (
        "every program's layers sum to within 5% of its total"
        if not short
        else "layers do NOT sum to within 5% of the total for: " + ", ".join(short)
    )
    lines += ["", f"trace.coverage (all programs): {coverage:.1%}; {verdict}.", ""]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller inputs for the benchmark's own smoke test.
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import repro  # noqa: E402

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import scenarios  # noqa: E402
    from daemonproc import reap_stale_runs  # noqa: E402
    from repro.events.fastpath import kernel_name  # noqa: E402

    import_s = time.perf_counter() - STARTED

    # SIGTERM unwinds like an exception, so daemons are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    reap_stale_runs(WORK)
    run_no = 0
    while True:
        run_dir = WORK / f"run-{os.getpid()}-{run_no}"
        try:
            run_dir.mkdir(parents=True)
            break
        except FileExistsError:
            run_no += 1
    os.environ["TMPDIR"] = str(run_dir)

    result = scenarios.Result()
    try:
        mode = args.workload.split("-")[1]
        scenarios.table5(
            result, mode, args.seconds, args.scale, bool(args.trace), ROOT, run_dir, import_s
        )
    finally:
        for daemon in result.daemons:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    stamp = {
        "workload": args.workload,
        "commit": commit_of(ROOT),
        "source_sha1": source_digest(SRC),
        "record_kernel": kernel_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **result.stamp,
    }
    metrics = result.layers if args.trace else result.e2e
    for problem in result.problems:
        print(f"FAILED: {problem}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        # Absolute wall times drift with the host's speed; they carry no
        # bound and are reported here and in the traced run.
        for name in ("setup_wall_s", "profile_s", "events_per_s", "report_p50_ms",
                     "report_p90_ms", "failed_frac"):
            value, unit = result.layers[name]
            print(f"info {name} {value:.6g} {unit}")
    if args.trace:
        WORK.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}"
        if result.tracer is not None:
            result.tracer.write(WORK / f"spans-{tag}.json")
        if result.layer_rows:
            coverage = result.layers["trace.coverage"][0]
            table = layer_table(args.workload, result.layer_rows, coverage)
            (WORK / f"layers-{args.workload}.md").write_text(
                "stamp: `" + json.dumps(stamp, sort_keys=True) + "`\n\n" + table
            )
            print(table)
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and not result.problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
