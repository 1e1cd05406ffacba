"""Regenerate LAYERS.md: per-layer milliseconds for each Table V program.

Run from the repository root::

    python3 perfbench/layers.py [--seed 1] [--seconds 60]

Runs ``run.py --trace 1`` on ``table5-inproc`` and ``table5-daemon`` and
collects the per-program tables they write to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

HEADER = """\
# Where DSspy's time goes, layer by layer

Self time in milliseconds per layer for each Table V program (scale
1.0), from the traced rounds of `perfbench/run.py --trace 1`. The value
is the median over traced rounds. A layer's self time is its span minus
the spans nested in it, so within one round the layer columns plus
`other` add up to `total`. Each column is its own median, so the row
sums can differ slightly. `total` is the program's wall time from the start of its
tracked run until its report dict is in hand. `other` is time inside
the program span that no layer span covers: benchmark glue, context
managers, and `collector.profiles()`. `coverage` is `(total - other) /
total`. ROADMAP asks for layers that sum to within 5% of the total,
which is coverage of at least 95%. Plain time and daemon CPU time are
shown for reference; they are not part of `total`.

- `events.finish` is `collector.finish()` minus the nested channel
  drain. That is local assembly (`materialize` into profiles).
- `service.client.drain` is `RemoteChannel.drain`: final ship, FIN and
  the daemon's report.
- `service.fin` is `ServiceClient.fin` inside that drain: from sending
  FIN until the report arrives, while the daemon finishes its fold.
- `service.client.connect` is the `RemoteChannel` constructor: connect
  and HELLO.
- `trace.overhead_frac` compares the traced rounds with the untraced
  rounds of the same run. With two or three rounds of each, it is within
  the run-to-run noise.
- `daemon cpu` is the daemon's utime+stime during the program, in
  10 ms ticks.

Regenerate with `python3 perfbench/layers.py`.
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    args = parser.parse_args()
    parts = [HEADER]
    for workload in ("table5-inproc", "table5-daemon"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        parts.append((ROOT / ".perfbench" / f"layers-{workload}.md").read_text())
        parts.append(
            f"correct: {result['correct']}, failed {result['failed']} of "
            f"{result['attempted']}; trace.overhead_frac "
            f"{metrics['trace.overhead_frac']['value']:+.1%} (traced vs untraced rounds); "
            f"events.recorded {metrics['events.recorded']['value']:.0f}, "
            f"usecases.use_cases {metrics['usecases.use_cases']['value']:.0f}, "
            f"service.daemon.folded {metrics['service.daemon.folded']['value']:.0f} per round\n"
        )
    (HERE / "LAYERS.md").write_text("\n".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
