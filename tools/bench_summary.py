"""Print the trajectory of the committed benchmark records.

For each ``BENCH_*.json``, in number order, and each of its workloads: the
gain the record claimed, then for each end-to-end metric the parent and
change medians, change/parent and the pairs in which the change was better.
A record that also kept medians before pace scaling prints them on a line of
their own, marked ``raw``.

    python3 tools/bench_summary.py [FILE ...]

With no FILE, the ``BENCH_*.json`` files at the root of the repository.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def records() -> list:
    """The ``BENCH_*.json`` files at the root, in number order."""
    return sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.search(r"\d+", p.name).group()))


def _line(name: str, parent: float, change: float, better: str) -> str:
    return f"    {name:<18} {parent:>10g} -> {change:<10g} change/parent {change / parent:.3f}  better {better}"


def summary(path: Path) -> list:
    """The lines printed for one record."""
    record = json.loads(path.read_text())
    lines = [f"{path.name}: claim: {record['method'].get('claim') or 'none'}"]
    for workload, run in record["end_to_end"].items():
        lines.append(f"  {workload}")
        for name, m in run["metrics"].items():
            lines.append(_line(name, m["parent"]["median"], m["change"]["median"], m["pairs_change_better"]))
        for name, m in run.get("raw_unscaled", {}).items():
            lines.append(_line(f"{name} raw", m["parent_median"], m["change_median"], m["pairs_change_better"]))
    return lines


def main(argv: list) -> int:
    try:
        for path in [Path(a) for a in argv] or records():
            print("\n".join(summary(path)))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as ``| head`` does
        # nothing more is read; send what is still buffered nowhere, so the
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
