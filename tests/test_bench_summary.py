"""``tools/bench_summary.py`` reads every committed benchmark record."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_summary.py"
METRICS = ["setup_s", "verify_s", "complete_s", "query_p50_ms", "query_tail_ms", "peak_rss_mb"]
WORKLOADS = {"suites-generic", "deform-third", "rewrite-generic"}


def _run(*args):
    proc = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_every_record_and_workload_is_summarised():
    lines = _run()
    records = [line.split(":")[0] for line in lines if not line.startswith(" ")]
    assert records == sorted((p.name for p in ROOT.glob("BENCH_*.json")), key=lambda n: int(n[6:-5]))
    assert {"BENCH_2.json", "BENCH_9.json", "BENCH_18.json", "BENCH_24.json"} <= set(records)
    assert len(records) >= 15
    workloads = [line.strip() for line in lines if line.startswith("  ") and not line.startswith("   ")]
    assert len(workloads) == 3 * len(records) and set(workloads) == WORKLOADS
    rows = [line.split()[0] for line in lines if line.startswith("    ") and " raw " not in line]
    assert rows == METRICS * len(workloads)


def test_claimed_metric_of_a_record():
    lines = _run(str(ROOT / "BENCH_24.json"))
    assert lines[0] == ("BENCH_24.json: claim: query_p50_ms on rewrite-generic falls (about -15 to -25 % "
                        "expected), better in at least 9 of 10 pairs, by more than the parent's IQR")
    at = lines.index("  rewrite-generic")
    row = next(line for line in lines[at:] if line.split()[0] == "query_p50_ms")
    assert re.fullmatch(r" +query_p50_ms +0\.0378 -> 0\.0318 +change/parent 0\.841  better 10/10", row), row
    assert any(line.split()[:2] == ["verify_s", "raw"] for line in lines)


def test_quiet_when_the_reader_stops():
    # four copies of every record print more than a pipe holds, so the tool
    # is still writing when the reader closes its end, as `| head -n 1` does
    paths = [str(p) for p in ROOT.glob("BENCH_*.json")] * 4
    proc = subprocess.Popen([sys.executable, str(TOOL), *paths], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    assert proc.stdout.readline().startswith("BENCH_")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == ""
