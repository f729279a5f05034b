"""``BENCH_pipeline.json``: the record the perf-smoke benchmarks write."""

import json
from pathlib import Path

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def record(entry: dict) -> None:
    """Write ``entry`` in place of the recorded entry of the same name, or
    after the last entry when the name is new, so that re-recording a few
    entries (``pytest -k``) changes only their lines."""
    entries = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else []
    names = [e["name"] for e in entries]
    if entry["name"] in names:
        entries[names.index(entry["name"])] = entry
    else:
        entries.append(entry)
    BENCH_FILE.write_text(json.dumps(entries, indent=2) + "\n")
