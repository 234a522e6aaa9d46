"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it times the
core operation with pytest-benchmark and prints the reproduced rows/series so
that ``pytest benchmarks/ --benchmark-only -s`` output doubles as the
reproduction log referenced from EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from repro.compiler import build_execution_plan
from repro.lang import Program


def run_breakpoint_version(executor, breakpoint_program):
    """Measure one breakpoint the paper's way: as its own program version.

    The version is the breakpoint's prefix program (from
    ``split_at_assertions``) with its assertion appended, compiled as a
    one-breakpoint plan, so ``executor.run_plan`` re-simulates the whole
    prefix from ``|0...0>``.  The result is labelled with
    ``breakpoint_program``, i.e. with the breakpoint's index in the source
    program.
    """
    version = Program(breakpoint_program.program.name)
    version.extend(breakpoint_program.program)
    version.append(breakpoint_program.assertion)
    (measured,) = executor.run_plan(build_execution_plan(version))
    return dataclasses.replace(measured, breakpoint=breakpoint_program)


def append_trajectory(path: Path, entry: dict) -> None:
    """Append a timestamped entry to a ``BENCH_*.json`` trajectory file.

    A missing, unreadable or corrupt existing file (truncated write, merge
    damage, or a JSON payload that is not a list) must never take the
    benchmark down: the recorded history is an append-only convenience, so
    the trajectory restarts from this entry instead of raising.
    """
    entries = []
    try:
        entries = json.loads(path.read_text())
    except (OSError, ValueError):
        entries = []
    if not isinstance(entries, list):
        entries = []
    entries.append({"timestamp": time.time(), **entry})
    path.write_text(json.dumps(entries, indent=2) + "\n")


def print_table(title: str, rows: list[dict]) -> None:
    """Print a list of dict rows as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    headers = list(rows[0].keys())
    rendered = [
        [_render(row.get(header, "")) for header in headers] for row in rows
    ]
    widths = [
        max(len(str(header)), max(len(cells[i]) for cells in rendered))
        for i, header in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    for cells in rendered:
        print("  ".join(cells[i].ljust(widths[i]) for i in range(len(headers))))


def print_matrix(title: str, matrix: np.ndarray, row_labels=None, col_labels=None) -> None:
    """Print a probability matrix the way the paper prints Table 3."""
    print(f"\n=== {title} ===")
    matrix = np.asarray(matrix)
    col_labels = col_labels if col_labels is not None else list(range(matrix.shape[1]))
    row_labels = row_labels if row_labels is not None else list(range(matrix.shape[0]))
    header = "      " + "  ".join(f"{c:>7}" for c in col_labels)
    print(header)
    for label, row in zip(row_labels, matrix):
        print(f"{label:>5} " + "  ".join(f"{value:7.4f}" for value in row))


def _render(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)
