#!/usr/bin/env python
"""Diff two ``BENCH_*.json`` benchmark artifacts (or directories of them).

The benchmarks emit machine-readable ``benchmarks/results/BENCH_<name>.json``
files (timings, cache statistics, jobs — see ``benchmarks/conftest.py``).
This tool compares a *baseline* artifact set against a *candidate* set and
exits non-zero when any timing metric regressed by more than the threshold,
which makes performance trajectories enforceable in CI::

    python benchmarks/bench_diff.py benchmarks/baselines benchmarks/results \
        --threshold 50

Directories are matched by file name; single files are compared directly.
Non-timing numeric fields (cache counters, solver work, query counts) are
reported informationally but never fail the diff — they legitimately change
when features land.  Benchmarks present on only one side are reported and
skipped.

``--plot trajectory.svg`` additionally renders the baseline-vs-candidate
timing comparison as a standalone SVG (paired horizontal bars per benchmark,
no external dependencies) that CI uploads as an artifact, so the performance
trajectory is visible at a glance without reading the numeric report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from xml.sax.saxutils import escape as _xml_escape
from typing import Dict, List, Optional, Tuple

#: Timing fields whose increase beyond the threshold is a regression.
TIMING_KEYS = ("total_seconds", "mean_seconds")

#: Fields never worth diffing numerically.
IGNORED_KEYS = ("name", "profile", "rounds")


def load_artifacts(path: str) -> Dict[str, dict]:
    """Load one artifact file or every ``BENCH_*.json`` in a directory.

    Returns a mapping from benchmark name (the ``name`` field, falling back
    to the file stem) to the decoded payload.  Unreadable files raise — a
    missing baseline should fail loudly, not silently pass CI.
    """
    paths: List[str] = []
    if os.path.isdir(path):
        paths = sorted(
            os.path.join(path, entry)
            for entry in os.listdir(path)
            if entry.startswith("BENCH_") and entry.endswith(".json")
        )
    else:
        paths = [path]
    artifacts: Dict[str, dict] = {}
    for file_path in paths:
        with open(file_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        stem = os.path.splitext(os.path.basename(file_path))[0]
        name = str(payload.get("name", stem.replace("BENCH_", "", 1)))
        artifacts[name] = payload
    return artifacts


def _numeric_items(payload: dict, prefix: str = "") -> Dict[str, float]:
    """Flatten the numeric fields of a payload (nested dicts dot-joined)."""
    numbers: Dict[str, float] = {}
    for key, value in payload.items():
        if key in IGNORED_KEYS:
            continue
        label = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            numbers[label] = float(value)
        elif isinstance(value, dict):
            numbers.update(_numeric_items(value, prefix=f"{label}."))
    return numbers


def diff_payloads(
    baseline: dict, candidate: dict, threshold: float
) -> Tuple[List[str], List[str]]:
    """Compare one benchmark payload pair.

    Returns ``(report_lines, regressions)`` where ``regressions`` lists the
    timing metrics that worsened by more than ``threshold`` percent.
    """
    lines: List[str] = []
    regressions: List[str] = []
    base_numbers = _numeric_items(baseline)
    cand_numbers = _numeric_items(candidate)
    all_keys = sorted(set(base_numbers) | set(cand_numbers))
    # Telemetry counters (the RunTelemetry scopes persisted in the BENCH
    # payloads) get their own section: they diff the *work done* — solver
    # conflicts, synthesis passes, attack queries — next to the timings,
    # but never fail the diff on their own.
    plain_keys = [key for key in all_keys if not key.startswith("telemetry.")]
    telemetry_keys = [key for key in all_keys if key.startswith("telemetry.")]

    def _diff_key(key: str, indent: str, label: str) -> None:
        before = base_numbers.get(key)
        after = cand_numbers.get(key)
        if before is None or after is None:
            lines.append(f"{indent}{label:<40} {_fmt(before):>12} -> {_fmt(after):>12}")
            return
        delta = after - before
        pct: Optional[float] = (delta / before * 100.0) if before else None
        pct_text = f"{pct:+7.1f}%" if pct is not None else "    new"
        marker = ""
        if key in TIMING_KEYS and pct is not None and pct > threshold:
            marker = "  REGRESSION"
            regressions.append(f"{key} {pct:+.1f}% (> {threshold:.0f}%)")
        lines.append(
            f"{indent}{label:<40} {_fmt(before):>12} -> {_fmt(after):>12} {pct_text}{marker}"
        )

    for key in plain_keys:
        _diff_key(key, "    ", key)
    if telemetry_keys:
        lines.append("    telemetry counters:")
        for key in telemetry_keys:
            _diff_key(key, "      ", key[len("telemetry."):])
    return lines, regressions


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.4f}"


def diff_artifacts(
    baseline: Dict[str, dict], candidate: Dict[str, dict], threshold: float
) -> Tuple[str, List[str]]:
    """Diff two artifact sets; returns the report text and all regressions."""
    lines: List[str] = []
    regressions: List[str] = []
    names = sorted(set(baseline) | set(candidate))
    for name in names:
        if name not in baseline:
            lines.append(f"  {name}: only in candidate (no baseline) — skipped")
            continue
        if name not in candidate:
            lines.append(f"  {name}: only in baseline (not rerun) — skipped")
            continue
        lines.append(f"  {name}:")
        body, found = diff_payloads(baseline[name], candidate[name], threshold)
        lines.extend(body)
        regressions.extend(f"{name}: {entry}" for entry in found)
    return "\n".join(lines), regressions


# ------------------------------------------------------------------ #
# --plot: the timing trajectory as a standalone SVG artifact
# ------------------------------------------------------------------ #
# Visual spec (light mode): paired horizontal bars per benchmark, baseline
# in blue (#2a78d6) and candidate in orange (#eb6834) — a colorblind-safe,
# contrast-checked pair — on surface #fcfcfb with recessive hairline grid,
# values labelled at every bar tip in ink (never in the series color).

_PLOT = {
    "surface": "#fcfcfb",
    "text_primary": "#0b0b0b",
    "text_secondary": "#52514e",
    "grid": "#e9e8e5",
    "baseline": "#2a78d6",
    "candidate": "#eb6834",
    "font": "-apple-system, 'Segoe UI', 'Helvetica Neue', Arial, sans-serif",
}


def _nice_step(span: float) -> float:
    """A clean tick step (1/2/5 x 10^k) giving ~4 intervals over ``span``."""
    if span <= 0:
        return 1.0
    raw = span / 4.0
    magnitude = 10 ** math.floor(math.log10(raw))
    for factor in (1.0, 2.0, 5.0, 10.0):
        if raw <= factor * magnitude:
            return factor * magnitude
    return 10.0 * magnitude


def _bar_path(x: float, y: float, width: float, height: float, radius: float) -> str:
    """A horizontal bar: square at the baseline (left), rounded data end."""
    radius = min(radius, width, height / 2)
    return (
        f"M {x:.1f} {y:.1f} "
        f"h {width - radius:.1f} "
        f"a {radius:.1f} {radius:.1f} 0 0 1 {radius:.1f} {radius:.1f} "
        f"v {height - 2 * radius:.1f} "
        f"a {radius:.1f} {radius:.1f} 0 0 1 {-radius:.1f} {radius:.1f} "
        f"h {radius - width:.1f} Z"
    )


def render_plot(
    baseline: Dict[str, dict],
    candidate: Dict[str, dict],
    metric: str = "total_seconds",
) -> str:
    """Render the baseline-vs-candidate timing comparison as SVG text.

    One row per benchmark present on both sides (sorted by name), a paired
    bar for the baseline and candidate values of ``metric``, with the
    candidate's relative change labelled at the bar tip.
    """
    rows: List[Tuple[str, float, float]] = []
    for name in sorted(set(baseline) & set(candidate)):
        before = baseline[name].get(metric)
        after = candidate[name].get(metric)
        if isinstance(before, (int, float)) and isinstance(after, (int, float)):
            rows.append((name, float(before), float(after)))

    colors = _PLOT
    # Unit suffix for tick/tip labels: only timing metrics are seconds.
    unit = "s" if metric.endswith("seconds") else ""
    bar_height, pair_gap, group_gap = 14, 2, 18
    group_height = 2 * bar_height + pair_gap
    label_gutter = 16 + max([90] + [len(name) * 7 for name, _, _ in rows])
    plot_width = 460
    margin_top, margin_bottom, margin_right = 64, 34, 96
    height = margin_top + margin_bottom + max(
        1, len(rows)
    ) * (group_height + group_gap)
    width = label_gutter + plot_width + margin_right

    max_value = max([value for _, b, c in rows for value in (b, c)] or [1.0])
    step = _nice_step(max_value)
    axis_max = step * math.ceil(max_value / step) or 1.0

    def x_of(value: float) -> float:
        return label_gutter + plot_width * (value / axis_max)

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="Benchmark timing: baseline vs candidate">'
    )
    parts.append(
        f'<rect width="{width}" height="{height}" fill="{colors["surface"]}"/>'
    )
    parts.append(
        f'<text x="16" y="26" font-family="{colors["font"]}" font-size="14" '
        f'font-weight="600" fill="{colors["text_primary"]}">'
        f"Benchmark timing trajectory ({_xml_escape(metric.replace('_', ' '))})</text>"
    )
    # Legend: two series, swatch + ink label.
    for index, (label, color) in enumerate(
        (("Baseline", colors["baseline"]), ("Candidate", colors["candidate"]))
    ):
        x = 16 + index * 92
        parts.append(
            f'<rect x="{x}" y="38" width="10" height="10" rx="2" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + 15}" y="47" font-family="{colors["font"]}" '
            f'font-size="11" fill="{colors["text_secondary"]}">{label}</text>'
        )

    # Recessive grid + axis ticks (clean numbers).
    tick = 0.0
    while tick <= axis_max + 1e-9:
        x = x_of(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_top - 6}" x2="{x:.1f}" '
            f'y2="{height - margin_bottom}" stroke="{colors["grid"]}" stroke-width="1"/>'
        )
        label = f"{tick:g}{unit}"
        parts.append(
            f'<text x="{x:.1f}" y="{height - margin_bottom + 16}" '
            f'font-family="{colors["font"]}" font-size="10" text-anchor="middle" '
            f'fill="{colors["text_secondary"]}">{label}</text>'
        )
        tick += step

    y = float(margin_top)
    for name, before, after in rows:
        center = y + group_height / 2 + 4
        parts.append(
            f'<text x="{label_gutter - 10}" y="{center:.1f}" text-anchor="end" '
            f'font-family="{colors["font"]}" font-size="11" '
            f'fill="{colors["text_primary"]}">{_xml_escape(name)}</text>'
        )
        for offset, (value, color) in enumerate(
            ((before, colors["baseline"]), (after, colors["candidate"]))
        ):
            bar_y = y + offset * (bar_height + pair_gap)
            bar_width = max(1.0, plot_width * (value / axis_max))
            title = f"{name} {'candidate' if offset else 'baseline'}: {value:.3f}{unit}"
            parts.append(
                f'<path d="{_bar_path(label_gutter, bar_y, bar_width, bar_height, 4)}" '
                f'fill="{color}"><title>{_xml_escape(title)}</title></path>'
            )
            tip = f"{value:.2f}{unit}"
            if offset and before > 0:
                tip += f" ({(after - before) / before * 100.0:+.0f}%)"
            parts.append(
                f'<text x="{label_gutter + bar_width + 6:.1f}" '
                f'y="{bar_y + bar_height - 3:.1f}" font-family="{colors["font"]}" '
                f'font-size="10" fill="{colors["text_secondary"]}">{tip}</text>'
            )
        y += group_height + group_gap

    if not rows:
        parts.append(
            f'<text x="{label_gutter}" y="{margin_top + 20}" '
            f'font-family="{colors["font"]}" font-size="12" '
            f'fill="{colors["text_secondary"]}">no common benchmarks to plot</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_plot(
    baseline: Dict[str, dict],
    candidate: Dict[str, dict],
    path: str,
    metric: str = "total_seconds",
) -> None:
    """Render and write the trajectory SVG."""
    svg = render_plot(baseline, candidate, metric=metric)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json artifacts; nonzero exit on timing regression"
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    parser.add_argument("candidate", help="candidate BENCH_*.json file or directory")
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="allowed timing growth in percent before the diff fails (default 25)",
    )
    parser.add_argument(
        "--plot",
        type=str,
        default="",
        metavar="SVG_PATH",
        help="render the baseline-vs-candidate timing comparison to this SVG file",
    )
    parser.add_argument(
        "--plot-metric",
        type=str,
        default="total_seconds",
        help="timing field plotted by --plot (default total_seconds)",
    )
    args = parser.parse_args(argv)

    baseline = load_artifacts(args.baseline)
    candidate = load_artifacts(args.candidate)
    if not baseline:
        print(f"no BENCH_*.json artifacts found in baseline {args.baseline!r}")
        return 2
    report, regressions = diff_artifacts(baseline, candidate, args.threshold)
    print(f"benchmark diff (threshold {args.threshold:.0f}% on {', '.join(TIMING_KEYS)}):")
    print(report)
    if args.plot:
        write_plot(baseline, candidate, args.plot, metric=args.plot_metric)
        print()
        print(f"wrote {args.plot}")
    if regressions:
        print()
        print("regressions:")
        for entry in regressions:
            print(f"  {entry}")
        return 1
    print()
    print("no timing regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
