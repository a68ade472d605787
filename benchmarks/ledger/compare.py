"""``--compare OLD.json NEW.json``: diff two ledger result files.

One row per (workload, end-to-end metric) with both medians, the
quartiles where a file holds more than one run, the change and the
metric's bound.  The comparison fails (status 1) when any metric is
worse than its bound, when a *simulated* metric or an exact count (the
``exact`` list of ``interactions.json``) differs at all -- those repeat
exactly for a fixed seed, so any change means the program computes
something else -- or when any workload reported failed operations.
Files that are not comparable (other seed, other workload definitions,
other core count) are refused (status 2).
"""

from __future__ import annotations

import statistics


def incomparable(old: dict, new: dict) -> str | None:
    """Why the two files cannot be compared, or ``None`` when they can."""
    if old["seed"] != new["seed"]:
        return f"seeds differ: {old['seed']} vs {new['seed']}"
    if old["definitions"] != new["definitions"]:
        changed = sorted(
            name
            for name in set(old["definitions"]) | set(new["definitions"])
            if old["definitions"].get(name) != new["definitions"].get(name)
        )
        return f"workload definitions differ: {changed}"
    if old["machine"]["nproc"] != new["machine"]["nproc"]:
        return (
            f"machine classes differ: nproc {old['machine']['nproc']} "
            f"vs {new['machine']['nproc']}"
        )
    return None


def _quartiles(samples: list[float]) -> str:
    if len(samples) < 2:
        return "-"
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return f"{q1:.4g}..{q3:.4g}"


def worsening(old: float, new: float, better: str) -> float:
    """By what share of ``old`` the metric got worse (negative: it improved)."""
    change = (new - old) / old if old else 0.0
    return change if better == "lower" else -change


def compare(old: dict, new: dict, catalog: dict, interactions: dict) -> tuple[list[str], int]:
    """Report lines and exit status for two comparable result files."""
    reason = incomparable(old, new)
    if reason is not None:
        return [f"refusing to compare: {reason}"], 2

    lines = [
        f"{'workload':<13}{'metric':<28}{'old':>12}{'new':>12}{'worse by':>10}"
        f"{'bound':>8}  {'old q1..q3':<23}{'new q1..q3':<23}verdict"
    ]
    status = 0
    for workload in catalog["workloads"]:
        before, after = old["workloads"][workload], new["workloads"][workload]
        for name, spec in catalog["end_to_end"].items():
            a, b = before["end_to_end"][name], after["end_to_end"][name]
            worse = worsening(a["value"], b["value"], spec["better"])
            verdict = "ok" if worse <= spec["bound"] else "WORSE"
            if verdict != "ok":
                status = 1
            lines.append(
                f"{workload:<13}{name:<28}{a['value']:>12.5g}{b['value']:>12.5g}"
                f"{worse:>+10.1%}{spec['bound']:>8.0%}  "
                f"{_quartiles(a.get('samples', [])):<23}"
                f"{_quartiles(b.get('samples', [])):<23}{verdict}"
            )
        for name in interactions["exact"]:
            a, b = before["per_layer"][name]["value"], after["per_layer"][name]["value"]
            verdict = "same" if a == b else "DIFFERS (must repeat exactly)"
            if a != b:
                status = 1
            if a or b:
                lines.append(
                    f"{workload:<13}{name:<28}{a:>12.6g}{b:>12.6g}{'':>18}  {'':<46}{verdict}"
                )
        for label, side in (("old", before), ("new", after)):
            if side["failed"] or not side["correct"]:
                status = 1
                lines.append(
                    f"{workload:<13}{label} file: correct={side['correct']} "
                    f"failed={side['failed']}/{side['attempted']}"
                )
    lines.append("PASS" if status == 0 else "FAIL")
    return lines, status
