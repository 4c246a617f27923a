"""``run.py compare A.json B.json``: is B worse than A?

A and B are ``results.json`` files of two suite runs.  Per workload and
end-to-end metric one row: both medians, the ratio with its base (B / A),
the metric's bound, and a verdict —

``ok``          B is not worse than A by more than the bound;
``worse``       it is;
``unresolved``  it would be ``worse``/``ok``, but the run-to-run spread
                (inter-quartile range of the timed rounds, as a share of
                the median, in either run) is wider than the bound, so
                the two cannot be told apart;
``differs``     an exact metric (simulated time, failure share, every
                count, byte total and ``calls.*``) is not bit-equal.

Exit status 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import argparse
import json

import schema


def verdict(a: float, b: float, better: str, bound: float,
            spread: float) -> tuple[float, str]:
    """Ratio B/A and the verdict for one bounded metric."""
    if a == 0:
        return float("inf") if b else 1.0, "ok" if b == a else "worse"
    ratio = b / a
    loss = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if spread > bound:
        return ratio, "unresolved"
    return ratio, "worse" if loss > bound else "ok"


def _spread(entry: dict, name: str) -> float:
    """Run-to-run spread of a metric: known for ``wall_s`` and for
    ``ops_per_s``, its reciprocal; the others have one value per run."""
    if name not in ("wall_s", "ops_per_s"):
        return 0.0
    return float(entry.get("end_to_end_details", {}).get("wall_s.iqr_rel", 0.0))


def compare(a: dict, b: dict) -> tuple[list[list], int]:
    rows: list[list] = []
    bad = 0
    exact = {m.name for m in schema.PER_LAYER if m.exact}
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        ea, eb = wa.get("end_to_end", {}), wb.get("end_to_end", {})
        for m in schema.END_TO_END:
            if m.name not in ea or m.name not in eb:
                continue
            spread = max(_spread(wa, m.name), _spread(wb, m.name))
            ratio, v = verdict(ea[m.name], eb[m.name], m.better, m.bound,
                               spread)
            rows.append([name, m.name, ea[m.name], eb[m.name], ratio,
                         f"{m.bound:.0%}", v])
            bad += v == "worse"
        # exact metrics: the end-to-end pair always gets a row, a
        # per-layer count only when it differs
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        pairs = [(k, ea.get(k), eb.get(k), True)
                 for k in schema.EXACT_END_TO_END]
        pairs += [(k, la.get(k), lb.get(k), False) for k in sorted(exact)]
        for key, va, vb, always in pairs:
            if va is None or vb is None:
                continue
            if va != vb:
                rows.append([name, key, va, vb,
                             vb / va if va else float("inf"), "exact",
                             "differs"])
                bad += 1
            elif always:
                rows.append([name, key, va, vb, 1.0, "exact", "ok"])
    return rows, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare", description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("a", help="results.json of the base run")
    ap.add_argument("b", help="results.json of the run under test")
    args = ap.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        rows, bad = compare(json.load(fa), json.load(fb))
    header = ["workload", "metric", "A", "B", "B/A", "bound", "verdict"]
    table = [header] + [
        [f"{c:.6g}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print(f"\n{bad} row(s) worse or differing (ratios are B / A)")
    return 1 if bad else 0
