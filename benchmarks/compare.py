"""Compare two results files (JSON lines written by run.py), workload by workload.

For every metric it prints both medians with their quartiles, the ratio
change/parent and a verdict:

* ``better``: the change wins at least nine tenths of the pairs (runs
  paired in file order, ties count for neither) and the medians differ by
  more than the parent's own quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json, or for certify-cold's per-check
  times the bound stored with them (for per-layer metrics, which have no
  bound: the mirror image of ``better``);
* ``unresolved``: the parent's quartile spread is wider than the bound,
  unless every run of the change reads better than every run of the
  parent; for per-layer metrics, any difference that is neither better
  nor worse;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
import statistics


def _load(path: str) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def _values(runs: list[dict], name: str) -> list[float]:
    """The metric's value in each run; certify-cold's per-check times live under "cold"."""
    out = []
    for r in runs:
        m = r["metrics"].get(name) or r.get("cold", {}).get(name)
        if m and m.get("value") is not None:
            out.append(m["value"])
    return out


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, mp, q3 = _quartiles(parent)
    mc = statistics.median(change)
    spread = q3 - q1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(mc - mp) > spread:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(mc - mp) > spread:
            return "worse"
        return "unchanged" if parent == change or mc == mp and spread == 0 else "unresolved"
    if mp and sign * (mc - mp) / abs(mp) > bound:
        return "worse"
    all_better = all(sign * c < sign * p for p in parent for c in change)
    if mp and spread / abs(mp) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(parent_path: str, change_path: str, bench: dict) -> int:
    parent, change = _load(parent_path), _load(change_path)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    worse = 0
    print(f"{'workload':13s} {'metric':30s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>8s}  verdict")
    for key in sorted(set(parent) & set(change)):
        names = [m["name"] for m in (bench["per_layer"] if key[1] else bench["end_to_end"])]
        cold = {name: m for r in parent[key] for name, m in r.get("cold", {}).items()}
        for name in names + sorted(cold):
            a, b = _values(parent[key], name), _values(change[key], name)
            if not a or not b:
                continue
            meta = declared.get(name) or dict(cold[name], name=name)
            v = verdict(a, b, meta.get("better", "lower"), meta.get("bound"))
            worse += v == "worse"
            pa, pb = _quartiles(a), _quartiles(b)
            ratio = pb[1] / pa[1] if pa[1] else float("nan")
            print(f"{key[0]:13s} {name:30s} "
                  f"{pa[1]:12.6g} [{pa[0]:9.4g}, {pa[2]:9.4g}] "
                  f"{pb[1]:12.6g} [{pb[0]:9.4g}, {pb[2]:9.4g}] {ratio:8.4f}  {v}"
                  f"  (n={len(a)}/{len(b)}, {meta['unit']})")
    return 1 if worse else 0
