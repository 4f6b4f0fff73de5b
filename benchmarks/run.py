"""The spherepack benchmark: three closed-loop workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload certify-cold --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --compare parent.jsonl change.jsonl

Workloads (one client each, which waits for every reply before the next
request):

* ``certify-cold``: rounds of the four paper checks, each a fresh
  ``python -m spherepack`` process, in an order shuffled by the seed.
* ``grid-sweep``: one warm process per set-up; rounds of g/g_hat on
  seeded radii, the criterion-8 Hankel check and both axis conventions.
* ``mc-lattice``: one warm process per set-up; rounds of the Monte-Carlo
  density on 1 and 2 threads, then exact shell enumeration.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans around the benchmark's calls into each
module).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any operation failed its correctness check.  Times are in
reference-normalised seconds (see refclock.py).  Every run appends its
full record (machine facts, samples, raw seconds) to
``.bench_results/results.jsonl``; ``--compare`` reads two such files.

The package is always the checkout's own ``src/``; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import expect  # noqa: E402
import refclock  # noqa: E402

WORKLOADS = ("certify-cold", "grid-sweep", "mc-lattice")
#: certify-cold's per-check breakdown of round_s.  Not in BENCHMARK.json,
#: whose metrics every workload must report, but in the results file and
#: gated by --compare with COLD_BOUND.
COLD_COMMANDS = {
    "cold.forms_identities_s": "forms identities",
    "cold.bound_s": "bound",
    "cold.magic_verify_s": "magic verify",
    "cold.axis_check_s": "axis check --convention both",
}
COLD_BOUND = 0.25
SETUPS = 3            # fresh set-ups per run; setup_s is their median
RUN_DEADLINE_S = 165  # a run stops starting work after this, to exit within 180 s


class Run:
    """Wall-clock budget, reference samples and operation ledger of one run."""

    def __init__(self):
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.refs = [refclock.burst()]   # [wall clock, kernel seconds] bursts, workers' too

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def record(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    def spawn(self, argv: list[str]) -> dict:
        """Run a child to completion, then a reference burst.

        Returns the spawn wall time, the child's wall seconds, exit code,
        stdout and stderr.
        """
        env = dict(os.environ, PYTHONPATH=SRC)
        wall = time.time()
        t = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, text=True,
                               capture_output=True, timeout=max(1.0, self.remaining()))
            rc, out, err = p.returncode, p.stdout, p.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = -1, "", "timed out"
        seconds = time.perf_counter() - t
        self.refs.append(refclock.burst())
        return {"spawn_wall": wall, "seconds": seconds, "rc": rc, "out": out, "err": err}


# -- statistics ------------------------------------------------------------------

def tail(xs: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with k samples beyond it.

    k is ten once a run has 44 samples, and a quarter of the samples
    before that, so the tail never drops below the 75th percentile.
    """
    n = len(xs)
    k = min(10, n // 4)
    return sorted(xs)[n - 1 - k], 100.0 * (n - k) / n, n


# -- certify-cold ------------------------------------------------------------------

def _part(child: dict) -> list[float]:
    return [child["seconds"], child["spawn_wall"], child["spawn_wall"] + child["seconds"]]


def cold_check(run: Run, command: str) -> list[float]:
    """One fresh `python -m spherepack <command>` process; returns its timed part."""
    child = run.spawn(["-m", "spherepack", *command.split()])
    fails = expect.check_cli_report(command, child["rc"], child["out"])
    err = child["err"].strip()
    run.record(1, fails + ([err.splitlines()[-1]] if fails and err else []))
    return _part(child)


# A timed sample is a list of parts [wall seconds, start, end]: one part for
# a warm round or a set-up, one per process for a cold round.  Each part is
# normalised by the reference bursts around its own wall-clock interval.
# A rate sample is [count, parts].

def certify_cold(run: Run, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds of the four cold checks.

    The benchmark process pins itself to one CPU for the whole workload,
    so every cold process (which inherits the pin) and every reference
    burst run on the same CPU.  On a virtual machine whose CPUs change
    speed independently, a burst on another CPU than the process it
    normalises tracks it poorly (correlation 0.2-0.4 against 0.85-0.88
    measured on one CPU).  The checks use at most one CPU's worth of work;
    numpy's BLAS sees one CPU and runs single-threaded.
    """
    rng = random.Random(seed)
    out = {"setups": [], "rounds": [], "traced_rounds": [], "throughput": [], "workers": [],
           "cold": {name: [] for name in COLD_COMMANDS}}
    for _ in range(SETUPS):     # set-up: a fresh interpreter importing the CLI
        child = run.spawn(["-c", "import spherepack.cli"])
        run.record(1, [] if child["rc"] == 0 else [f"import failed: {child['err'][-200:]}"])
        out["setups"].append([_part(child)])
    t_start = time.perf_counter()
    i = 0
    while (i == 0 or time.perf_counter() - t_start < seconds) and run.remaining() > 30:
        order = list(COLD_COMMANDS.items())
        rng.shuffle(order)
        if trace and i % 2 == 0:
            out["traced_rounds"].append(
                [cold_trace(run, command, f"r{i}", out["workers"]) for _, command in order])
        else:
            parts = []
            for name, command in order:
                part = cold_check(run, command)
                out["cold"][name].append([part])
                parts.append(part)
            out["rounds"].append(parts)
            out["throughput"].append([len(parts), parts])
        i += 1
    out["rss_mb"] = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    return out


def cold_trace(run: Run, command: str, round_id: str, workers: list) -> list[float]:
    """One traced cold check; returns its timed part up to the end of the traced calls."""
    job = {"mode": "cold-trace", "command": command, "round": round_id, "root": ROOT}
    result = worker(run, job)
    if result is None:
        return [0.0, time.time(), time.time()]
    workers.append(result)
    start, end = result["spawn_wall"], result["end_wall"]
    return [end - start, start, end]


# -- warm workloads ----------------------------------------------------------------

def worker(run: Run, job: dict) -> dict | None:
    """Start benchmarks/worker.py for one job; its failures go to the run's ledger."""
    child = run.spawn([os.path.join(HERE, "worker.py"), json.dumps(job)])
    if child["rc"] != 0:
        run.record(1, [f"worker {job.get('workload', job.get('command'))} exit {child['rc']}: "
                       f"{child['err'].strip()[-300:]}"])
        return None
    result = json.loads(child["out"].splitlines()[-1])
    result["spawn_wall"] = child["spawn_wall"]
    run.refs += result.get("refs", [])
    run.record(result.get("attempted", 1), result.get("fails", []))
    return result


def warm_workload(run: Run, name: str, seed: int, seconds: float, trace: bool) -> dict:
    out = {"setups": [], "rounds": [], "traced_rounds": [], "throughput": [], "rss_mb": [],
           "workers": [], "cold": {}}
    for index in range(SETUPS):
        job = {"mode": "warm", "workload": name, "seed": seed, "index": index,
               "seconds": seconds / SETUPS, "trace": trace, "root": ROOT}
        result = worker(run, job)
        if result is None:
            continue
        out["workers"].append(result)
        start, ready = result["spawn_wall"], result["ready_wall"]
        out["setups"].append([[ready - start, start, ready]])
        for key in ("rounds", "traced_rounds", "throughput"):
            out[key].extend(result[key])
        out["rss_mb"].append(result["rss_mb"])
    return out


# -- metrics -------------------------------------------------------------------------

def _seconds(samples: list, bursts: list | None) -> list[float]:
    """Normalised seconds of each timed sample; raw ones when bursts is None."""
    return [sum(v * (refclock.factor(bursts, a, b) if bursts is not None else 1.0)
                for v, a, b in parts) for parts in samples]


def end_to_end(data: dict, bursts: list | None) -> tuple[dict, dict]:
    """Metric values, normalised by the bursts (raw when None), and the samples behind each."""
    values, samples = {}, {}
    rounds = _seconds(data["rounds"], bursts)
    if rounds:
        values["round_s"] = statistics.median(rounds)
        values["round_s_tail"], pct, n = tail(rounds)
        samples["round_s"] = n
        samples["round_s_tail"] = {"percentile": pct, "samples": n}
    if data["setups"]:
        values["setup_s"] = statistics.median(_seconds(data["setups"], bursts))
        samples["setup_s"] = len(data["setups"])
    if data["rss_mb"]:
        values["peak_rss_mb"] = max(data["rss_mb"])
        samples["peak_rss_mb"] = len(data["rss_mb"])
    if data["throughput"]:
        rates = [count / t for (count, _), t in
                 zip(data["throughput"], _seconds([p for _, p in data["throughput"]], bursts))]
        values["samples_per_s"] = statistics.median(rates)
        samples["samples_per_s"] = len(data["throughput"])
    for key, timed in data["cold"].items():
        if timed:
            values[key] = statistics.median(_seconds(timed, bursts))
            samples[key] = len(timed)
    return values, samples


def per_layer(data: dict, names: list[str], bursts: list | None) -> tuple[dict, dict]:
    """Per-layer values from the traced workers' spans and counts.

    A layer that works inside rounds is the median over traced rounds of
    its per-round total; a layer that works only in set-up (imports,
    series and node-table builds in the warm workloads) is the median over
    set-ups.  A layer the workload never calls reads 0.  Times are
    normalised by the bursts around their round, set-up or cold process
    (raw when bursts is None).
    """
    import spans as spans_mod

    units: dict[str, dict[str, float]] = {}
    covered = total = 0.0
    uncovered = {"interpreter_start": 0.0, "benchmark_glue": 0.0}
    for index, w in enumerate(data["workers"]):
        for round_id, vals in spans_mod.totals(w).items():
            if "end_wall" in w:                       # a traced cold check
                window = [w["spawn_wall"], w["end_wall"]]
            elif round_id == "setup":
                window = [w["spawn_wall"], w["ready_wall"]]
            else:
                window = w["traced_windows"][round_id]
            f = refclock.factor(bursts, *window) if bursts is not None else 1.0
            unit = units.setdefault(f"setup.{index}" if round_id == "setup" else round_id, {})
            for k, v in vals.items():
                unit[k] = unit.get(k, 0.0) + (v * f if k.endswith("_s") else v)
        offset = w["t0_wall"] - w["spawn_wall"]
        end = w.get("end", w.get("ready"))
        traced = [s for s in w["spans"] if s["name"] == "round"]
        timeline = end + sum(s["end"] - s["start"] for s in traced)
        inside = spans_mod.covered(w, 0.0, end) + sum(
            spans_mod.covered(w, s["start"], s["end"]) for s in traced)
        covered += inside
        total += offset + timeline
        uncovered["interpreter_start"] += offset
        uncovered["benchmark_glue"] += timeline - inside
    rounds = [u for k, u in units.items() if not k.startswith("setup.")]
    setups = [u for k, u in units.items() if k.startswith("setup.")]
    values = {}
    for name in names:
        src = rounds if any(name in u for u in rounds) else setups
        xs = [u.get(name, 0.0) for u in src]
        values[name] = statistics.median(xs) if xs else 0.0
    mc, mc2, dec = (values.get("packing.mc_s", 0.0), values.get("packing.mc_threads_s", 0.0),
                    values.get("lattice.decode_s", 0.0))
    values["packing.thread_speedup"] = mc / mc2 if mc2 else 0.0
    values["packing.sampler_s"] = mc - dec if dec else 0.0
    points = statistics.median([u.get("lattice.decode_points", 0.0) for u in rounds] or [0.0])
    values["lattice.decode_points_per_s"] = points / dec if dec else 0.0
    values["trace.coverage"] = covered / total if total else 0.0
    traced, plain = _seconds(data["traced_rounds"], bursts), _seconds(data["rounds"], bursts)
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                                  if traced and plain else 0.0)
    detail = {"units": {"rounds": len(rounds), "setups": len(setups)},
              "uncovered_s": uncovered}
    return values, detail


# -- facts ----------------------------------------------------------------------------

def machine_facts() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, index, name)) as fh:
                    fields[name] = fh.read().strip()
            if fields["type"] != "Instruction":
                caches[f"L{fields['level']}"] = _size_bytes(fields["size"])
    except OSError:
        pass
    rev = None
    # an exported checkout has no .git, and git would search the parent directories
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    with open(os.path.join(SRC, "spherepack", "__init__.py")) as fh:
        version = re.search(r'__version__ = "([^"]+)"', fh.read())
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "spherepack": version.group(1) if version else None,
            "git_revision": rev, "src_sha256": digest.hexdigest(),
            "cache_bytes": caches, "llc_bytes": caches.get(max(caches)) if caches else None}


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


# -- main --------------------------------------------------------------------------------

def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: the result record written to the results file."""
    import worker as sizes

    bench = load_benchmark()
    cpus = os.sched_getaffinity(0)
    pinned = min(cpus) if workload == "certify-cold" else None
    if pinned is not None:
        os.sched_setaffinity(0, {pinned})
        try:
            run = Run()
            data = certify_cold(run, seed, seconds, trace)
        finally:
            os.sched_setaffinity(0, cpus)
    else:
        run = Run()
        data = warm_workload(run, workload, seed, seconds, trace)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        values, samples = per_layer(data, [m["name"] for m in declared], run.refs)
        raw_values = per_layer(data, [m["name"] for m in declared], None)[0]
    else:
        values, samples = end_to_end(data, run.refs)
        raw_values = end_to_end(data, None)[0]
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing:
        run.record(0, [f"no samples for {', '.join(missing)}"])
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    cold = {name: {"value": values[name], "unit": "s", "better": "lower", "bound": COLD_BOUND}
            for name in COLD_COMMANDS if name in values}
    facts = machine_facts()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "pinned_cpu": pinned,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": facts,
        "inputs": {"sweep_radii": sizes.SWEEP_RADII, "hankel_radii": sizes.HANKEL_RADII,
                   "mc_samples": sizes.MC_SAMPLES, "mc_radius": sizes.MC_RADIUS,
                   "mc_threads": sizes.MC_THREADS, "setups": SETUPS,
                   "rounds": len(data["rounds"]), "traced_rounds": len(data["traced_rounds"])},
        "metrics": metrics, "cold": cold, "samples": samples,
        "reference_bursts": run.refs,
        "raw_metrics": raw_values,
        "timed": {key: data[key] for key in ("rounds", "traced_rounds", "setups", "cold")},
        "attempted": run.attempted, "failed": len(run.failures),
        "fail_ratio": len(run.failures) / max(run.attempted, 1),
        "failures": run.failures[:20],
        "series_calls": [w.get("series_calls") for w in data["workers"]],
        "series_builds": [w.get("series_builds") for w in data["workers"]],
    }
    if trace:
        sweep = metrics.get("magic.sweep_bytes", {}).get("value")
        record["sweep_bytes_over_llc"] = (sweep / facts["llc_bytes"]
                                          if sweep and facts["llc_bytes"] else None)
        record["spans"] = [{"spawn_wall": w["spawn_wall"], "t0_wall": w["t0_wall"],
                            "spans": w["spans"], "counts": w["counts"]}
                           for w in data["workers"]]
    return record


def write_record(record: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        path = os.path.join(RESULTS, f"trace-{record['workload']}-seed{record['seed']}.json")
        with open(path, "w") as fh:
            json.dump(spans, fh)
        record["spans_file"] = os.path.relpath(path, ROOT)
    with open(os.path.join(RESULTS, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


def print_record(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"rounds={record['inputs']['rounds']} traced_rounds={record['inputs']['traced_rounds']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"fail_ratio={record['fail_ratio']:.4g}")
    for name, m in {**record["metrics"], **record["cold"]}.items():
        n = record["samples"].get(name)
        note = f"  ({n} samples)" if isinstance(n, int) else (
            f"  (p{n['percentile']:.0f} of {n['samples']})" if isinstance(n, dict) else "")
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:32s} {value:>14s} {m['unit']}{note}")
    for msg in record["failures"]:
        print(f"  FAILED: {msg}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spherepack", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a spherepack checkout",
              file=sys.stderr)
        return 2
    if args.compare:
        import compare

        return compare.main(*args.compare, load_benchmark())
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    compileall.compile_dir(SRC, quiet=1)
    record = measure(args.workload, args.seed, seconds, bool(args.trace))
    write_record(record)
    print_record(record)
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": max(record["attempted"], 1),
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
