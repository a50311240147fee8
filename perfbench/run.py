"""End-to-end and per-layer benchmark of the smsquiver CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mesh|sms|mutation --seed N \
        --seconds S --trace 0|1

Every job is one `smsquiver.cli.main(argv)` call in a fresh interpreter
(perfbench/child.py), with stdout captured.  Jobs run one at a time from
this process: a closed loop with one client, so process-global caches
start cold for every job, as they do for a CLI user.  The workload's jobs
run in rounds until the next round would overrun --seconds (at least one
round).  Seed 0 runs fixed job lists; other seeds draw each job from a
pool of similar inputs (perfbench/jobs.py).  A job fails on a non-zero
exit code, on a stdout digest that differs from perfbench/refs.json, or
on a failed count check.

--trace 0 reports, per workload:
  wall_s        sum over jobs of the fastest in-child time of cli.main
  setup_s       sum over jobs of the median child wall time minus cli.main
                (interpreter start, `import smsquiver`, exit)
  peak_rss_mib  highest peak RSS of any child
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of perfbench/tracer.py (all `.s` values are self times: span
duration minus child spans) and the tracing overhead.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The line before it also gives fail_ratio and the
run metadata; spans and full results go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFS = Path(__file__).resolve().parent / "refs.json"
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 150.0  # hard stop, so that one run ends well within three minutes

# (metric, span name whose self time it sums)
SELF_TIMES = (
    ("ztquiver.quotient.s", "ztquiver.quotient"),
    ("ztquiver.automorphisms.s", "ztquiver.automorphisms"),
    ("meshcat.quotient_hom_table.s", "meshcat.quotient_hom_table"),
    ("meshcat.fast_table.s", "meshcat.fast_table"),
    ("meshcat.oracle_table.s", "meshcat.oracle_table"),
    ("configs.enumerate_configurations.s", "configs.enumerate_configurations"),
    ("configs.orbit_decomposition.s", "configs.orbit_decomposition"),
    ("brauer.count_brauer_trees.s", "brauer.count_brauer_trees"),
    ("nakayama.is_sms.s", "nakayama.is_sms"),
    ("nakayama.ext_closure.s", "nakayama.ext_closure"),
    ("nakayama.orthogonal_candidates.s", "nakayama.orthogonal_candidates"),
    ("nakayama.minimal_left_approximation.s", "nakayama.minimal_left_approximation"),
    ("nakayama.minimal_right_approximation.s", "nakayama.minimal_right_approximation"),
    ("nakayama.mutate_left.s", "nakayama.mutate_left"),
    ("nakayama.mutate_right.s", "nakayama.mutate_right"),
    ("mutation.build_mutation_quiver.s", "mutation.build_mutation_quiver"),
    ("cli.main.s", "cli.main"),
)
SPAN_CALLS = (
    ("meshcat.fast_table.calls", "meshcat.fast_table"),
    ("meshcat.oracle_table.calls", "meshcat.oracle_table"),
    ("nakayama.is_sms.calls", "nakayama.is_sms"),
    ("nakayama.ext_closure.calls", "nakayama.ext_closure"),
    ("nakayama.mutate_left.calls", "nakayama.mutate_left"),
    ("nakayama.mutate_right.calls", "nakayama.mutate_right"),
)
COUNTED_CALLS = (
    ("ztquiver.deck.calls", "ztquiver.deck"),
    ("ztquiver.canonical.calls", "ztquiver.canonical"),
    ("nakayama.extension_middles.calls", "nakayama.extension_middles"),
    ("nakayama.stable_hom_dim.calls", "nakayama.stable_hom_dim"),
    ("linalg.integer_rank.calls", "linalg.integer_rank"),
)


def child_env() -> dict:
    """The caller's environment without anything that changes what runs.

    A user's SMSQUIVER_CACHE_DIR would serve hom tables from disk, and
    PYTHON* variables could redirect imports; the hash seed is fixed so
    that set iteration order, and with it the timing, repeats.
    """
    env = {k: v for k, v in os.environ.items()
           if k != "SMSQUIVER_CACHE_DIR" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(job: str, trace: bool, timeout: float) -> dict:
    """Run one job in a fresh interpreter; never two at once."""
    trace_file = OUT / "child-trace.json"
    cmd = [sys.executable, str(CHILD), str(SRC), str(trace_file) if trace else "-", "--",
           *shlex.split(job)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"job": job, "error": f"timed out after {timeout:.0f}s"}
    child_s = time.perf_counter() - start
    try:
        report = json.loads(proc.stderr.splitlines()[-1])
    except (IndexError, ValueError):
        return {"job": job, "error": f"exit {proc.returncode}: {proc.stderr[-300:]!r}"}
    res = {"job": job, "code": report["code"], "stdout": proc.stdout,
           "main_s": report["main_s"], "setup_s": child_s - report["main_s"],
           "rss_kib": report["rss_kib"]}
    if report["code"] != 0:
        res["error"] = f"exit {report['code']}: {proc.stderr[-300:]!r}"
    if trace and "error" not in res:
        res["trace"] = json.loads(trace_file.read_text())
    return res


def digest(job: str, stdout: str) -> str:
    return hashlib.sha256(jobs.normalise(job, stdout).encode()).hexdigest()


def problem(res: dict, refs: dict) -> str | None:
    """Why a job counts as failed, or None."""
    if "error" in res:
        return res["error"]
    ref = refs.get(res["job"])
    if ref is None:
        return "no reference digest"
    if digest(res["job"], res["stdout"]) != ref["sha256"]:
        return "stdout digest differs from the reference"
    return jobs.count_problem(res["job"], res["stdout"])


def self_times(spans: list) -> dict:
    """Self time per span name: duration minus the durations of child spans."""
    own = {sid: end - start for sid, _, _, start, end in spans}
    for sid, parent, _, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    out: dict = defaultdict(float)
    for sid, _, name, _, _ in spans:
        out[name] += own[sid]
    return out


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer totals over the traced jobs of one round."""
    selfs: dict = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    distinct = 0
    bfs_mutations = 0
    for tr in traces:
        for name, s in self_times(tr["spans"]).items():
            selfs[name] += s
        names = {sid: name for sid, _, name, _, _ in tr["spans"]}
        for _, parent, name, _, _ in tr["spans"]:
            calls[name] += 1
            if name.startswith("nakayama.mutate_") and names.get(parent) == "mutation.build_mutation_quiver":
                bfs_mutations += 1
        counts.update(tr["counts"])
        distinct += tr["extension_middles.distinct"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {metric: selfs[name] for metric, name in SELF_TIMES}
    m.update({metric: calls[name] for metric, name in SPAN_CALLS})
    m.update({metric: counts[name] for metric, name in COUNTED_CALLS})
    m["configs.configurations.count"] = counts["configs.configurations"]
    m["nakayama.is_sms.accept_ratio"] = ratio(counts["nakayama.is_sms.accepted"],
                                               calls["nakayama.is_sms"])
    m["nakayama.extension_middles.distinct_ratio"] = ratio(
        distinct, counts["nakayama.extension_middles"])
    m["mutation.build_mutation_quiver.new_vertex_ratio"] = ratio(
        counts["mutation.new_vertices"], bfs_mutations)
    return m


def metadata() -> dict:
    meta = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip()
        meta["commit"] = git("rev-parse", "HEAD") or None
        meta["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return meta


def benchmark(workload: str, seed: int, seconds: float, trace: bool, refs: dict,
              log=sys.stderr) -> dict:
    """Run the workload in rounds; return the metrics and every job result."""
    OUT.mkdir(exist_ok=True)
    job_list = jobs.select(workload, seed)
    run_job("classify A:2/f=1/t=1", False, 60)  # warm the bytecode cache; not counted
    rounds: list[tuple[bool, list[dict]]] = []
    failures: list[str] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        results = []
        for job in job_list:
            left = RUN_LIMIT_S - (time.perf_counter() - started)
            if left <= 0:
                break
            res = run_job(job, traced, left)
            results.append(res)
            why = problem(res, refs)
            if why:
                failures.append(f"{job}: {why}")
                print(f"FAIL {job}: {why}", file=log)
        rounds.append((traced, results))
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        need_more = trace and len(rounds) < 2
        if elapsed >= RUN_LIMIT_S or (not need_more and elapsed + longest > seconds):
            break

    def per_job(stat, traced: bool, key: str) -> float:
        by_job: dict = defaultdict(list)
        for was_traced, results in rounds:
            if was_traced == traced:
                for res in results:
                    if key in res:
                        by_job[res["job"]].append(res[key])
        return sum(stat(v) for v in by_job.values())

    attempted = sum(len(results) for _, results in rounds)
    metrics = {
        # The work is deterministic and other tenants' load only ever slows
        # it, in bursts of seconds: a job's fastest round is its steadiest
        # estimate (on a shared 2-vCPU host, the quartile spread of mesh
        # over ten seeds was 12% against 23% for the median).  Set-up time
        # is reported as the median.
        "wall_s": per_job(min, False, "main_s"),
        "setup_s": per_job(statistics.median, False, "setup_s"),
        "peak_rss_mib": max((r.get("rss_kib", 0) for t, rs in rounds if not t
                             for r in rs), default=0) / 1024,
    }
    layers = {}
    if trace:
        per_round = [layer_metrics([r["trace"] for r in rs if "trace" in r])
                     for t, rs in rounds if t]
        layers = {k: statistics.median_low(m[k] for m in per_round)
                  for k in (per_round[0] if per_round else layer_metrics([]))}
        layers["trace.overhead_s"] = per_job(min, True, "main_s") - metrics["wall_s"]
    job_s = {r["job"]: [] for _, rs in rounds for r in rs}
    for t, rs in rounds:
        for r in rs:
            job_s[r["job"]].append(None if "main_s" not in r else
                                   {"traced": t, "main_s": r["main_s"], "setup_s": r["setup_s"]})
    return {"workload": workload, "seed": seed, "jobs": job_list, "rounds": len(rounds),
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "metrics": metrics, "layers": layers, "job_s": job_s, "rounds_detail": rounds}


def load_refs() -> dict:
    return json.loads(REFS.read_text())


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "smsquiver" / "cli.py").is_file():
        print(f"error: no smsquiver sources under {SRC}", file=sys.stderr)
        return 2
    if not REFS.is_file():
        print(f"error: missing reference digests {REFS}", file=sys.stderr)
        return 2

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), load_refs())
    meta = metadata()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = result.pop("rounds_detail")
    spans = [{"job_id": f"r{i}.j{j}", "job": r["job"], **r["trace"]}
             for i, (_, rs) in enumerate(rounds) for j, r in enumerate(rs) if "trace" in r]
    if spans:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(spans))
    result["meta"] = meta
    result["fail_ratio"] = f"{result['failed']}/{result['attempted']}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()}
    summary = {"workload": args.workload, "seed": args.seed, "rounds": result["rounds"],
               "jobs": len(result["jobs"]), "fail_ratio": result["fail_ratio"], **meta}
    print("# " + json.dumps(summary))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
