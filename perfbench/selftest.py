"""Self-test of the benchmark harness on three small jobs (about 10 s).

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that
  * a wrong reference digest makes the job count as failed;
  * traced and untraced runs print byte-identical output;
  * the self times of a traced job's spans sum to its cli.main span, the
    spans form one tree under cli.main with no negative self time, and
    cli.main's span agrees with the child's own timing of main within the
    measured tracing overhead.
Exits 0 when every check holds.
"""

from __future__ import annotations

import io
import sys

import jobs
import run

SMALL = [
    ["mutate --algebra nakayama:4:5 --sms simples --at 2,3 --allow-composite"],
    ["sms --algebra nakayama:4:6"],
    ["orbits --type E:6/f=1/t=1"],
]


def main() -> int:
    jobs.WORKLOADS["selftest"] = SMALL
    refs = run.load_refs()
    problems = []

    wrong = dict(refs)
    wrong[SMALL[0][0]] = {"sha256": "0" * 64}
    bad = run.benchmark("selftest", 0, 0, False, wrong, log=io.StringIO())
    if not (bad["failed"] == 1 and bad["attempted"] == len(SMALL)):
        problems.append(f"wrong digest: {bad['failed']}/{bad['attempted']} failed, expected 1/{len(SMALL)}")

    good = run.benchmark("selftest", 0, 0, True, refs)
    if good["failed"]:
        problems.append(f"traced run failed: {good['failures']}")
    (_, plain), (_, traced) = good["rounds_detail"][:2]
    for p, t in zip(plain, traced):
        if p.get("stdout") != t.get("stdout"):
            problems.append(f"{p['job']}: traced output differs from untraced")
        spans = t["trace"]["spans"]
        roots = [s for s in spans if s[1] is None]
        if len(roots) != 1 or roots[0][2] != "cli.main":
            problems.append(f"{t['job']}: spans do not form one tree under cli.main")
            continue
        selfs = run.self_times(spans)
        root_s = roots[0][4] - roots[0][3]
        overhead = abs(t["main_s"] - p["main_s"])
        if min(selfs.values()) < 0:
            problems.append(f"{t['job']}: negative self time {selfs}")
        if abs(sum(selfs.values()) - root_s) > 1e-6:
            problems.append(f"{t['job']}: self times sum to {sum(selfs.values())}, cli.main took {root_s}")
        if abs(t["main_s"] - root_s) > max(overhead, 1e-3):
            problems.append(f"{t['job']}: cli.main span {root_s}s vs measured {t['main_s']}s")
        print(f"{t['job']}: cli.main {root_s:.4f}s = sum of {len(selfs)} self times; "
              f"untraced {p['main_s']:.4f}s")

    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
