"""Record reference digests for jobs that have none yet.

Usage (from the root of a checkout): python3 perfbench/record.py

Runs every pool member of every workload that perfbench/refs.json lacks,
once and untraced, and stores the SHA-256 of its normalised stdout.  A
job must exit 0 and pass its count check to be recorded.  Existing
entries are never rewritten: the digests pin the output of the commit
that recorded them, and a change that alters stdout must fail against
them.
"""

from __future__ import annotations

import json
import sys

import jobs
import run


def main() -> int:
    refs = run.load_refs() if run.REFS.is_file() else {}
    run.OUT.mkdir(exist_ok=True)
    for job in jobs.all_jobs():
        if job in refs:
            continue
        res = run.run_job(job, False, 600)
        why = res.get("error") or jobs.count_problem(job, res["stdout"])
        if why:
            print(f"not recorded: {job}: {why}", file=sys.stderr)
            return 1
        refs[job] = {"sha256": run.digest(job, res["stdout"])}
        print(f"recorded {job} ({res['main_s']:.2f}s)")
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
