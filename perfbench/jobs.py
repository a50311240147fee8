"""Workloads of the benchmark: CLI jobs, seeded selection and count checks.

A workload is a list of slots.  Each slot is a pool of CLI argv strings of
the same shape and similar cost (where no other input costs the same, the
same input rendered as JSON); the first member of every pool is the
seed-0 job.  Any other seed draws one member per slot, so a claimed gain
can be re-checked on inputs the change was not tuned on, while the total
work of a run stays close to that of seed 0.
"""

from __future__ import annotations

import json
import random
import re
import shlex

WORKLOADS: dict[str, list[list[str]]] = {
    # Mesh backend only.  Each mesh hot path leads in at least one job: the
    # covering sum and the automorphism backtracker (E7), clique enumeration
    # (A5 f=2); also a non-trivial zeta (t=2), a fractional frequency and
    # the exact-rational oracle (check 9).  The module backend does no work.
    "mesh": [
        ["orbits --type E:7/f=1/t=1", "orbits --type E:7/f=1/t=1 --format json"],
        ["orbits --type E:6/f=1/t=1", "orbits --type D:7/f=1/t=1"],
        ["orbits --type E:6/f=1/t=2", "orbits --type E:6/f=1/t=2 --format json"],
        ["orbits --type D:6/f=1/3/t=1", "orbits --type D:6/f=2/3/t=1"],
        ["enumerate --type A:5/f=2/t=1", "enumerate --type A:5/f=2/t=2"],
        ["hom --type E:6/f=1/t=1", "hom --type D:7/f=1/t=1"],
        ["brauer --edges 8", "brauer --edges 8 --format json"],
        ["check --only 9"],
    ],
    # Module backend, classification only: the generation engine
    # (is_sms -> extension closure -> extension_middles -> pushouts ->
    # integer_rank) over algebras where most candidates are systems and
    # where most are not.  No approximation or mutation runs.
    "sms": [
        ["sms --algebra nakayama:5:6 --bound 30", "sms --algebra nakayama:2:11"],
        ["sms --algebra nakayama:3:7", "sms --algebra nakayama:4:7"],
        ["sms --algebra nakayama:2:9", "sms --algebra nakayama:3:9"],
        ["sms --algebra nakayama:4:6", "sms --algebra nakayama:7:4"],
        ["sms --algebra nakayama:6:4", "sms --algebra nakayama:5:5"],
        ["check --only 5"],
    ],
    # Module backend, mutation: approximations, pushout cones (left),
    # pullback cocones (right) and the BFS, reusing the generation engine
    # through the mutation argument checks and ext_closure.  Other seeds
    # start the BFS from another system, or mutate at a subset conjugate
    # under the cyclic symmetry of N(e, L): the same work in another order.
    "mutation": [
        [
            "quiver --algebra nakayama:3:7 --dir both --allow-composite",
            "quiver --algebra nakayama:3:7 --dir both --allow-composite --start 1:1,2:1,3:4",
            "quiver --algebra nakayama:3:7 --dir both --allow-composite --start 1:1,2:2,3:6",
        ],
        [
            "quiver --algebra nakayama:4:5 --dir both --allow-composite",
            "quiver --algebra nakayama:4:5 --dir both --allow-composite --start 1:1,2:1,3:2,4:4",
            "quiver --algebra nakayama:4:5 --dir both --allow-composite --start 1:1,2:2,3:4,4:1",
        ],
        [
            "quiver --algebra nakayama:5:6 --dir left --bound 30",
            "quiver --algebra nakayama:5:6 --dir left --bound 30 --start 1:1,2:1,3:1,4:2,5:5",
            "quiver --algebra nakayama:5:6 --dir left --bound 30 --start 1:1,2:1,3:2,4:5,5:1",
        ],
        [
            "quiver --algebra nakayama:2:9 --dir both",
            "quiver --algebra nakayama:2:9 --dir both --start 1:1,2:7",
            "quiver --algebra nakayama:2:9 --dir both --start 1:2,2:8",
        ],
        [
            "mutate --algebra nakayama:4:5 --sms simples --at 2,3 --allow-composite",
            "mutate --algebra nakayama:4:5 --sms simples --at 1,2 --allow-composite",
            "mutate --algebra nakayama:4:5 --sms simples --at 3,4 --allow-composite",
        ],
        [
            "mutate --algebra nakayama:4:5 --sms simples --at 2,3 --allow-composite --dir right",
            "mutate --algebra nakayama:4:5 --sms simples --at 3,4 --allow-composite --dir right",
            "mutate --algebra nakayama:4:5 --sms simples --at 1,2 --allow-composite --dir right",
        ],
    ],
}

# Configuration counts of quotients, from the classification (f=1, t=1).
CONFIG_COUNTS = {"E:6/f=1/t=1": 418, "E:7/f=1/t=1": 2431}

# Number of simple-minded systems of N(e, L), as `sms` lists them, for the
# algebras whose mutation quiver a job builds: the BFS from the simples
# must reach every system.
SMS_COUNTS = {(3, 7): 20, (4, 5): 14, (5, 6): 42, (2, 9): 6}

_CHECK_TIMING = re.compile(r" \(\d+\.\d\ds\)$", re.MULTILINE)


def select(workload: str, seed: int) -> list[str]:
    """The workload's jobs for a seed: seed 0 takes each pool's first member."""
    slots = WORKLOADS[workload]
    if seed == 0:
        return [pool[0] for pool in slots]
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(pool) for pool in slots]


def all_jobs() -> list[str]:
    return sorted({job for slots in WORKLOADS.values() for pool in slots for job in pool})


def normalise(job: str, stdout: str) -> str:
    """Strip the per-criterion timing `check` prints; nothing else varies."""
    return _CHECK_TIMING.sub("", stdout) if job.startswith("check ") else stdout


def _catalan(n: int) -> int:
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def _algebra(argv: list[str]) -> tuple[int, int]:
    _, e, L = argv[argv.index("--algebra") + 1].split(":")
    return int(e), int(L)


def count_problem(job: str, stdout: str) -> str | None:
    """An independent count check where the mathematics gives one."""
    argv = shlex.split(job)
    lines = stdout.splitlines()
    if argv[0] == "orbits":
        kind = argv[argv.index("--type") + 1]
        if kind in CONFIG_COUNTS:
            if "--format" in argv:
                total = sum(o["size"] for o in json.loads(stdout)["orbits"])
            else:
                total = sum(int(m) for m in re.findall(r"\tsize=(\d+)\t", stdout))
            if total != CONFIG_COUNTS[kind]:
                return f"{total} configurations, expected {CONFIG_COUNTS[kind]}"
    elif argv[0] == "sms":
        e, L = _algebra(argv)
        found = int(lines[0].split()[0])
        if found != len(lines) - 1:
            return f"header says {found} systems, {len(lines) - 1} listed"
        if L == e + 1 and found != _catalan(e):
            return f"N({e},{L}) has {found} systems, expected Catalan {_catalan(e)}"
    elif argv[0] == "quiver":
        e, L = _algebra(argv)
        verts = sum(1 for ln in lines if ln.endswith('";') and "->" not in ln)
        if verts != SMS_COUNTS[(e, L)]:
            return f"N({e},{L}) quiver has {verts} vertices, expected {SMS_COUNTS[(e, L)]}"
    return None
