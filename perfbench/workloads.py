"""The benchmark's fixed jobs: the argv a user would type, per workload.

``full`` is what the benchmark times; ``smoke`` runs the same commands at
n <= 6 for the smoke test. ``reference.json`` holds the expected stdout of
every job at both sizes (regenerate and cross-check it with
``make_reference.py``).
"""

from __future__ import annotations

NAMES = ("wilf-chain", "verify")

# count n=8 is the smallest size that takes the parallel path; certify and
# basis at n=7 keep a job under a second so a run holds about a hundred.
SIZES = {
    "full": {"count": 8, "certify": 7, "basis": 7},
    "smoke": {"count": 6, "certify": 6, "basis": 6},
}

# Class expressions of each workload, parsed during set-up. The last two
# are the explicit forbidden sets S of the image of H (j = 3, 4).
CLASSES = {
    "wilf-chain": tuple(f"M(4,{t},{t})" for t in range(1, 6)),
    "verify": (
        "M(4,2,2)",
        "M(4,3,3)",
        "M(4,2,1)",
        "M(4,3,2)",
        "M(4,4,3)",
        "M(4,3,3);312456",
        "M(4,4,4);142356;4512367;3512467",
    ),
}


def jobs(workload: str, size: str) -> list[list[str]]:
    n = SIZES[size]
    if workload == "wilf-chain":
        return [
            ["count", "--class", expr, "--n", str(n["count"]), "--format", "csv"]
            for expr in CLASSES["wilf-chain"]
        ]
    if workload == "verify":
        cert = ["--n", str(n["certify"]), "--format", "json"]
        basis = ["--n", str(n["basis"]), "--format", "json"]
        return [
            ["certify", "--map", "F", "--k", "4", "--i", "1", *cert],
            ["certify", "--map", "G", "--k", "4", *cert],
            ["certify", "--map", "H", "--k", "4", "--j", "3", *cert],
            ["basis", "--k", "4", "--j", "3", *basis],
            ["basis", "--k", "4", "--j", "4", *basis],
        ]
    raise KeyError(workload)


def key(argv: list[str]) -> str:
    return " ".join(argv)
