"""The benchmark's workloads: fixed `latticegap` CLI arguments.

Each workload is one CLI invocation that a user would type.  The CLI
receives only these fixed arguments; the benchmark seed never reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Every workload asks for the structured report so the oracle can read it.
REPORT_ARGS = ("--format", "structured")

# The two enumeration classes of a cube scan, as the CLI spells them.
SCAN_CLASSES = ("segment-segment", "point-triangle")

# bruteforce.parallel_speedup compares 1 worker with this many.
SPEEDUP_WORKERS = 2

# The certificate steps are stated for cube sizes from 6 on.
CERTIFY_START_K = 6


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    k: int | None = None  # cube size of a scan; None for the certificate
    reduced: bool = False

    @property
    def workers(self) -> int:
        return int(self.argv[self.argv.index("--workers") + 1])

    def with_workers(self, n: int) -> tuple:
        """The same arguments with --workers set to n."""
        i = self.argv.index("--workers")
        return self.argv[:i + 1] + (str(n),) + self.argv[i + 2:]

    @property
    def leaf_k(self) -> int:
        """Cube size for sampled leaf inputs."""
        return self.k if self.k is not None else CERTIFY_START_K


# Why each one is here is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("scan-k3", ("eps", "--d", "3", "--k", "3", "--workers", "2"), k=3),
    Workload("scan-k4-reduce",
             ("eps", "--d", "3", "--k", "4", "--reduce", "--workers", "2"),
             k=4, reduced=True),
    Workload("certify-props",
             ("certify", "--prop1", "--prop2", "--prop31", "--workers", "1")),
    Workload("scan-k5-reduce",
             ("eps", "--d", "3", "--k", "5", "--reduce", "--workers", "2"),
             k=5, reduced=True),
)}
