"""Wavefront-domain scheduling (the WorkDomain acceptance story).

Runs the blocked-LU wavefront kernel under the schedule families and
reports the *virtual* makespan of each: the simulator's deterministic
clock, so the numbers are the same on every host.  The claim: on a
dependency-carrying domain, ``static`` scheduling idles on unmet
dependencies while ``dynamic`` keeps pulling ready tasks, so dynamic
beats static by a wide margin.  ``tests/test_paper_claims.py`` checks
the same claim in the tier-1 suite and pins these makespans exactly.

A second table runs one dependency-free kernel under the other domain
kinds (grid / wavefront / slab3d) as an end-to-end smoke of the domain
plumbing: same pixels, different decompositions.
"""

from _common import fmt_table, report
from claims import measure_wavefront, wavefront_schedules


def test_wavefront(benchmark):
    lu, domains = benchmark.pedantic(measure_wavefront, rounds=1, iterations=1)
    lu_rows = [["lu_wavefront-128-4t", s, f"{t * 1e3:.3f} ms"] for s, t in lu.items()]
    dom_rows = [["mandel-64", k, f"{t * 1e3:.3f} ms"] for k, t in domains.items()]
    report("wavefront_domains", "\n".join([
        fmt_table(["config", "schedule", "virtual makespan"], lu_rows),
        f"\ndynamic speedup over static: {lu['static'] / lu['dynamic']:.2f}x\n",
        fmt_table(["config", "domain", "virtual makespan"], dom_rows),
    ]))
    wavefront_schedules(lu)
