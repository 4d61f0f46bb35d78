"""EXT2 — extension: OpenCL-style device execution with profiling.

Paper §V: "Currently, EASYPAP only partially supports OpenCL: users can
observe animated output of kernels, but monitoring and trace exploration
are not yet implemented.  These features will soon be developed by
leveraging OpenCL profiling events."

Our SIMT device simulator provides exactly that: the mandel ``ocl``
variant runs one work-group per tile in lockstep and produces the same
timelines/traces as CPU variants.  This bench measures the divergence
penalty (boundary tiles stall on their slowest lane) as a function of
work-group size.
"""

from _common import fmt_table, report
from claims import ext_gpu, measure_ext_gpu


def test_ext_gpu(benchmark):
    out = benchmark.pedantic(measure_ext_gpu, args=(256, 128, 256), rounds=1, iterations=1)
    table = fmt_table(
        ["group size", "divergence penalty", "makespan (ms)"],
        [[g, f"{d:.2f}", f"{m * 1e3:.3f}"] for g, d, m in out["groups"]],
    )
    res = out["ocl"]
    kinds = {e.kind for e in res.trace.events}
    text = (
        table
        + f"\n\nmandel ocl variant: {len(res.trace)} profiling events "
        + f"(kinds {sorted(kinds)}), divergence {res.context.data['divergence']:.2f}"
        + f"\n\nhost<->device transfer fraction at dim {out['transfer_dim']}: blur "
        + f"{out['blur_frac'] * 100:.1f}% (transfer-bound stencil) vs mandel "
        + f"{out['mandel_frac'] * 100:.1f}% (compute amortizes the bus)"
        + "\n\nexpected: larger work-groups -> more divergence (the set "
        "boundary crosses more groups' lanes); trace integration is the "
        "paper's stated future work, demonstrated here."
    )
    report("ext_gpu", text)
    ext_gpu(out)
