"""Message-passing substrate: communicators, decomposition, launcher.

Two rank substrates share one :class:`~repro.mpi.comm.CommBase` API:
the threaded in-process world (:mod:`repro.mpi.comm`) and the
real-process shared-memory world (:mod:`repro.mpi.substrate`).
"""
