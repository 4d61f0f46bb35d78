"""Message passing: the communicator, decomposition, launcher.

One communicator, :class:`~repro.mpi.comm.Comm`, over byte lanes; its
ranks are threads of this interpreter (:func:`~repro.mpi.comm.run_world`)
or processes of a persistent pool (:mod:`repro.mpi.substrate`).
"""
