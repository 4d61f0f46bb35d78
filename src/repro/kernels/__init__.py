"""Built-in kernels, one module each.

A kernel registers itself when its module is imported.
:func:`repro.core.kernel.get_kernel` imports only the module of the
kernel it is asked for; :func:`repro.core.kernel.list_kernels` imports
them all.
"""
