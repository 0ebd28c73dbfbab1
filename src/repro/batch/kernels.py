"""The columnar drive loop.

:func:`batch_drive` is the columnar twin of :func:`repro.streams.drive`:
it runs a set of stream consumers over a :class:`PackedTrace`, using the
consumer's kernel from :mod:`repro.batch.kernels_np` where one applies
and a single shared object-decoding pass for everything else.  Kernels
write their results into the consumers' existing state, so the two
paths are interchangeable — the object path remains the reference
oracle and the parity tests in ``tests/batch`` hold them bit-identical.
"""

from __future__ import annotations

from typing import Sequence

from .columns import PackedTrace
from .kernels_np import kernel_for as _kernel_for


def batch_drive(packed: PackedTrace, consumers: Sequence,
                finalize: bool = True):
    """Run consumers over a packed trace: the columnar ``drive``.

    Consumers with a kernel are evaluated columnar; all others share a
    single object-decoding pass over :meth:`iter_groups` (still decoding
    once, not once per consumer).  With ``finalize`` each consumer's
    ``finalize()`` hook is drained afterwards, exactly like
    :func:`repro.streams.drive`.  Returns the packed stream's run
    summary when known.

    Kernels are resolved through this module's ``_kernel_for``, looked
    up at call time, so instrumentation can wrap the resolver in place.
    """
    consumers = list(consumers)
    fallback = []
    for consumer in consumers:
        kernel = _kernel_for(consumer, packed)
        if kernel is None:
            fallback.append(consumer)
        else:
            kernel()
    if fallback:
        for group in packed.iter_groups():
            for consumer in fallback:
                consumer(group)
    if finalize:
        for consumer in consumers:
            hook = getattr(consumer, "finalize", None)
            if hook is not None:
                hook()
    return packed.result
