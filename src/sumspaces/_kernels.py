"""Holds no code; kept only so that the benchmark's tracer can import it.

The power chain that lived here walked the d x d iteration I - (I - A)^N.
The package no longer forms that iterate: the chain is now a reference
oracle in ``tests/oracles.py``.  ``perfbench/tracing.py`` still lists
``sumspaces._kernels`` in ``NAMESPACES`` and ``SPANS`` and imports it by
name, so deleting this file would stop traced benchmark runs.  It goes
when the tracer drops those entries.
"""
