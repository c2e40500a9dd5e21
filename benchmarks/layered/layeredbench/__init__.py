"""Layered end-to-end benchmark: five closed-loop workloads through the
public surface, three clocks, per-layer budgets measured from outside.
See ``../README.md``."""
