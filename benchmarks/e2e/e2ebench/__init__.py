"""The e2e tool-call benchmark: agent-shaped workloads over the whole stack.

See ``benchmarks/e2e/README.md``. Nothing here is imported by ``src/``;
the benchmark measures the system from outside, through its public API.
"""
