"""Benchmark harness for qrewind: seeded job generator, output checks,
call-boundary tracing, run records and the workload runner."""
