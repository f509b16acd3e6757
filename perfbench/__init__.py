"""Benchmark for hermkit: workloads, outside-in tracer and compare tool."""
