"""Benchmark harness: preset scenarios and the callable-based sweep."""
