"""Benchmark of the dynamic-BC engine and service (see README.md)."""
