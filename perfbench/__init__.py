"""Benchmark of vrfrbs; see README.md in this directory."""
