"""Measurement spine: the benchmark every performance claim is measured with.

See ``README.md`` in this directory.  ``run.py`` is the entry point
``BENCHMARK.json`` names; ``python -m benchmarks.spine`` is the same CLI.
"""
