"""The repository benchmark: three workloads, answer checks and per-layer spans.

``e2ebench/run.py`` is the command; this package holds its parts:

- :mod:`bench.stats` — percentiles with sample counts and quartile spreads;
- :mod:`bench.spans` — the in-memory span recorder, self-time arithmetic,
  the layer probes a traced run installs and the full-collection monitor;
- :mod:`bench.pools` — the spec pools and the seeded op sequences;
- :mod:`bench.answers` — the committed expected answers and their checks;
- :mod:`bench.workloads` — ``image-fresh``, ``matrix-store``, ``daemon-edit``;
- :mod:`bench.report` — metric assembly, provenance and result files.
"""
