"""The repository's benchmark: seeded workloads, an independent checker and a span tracer."""
