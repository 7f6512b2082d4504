"""Static analysis and runtime sanitizing for the reproduction.

The paper's comparisons are only meaningful while every policy charges
its events through the same accounting path and every simulation is
deterministic.  Two halves check those contracts:

* :mod:`repro.analysis.sanitizer` — an opt-in runtime wrapper that
  re-validates the memory manager's invariants after every simulated
  request (``HybridMemorySimulator(..., sanitize=True)`` or the
  ``REPRO_SANITIZE=1`` environment default).  It is the accounting
  contract's guard: a policy that charges a request zero or two times,
  or leaks a frame, fails the run.
* :mod:`repro.analysis.lint` — the ``python -m repro lint`` front end:
  the syntactic determinism and hygiene rules R002-R005 and R011
  (:mod:`repro.analysis.rules`) plus the opt-in hot-path perf tier
  R016-R018 with its ratchet baseline (:mod:`repro.analysis.perf`).

This ``__init__`` imports nothing, so loading the sanitizer (which the
test suite does on every run) does not load the linter.
"""
