"""Scalar reference implementations the twin-world suites pin against.

``src/`` keeps one engine per layer.  The straightforward per-instance and
per-round versions those engines replaced live here, and only here: the
identity suites run a world on each and assert byte-identical draws,
columns and verdicts.  Nothing in this package is collected as a test.

* :mod:`tests.oracles.launch` — the per-instance launch loop, bound onto
  an orchestrator's ``_create_instances``, with an eager sandbox per row;
* :mod:`tests.oracles.sandbox` — the self-contained sandbox that owns its
  ``Generator``, and handles that run guest code in it;
* :mod:`tests.oracles.lifecycle` — per-instance idle-out, reap events and
  teardown, bound onto an orchestrator's ``_idle_out``, ``_cancel_reaps``
  and ``_terminate``;
* :mod:`tests.oracles.ctest` — the per-round CTest loop, as channel
  subclasses overriding the single window method;
* :mod:`tests.oracles.census` — the set-algebra census reduction;
* :mod:`tests.oracles.fingerprint` — the per-probe Gen 1 and Gen 2
  fingerprint loops, one guest probe per sandbox;
* :mod:`tests.oracles.ground_truth` — co-location read from the placement
  map, the answer the covert verifier must reach.
"""
