"""Makes this directory a package only so that pytest imports
``test_contract.py`` as ``e2e.test_contract`` and leaves ``sys.path`` alone:
without it pytest would prepend this directory for the whole session and
``trace.py`` here would shadow the standard library's ``trace``.  The
benchmark itself is run as scripts (``python3 benchmarks/e2e/run.py``)."""
