"""The benchmark harness behind ``perf/run.py``.

Everything here measures ``repro`` *from outside*: it calls the package's
public functions, times them, and checks their outputs.  Nothing under
``src/`` knows the harness exists.
"""
