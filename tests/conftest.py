"""Suite-wide setup: failing property tests report as failures.

When a property test fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching`` (and libcst with it) to write a patch with the
failing example. libcst's import raises a DeprecationWarning, which this
suite's ``filterwarnings = error`` turns into an INTERNALERROR that ends the
whole session. Importing the module here once, with DeprecationWarning
ignored, makes the plugin's import a lookup that warns nothing.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional
        pass
