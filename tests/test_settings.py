"""The warning filters of pyproject.toml, which every test runs under."""

import warnings

import pytest


def test_mypy_extensions_typeddict_warning_is_ignored():
    # raised by pytest's assertion rewriting while it reports a failing
    # hypothesis property; as an error it would hide the falsifying example
    warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)


def test_other_deprecation_warnings_are_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some other API is deprecated", DeprecationWarning)
