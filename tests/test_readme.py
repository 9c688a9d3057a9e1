"""README.md agrees with the package: every name gdlab exports is
documented, every gdlab name the library example uses exists, and every
option README names is one the CLI takes."""

import argparse
import ast
import os
import re

import gdlab
from gdlab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts):
    with open(os.path.join(ROOT, *parts)) as fh:
        return fh.read()


def test_every_export_is_named_in_readme():
    tree = ast.parse(_read("src", "gdlab", "__init__.py"))
    exported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert exported
    readme = _read("README.md")
    missing = [name for name in exported if not re.search(rf"\b{name}\b", readme)]
    assert not missing, f"exported by gdlab but not named in README.md: {missing}"


def test_library_example_names_resolve():
    [block] = re.findall(r"^```python\n(.*?)^```", _read("README.md"), flags=re.M | re.S)
    used = set(re.findall(r"(?<![\w.])g\.(\w+)", block))
    assert used
    unknown = sorted(name for name in used if not hasattr(gdlab, name))
    assert not unknown, f"README's library example uses names gdlab lacks: {unknown}"


def test_every_readme_flag_is_an_option():
    options = {key.replace("_", "-") for key in cli._OPTIONS}
    options |= {"no-" + key.replace("_", "-") for key, kw in cli._OPTIONS.items()
                if kw.get("action") is argparse.BooleanOptionalAction}
    # pip's and pytest's flags, and the abbreviation README shows refused
    others = {"no-build-isolation", "hypothesis-profile", "run"}
    flags = set(re.findall(r"(?<![\w-])--([a-z][a-z0-9-]*)", _read("README.md")))
    unknown = sorted(flags - options - others)
    assert not unknown, f"README.md names options the CLI does not take: {unknown}"
