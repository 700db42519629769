"""The package's public names: every export resolves, every documented one exists."""

import re
from pathlib import Path

import modlab

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_export_resolves():
    missing = [name for name in modlab.__all__ if not hasattr(modlab, name)]
    assert not missing


def test_readme_names_are_package_attributes():
    quickstart = README.split("## Library quickstart", 1)[1].split("```", 2)[1]
    named = set(re.findall(r"\bml\.(\w+)", quickstart))
    table = README.split("Key entry points:", 1)[1].split("\n\n", 2)[1]
    for row in table.splitlines()[2:]:
        # the first column is one code span: `f(args)` or `f / g / h`
        span = row.split("`")[1]
        named.update(part.split("(")[0].strip() for part in span.split("/"))
    assert {"discrete_modulus", "power_eta", "cluster_set_estimate",
            "SphericalRing", "verify_poletski"} <= named
    assert sorted(name for name in named if not hasattr(modlab, name)) == []
