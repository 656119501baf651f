"""README's key tables equal ``schemes.SCHEMES`` and ``reporting.DEFAULTS``,
so the documented scenario schema cannot drift from the code."""

import json
import re
from pathlib import Path

from biphoton.reporting import DEFAULTS
from biphoton.schemes import SCHEMES

README = Path(__file__).resolve().parents[1] / "README.md"


def _table(header: str) -> dict:
    """First column -> [(key, default text), ...] from the README table
    whose header starts with ``header``."""
    lines = [line.strip() for line in README.read_text().splitlines()]
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = re.findall(r"`(\w+)` = (.+?)(?=, `|$)", keys)
    return table


def test_readme_key_table_matches_schemes():
    # every key the runner reads, in order, with its default
    table = {scheme: [(key, None if value == "None" else float(value))
                      for key, value in keys]
             for scheme, keys in _table("| Scheme | Override keys").items()}
    assert table == {scheme: list(entry.defaults.items())
                     for scheme, entry in SCHEMES.items()}


def test_readme_section_table_matches_defaults():
    # every key of each section, in order, with its default and its type
    table = {path: [(key, json.loads(value)) for key, value in keys]
             for path, keys in _table("| Section | Keys").items()}
    assert table == {path: list(defaults.items()) for path, defaults in DEFAULTS.items()}
    for path, keys in table.items():
        assert [type(v) for _, v in keys] == [type(v) for v in DEFAULTS[path].values()]
