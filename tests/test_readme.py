"""README's per-scheme override-key table equals ``schemes.SCHEMES``, so the
documented scenario schema cannot drift from the code."""

import re
from pathlib import Path

from biphoton.schemes import SCHEMES

README = Path(__file__).resolve().parents[1] / "README.md"


def _key_table() -> dict:
    """Scheme id -> (keys, defaults) from the README table whose header
    starts with ``| Scheme | Override keys``."""
    lines = [line.strip() for line in README.read_text().splitlines()]
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| Scheme | Override keys"))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        scheme, keys, defaults = (cell.strip() for cell in line.strip("|").split("|"))
        table[scheme.strip("`")] = (
            tuple(re.findall(r"`(\w+)`", keys)),
            {key: float(value)
             for key, value in re.findall(r"`(\w+)` = ([0-9.e+-]+)", defaults)},
        )
    return table


def test_readme_key_table_matches_schemes():
    assert _key_table() == {scheme: (entry.keys, entry.defaults)
                            for scheme, entry in SCHEMES.items()}
