"""README's per-scheme override-key table equals ``schemes.SCHEMES``, so the
documented scenario schema cannot drift from the code."""

import re
from pathlib import Path

from biphoton.schemes import SCHEMES

README = Path(__file__).resolve().parents[1] / "README.md"


def _key_table() -> dict:
    """Scheme id -> [(key, default), ...] from the README table whose
    header starts with ``| Scheme | Override keys``."""
    lines = [line.strip() for line in README.read_text().splitlines()]
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| Scheme | Override keys"))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        scheme, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table[scheme.strip("`")] = [
            (key, None if value == "None" else float(value))
            for key, value in re.findall(r"`(\w+)` = ([^,]+)", keys)]
    return table


def test_readme_key_table_matches_schemes():
    # every key the runner reads, in order, with its default
    assert _key_table() == {scheme: list(entry.defaults.items())
                            for scheme, entry in SCHEMES.items()}
