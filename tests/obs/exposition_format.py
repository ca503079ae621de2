"""A checker for the Prometheus text exposition format.

Used by ``test_exposition_pins.py`` on every pinned document, and by
the CI service smoke on a live ``/metrics`` scrape taken after a
concurrent flood (``PYTHONPATH=src:tests``, no pytest needed)::

    from obs.exposition_format import exposition_errors
    assert exposition_errors(text) == []
"""

import re

_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(?:\{{(?:{_LABEL}(?:,{_LABEL})*)?\}})? (?P<value>\S+)"
)


def exposition_errors(text: str) -> list[str]:
    """What is wrong with a Prometheus text document (empty if nothing).

    Each family carries exactly one ``# HELP`` and one ``# TYPE`` line,
    its samples follow its ``# TYPE`` line with no other family's in
    between, and every sample reads ``name{labels} value``.
    """
    errors = []
    helped, typed, closed = set(), set(), set()
    current = None
    for number, line in enumerate(text.splitlines(), 1):
        where = f"line {number}: {line!r}"
        if line.startswith("# HELP "):
            name = line.split(" ", 3)[2]
            if name in helped:
                errors.append(f"{where}: second HELP for {name}")
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            name = line.split(" ", 3)[2]
            if name in typed:
                errors.append(f"{where}: second TYPE for {name}")
            if name not in helped:
                errors.append(f"{where}: TYPE before HELP for {name}")
            typed.add(name)
            if current is not None:
                closed.add(current)
            current = name
            continue
        match = _SAMPLE.fullmatch(line)
        if match is None:
            errors.append(f"{where}: not a sample")
            continue
        try:
            float(match["value"])
        except ValueError:
            errors.append(f"{where}: value is not a number")
        name = match["name"]
        if name in closed:
            errors.append(f"{where}: samples of {name} are split")
        elif name != current:
            errors.append(f"{where}: sample outside its family")
    for name in helped - typed:
        errors.append(f"{name}: HELP without TYPE")
    return errors
