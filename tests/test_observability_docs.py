"""docs/OBSERVABILITY.md must stay in sync with the source catalogs.

Like the STATIC_CHECKS sync test, but the catalog is the source
itself: every histogram / trace-span name in ``src/repro`` must be
documented, and every documented name must still exist in the source —
so the doc tables can neither rot nor invent.  Span names built by
f-strings count too: ``f"staticcheck.{check.name}"`` in the source and
``staticcheck.<pass>`` in the doc are one entry, since every span feeds
the histogram of its name.
"""

import pathlib
import re

DOC = pathlib.Path(__file__).parent.parent / "docs" / "OBSERVABILITY.md"
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

HISTOGRAM_CALL = re.compile(r'observe_histogram\(\s*"([^"]+)"')
SPAN_CALLS = (
    re.compile(r'maybe_span\(\s*(?:self\.)?[\w.]+,\s*f?"([^"]+)"'),
    re.compile(r'tracer\.span\(\s*f?"([^"]+)"'),
)
#: An f-string field in the source, or a ``<placeholder>`` in the doc.
PLACEHOLDER = re.compile(r"\{[^}]*\}|<[^>]*>")


def shape(name):
    return PLACEHOLDER.sub("<>", name)


def source_names():
    histograms, spans = set(), set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        histograms.update(HISTOGRAM_CALL.findall(text))
        for pattern in SPAN_CALLS:
            spans.update(shape(name) for name in pattern.findall(text))
    return histograms, spans


def documented_table(section):
    """First-column `code` names of the table under ``### <section>``."""
    text = DOC.read_text()
    match = re.search(
        rf"^### {section}$(.*?)(?=^#{{2,3}} |\Z)",
        text,
        re.MULTILINE | re.DOTALL,
    )
    assert match, f"docs/OBSERVABILITY.md lost its '### {section}' table"
    return set(re.findall(r"^\| `([^`]+)` \|", match.group(1), re.MULTILINE))


def test_every_histogram_is_documented_exactly():
    histograms, _spans = source_names()
    assert histograms, "histogram scan found nothing — regex rotted?"
    assert documented_table("Histograms") == histograms


def test_every_span_is_documented_exactly():
    _histograms, spans = source_names()
    assert spans, "span scan found nothing — regex rotted?"
    assert {shape(name) for name in documented_table("Spans")} == spans
