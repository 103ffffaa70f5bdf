"""The facet-list file format.

One facet per line, whitespace-separated labels; ``#`` starts a comment and
blank lines are skipped.  Labels are either decimal integers 0..63 or short
alphanumeric tokens; tokens are mapped to the smallest free integers in
first-appearance order, and the mapping is echoed as a header comment when
writing.  Writing always emits the canonical facet order, so a parse/write
cycle is byte-stable.
"""

from __future__ import annotations

import re
import warnings
from typing import Callable, Dict, List, Optional, Tuple

from .complexes import VERTEX_LIMIT, SimplicialComplex, from_facets

_TOKEN = re.compile(r"^[A-Za-z0-9_]+$")


class FacetParseError(ValueError):
    pass


def parse_facets_detailed(
    text: str,
) -> Tuple[SimplicialComplex, Dict[str, int], List[str]]:
    """Parse a facet document; returns (complex, label map, warnings)."""
    raw_lines = text.splitlines()
    facet_tokens: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(raw_lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        for tok in tokens:
            if not _TOKEN.match(tok):
                raise FacetParseError(f"line {lineno}: bad label {tok!r}")
        facet_tokens.append((lineno, tokens))
    if not facet_tokens:
        raise FacetParseError("empty complex: no facet lines")

    numeric_ids = set()
    for _, tokens in facet_tokens:
        for tok in tokens:
            if tok.isdigit():
                numeric_ids.add(int(tok))
    label_map: Dict[str, int] = {}
    next_free = 0
    for lineno, tokens in facet_tokens:
        for tok in tokens:
            if tok in label_map:
                continue
            if tok.isdigit():
                value = int(tok)
                if value >= VERTEX_LIMIT:
                    raise FacetParseError(
                        f"line {lineno}: vertex cap: label {tok} is >= {VERTEX_LIMIT}"
                    )
                label_map[tok] = value
            else:
                while next_free in numeric_ids or next_free in label_map.values():
                    next_free += 1
                if next_free >= VERTEX_LIMIT:
                    raise FacetParseError(
                        f"line {lineno}: vertex cap: more than {VERTEX_LIMIT} labels"
                    )
                label_map[tok] = next_free

    facets = []
    for lineno, tokens in facet_tokens:
        facet = tuple(label_map[tok] for tok in tokens)
        # compared after mapping: "0" and "00" are distinct tokens, one vertex
        if len(set(facet)) != len(facet):
            raise FacetParseError(f"line {lineno}: repeated label in facet")
        facets.append(facet)
    notes: List[str] = []
    seen = set()
    for f in facets:
        key = frozenset(f)
        if key in seen:
            notes.append(f"duplicate facet {' '.join(map(str, sorted(f)))} absorbed")
        seen.add(key)
    complex_ = from_facets(facets)
    if len(complex_.facet_masks) < len(seen):
        notes.append("dominated facets absorbed into larger ones")
    return complex_, label_map, notes


def parse_facets(
    text: str, on_warning: Optional[Callable[[str], None]] = None
) -> SimplicialComplex:
    """Parse a facet document into a complex, warning on normalization."""
    complex_, _, notes = parse_facets_detailed(text)
    emit = on_warning if on_warning is not None else (
        lambda msg: warnings.warn(msg, stacklevel=2)
    )
    for note in notes:
        emit(note)
    return complex_


def write_facets(
    k: SimplicialComplex, labels: Optional[Dict[int, str]] = None
) -> str:
    """Serialize a complex in canonical facet order."""
    lines: List[str] = []
    if labels:
        pairs = " ".join(f"{labels[v]}={v}" for v in sorted(labels))
        lines.append(f"# labels: {pairs}")
        name = lambda v: labels.get(v, str(v))
    else:
        name = str
    for facet in k.facet_tuples():
        lines.append(" ".join(name(v) for v in facet))
    return "\n".join(lines) + "\n"
