"""Line-oriented report documents.

Reports are key-value trees with two-space indentation and ``- `` list
items; no external schema.  Every document carries the tool version, the
canonical encoding of its input, and the seed when one was used.  The
``generated`` timestamp is informational and excluded from byte-for-byte
comparisons.  Certificates embedded in a report parse back into objects
that pass their verifiers.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Optional, Tuple, Union

from . import __version__
from .bistellar import FlipTrace, MoveDescriptor
from .collapse import CollapseCertificate, CollapseStep, CollapseVerdict
from .complexes import Face, SimplicialComplex, from_facets
from .recognition import SphereCertificate

Tree = Dict[str, Union[str, "Tree", List[str]]]


def _render(tree: Tree, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    for key, value in tree.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            item_pad = "  " * (indent + 1)
            lines.extend(f"{item_pad}- {item}" for item in value)
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def build_report(
    kind: str,
    body: Tree,
    input_encoding: Optional[str] = None,
    seed: Optional[int] = None,
) -> str:
    header: Tree = {"report": kind, "tool-version": __version__}
    header["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    header["input"] = input_encoding if input_encoding is not None else "-"
    header["seed"] = str(seed) if seed is not None else "-"
    header.update(body)
    return "\n".join(_render(header)) + "\n"


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("generated: ")
    )


# reports nest a few levels; parse_report recurses once per level, so
# deeper input is refused before it can exhaust the interpreter stack
MAX_DEPTH = 64


def parse_report(text: str) -> Tree:
    lines = [l for l in text.splitlines() if l.strip()]
    if any(len(l) - len(l.lstrip(" ")) > 2 * MAX_DEPTH for l in lines):
        raise ValueError(f"report nested deeper than {MAX_DEPTH} levels")

    def parse_block(start: int, indent: int) -> Tuple[Tree, int]:
        tree: Tree = {}
        i = start
        while i < len(lines):
            raw = lines[i]
            depth = (len(raw) - len(raw.lstrip(" "))) // 2
            if depth < indent:
                break
            body = raw.strip()
            if body.startswith("- "):
                break
            if body.endswith(":"):
                key = body[:-1]
                nxt = lines[i + 1].strip() if i + 1 < len(lines) else ""
                if nxt.startswith("- "):
                    items: List[str] = []
                    i += 1
                    while i < len(lines) and lines[i].strip().startswith("- "):
                        inner_depth = (len(lines[i]) - len(lines[i].lstrip(" "))) // 2
                        if inner_depth <= indent:
                            break
                        items.append(lines[i].strip()[2:])
                        i += 1
                    tree[key] = items
                else:
                    sub, i = parse_block(i + 1, indent + 1)
                    tree[key] = sub
            else:
                key, _, value = body.partition(": ")
                tree[key] = value
                i += 1
        return tree, i

    tree, _ = parse_block(0, 0)
    return tree


# -- object encodings ------------------------------------------------


def face_text(face: Face) -> str:
    return " ".join(map(str, face.vertices))


def face_from_text(text: str) -> Face:
    return Face(int(tok) for tok in text.split())


def complex_from_text(text: str) -> SimplicialComplex:
    return from_facets(
        tuple(int(tok) for tok in part.split()) for part in text.split(",")
    )


def step_text(step: CollapseStep) -> str:
    return f"{face_text(step.free_face)} | {face_text(step.coface)}"


def certificate_tree(cert: CollapseCertificate) -> Tree:
    return {
        "steps": [step_text(s) for s in cert.steps],
        "terminal": cert.terminal.canonical_encoding(),
    }


def certificate_from_tree(tree: Tree) -> CollapseCertificate:
    steps = []
    for item in tree.get("steps", []):
        left, _, right = item.partition(" | ")
        steps.append(CollapseStep(face_from_text(left), face_from_text(right)))
    return CollapseCertificate(tuple(steps), complex_from_text(tree["terminal"]))


def collapse_report(k: SimplicialComplex, verdict: CollapseVerdict) -> str:
    body: Tree = {
        "status": verdict.status,
        "nodes-explored": str(verdict.nodes_explored),
    }
    if verdict.certificate is not None:
        body["certificate"] = certificate_tree(verdict.certificate)
    return build_report("collapse", body, k.canonical_encoding())


def move_text(move: MoveDescriptor) -> str:
    return (
        f"a-set {face_text(move.a_set)} | alpha {face_text(move.alpha)} | "
        f"beta {face_text(move.beta)} | i {move.i} | {move.classification}"
    )


def move_from_text(text: str) -> MoveDescriptor:
    parts = [p.strip() for p in text.split("|")]
    fields = {}
    for part in parts[:-1]:
        name, _, rest = part.partition(" ")
        fields[name] = rest
    return MoveDescriptor(
        a_set=face_from_text(fields["a-set"]),
        alpha=face_from_text(fields["alpha"]),
        beta=face_from_text(fields["beta"]),
        i=int(fields["i"]),
        classification=parts[-1],
    )


def moves_report(k: SimplicialComplex, moves: List[MoveDescriptor]) -> str:
    body: Tree = {
        "count": str(len(moves)),
        "moves": [move_text(m) for m in moves],
    }
    return build_report("moves", body, k.canonical_encoding())


def flip_trace_tree(trace: FlipTrace) -> Tree:
    return {
        "start": trace.start,
        "end": trace.end,
        "moves": [move_text(m) for m in trace.moves],
    }


def flip_trace_from_tree(tree: Tree) -> FlipTrace:
    return FlipTrace(
        tuple(move_from_text(item) for item in tree.get("moves", [])),
        tree["start"],
        tree["end"],
    )


def sphere_certificate_report(
    m: SimplicialComplex, cert: SphereCertificate
) -> str:
    body: Tree = {
        "verdict": cert.verdict,
        "reason": cert.reason or "-",
        "manifold-status": cert.manifold.status if cert.manifold is not None else "-",
    }
    if cert.ball is not None:
        body["ball"] = cert.ball.canonical_encoding()
        body["ball-evidence"] = cert.ball_evidence or "-"
    if cert.complement is not None:
        body["complement"] = cert.complement.canonical_encoding()
        body["complement-betti"] = " ".join(map(str, cert.betti_of_complement))
    if cert.collapse_certificate is not None:
        body["collapse"] = certificate_tree(cert.collapse_certificate)
    return build_report("sphere-certificate", body, m.canonical_encoding())


def homology_report(k: SimplicialComplex, betti: Tuple[int, ...]) -> str:
    sphere_dim = "-"
    if sum(betti) == 1 and betti[-1] == 1:
        sphere_dim = str(len(betti) - 1)
    body: Tree = {
        "betti": " ".join(map(str, betti)),
        "euler-characteristic": str(k.euler_characteristic()),
        "z2-acyclic": "true" if not any(betti) else "false",
        "z2-homology-sphere-dim": sphere_dim,
    }
    return build_report("homology", body, k.canonical_encoding())


def info_report(k: SimplicialComplex, flags: Dict[str, bool]) -> str:
    body: Tree = {
        "dimension": str(k.dim),
        "f-vector": " ".join(map(str, k.f_vector())),
        "euler-characteristic": str(k.euler_characteristic()),
    }
    for name, value in flags.items():
        body[name] = "true" if value else "false"
    return build_report("info", body, k.canonical_encoding())


def census_report(result) -> str:
    spec = result.spec
    by_fvec = [
        f"{' '.join(map(str, fv))} | {count}"
        for fv, count in sorted(result.counts_by_f_vector().items())
    ]
    body: Tree = {
        "constraint": spec.constraint,
        "vertices": str(spec.n_vertices),
        "exact-vertices": "true" if spec.exact_vertices else "false",
        "max-facets": str(spec.facet_cap),
        "classes": str(result.class_count),
        "labeled-complexes": str(result.labeled_count),
        "search-nodes": str(result.nodes),
        "classes-by-f-vector": by_fvec,
        "representatives": [
            rep.canonical_encoding() for rep in result.representatives
        ],
    }
    return build_report("census", body)
