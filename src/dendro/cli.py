"""Command line front end.

Exit codes: 0 success, 1 semantic failure (not dendroidal, not monotone,
not maximal, a JSON input that is not a broad poset), 2 parse or flag
error (including malformed JSON), 3 overflow or budget.

Each command imports the modules beyond ``core`` that it runs, so a run
loads only those: ``tensor``, ``product`` and ``pushout`` load ``core`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import core
from .core import BroadPoset, Flavour, MonotoneMap
from .errors import (
    BudgetExceeded,
    ClosureOverflow,
    DendroError,
    DuplicateEdge,
    ParseError,
)


def _word_length(text: str) -> int:
    """The type of ``--max-word-len``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendro",
        description="Broad posets, trees, and the maps between them.",
    )
    parser.add_argument(
        "--flavour",
        choices=[f.value for f in Flavour],
        default=Flavour.COMMUTATIVE.value,
        help="commutative (default) or planar",
    )
    parser.add_argument("--output", choices=["text", "json"], default="text")
    parser.add_argument("--max-word-len", type=_word_length, default=None)
    parser.add_argument("--budget", type=int, default=10**7)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validation and tree report for a term")
    p.add_argument("term")

    p = sub.add_parser("info", help="root, leaves, stumps, inner edges, degree, links")
    p.add_argument("term")

    p = sub.add_parser("subtrees", help="list subtrees, optionally only maximal ones")
    p.add_argument("term")
    p.add_argument("--maximal", action="store_true")

    p = sub.add_parser("faces", help="all face maps of a tree")
    p.add_argument("term")

    p = sub.add_parser("degeneracies", help="all degeneracy maps of a tree")
    p.add_argument("term")

    p = sub.add_parser("hom", help="enumerate monotone maps between two terms")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("factor", help="factor a map into degeneracies, iso, faces")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--map", required=True, dest="assignment", help='e.g. "a=>x,b=>y"')

    p = sub.add_parser("graft", help="graft the second tree onto a leaf of the first")
    p.add_argument("host")
    p.add_argument("--at", required=True, dest="leaf")
    p.add_argument("scion")

    p = sub.add_parser("tensor", help="tensor product of two serialized broad posets")
    p.add_argument("left_file")
    p.add_argument("right_file")

    p = sub.add_parser("product", help="cartesian product of two serialized broad posets")
    p.add_argument("left_file")
    p.add_argument("right_file")

    p = sub.add_parser("pushout", help="pushout of two serialized monotone maps")
    p.add_argument("left_file")
    p.add_argument("right_file")

    p = sub.add_parser("dot", help="Graphviz digraph of a term")
    p.add_argument("term")

    return parser


def _parse_tree(text: str, flavour: Flavour) -> BroadPoset:
    from . import terms
    return terms.to_broad(terms.parse_term(text), flavour)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, or nested too deep
            raise ParseError(str(exc)) from None


def _require_poset(poset: BroadPoset, where: str) -> BroadPoset:
    report = core.validate(poset)
    if not report.ok:
        raise DendroError(f"{where} is not a broad poset: {'; '.join(report.violations)}")
    return poset


def _load_poset(path: str) -> BroadPoset:
    return _require_poset(BroadPoset.from_json(_load_json(path)), path)


def _load_map(path: str) -> MonotoneMap:
    mapping = MonotoneMap.from_json(_load_json(path))
    _require_poset(mapping.domain, f"the domain in {path}")
    _require_poset(mapping.codomain, f"the codomain in {path}")
    return mapping


def _parse_assignment(text: str) -> dict[str, str]:
    assignment: dict[str, str] = {}
    start = 0  # offset of the current part in ``text``
    for raw in text.split(","):
        part = raw.strip()
        if part:
            at = start + len(raw) - len(raw.lstrip())
            if "=>" not in part:
                raise ParseError(f"expected 'a=>b' in map literal, got {part!r}", at)
            key, value = (side.strip() for side in part.split("=>", 1))
            if key in assignment:
                raise ParseError(f"edge {key!r} is assigned twice in map literal", at)
            assignment[key] = value
        start += len(raw) + 1
    return assignment


def _map_str(m: MonotoneMap) -> str:
    return ", ".join(f"{k}=>{v}" for k, v in m.pairs)


def _poset_lines(poset: BroadPoset) -> list[str]:
    rel = sorted(core.pair_str(p) for p in core._relation_pairs(poset))
    return [
        f"carrier: {','.join(sorted(poset.carrier))}",
        f"relation: {'; '.join(rel) if rel else '(reflexive only)'}",
    ]


def cmd_check(args, flavour: Flavour):
    from . import structure
    poset = _parse_tree(args.term, flavour)
    report = structure.is_dendroidal(poset)
    validation = core.validate(poset)  # kept, and read off the vertex map of a tree
    lv = sorted(structure.leaves(poset))
    deg = structure.degree(poset)
    text = [
        f"dendroidal: {str(report.is_dendroidal).lower()}; degree {deg}; "
        f"leaves {','.join(lv) if lv else '(none)'}"
    ]
    for violation in report.violations:
        text.append(f"violation: {violation}")
    payload = {
        "report": report.to_json(),
        "validation": validation.to_json(),
        "degree": deg,
        "leaves": lv,
    }
    return payload, text, 0 if report.is_dendroidal else 1


def cmd_info(args, flavour: Flavour):
    from . import structure
    poset = _parse_tree(args.term, flavour)
    the_root = structure.root(poset)
    lv = sorted(structure.leaves(poset))
    st = sorted(structure.stumps(poset))
    inner = sorted(structure.inner_edges(poset))
    vertex_list = sorted(structure.links(poset), key=lambda p: p[1])
    payload = {
        "poset": poset.to_json(),
        "root": the_root,
        "leaves": lv,
        "stumps": st,
        "inner_edges": inner,
        "degree": len(vertex_list),
        "links": [
            {"source": list(w.letters), "target": t} for w, t in vertex_list
        ],
    }
    text = [
        f"root: {the_root}",
        f"leaves: {','.join(lv) if lv else '(none)'}",
        f"stumps: {','.join(st) if st else '(none)'}",
        f"inner edges: {','.join(inner) if inner else '(none)'}",
        f"degree: {len(vertex_list)}",
        "links: " + "; ".join(core.pair_str(p) for p in vertex_list),
    ]
    return payload, text, 0


def cmd_subtrees(args, flavour: Flavour):
    from . import category
    poset = _parse_tree(args.term, flavour)
    subs = None if args.maximal else category.enumerate_subtrees(poset)  # over its cap, fail first
    # the maximal subtrees are the face domains, each with the kind of its face
    kinds = {domain: kind for kind, domain in category._face_domains(poset)}
    if subs is None:
        subs = category._subtree_order(list(kinds))
    entries = []
    text = []
    for sub in subs:
        kind = kinds.get(sub)
        if args.output == "json":
            entry = {"poset": sub.to_json()}
            if kind is not None:
                entry["face"] = kind.to_json()
            entries.append(entry)
            continue
        rel = sorted(core.pair_str(p) for p in core._relation_pairs(sub))
        line = "{" + ",".join(sorted(sub.carrier)) + "} with "
        line += "; ".join(rel) if rel else "(reflexive only)"
        if kind is not None:
            line += f"  [{kind.describe()}]"
        text.append(line)
    text.append(f"total: {len(subs)}")
    return {"subtrees": entries, "count": len(subs)}, text, 0


def cmd_faces(args, flavour: Flavour):
    from . import category
    poset = _parse_tree(args.term, flavour)
    faces = category.all_faces(poset)
    payload = {
        "faces": [
            {"kind": face.kind.to_json(), "map": face.map.to_json()} for face in faces
        ]
    }
    text = [
        f"{face.kind.describe()}: keeps {{{','.join(sorted(face.domain.carrier))}}}"
        for face in faces
    ]
    text.append(f"total: {len(faces)}")
    return payload, text, 0


def cmd_degeneracies(args, flavour: Flavour):
    from . import category
    poset = _parse_tree(args.term, flavour)
    maps = category.degeneracies(poset)
    payload = {"degeneracies": [m.to_json() for m in maps]}
    text = [f"collapse {max(set(m.domain.carrier) - set(m.codomain.carrier))}: {_map_str(m)}" for m in maps]
    text.append(f"total: {len(maps)}")
    return payload, text, 0


def cmd_hom(args, flavour: Flavour):
    source = _parse_tree(args.source, flavour)
    target = _parse_tree(args.target, flavour)
    maps = core.enumerate_monotone(source, target, args.budget)
    payload = {"count": len(maps), "maps": [dict(m.pairs) for m in maps]}
    text = [_map_str(m) for m in maps]
    text.append(f"total: {len(maps)}")
    return payload, text, 0


def cmd_factor(args, flavour: Flavour):
    from . import category
    source = _parse_tree(args.source, flavour)
    target = _parse_tree(args.target, flavour)
    assignment = _parse_assignment(args.assignment)
    mapping = MonotoneMap.from_dict(source, target, assignment)
    result = category.factorize(mapping)
    composite_ok = result.composite() == mapping
    payload = {"factorization": result.to_json(), "composite_matches": composite_ok}
    text = [f"degeneracies: {len(result.degeneracies)}"]
    for m in result.degeneracies:
        text.append(f"  collapse: {_map_str(m)}")
    text.append(f"iso: {_map_str(result.iso)}")
    text.append(f"faces: {len(result.faces)}")
    for kind in result.kinds:
        text.append(f"  {kind.describe()}")
    text.append(f"composite matches: {str(composite_ok).lower()}")
    return payload, text, 0 if composite_ok else 1


def cmd_graft(args, flavour: Flavour):
    from . import terms
    host = _parse_tree(args.host, flavour)
    scion = _parse_tree(args.scion, flavour)
    result = terms.graft(host, args.leaf, scion)
    payload = {
        "poset": result.to_json(),
        "renamed": result.meta.get("renamed", {}),
        "term": terms.print_term(terms.to_term(result)),
    }
    text = [payload["term"], *_poset_lines(result)]
    renamed = result.meta.get("renamed", {})
    if renamed:
        text.append("renamed: " + ", ".join(f"{k}=>{v}" for k, v in sorted(renamed.items())))
    return payload, text, 0


def cmd_tensor(args, flavour: Flavour):
    left = _load_poset(args.left_file)
    right = _load_poset(args.right_file)
    result = core.tensor(left, right, args.max_word_len)
    return {"poset": result.to_json()}, _poset_lines(result), 0


def cmd_product(args, flavour: Flavour):
    left = _load_poset(args.left_file)
    right = _load_poset(args.right_file)
    result, proj_left, proj_right = core.product(left, right)
    payload = {
        "poset": result.to_json(),
        "projection_left": dict(proj_left.pairs),
        "projection_right": dict(proj_right.pairs),
    }
    return payload, _poset_lines(result), 0


def cmd_pushout(args, flavour: Flavour):
    left_leg = _load_map(args.left_file)
    right_leg = _load_map(args.right_file)
    result, inj_left, inj_right = core.pushout(left_leg, right_leg, args.max_word_len)
    payload = {
        "poset": result.to_json(),
        "injection_left": dict(inj_left.pairs),
        "injection_right": dict(inj_right.pairs),
    }
    return payload, _poset_lines(result), 0


def cmd_dot(args, flavour: Flavour):
    from . import structure
    poset = _parse_tree(args.term, flavour)
    lines = ["digraph tree {", "  rankdir=BT;"]
    for edge in sorted(poset.carrier):
        lines.append(f'  "{edge}";')
    used = set(poset.carrier)  # a stump's point is primed until no edge or point has its name
    for w, target in sorted(structure.links(poset), key=lambda p: p[1]):
        if w.is_empty:
            point = f"stump_{target}"
            while point in used:
                point += "'"
            used.add(point)
            lines.append(f'  "{point}" [shape=point];')
            lines.append(f'  "{point}" -> "{target}";')
        else:
            for child in w.letters:
                lines.append(f'  "{child}" -> "{target}";')
    lines.append("}")
    dot = "\n".join(lines)
    return {"dot": dot}, [dot], 0


_COMMANDS = {
    "check": cmd_check,
    "info": cmd_info,
    "subtrees": cmd_subtrees,
    "faces": cmd_faces,
    "degeneracies": cmd_degeneracies,
    "hom": cmd_hom,
    "factor": cmd_factor,
    "graft": cmd_graft,
    "tensor": cmd_tensor,
    "product": cmd_product,
    "pushout": cmd_pushout,
    "dot": cmd_dot,
}


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, code = _COMMANDS[args.command](args, Flavour(args.flavour))
    except (ParseError, DuplicateEdge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClosureOverflow, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DendroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.output == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in text:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; send what is still buffered nowhere, so
        # that the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
