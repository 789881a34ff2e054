"""Write every observable output of dendro on a fixed corpus, to diff two versions.

Usage::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/dump_outputs.py OUT

Through ``dendro.cli.run``, in-process, it writes the exit code, standard
output and standard error of every command, in text and JSON output, on
every tree of up to 5 edges in both flavours, and of ``tensor``,
``product`` and ``pushout`` on trees of up to 3 edges and on fixed JSON
inputs: non-trees, tensors, invalid posets and malformed files.  It then
writes the ``repr`` of the public answers on those posets: validation and
tree reports, classifications, links, sources, ``meta``, isomorphism
witnesses, and the message of every refused constructor call.  Sets are
written sorted, so two runs differ only where an answer does.  pytest
does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from dendro import category, cli, core, structure, terms
from dendro.core import BroadPoset, BroadWord, Flavour, MonotoneMap
from dendro.errors import DendroError

C, P = Flavour.COMMUTATIVE, Flavour.PLANAR
PARTNERS = ("p(q,s)", "p(q(s))", "p()")  # codomains of hom and factor
SCIONS = ("x(y,z)", "x()")
# broad posets as JSON that are not trees, or not broad posets, by flavour
POSETS = {
    "crossed": (P, "abcdx", [("ab", "x"), ("cd", "x"), ("c", "a"), ("d", "b")]),
    "crossed_c": (C, "abcdx", [("ab", "x"), ("cd", "x"), ("c", "a"), ("d", "b")]),
    "square": (C, "ax", [("aa", "x")]),
    "forest": (C, "abcd", [("a", "b"), ("c", "d")]),
    "two_maxima": (P, "abx", [("ab", "x"), ("ba", "x")]),
    "chain3": (C, "abc", [("a", "b"), ("b", "c"), ("a", "c")]),
    "not_transitive": (C, "abc", [("a", "b"), ("b", "c")]),
    "mutual": (P, "ab", [("a", "b"), ("b", "a")]),
    "cycle": (C, "abc", [("ab", "c"), ("c", "a")]),
}
BAD_JSON = {
    "reflexive": {"flavour": "planar", "carrier": ["a"], "relation": [{"source": ["a"], "target": "a"}]},
    "outside": {"flavour": "commutative", "carrier": ["a"], "relation": [{"source": ["z"], "target": "a"}]},
    "flavour": {"flavour": "cyclic", "carrier": [], "relation": []},
    "number": {"flavour": "planar", "carrier": ["a", 1], "relation": []},
    "missing": {"flavour": "planar", "carrier": ["a"]},
}


def poset_json(name: str) -> dict:
    flavour, carrier, pairs = POSETS[name]
    relation = [{"source": list(source), "target": target} for source, target in pairs]
    return {"flavour": flavour.value, "carrier": list(carrier), "relation": relation}


def run(out, *argv: str) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # a flag error
            code = exc.code
    out.write(f"$ {' '.join(argv)}\n[{code}]\n{stdout.getvalue()}{stderr.getvalue()}")


def answer(out, label: str, compute) -> None:
    try:
        value = compute()
    except (DendroError, TypeError, ValueError) as exc:
        value = f"{type(exc).__name__}: {exc}"
    out.write(f"{label}: {value!r}\n")


def pairs(ps) -> list:
    return sorted(core.pair_str((w.letters, t)) for w, t in ps)


def report(out, name: str, poset: BroadPoset) -> None:
    """The public answers on one broad poset."""
    answer(out, f"{name} repr", lambda: poset)
    answer(out, f"{name} meta", lambda: poset.meta)
    answer(out, f"{name} validate", lambda: core.validate(poset))
    answer(out, f"{name} is_dendroidal", lambda: structure.is_dendroidal(poset))
    answer(out, f"{name} classify_all", lambda: sorted(structure.classify_all(poset).items()))
    answer(out, f"{name} links", lambda: pairs(structure.links(poset)))
    answer(out, f"{name} degree", lambda: structure.degree(poset))
    answer(out, f"{name} root", lambda: structure.root(poset))
    answer(out, f"{name} vertices", lambda: pairs(structure.vertices(poset)))
    answer(out, f"{name} sources", lambda: {x: sorted(map(str, poset.sources(x))) for x in sorted(poset.carrier)})
    answer(out, f"{name} relation", lambda: pairs(poset.relation))
    answer(out, f"{name} self-iso", lambda: core.find_isomorphism(poset, poset))


def dump(out) -> None:
    def write_json(name: str, data) -> str:
        path = f"{name}.json"  # in the working directory, so no run's path differs
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    for flavour in (C, P):
        fl = f"--flavour={flavour.value}"
        corpus = [terms.print_term(t) for t in terms.enumerate_trees(5, flavour)]
        small = [t for t in corpus if t.count("e") <= 3]  # up to 3 edges, each named e<n>
        for output in ("--output=text", "--output=json"):
            for t in corpus:
                for command in ("check", "info", "subtrees", "faces", "degeneracies", "dot"):
                    run(out, fl, output, command, t)
                run(out, fl, output, "subtrees", "--maximal", t)
                tree = terms.to_broad(terms.parse_term(t), flavour)
                for partner in PARTNERS:
                    run(out, fl, output, "hom", t, partner)
                    maps = core.enumerate_monotone(tree, terms.to_broad(terms.parse_term(partner), flavour))
                    for m in {id(m): m for m in maps[:1] + maps[-1:]}.values():
                        run(out, fl, output, "factor", t, partner, "--map", cli._map_str(m))
                for leaf in sorted(structure.leaves(tree)):
                    for scion in SCIONS:
                        run(out, fl, output, "graft", t, "--at", leaf, scion)
            files = [write_json(f"{flavour.value}{i}", terms.to_broad(terms.parse_term(t), flavour).to_json())
                     for i, t in enumerate(small)]
            files += [write_json(name, poset_json(name)) for name, (f, _, _) in POSETS.items() if f is flavour]
            for left in files:
                for right in files[:4]:
                    run(out, fl, output, "tensor", left, right)
                    run(out, fl, output, "product", left, right)
        for t in corpus:
            tree = terms.to_broad(terms.parse_term(t), flavour)
            answer(out, f"{t} are_isomorphic", lambda: terms.are_isomorphic(tree, terms.to_broad(terms.to_term(tree), flavour)))
            answer(out, f"{t} code", lambda: terms.canonical_code(tree))
            answer(out, f"{t} tree_isomorphisms", lambda: terms.tree_isomorphisms(tree, tree))
            answer(out, f"{t} subtrees", lambda: len(category.enumerate_subtrees(tree)))
            answer(out, f"{t} faces", lambda: [(f.kind, sorted(f.domain.carrier)) for f in category.all_faces(tree)])
            for leaf in sorted(structure.leaves(tree))[:1]:
                answer(out, f"{t} graft meta", lambda: terms.graft(tree, leaf, terms.to_broad(terms.parse_term("e1(e2)"), flavour)).meta)
            report(out, t, tree)
    for output in ("--output=text", "--output=json"):
        for name, data in BAD_JSON.items():
            path = write_json(name, data)
            run(out, output, "tensor", path, path)
        garbled = "garbled.json"
        with open(garbled, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        run(out, output, "product", garbled, garbled)
        for name in ("crossed", "two_maxima"):
            path = write_json(name, poset_json(name))
            identity = write_json(f"{name}_id", core.identity(BroadPoset.from_json(poset_json(name))).to_json())
            run(out, "--flavour=planar", output, "pushout", identity, identity)
            run(out, "--flavour=planar", output, "tensor", path, path)
    for name in POSETS:
        poset = BroadPoset.from_json(poset_json(name))
        report(out, name, poset)
        if core.validate(poset).ok:
            report(out, f"{name} tensor", core.tensor(poset, poset))
    for name, data in BAD_JSON.items():
        answer(out, f"from_json {name}", lambda: BroadPoset.from_json(data))
    for flavour in (C, P):
        other = P if flavour is C else C
        refused = [
            lambda: BroadPoset(flavour, "ab", [(BroadWord(other, "a"), "b")]),
            lambda: BroadPoset(flavour, "ab", [(("a",), "b")]),
            lambda: BroadPoset(flavour, "ab", [(BroadWord(flavour, "z"), "a"), (BroadWord(flavour, "y"), "b")]),
            lambda: BroadPoset(flavour, "ab", [(BroadWord(flavour, "a"), "a")]),
            lambda: BroadPoset(flavour, ["a", 1], []),
            lambda: BroadPoset(flavour, "ab", [(BroadWord(flavour, "a"), ["b"])]),
            lambda: BroadPoset.build(flavour, "ab", [(("a", 1), "b")]),
            lambda: BroadPoset.build(flavour, "ab", [(("a",), "b", "c")]),
            lambda: BroadPoset.build(flavour, "ab", [(("z",), "a"), (BroadWord(other, "a"), "b")]),
            lambda: BroadPoset.build(flavour, "ab", [(("b", "z"), "a"), (("y",), "b")]),
            lambda: BroadPoset.build(flavour, "ab", [(("a",), "b")]).leq(("b", 1), "a"),
            lambda: BroadPoset.build(flavour, "ab", [(("a",), "b")]).leq(BroadWord(other, "a"), "b"),
            lambda: BroadPoset.build(flavour, "ab", [(("a",), "b")]).sources("z"),
            lambda: MonotoneMap.from_dict(BroadPoset.build(flavour, "a"), BroadPoset.build(flavour, "b"), {"a": "b"}).word(BroadWord(flavour, "a")),
            lambda: category.outer_face(terms.to_broad(terms.parse_term("r(a,b)"), flavour), (BroadWord(other, "ab"), "r")),
            lambda: category.outer_face(terms.to_broad(terms.parse_term("r(a,b)"), flavour), (BroadWord(flavour, "ab"), "r")).domain,
        ]
        for i, call in enumerate(refused):
            answer(out, f"{flavour.value} call {i}", call)


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    with open(sys.argv[1], "w", encoding="utf-8") as out, tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        dump(out)


if __name__ == "__main__":
    main()
