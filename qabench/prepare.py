"""Compile a workload's snapshot with the code under test.

Run as a child process by ``run.py`` so the miner's and compiler's heap
never sits in the client process that times requests::

    python3 qabench/prepare.py --graph scale --seed 7 --out qabench/.work/s7

writes ``<out>.snap`` plus ``<out>.json`` with the triple count, the
compile time and the reference answers of the check questions, computed
here by ``GAnswer.answer`` over the freshly built (uncompiled) graph.
The served answers must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

#: Generated people in the scale graph (about 10^5 triples in total).
SCALE_PEOPLE = 17_500


def import_repro(root: Path):
    """Put the checkout's ``src`` on the path; exit 2 when it is missing."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def build_scale_kg(seed: int):
    """dbpedia-mini plus the generated population of ``gen``."""
    from repro.datasets import build_dbpedia_mini
    from repro.rdf import IRI, Literal, Triple, vocab

    kg = build_dbpedia_mini()
    named = {"rdf:type": vocab.RDF_TYPE, "rdfs:label": vocab.RDFS_LABEL}
    population = gen.generate_population(seed, SCALE_PEOPLE)
    triples = []
    for s, p, o in population.triples:
        obj = Literal(o[1]) if isinstance(o, tuple) else IRI(o)
        triples.append(Triple(IRI(s), named.get(p) or IRI(p), obj))
    kg.store.add_all(triples)
    kg.refresh()
    return kg


def check_questions(graph: str, seed: int) -> dict[str, list[str] | None]:
    """question → gold answers (None: scored elsewhere) of the questions
    whose served answers are checked against the reference answers
    computed here: all 99 QALD questions on the mini graph, a seeded
    sample of 60 template questions on the scale graph."""
    if graph == "mini":
        from repro.datasets import qald_questions

        return {q.text: None for q in qald_questions()}
    pool = gen.generate_population(seed, SCALE_PEOPLE).questions
    sample = random.Random(seed ^ 0x5EED).sample(pool, min(60, len(pool)))
    return {gen.question_text(t, label): sorted(gold) for t, label, gold in sample}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", choices=("mini", "scale"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output path stem")
    args = parser.parse_args(argv)
    import_repro(HERE.parent)

    from repro.core import GAnswer
    from repro.datasets import build_phrase_dataset
    from repro.paraphrase import ParaphraseMiner
    from repro.rdf.snapshot import compile_snapshot

    if args.graph == "mini":
        from repro.datasets import build_dbpedia_mini

        kg = build_dbpedia_mini()
    else:
        kg = build_scale_kg(args.seed)
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(
        build_phrase_dataset()
    )
    started = time.perf_counter()
    info = compile_snapshot(Path(f"{args.out}.snap"), kg, dictionary)
    compile_s = time.perf_counter() - started

    system = GAnswer(kg, dictionary)
    reference = {}
    for question, gold in check_questions(args.graph, args.seed).items():
        answer = system.answer(question)
        reference[question] = {
            "answers": sorted(str(term) for term in answer.answers),
            "boolean": answer.boolean,
            "gold": gold,
        }
    meta = {
        "graph": args.graph,
        "seed": args.seed,
        "triples": info.triples,
        "bytes": info.total_bytes,
        "compile_s": compile_s,
        "reference": reference,
    }
    tmp = Path(f"{args.out}.json.tmp")
    tmp.write_text(json.dumps(meta))
    os.replace(tmp, f"{args.out}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
