"""Served-QA benchmark: the entry point.

Usage (from the root of a checkout)::

    python3 qabench/run.py --workload qald-mini --seed 1 --seconds 36 --trace 0

For the chosen workload a run

1. compiles the workload's snapshot with the checkout's code
   (``prepare.py`` in a child process), which also computes reference
   answers for the check questions in-process;
2. starts ``repro serve --snapshot ... --workers 1`` several times, in
   windows before the run, between the slices of its timed phase and at
   its end, and reports the median time from spawn to a ready
   ``/healthz`` (``setup_s``); on the read-only workloads each window
   server takes a burst of ingest batches (the write metrics); one
   server started before the run stays up for the steps below;
3. sends every check question once and compares the served answers with
   the reference (exact answer sets), on ``qald-mini`` with a pinned
   digest and the paper's 32 right answers with the Table 11 ids, on the
   generated graph with the generator's gold answers;
4. runs untimed warm-up traffic, then ``nproc`` closed-loop clients for
   ``--seconds`` seconds in all, in slices, and measures reads (and, on
   ``ingest-mixed``, writes) from outside;
5. probes the server: ``VmHWM``, one ``GET /metrics`` scrape, ``/stats``
   counters before and after, then the write path: a cold-read probe,
   an ingested triple that must change a cache-enabled answer, and the
   ``/stats`` triple count;
6. with ``--trace 1``, repeats the same inputs in-process through
   ``QAEngine.from_snapshot(...).ask`` with spans around each layer and
   reports per-layer numbers, its span file and a self-time table.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The exit code is 1
when an answer check fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from client import Client, LoopResult, Sample, ServerError, closed_loop, start_server  # noqa: E402
from prepare import SCALE_PEOPLE, import_repro  # noqa: E402
from stats import percentile, ratio  # noqa: E402

#: Served answers of the 99 QALD questions on dbpedia-mini (the paper's
#: 32 right answers among them); any change to an answer changes it.
QALD_DIGEST = "69163b48cdff10943cc0a6ea8d040fa30407b822fcdc313923f1c3c3c945dfd3"
#: Floor on the share of answered reads on ``scale-link``.
SCALE_ANSWERED_FLOOR = 0.99
#: The timed phase runs in ``Workload.slices`` equal slices.  Before the
#: server under test starts, between the slices and at the end, a window
#: starts one more server, timed from spawn to ready and then stopped;
#: ``setup_s`` is the median over them and the server under test.  On
#: the read-only workloads each window server first takes
#: ``PROBE_WRITES`` ingest batches, the samples of the write metrics.
#: On a shared 2-vCPU VM the host's speed changes within seconds, so
#: samples from windows spread over the run vary less from run to run
#: than one burst does.
PROBE_WRITES = 40
#: Ingest batches the traced replay adds on the read-only workloads.
TRACED_WRITES = 20
#: (write, cold read, warm read) rounds of the cold-read probe.
COLD_PROBES = 8
INGEST_TOKEN = "qabench-token"

#: The metric names and units ``BENCHMARK.json`` declares; ``render``
#: prints exactly these.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TERMINATIONS = ("threshold", "exhausted", "pruned_empty", "empty", "deadline")


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    graph: str           # "mini" (dbpedia-mini) or "scale" (generated)
    keep_alive: bool     # persistent connections vs one per request
    no_cache: bool       # reads bypass the answer cache
    write_share: float   # share of requests that are ingest batches
    warmup_s: float      # untimed traffic before the timed phase
    traced_items: int    # requests replayed by the traced run
    slices: int          # timed slices, with a window server between two


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "qald-mini", "mini", keep_alive=True, no_cache=True, write_share=0.0,
            # A window costs ~0.4 s on the mini graph and ~1 s on the
            # scale graph: qald-mini affords three times the windows.
            warmup_s=1.0, traced_items=198, slices=24,
        ),
        Workload(
            "scale-link", "scale", keep_alive=False, no_cache=True, write_share=0.0,
            warmup_s=3.0, traced_items=100, slices=8,
        ),
        Workload(
            "ingest-mixed", "scale", keep_alive=False, no_cache=False, write_share=0.15,
            warmup_s=3.0, traced_items=250, slices=8,
        ),
    )
}


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def read_pool(workload: Workload, seed: int) -> list[str]:
    if workload.graph == "mini":
        from repro.datasets import qald_questions

        return [q.text for q in qald_questions()]
    questions = gen.generate_population(seed, SCALE_PEOPLE).questions
    if workload.write_share:
        # 200 entity lookups, ranked for the Zipf draw so that rank r holds
        # a question of template r % 4: every seed gives each template the
        # same share.  The class questions ("movies with", "companies in")
        # stay on scale-link: a 25-70 ms top-k scan per miss would leave
        # the read median of this workload on the edge between two latency
        # modes.  Their cost right after a write is reported as
        # rdf.kernel.cold_read_ratio.
        rng = random.Random(seed ^ 0x1A9E57)
        templates = ["born", "mayor", "starred", "founded"]
        picks = {t: rng.sample([label for k, label, _g in questions if k == t], 50)
                 for t in templates}
        return [gen.question_text(templates[r % 4], picks[templates[r % 4]][r // 4])
                for r in range(200)]
    return [gen.question_text(t, label) for t, label, _gold in questions]


def client_stream(workload: Workload, pool: list[str], seed: int, client: int):
    """Client ``client``'s endless request stream: ("read", question) or
    ("write", None) items."""
    rng = random.Random(seed * 7919 + client)
    if workload.graph == "mini":
        # Every client cycles through all questions, reshuffled per cycle.
        while True:
            order = list(pool)
            rng.shuffle(order)
            for question in order:
                yield ("read", question)
    if workload.write_share:
        # The pool is in rank order, shared by all clients: the popular
        # questions are the same for everyone.
        weights = [1.0 / (rank ** 1.1) for rank in range(1, len(pool) + 1)]
        cumulative, total = [], 0.0
        for weight in weights:
            total += weight
            cumulative.append(total)
        while True:
            if rng.random() < workload.write_share:
                yield ("write", None)
            else:
                yield ("read", rng.choices(pool, cum_weights=cumulative)[0])
    while True:
        yield ("read", pool[rng.randrange(len(pool))])


class Writer:
    """One client's ingest batches: 10 adds in the benchmark's namespace;
    every fourth batch also removes the oldest batch still live."""

    def __init__(self, seed: int, client: int):
        self.seed = seed
        self.client = client
        self.number = 0
        self.live: list[list] = []
        self.sent_adds = 0
        self.sent_removes = 0
        self.mismatched_acks = 0

    def next_batch(self) -> tuple[list, list]:
        adds = gen.ingest_batch(self.seed, self.client * 1_000_000 + self.number)
        removes = self.live.pop(0) if self.number % 4 == 3 and self.live else []
        self.number += 1
        return adds, removes

    def send(self, client: Client) -> Sample:
        adds, removes = self.next_batch()
        sample = client.ingest(adds, removes)
        if sample.ok:
            self.live.append(adds)
            self.sent_adds += len(adds)
            self.sent_removes += len(removes)
            if (sample.body.get("added"), sample.body.get("removed")) != (len(adds), len(removes)):
                self.mismatched_acks += 1
        elif removes:
            self.live.insert(0, removes)
        return sample


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #


class Phases:
    """Wall time of each phase of a run (a host fact)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = time.monotonic()

    def mark(self, name: str) -> None:
        now = time.monotonic()
        self.seconds[name] = round(now - self._last, 3)
        self._last = now


class Checks:
    """Answer checks; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        (self.passed if ok else self.failures).append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def partial(body: dict) -> bool:
    """Degraded or deadline-cut: counted, kept out of digests/checks."""
    return bool(body.get("degraded")) or body.get("terminated_by") == "deadline"


def outcome(body: dict) -> tuple[list[str], bool | None]:
    return sorted(body.get("answers") or []), body.get("boolean")


def answered(body: dict) -> bool:
    return bool(body.get("answers")) or body.get("boolean") is not None


def check_pass(server, workload: Workload, questions: list[str], reference: dict,
               checks: Checks) -> tuple[dict, int]:
    """Ask every check question once (answer cache bypassed) and compare
    with the reference; returns served outcomes and the partial count."""
    client = Client(server, keep_alive=False)
    served: dict[str, tuple] = {}
    partials = 0
    try:
        for question in questions:
            for _attempt in range(3):
                sample = client.ask(question, no_cache=True)
                if sample.ok and not partial(sample.body):
                    served[question] = outcome(sample.body)
                    break
                partials += sample.ok
    finally:
        client.close()
    expected = {q: (reference[q]["answers"], reference[q]["boolean"]) for q in questions}
    checks.expect(len(served) == len(questions),
                  f"{len(served)}/{len(questions)} check questions got a full answer")
    wrong = [q for q in served if served[q] != expected[q]]
    checks.expect(not wrong, f"served answers equal the in-process reference ({len(wrong)} differ)")
    if workload.graph == "scale":
        # The generator's gold does not come from the code under test.
        right = sum(1 for q in served if served[q][0] == reference[q]["gold"])
        checks.expect(right == len(questions),
                      f"{right}/{len(questions)} check questions answered exactly right")
    else:
        digest = answer_digest((q, a, b) for q, (a, b) in served.items())
        checks.expect(digest == QALD_DIGEST,
                      f"QALD answer digest {digest[:16]} matches the pinned digest")
        right = qald_right_ids(served)
        from repro.experiments.paper import TABLE11_QUESTION_IDS

        checks.expect(
            sorted(right) == sorted(TABLE11_QUESTION_IDS),
            f"{len(right)} QALD questions right with the Table 11 ids",
        )
    return served, partials


def answer_digest(outcomes) -> str:
    """sha256 over sorted ``question, answers, boolean`` lines, from
    ``(question, answers, boolean)`` triples (answers in any order)."""
    lines = sorted(f"{q}\t{'|'.join(sorted(a))}\t{b}" for q, a, b in outcomes)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def qald_right_ids(served: dict) -> list[int]:
    """QALD question ids whose served answer is exactly right (F1 = 1)."""
    from repro.datasets import qald_questions

    right = []
    for question in qald_questions():
        answers, boolean = served.get(question.text, ([], None))
        if question.is_boolean:
            ok = boolean is not None and boolean == question.gold_boolean
        else:
            ok = bool(answers) and set(answers) == set(question.gold)
        if ok:
            right.append(question.qid)
    return right


# --------------------------------------------------------------------- #
# The served run
# --------------------------------------------------------------------- #


def served_run(workload: Workload, seed: int, seconds: float, work: Path,
               meta: dict, pool: list[str], checks: Checks, phases: Phases) -> dict:
    """Setup, check pass, timed closed loop and probes; returns raw facts."""
    snapshot = work / "graph.snap"
    facts: dict = {"setups": [], "probe": [], "window_write_p50_ms": [], "slice_qps": []}
    window(workload, seed, snapshot, meta["triples"], facts, checks)
    server = start_server(ROOT, snapshot, ingest_token=INGEST_TOKEN)
    facts["setups"].append(server.setup_s)
    phases.mark("setup")
    try:
        reference = meta["reference"]
        _served, partials = check_pass(server, workload, list(reference), reference, checks)
        facts["check_partials"] = partials
        phases.mark("check")

        nclients = os.cpu_count() or 1
        clients = [Client(server, workload.keep_alive, INGEST_TOKEN) for _ in range(nclients)]
        writers = [Writer(seed, index) for index in range(nclients)]

        def step(client: Client, item, state: dict) -> Sample:
            kind, question = item
            if kind == "write":
                state["wrote"] = True
                return writers[clients.index(client)].send(client)
            sample = client.ask(question, workload.no_cache, item=question)
            sample.after_write = state.pop("wrote", False)
            return sample

        # Warm-up: the same traffic from other streams, untimed, so caches
        # fill and lazy structures are built before the measurement.
        warm_streams = [client_stream(workload, pool, seed, 1000 + index)
                        for index in range(nclients)]
        warm = closed_loop(clients, warm_streams, workload.warmup_s, step)
        facts["warmup_failed"] = sum(1 for s in warm.samples if not s.ok)
        phases.mark("warmup")
        stats0, _ = server.get("/stats")
        metrics0, _ = server.get("/metrics")
        calibration = []
        cpu0 = host_cpu_ticks()
        streams = [client_stream(workload, pool, seed, index) for index in range(nclients)]
        loop = LoopResult()
        for number in range(workload.slices):
            calibration.append(calibration_ms())
            part = closed_loop(clients, streams, seconds / workload.slices, step)
            loop.samples += part.samples
            loop.elapsed_s += part.elapsed_s
            loop.cpu_s += part.cpu_s
            loop.lag_ms += part.lag_ms
            facts["slice_qps"].append(round(
                sum(1 for s in part.samples if s.kind == "read" and s.ok) / part.elapsed_s, 2))
            if number < workload.slices - 1:
                window(workload, seed, snapshot, meta["triples"], facts, checks)
        facts["loop"] = loop
        facts["rss_mb"] = server.vm_hwm_mb()
        calibration.append(calibration_ms())
        facts["calibration_ms"] = median(calibration)
        cpu1 = host_cpu_ticks()
        facts["steal_frac"] = ratio(cpu1[1] - cpu0[1], cpu1[0] - cpu0[0])
        started = time.monotonic()
        metrics1, metrics_bytes = server.get("/metrics")
        facts["metrics_scrape_ms"] = (time.monotonic() - started) * 1000.0
        facts["metrics_bytes"] = metrics_bytes
        stats1, _ = server.get("/stats")
        facts["stats"] = (stats0, stats1)
        facts["counters"] = (metrics0["counters"], metrics1["counters"])
        check_consistency(loop.samples, reference, checks)
        phases.mark("timed")

        # The write path on the server under test: the cold-read probe,
        # the answer flip and the triple count.
        probe_client = Client(server, keep_alive=False, token=INGEST_TOKEN)
        probe_writer = Writer(seed, nclients)
        writers.append(probe_writer)
        facts["cold_read_ratio"], facts["cold_reads"] = cold_read_probe(
            probe_client, probe_writer, reference)
        flip_check(server, probe_client, reference, seed, probe_writer, checks)
        probe_client.close()
        final_stats, _ = server.get("/stats")
        facts["final_overlay"] = final_stats["store"].get("overlay", {})
        phases.mark("probe")
        expect_triple_count(final_stats, meta["triples"], writers, checks)
    finally:
        server.stop()
    window(workload, seed, snapshot, meta["triples"], facts, checks)
    facts["setup_s"] = median(facts["setups"])
    phases.mark("setup_end")
    return facts


def window(workload: Workload, seed: int, snapshot: Path, compiled: int,
           facts: dict, checks: Checks) -> None:
    """Start one server, timed from spawn to ready (``facts["setups"]``);
    on read-only workloads it takes ``PROBE_WRITES`` ingest batches
    (``facts["probe"]``) and its triple count is checked.  The server is
    stopped."""
    server = start_server(ROOT, snapshot, ingest_token=INGEST_TOKEN)
    try:
        facts["setups"].append(server.setup_s)
        if workload.write_share:
            return
        client = Client(server, keep_alive=False, token=INGEST_TOKEN)
        writer = Writer(seed, 100 + len(facts["setups"]))
        writes = [writer.send(client) for _batch in range(PROBE_WRITES)]
        client.close()
        facts["probe"] += writes
        ok = [s.latency_ms for s in writes if s.ok]
        facts["window_write_p50_ms"].append(round(median(ok), 3) if ok else None)
        stats, _ = server.get("/stats")
        expect_triple_count(stats, compiled, [writer], checks)
    finally:
        server.stop()


def expect_triple_count(stats: dict, compiled: int, writers: list[Writer],
                        checks: Checks) -> None:
    """``/stats`` base + delta − tombstones == compiled + adds − removes,
    and every ingest acknowledged exactly its own batch."""
    overlay = stats["store"].get("overlay", {})
    count = overlay.get("base_triples", 0) + overlay.get("delta_adds", 0) - overlay.get("tombstones", 0)
    adds = sum(w.sent_adds for w in writers)
    removes = sum(w.sent_removes for w in writers)
    checks.expect(
        count == compiled + adds - removes,
        f"/stats triple count {count} == base {compiled} + adds {adds} - removes {removes}",
    )
    checks.expect(
        sum(w.mismatched_acks for w in writers) == 0,
        "every ingest acknowledged exactly its adds and removes",
    )


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: the host's single-thread speed,
    taken before each slice of the timed phase and after the last (the
    run reports the median), so a slow or noisy host shows up."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - started) * 1000.0


def host_cpu_ticks() -> tuple[int, int]:
    """(all, steal) CPU ticks of the VM from ``/proc/stat``; (0, 0) where
    it cannot be read.  Steal is time the hypervisor gave to others."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def check_consistency(samples: list[Sample], reference: dict, checks: Checks) -> None:
    """A question gets the same full answer every time it is asked (the
    reference's, for check questions)."""
    seen: dict[str, tuple] = {
        q: (r["answers"], r["boolean"]) for q, r in reference.items()
    }
    differing = 0
    for sample in samples:
        if sample.kind != "read" or not sample.ok or partial(sample.body):
            continue
        got = outcome(sample.body)
        if seen.setdefault(sample.item, got) != got:
            differing += 1
    checks.expect(differing == 0, f"timed reads are consistent ({differing} differ)")


def cold_read_probe(client: Client, writer: Writer, reference: dict) -> tuple[float, list[float]]:
    """Engine time of a class question asked right after a write over the
    same question asked again (every ingest refresh builds a new kernel
    whose path-walk cache starts empty), and the client latencies of the
    reads right after a write."""
    question = next(q for q in reference if q.startswith("Give me all"))
    cold, warm, after_write = [], [], []
    for _ in range(COLD_PROBES):
        writer.send(client)
        for times in (cold, warm):
            sample = client.ask(question, no_cache=True)
            if sample.ok:
                times.append(sample.body["timings_ms"]["total"])
                if times is cold:
                    after_write.append(sample.latency_ms)
    return (ratio(median(cold), median(warm)) if cold and warm else 0.0), after_write


def flip_check(server, client: Client, reference: dict, seed: int, writer: Writer,
               checks: Checks) -> None:
    """Add a triple that adds one answer to a check question and see it on
    a cache-enabled ask (the answer cache must not serve the stale one)."""
    question = next(
        (q for q, r in reference.items()
         if q.startswith("Who is the mayor of ") and r["answers"]), None,
    )
    if question is None:  # the mini graph: the QALD mayor question
        question = "Who is the mayor of Berlin?"
    subject = reference_subject(question)
    before = client.ask(question, no_cache=False)
    client.ask(question, no_cache=False)  # now cached
    flip = f"bench:flip/s{seed}"
    wrote = client.ingest([[subject, "ont:mayor", flip]], [])
    if wrote.ok:
        writer.sent_adds += 1
    after = client.ask(question, no_cache=False)
    ok = (
        before.ok and wrote.ok and after.ok
        and flip not in (before.body.get("answers") or [])
        and flip in (after.body.get("answers") or [])
    )
    checks.expect(ok, f"ingested answer shows up on a cache-enabled ask ({question!r})")


def reference_subject(question: str) -> str:
    """The IRI of the city a mayor question names."""
    name = question[len("Who is the mayor of "):-1]
    if name == "Berlin":
        return "res:Berlin"
    return f"res:gc/{name.replace(' ', '_')}"


# --------------------------------------------------------------------- #
# The traced in-process run
# --------------------------------------------------------------------- #


def traced_items(workload: Workload, pool: list[str], seed: int) -> list:
    """The first ``traced_items`` requests of client 0's stream; read-only
    workloads add write-probe batches as the served run does."""
    stream = client_stream(workload, pool, seed, 0)
    items = [next(stream) for _ in range(workload.traced_items)]
    if not workload.write_share:
        items += [("write", None)] * TRACED_WRITES
    return items


def replay(engine, items: list, workload: Workload, seed: int, recorder=None) -> float:
    """Send ``items`` through the engine; returns the engine seconds."""
    from repro.rdf import IRI, Literal, Triple

    writer = Writer(seed, 99)
    total = 0.0
    for request, (kind, question) in enumerate(items, start=1):
        if recorder is not None:
            recorder.request_id = request
        if kind == "write":
            adds, removes = writer.next_batch()
            writer.live.append(adds)
            started = time.perf_counter()
            engine.ingest(
                [Triple(IRI(s), IRI(p), Literal(o["literal"])) for s, p, o in adds],
                [Triple(IRI(s), IRI(p), Literal(o["literal"])) for s, p, o in removes],
            )
        else:
            started = time.perf_counter()
            engine.ask(question, use_cache=not workload.no_cache)
        total += time.perf_counter() - started
    return total


def traced_run(workload: Workload, seed: int, work: Path, out: Path, meta: dict,
               pool: list[str]) -> dict:
    """Untraced then traced replay of the same inputs; per-layer numbers."""
    from repro.serve import EngineConfig, QAEngine

    import spans as tracing

    items = traced_items(workload, pool, seed)
    reads = sum(1 for kind, _q in items if kind == "read")
    config = EngineConfig(pool_size=1)

    engine = QAEngine.from_snapshot(work / "graph.snap", config)
    engine.warm()
    untraced = replay(engine, items, workload, seed)
    engine.close()
    del engine
    gc.collect()

    recorder = tracing.Recorder()
    recorder.install()
    try:
        engine = QAEngine.from_snapshot(work / "graph.snap", config)
        engine.warm()
        traced = replay(engine, items, workload, seed, recorder)
        engine.close()
    finally:
        recorder.uninstall()
    table = recorder.self_times()
    stem = f"{workload.name}-s{seed}"
    recorder.write(out / f"{stem}.spans.jsonl")
    text = tracing.layer_table(table, reads)
    (out / f"{stem}.layers.txt").write_text(text + "\n")

    def incl(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[1]

    def self_ms(name: str) -> float:
        return table.get(name, [0, 0.0, 0.0])[2] * 1000.0 / reads

    def calls(name: str) -> int:
        return int(table.get(name, [0, 0.0, 0.0])[0])

    counts = recorder.counts
    link_calls = calls("linking.link")
    searches = calls("core.top_k")
    ingests = calls("serve.engine.ingest")
    refresh_s = sum(
        end - start for name, start, end, parent, _rid in recorder.spans
        if name == "rdf.graph.refresh" and parent >= 0
        and recorder.spans[parent][0] == "serve.engine.ingest"
    )
    layer = {
        "serve.engine.overhead_ms": (incl("serve.engine.ask") - incl("core.answer")) * 1000.0 / reads,
        "nlp.parse_ms": self_ms("nlp.parse"),
        "core.relation_extraction_ms": self_ms("core.relation_extraction"),
        "core.argument_finding_ms": self_ms("core.argument_finding"),
        "core.qs_build_ms": self_ms("core.qs_build"),
        "core.candidate_mapping_self_ms": self_ms("core.candidate_mapping"),
        "core.top_k_ms": incl("core.top_k") * 1000.0 / reads,
        "core.sparql_ms": incl("core.sparql") * 1000.0 / reads,
        "core.matches_per_search": ratio(counts["core.matches"], searches),
        **{f"core.terminated_by.{t}": ratio(counts[f"core.terminated_by.{t}"], searches)
           for t in TERMINATIONS},
        "linking.link_ms": incl("linking.link") * 1000.0 / reads,
        "linking.calls_per_q": link_calls / reads,
        "linking.entries_scored_per_call": ratio(counts["linking.entries_scored"], link_calls),
        "linking.candidates_per_call": ratio(counts["linking.candidates"], link_calls),
        "linking.useful_ratio": ratio(counts["linking.candidates"], counts["linking.entries_scored"]),
        "linking.miss_ratio": ratio(counts["linking.misses"], link_calls),
        "rdf.kernel.adjacency_calls_per_q": counts["rdf.kernel.adjacency"] / reads,
        "rdf.kernel.walk_path_calls_per_q": counts["rdf.kernel.walk_path"] / reads,
        "rdf.kernel.incident_steps_calls_per_q": counts["rdf.kernel.incident_steps"] / reads,
        "rdf.snapshot.load_s": incl("rdf.snapshot.load"),
        "rdf.snapshot.warm_s": incl("serve.engine.warm"),
        "rdf.overlay.ingest_ms": ratio(incl("serve.engine.ingest") * 1000.0, ingests),
        "rdf.overlay.apply_ms": ratio((incl("serve.engine.ingest") - refresh_s) * 1000.0, ingests),
        "rdf.overlay.refresh_ms": ratio(refresh_s * 1000.0, ingests),
        "trace.overhead_ms": (traced - untraced) * 1000.0 / len(items),
    }
    return {"layer": layer, "table": text, "spans": len(recorder.spans), "requests": len(items)}


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #


def end_to_end(facts: dict) -> dict[str, float]:
    loop = facts["loop"]
    reads = [s for s in loop.samples if s.kind == "read"]
    ok_reads = [s for s in reads if s.ok]
    writes = [s for s in loop.samples if s.kind == "write"] or \
        [s for s in facts["probe"] if s.kind == "write"]
    ok_writes = [s.latency_ms for s in writes if s.ok] or [float("nan")]
    attempted = len(loop.samples)
    failed = sum(1 for s in loop.samples if not s.ok)
    latencies = [s.latency_ms for s in ok_reads] or [float("nan")]
    return {
        "throughput_qps": len(ok_reads) / loop.elapsed_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "success_rate": 1.0 - ratio(failed, attempted),
        "answered_frac": ratio(sum(1 for s in ok_reads if answered(s.body)), len(reads)),
        "setup_s": facts["setup_s"],
        "rss_mb": facts["rss_mb"],
        "write_p50_ms": percentile(ok_writes, 50),
        "write_p95_ms": percentile(ok_writes, 95),
    }


def served_layers(facts: dict, meta: dict) -> dict[str, float]:
    loop = facts["loop"]
    reads = [s for s in loop.samples if s.kind == "read"]
    ok_reads = [s for s in reads if s.ok]
    stats0, stats1 = facts["stats"]
    c0, c1 = facts["counters"]

    def delta(name: str) -> float:
        return c1.get(name, 0) - c0.get(name, 0)

    def hit_ratio(cache: str) -> float:
        hits = stats1[cache]["hits"] - stats0[cache]["hits"]
        misses = stats1[cache]["misses"] - stats0[cache]["misses"]
        return ratio(hits, hits + misses)

    # A cached answer reports the engine time of its first computation.
    overheads = [s.latency_ms - s.body["timings_ms"]["total"]
                 for s in ok_reads if not s.body.get("cached")] or [0.0]
    connects = [s.connect_ms for s in loop.samples if s.connect_ms is not None] or [0.0]
    # Reads right after a write: from the timed phase on ingest-mixed, from
    # the cold-read probe on the read-only workloads.
    after_write = [s.latency_ms for s in loop.samples
                   if s.kind == "read" and s.ok and s.after_write] or facts["cold_reads"] or [0.0]
    overlay = facts["final_overlay"]
    lags = loop.lag_ms or [0.0]
    return {
        "serve.server.overhead_ms_p50": percentile(overheads, 50),
        "serve.server.connect_ms": percentile(connects, 50),
        "serve.server.error_rate": ratio(sum(1 for s in loop.samples if not s.ok), len(loop.samples)),
        "serve.admission.rejected": delta("serve.rejected") + delta("serve.ingest.rejected"),
        "serve.admission.degraded_frac": ratio(
            sum(1 for s in ok_reads if s.body.get("degraded")), len(reads)),
        "serve.admission.deadline_cut": sum(
            1 for s in ok_reads if s.body.get("terminated_by") == "deadline"),
        "serve.cache.answer_hit_ratio": hit_ratio("answer_cache"),
        "serve.cache.link_hit_ratio": hit_ratio("link_cache"),
        "rdf.snapshot.bytes": meta["bytes"],
        "rdf.snapshot.compile_s": meta["compile_s"],
        "rdf.kernel.cold_read_ratio": facts["cold_read_ratio"],
        "rdf.overlay.delta_adds_end": overlay.get("delta_adds", 0),
        "rdf.overlay.tombstones_end": overlay.get("tombstones", 0),
        "rdf.overlay.read_after_write_ms_p50": percentile(after_write, 50),
        "obs.metrics_scrape_ms": facts["metrics_scrape_ms"],
        "obs.metrics_bytes": facts["metrics_bytes"],
        "host.client_cpu_frac": loop.cpu_s / loop.elapsed_s,
        "host.client_lag_ms_p99": percentile(lags, 99),
        "host.calibration_ms": facts["calibration_ms"],
    }


def render(kind: str, values: dict) -> dict:
    """The ``kind`` metrics of ``BENCHMARK.json`` with their values."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in DECLARED[kind]}


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def prepare(workload: Workload, seed: int, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "prepare.py"), "--graph", workload.graph,
               "--seed", str(seed), "--out", str(work / "graph")]
    subprocess.run(command, cwd=ROOT, env=env, check=True, timeout=300)
    return json.loads((work / "graph.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="served-QA benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_repro(ROOT)
    workload = WORKLOADS[args.workload]

    out = HERE / ".out"
    work = HERE / ".work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    host = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
    }
    checks = Checks()
    phases = Phases()
    try:
        meta = prepare(workload, args.seed, work)
        phases.mark("prepare")
        pool = read_pool(workload, args.seed)
        facts = served_run(workload, args.seed, args.seconds, work, meta, pool, checks, phases)
        e2e = end_to_end(facts)
        if workload.graph == "scale" and not workload.write_share:
            checks.expect(e2e["answered_frac"] >= SCALE_ANSWERED_FLOOR,
                          f"answered_frac {e2e['answered_frac']:.3f} >= {SCALE_ANSWERED_FLOOR}")
        loop = facts["loop"]
        reads = sum(1 for s in loop.samples if s.kind == "read")
        if reads < 1000:
            print(f"warning: only {reads} reads; fewer than 10 lie beyond p99",
                  file=sys.stderr)
        host.update(
            reads=reads, warmup_failed=facts["warmup_failed"],
            check_partials=facts["check_partials"],
            client_cpu_s=round(loop.cpu_s, 3),
            client_lag_ms_p99=round(percentile(loop.lag_ms or [0.0], 99), 3),
            calibration_ms=round(facts["calibration_ms"], 3),
            steal_frac=round(facts["steal_frac"], 4),
            setups_s=[round(s, 4) for s in facts["setups"]],
            window_write_p50_ms=facts["window_write_p50_ms"],
            slice_qps=facts["slice_qps"],
        )
        layers = None
        if args.trace:
            layers = served_layers(facts, meta)
            traced = traced_run(workload, args.seed, work, out, meta, pool)
            phases.mark("traced")
            layers.update(traced["layer"])
            print(traced["table"])
            host.update(traced_spans=traced["spans"], traced_requests=traced["requests"])
    except (ServerError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(loop.samples)
    failed = sum(1 for s in loop.samples if not s.ok)
    metrics = render("per_layer", layers) if args.trace else render("end_to_end", e2e)
    host["phases_s"] = phases.seconds
    report = {
        "host": host, "checks": {"passed": checks.passed, "failed": checks.failures},
        "end_to_end": e2e, "per_layer": layers,
    }
    (out / f"{workload.name}-s{args.seed}.report.json").write_text(json.dumps(report, indent=1))
    print("host: " + json.dumps(host))
    for what in checks.failures:
        print(f"CHECK FAILED: {what}")
    print(json.dumps({
        "correct": checks.ok, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    # A terminated run still stops its server (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    raise SystemExit(main())
