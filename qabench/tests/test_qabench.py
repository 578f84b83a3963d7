"""Tests of the benchmark itself, at a tiny size.

Run with ``python3 -m pytest qabench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import islice
from pathlib import Path

import pytest

import gen
import run
from client import Client, Server, closed_loop
from stats import percentile, ratio

ROOT = Path(__file__).resolve().parents[2]


# -- generator ------------------------------------------------------------ #


def test_population_is_a_function_of_the_seed():
    first = gen.generate_population(5, 300)
    again = gen.generate_population(5, 300)
    other = gen.generate_population(6, 300)
    assert first.triples == again.triples
    assert first.questions == again.questions
    assert first.triples != other.triples


def test_population_labels_are_unique_and_gold_is_grounded():
    population = gen.generate_population(3, 400)
    labels = [o[1] for _s, p, o in population.triples if p == "rdfs:label"]
    assert len(labels) == len(set(labels))
    facts = {(s, p, o) for s, p, o in population.triples}
    for template, label, gold in population.questions:
        assert gold, (template, label)
        if template == "mayor":
            city = f"res:gc/{label.replace(' ', '_')}"
            assert {(city, "ont:mayor", person) for person in gold} <= facts


def test_request_streams_are_a_function_of_the_seed():
    pool = [f"q{i}" for i in range(50)]
    for workload in run.WORKLOADS.values():
        a = list(islice(run.client_stream(workload, pool, 9, 0), 200))
        b = list(islice(run.client_stream(workload, pool, 9, 0), 200))
        c = list(islice(run.client_stream(workload, pool, 9, 1), 200))
        assert a == b
        assert a != c
    mixed = list(islice(run.client_stream(run.WORKLOADS["ingest-mixed"], pool, 1, 0), 4000))
    writes = sum(1 for kind, _q in mixed if kind == "write")
    assert 0.12 < writes / len(mixed) < 0.18


def test_writer_removes_an_earlier_batch_every_fourth_batch():
    writer = run.Writer(seed=1, client=0)
    shapes = []
    for _ in range(8):
        adds, removes = writer.next_batch()
        writer.live.append(adds)
        shapes.append((len(adds), len(removes)))
    assert shapes == [(10, 0)] * 3 + [(10, 10)] + [(10, 0)] * 3 + [(10, 10)]


# -- statistics ----------------------------------------------------------- #


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    # 1000 samples: ten of them lie beyond p99.
    samples = list(range(1000))
    p99 = percentile(samples, 99)
    assert sum(1 for v in samples if v > p99) == 10
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ratio():
    assert ratio(1, 4) == 0.25
    assert ratio(0, 0) == 0.0


# -- failure counting ----------------------------------------------------- #


class _Scripted(BaseHTTPRequestHandler):
    """Answers /ask with the status named in the question."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status = int(body["question"])
        if status == 0:  # drop the connection without an answer
            self.close_connection = True
            return
        payload = json.dumps({"answers": ["x"], "boolean": None,
                              "timings_ms": {"total": 0.1}}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Scripted)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield Server(None, "127.0.0.1", httpd.server_address[1], 0.0)
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.mark.parametrize("keep_alive", [True, False])
def test_every_failure_is_counted(scripted_server, keep_alive):
    client = Client(scripted_server, keep_alive=keep_alive)
    statuses = ["200", "429", "200", "500", "503", "0", "200"]
    samples = [client.ask(s, no_cache=True) for s in statuses]
    client.close()
    assert [s.ok for s in samples] == [True, False, True, False, False, False, True]
    assert [s.status for s in samples] == [200, 429, 200, 500, 503, 0, 200]


def test_refused_connection_is_a_failed_request():
    probe = ThreadingHTTPServer(("127.0.0.1", 0), _Scripted)
    port = probe.server_address[1]
    probe.server_close()  # nothing listens on the port any more
    sample = Client(Server(None, "127.0.0.1", port, 0.0), keep_alive=False).ask(
        "200", no_cache=True)
    assert not sample.ok and sample.status == 0


def test_closed_loop_keeps_every_attempt(scripted_server):
    clients = [Client(scripted_server, keep_alive=True) for _ in range(2)]
    streams = [iter(["200", "429"] * 100_000) for _ in clients]
    result = closed_loop(clients, streams, 0.3,
                         lambda client, item, state: client.ask(item, no_cache=True))
    attempted = len(result.samples)
    failed = sum(1 for s in result.samples if not s.ok)
    assert attempted > 10
    # Each client alternates 200/429, so about half failed, none dropped.
    assert abs(failed - attempted / 2) <= 2


# -- the benchmark's declared metrics --------------------------------------- #


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_declared_workload_has_a_behaviour():
    declared = _declared()
    # ingest-mixed runs by hand only; every declared workload must exist.
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_prints_exactly_the_declared_metrics(capsys, trace):
    code = run.main(["--workload", "qald-mini", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[kind]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
