"""Daemon control plane: generations, supervisor, control socket.

Chaos properties (crash injection at flip boundaries, SIGKILL fleets,
condemnation convergence, concurrent reload soundness) live in
``test_daemon_chaos.py``; this module covers the components and the
happy-path lifecycle: generation export/publish, supervised serving
parity with the in-process live corpus, hot reload, drain/resume, and
the ``ServingDaemon`` control socket + signal semantics.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time

import pytest

from repro.core.interface import ErrorModel
from repro.daemon import (
    DELTA_SEGMENT,
    BackoffPolicy,
    ControlServer,
    Generation,
    GenerationPublisher,
    SegmentRef,
    ServingDaemon,
    Supervisor,
    default_socket_path,
    send_control,
)
from repro.errors import (
    InvalidParameterError,
    PatternError,
    ReproError,
)
from repro.live import LiveCorpus
from repro.textutil import mixed_workload

from conftest import naive_count

pytestmark = [pytest.mark.slow, pytest.mark.timeout(180)]

DOCS = {
    "alpha": "abracadabra",
    "beta": "banana bandana",
    "gamma": "the quick brown fox jumps over the lazy dog",
    "delta": "mississippi",
}


def _make_corpus(path, docs=DOCS, l=16, shards=2, compact=True):
    corpus = LiveCorpus.attach(path, l=l, shards=shards)
    for name, body in docs.items():
        corpus.append(name, body)
    if compact:
        corpus.compact()
    return corpus


def _truth(corpus, pattern):
    """Per-document overlapping occurrences (patterns never cross the
    separator, so the corpus truth is the sum over live documents)."""
    return sum(
        naive_count(body, pattern) for body in corpus.documents().values()
    )


def _workload(corpus, seed=7):
    separator = corpus.config.separator
    bodies = list(corpus.documents().values())
    return [
        pattern
        for pattern in mixed_workload(
            separator.join(bodies), per_length=6, seed=seed
        )
        if separator not in pattern
    ]


@pytest.fixture(scope="module")
def sup(tmp_path_factory):
    corpus = _make_corpus(tmp_path_factory.mktemp("daemon") / "corpus")
    supervisor = Supervisor(
        corpus, owns_corpus=True, heartbeat_interval=0.1
    )
    supervisor.start()
    yield supervisor
    supervisor.close()


# -- backoff policy -----------------------------------------------------------


class TestBackoffPolicy:
    def test_delays_grow_exponentially_within_bounds(self):
        policy = BackoffPolicy(base=0.1, cap=1.0, seed=3)
        for attempt in range(8):
            ceiling = min(1.0, 0.1 * 2**attempt)
            delay = policy.delay(attempt)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_jitter_varies_between_calls(self):
        policy = BackoffPolicy(base=1.0, cap=10.0, seed=1)
        delays = {policy.delay(0) for _ in range(16)}
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BackoffPolicy(base=-1)
        with pytest.raises(InvalidParameterError):
            BackoffPolicy(max_failures=0)
        with pytest.raises(InvalidParameterError):
            BackoffPolicy(window=0)


# -- generation record --------------------------------------------------------


def _ref(name="s0", threshold=8, text_length=100, model="lower_sided"):
    return SegmentRef(
        name=name,
        shm_name=f"shm-{name}",
        nbytes=1024,
        error_model=model,
        threshold=threshold,
        text_length=text_length,
        characters="ab",
    )


class TestGenerationRecord:
    def test_tombstone_widening_per_pattern_length(self):
        generation = Generation(
            number=3,
            corpus_generation=2,
            segments=(_ref(),),
            tombstones=(10, 4),
            documents=5,
        )
        # sum of max(0, m - |P| + 1) over tombstone lengths
        assert generation.widening(1) == 10 + 4
        assert generation.widening(5) == 6 + 0
        assert generation.widening(11) == 0
        with pytest.raises(InvalidParameterError):
            generation.widening(0)

    def test_threshold_adds_tombstone_mass(self):
        bare = Generation(1, 1, (_ref(threshold=8),), (), 3)
        widened = Generation(1, 1, (_ref(threshold=8),), (5, 5), 3)
        assert widened.threshold == bare.threshold + 10

    def test_segment_ceiling(self):
        ref = _ref(text_length=20)
        assert ref.ceiling(1) == 20
        assert ref.ceiling(5) == 16
        assert ref.ceiling(21) == 0
        assert ref.model is ErrorModel.LOWER_SIDED

    def test_as_dict_is_json_safe(self):
        generation = Generation(2, 1, (_ref(),), (3,), 4)
        payload = json.loads(json.dumps(generation.as_dict()))
        assert payload["number"] == 2
        assert payload["tombstones"] == 1
        assert payload["segments"][0]["name"] == "s0"


# -- publisher ----------------------------------------------------------------


class TestGenerationPublisher:
    def test_export_covers_shards_and_delta(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        try:
            corpus.append("epsilon", "fresh delta text")
            blobs, meta = GenerationPublisher(corpus).export()
            names = [name for name, _ in blobs]
            assert DELTA_SEGMENT in names
            assert len(names) == len(set(names))
            assert meta["corpus_generation"] == corpus.generation
            assert meta["documents"] == len(corpus.documents())
            assert meta["tombstones"] == ()
        finally:
            corpus.close()

    def test_export_carries_tombstone_lengths(self, tmp_path):
        corpus = _make_corpus(tmp_path / "c")
        try:
            corpus.delete("alpha")
            _, meta = GenerationPublisher(corpus).export()
            assert meta["tombstones"] == (len(DOCS["alpha"]),)
            assert meta["documents"] == len(DOCS) - 1
        finally:
            corpus.close()

    def test_publish_verified_segments(self, tmp_path):
        from repro.parallel.pool import attach_shared_segment

        corpus = _make_corpus(tmp_path / "c")
        try:
            generation, pool = GenerationPublisher(corpus).publish(7)
            try:
                assert generation.number == 7
                assert generation.corpus_generation == corpus.generation
                for ref in generation.segments:
                    shm, segment = attach_shared_segment(
                        ref.shm_name, verify=True
                    )
                    try:
                        assert segment.nbytes == ref.nbytes
                        header_meta = segment.header["meta"]
                        assert header_meta["threshold"] == ref.threshold
                    finally:
                        shm.close()
            finally:
                pool.close()
        finally:
            corpus.close()


# -- supervised serving -------------------------------------------------------


class TestSupervisedServing:
    def test_intervals_match_live_corpus_exactly(self, sup):
        for pattern in _workload(sup.corpus):
            assert sup.count_interval(pattern) == (
                sup.corpus.count_interval(pattern)
            ), pattern

    def test_intervals_bracket_ground_truth(self, sup):
        for pattern in _workload(sup.corpus, seed=11):
            answer = sup.merged_count(pattern)
            truth = _truth(sup.corpus, pattern)
            assert answer.lo <= truth <= answer.hi, pattern
            assert answer.count == answer.hi

    def test_batch_matches_singles_under_one_generation(self, sup):
        patterns = _workload(sup.corpus)[:8]
        batch = sup.merged_count_many(patterns)
        assert len({a.generation for a in batch}) == 1
        for pattern, merged in zip(patterns, batch):
            single = sup.merged_count(pattern)
            assert (merged.lo, merged.hi) == (single.lo, single.hi)

    def test_pattern_validation(self, sup):
        with pytest.raises(PatternError):
            sup.merged_count("")
        with pytest.raises(PatternError):
            sup.merged_count_many(["ab", ""])
        assert sup.merged_count_many([]) == []

    def test_estimator_surface(self, sup):
        generation = sup.generation
        assert sup.text_length == generation.text_length
        assert sup.threshold == generation.threshold
        assert sup.error_model in tuple(ErrorModel)
        assert set("abra").issubset(set(sup.alphabet.characters))
        assert sup.count("ab") == sup.merged_count("ab").hi
        exact = sup.count_or_none("abracadabra")
        if exact is not None:
            assert exact == _truth(sup.corpus, "abracadabra")

    def test_space_report_counts_segments_once(self, sup):
        report = sup.space_report()
        assert report.shared
        for ref in sup.generation.segments:
            assert report.shared[f"{ref.name}.segment"] == ref.nbytes * 8

    def test_status_shape(self, sup):
        status = sup.status()
        assert status["generation"]["number"] == sup.generation.number
        assert status["generations_held"] == [sup.generation.number]
        assert len(status["workers"]) >= len(sup.generation.segments)
        assert all(w["alive"] for w in status["workers"])
        assert status["stats"]["flips"] >= 1

    def test_double_start_rejected(self, sup):
        with pytest.raises(ReproError):
            sup.start()


class TestHotReload:
    def test_reload_serves_new_documents(self, sup):
        before = sup.generation.number
        sup.corpus.append("zeta", "zebra zigzag zone")
        # Not yet visible: the serving generation is immutable.
        assert sup.generation.number == before
        generation = sup.reload(compact=False)
        assert generation.number > before
        assert any(
            ref.name == DELTA_SEGMENT for ref in generation.segments
        )
        answer = sup.merged_count("zigzag")
        assert answer.generation == generation.number
        assert answer.lo >= 1
        assert sup.count_interval("zigzag") == (
            sup.corpus.count_interval("zigzag")
        )

    def test_old_generation_fully_retired(self, sup):
        from multiprocessing import shared_memory

        old = sup.generation
        new = sup.reload(compact=False)
        assert sup.status()["generations_held"] == [new.number]
        for ref in old.segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=ref.shm_name)

    def test_retired_generation_released_in_one_round(self, sup, monkeypatch):
        import repro.daemon.supervisor as supervisor_module

        real_round = supervisor_module.pipe_round
        releases = []

        def counting_round(workers, request, window, fail):
            if request[0] == "release":
                releases.append((request[1], [w.name for w in workers]))
            return real_round(workers, request, window, fail)

        monkeypatch.setattr(supervisor_module, "pipe_round", counting_round)
        old = sup.generation
        assert len(old.segments) >= 2
        fleet = [w.name for w in sup._workers[:len(old.segments)]]
        sup.reload(compact=False)
        assert releases == [(old.number, fleet)]
        for state in sup.worker_states()[:len(old.segments)]:
            assert state["alive"] and old.number not in state["attached"]
        # Each worker process dropped it too: a count against it fails.
        for worker in sup._workers[:len(old.segments)]:
            with pytest.raises(InvalidParameterError):
                real_round(
                    [worker], ("count", old.number, "ab", 5.0), 5.0,
                    sup._fail,
                )

    def test_delete_widens_until_compaction(self, sup):
        # Deleting a *compacted-shard* document leaves a tombstone (the
        # immutable shards cannot forget it); the generation must carry
        # the tombstone and widen served intervals on the low side.
        assert "alpha" in sup.corpus.documents()
        sup.corpus.delete("alpha")
        generation = sup.reload(compact=False)
        assert generation.tombstones  # carried, not yet folded
        answer = sup.merged_count("abracadabra")
        assert answer.lo == 0  # tombstone widening admits the deletion
        assert sup.count_interval("abracadabra") == (
            sup.corpus.count_interval("abracadabra")
        )

    def test_commit_listener_flips_on_compaction(self, sup):
        sup.corpus.append("theta", "compaction trigger body")
        sup.corpus.compact()
        deadline = time.time() + 10.0
        while time.time() < deadline:
            generation = sup.generation
            if (
                generation.corpus_generation == sup.corpus.generation
                and not generation.tombstones
            ):
                break
            time.sleep(0.05)
        generation = sup.generation
        assert generation.corpus_generation == sup.corpus.generation
        assert sup.count_interval("compaction") == (
            sup.corpus.count_interval("compaction")
        )

    def test_reload_compacts_on_demand(self, sup):
        sup.corpus.append("iota", "sighup semantics body")
        assert sup.corpus.delta_pending
        generation = sup.reload(compact=True)
        assert sup.corpus.delta_pending == 0
        assert generation.corpus_generation == sup.corpus.generation
        assert all(
            ref.name != DELTA_SEGMENT for ref in generation.segments
        )


class TestDrainResume:
    def test_drain_blocks_admission_resume_reopens(self, sup):
        assert sup.drain() == 0
        assert sup.draining
        with pytest.raises(ReproError):
            sup.merged_count("ab")
        sup.resume()
        assert not sup.draining
        assert sup.merged_count("ab").hi >= 0

    def test_status_still_answers_while_draining(self, sup):
        sup.drain()
        try:
            status = sup.status()
            assert status["draining"] is True
        finally:
            sup.resume()


# -- control socket -----------------------------------------------------------


class TestControlServer:
    def test_round_trip_and_handler_errors(self, tmp_path):
        def handler(request):
            if request["op"] == "boom":
                raise InvalidParameterError("no such thing")
            return {"echo": request["op"]}

        path = tmp_path / "ctl.sock"
        with ControlServer(path, handler):
            assert send_control(path, {"op": "hi"}) == {"echo": "hi"}
            with pytest.raises(ReproError, match="no such thing"):
                send_control(path, {"op": "boom"})
        assert not path.exists()

    def test_non_object_request_rejected(self, tmp_path):
        path = tmp_path / "ctl.sock"
        with ControlServer(path, lambda request: "ok"):
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.settimeout(5.0)
            try:
                client.connect(str(path))
                client.sendall(b"[1, 2, 3]\n")
                reply = json.loads(client.recv(65536).decode())
            finally:
                client.close()
            assert reply["ok"] is False
            assert reply["type"] == "InvalidParameterError"

    def test_overlong_path_rejected(self, tmp_path):
        deep = tmp_path / ("x" * 120) / "ctl.sock"
        server = ControlServer(deep, lambda request: None)
        with pytest.raises(InvalidParameterError):
            server.start()

    def test_default_socket_path_falls_back_when_deep(self, tmp_path):
        shallow = default_socket_path(tmp_path)
        assert shallow == tmp_path / "daemon.sock"
        deep = tmp_path / ("y" * 150)
        fallback = default_socket_path(deep)
        assert len(str(fallback).encode()) <= 100


# -- serving daemon -----------------------------------------------------------


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("svc")
    corpus = _make_corpus(root / "corpus")
    corpus.close()
    served = ServingDaemon(
        root / "corpus",
        socket_path=root / "d.sock",
        heartbeat_interval=0.1,
    )
    served.start()
    yield served
    served.stop()


class TestServingDaemon:
    def test_status_and_count_over_socket(self, daemon):
        status = send_control(daemon.socket_path, {"op": "status"})
        assert status["generation"]["number"] >= 1
        assert status["socket"] == str(daemon.socket_path)
        answer = send_control(
            daemon.socket_path, {"op": "count", "pattern": "banana"}
        )
        local = daemon.supervisor.merged_count("banana")
        assert (answer["lo"], answer["hi"]) == (local.lo, local.hi)
        batch = send_control(
            daemon.socket_path,
            {"op": "count_many", "patterns": ["ab", "an"]},
        )
        assert len(batch) == 2

    def test_ingest_and_reload_over_socket(self, daemon):
        send_control(
            daemon.socket_path,
            {"op": "append", "name": "sock", "body": "socketable text"},
        )
        before = daemon.supervisor.generation.number
        reloaded = send_control(
            daemon.socket_path, {"op": "reload", "compact": False}
        )
        assert reloaded["number"] > before
        answer = send_control(
            daemon.socket_path, {"op": "count", "pattern": "socketable"}
        )
        assert answer["hi"] >= 1

    def test_drain_resume_over_socket(self, daemon):
        send_control(daemon.socket_path, {"op": "drain"})
        assert daemon.supervisor.draining
        with pytest.raises(ReproError):
            send_control(
                daemon.socket_path, {"op": "count", "pattern": "ab"}
            )
        send_control(daemon.socket_path, {"op": "resume"})
        assert not daemon.supervisor.draining

    def test_unknown_op_rejected(self, daemon):
        with pytest.raises(ReproError, match="unknown control op"):
            send_control(daemon.socket_path, {"op": "frobnicate"})

    def test_sighup_is_forced_compacting_reload(self, daemon):
        daemon.supervisor.corpus.append("hup", "sighup reload body")
        before = daemon.supervisor.generation.number
        daemon.handle_signal(signal.SIGHUP)
        generation = daemon.supervisor.generation
        assert generation.number > before
        assert daemon.supervisor.corpus.delta_pending == 0

    def test_sigterm_requests_stop(self, daemon):
        daemon.handle_signal(signal.SIGTERM)
        assert daemon._stop_event.is_set()
        daemon._stop_event.clear()  # keep the module fixture serving
        with pytest.raises(InvalidParameterError):
            daemon.handle_signal(signal.SIGUSR1)

    def test_stop_op_ends_serve_forever(self, tmp_path):
        corpus = _make_corpus(
            tmp_path / "c", docs={"one": "tiny body"}, shards=1
        )
        corpus.close()
        served = ServingDaemon(
            tmp_path / "c", socket_path=tmp_path / "d.sock"
        )
        served.start()
        loop = threading.Thread(
            target=served.serve_forever,
            kwargs={"install_signals": False, "poll_interval": 0.05},
        )
        loop.start()
        try:
            reply = send_control(served.socket_path, {"op": "stop"})
            assert reply == {"stopping": True}
            loop.join(timeout=10.0)
            assert not loop.is_alive()
            assert not served.socket_path.exists()
        finally:
            served.stop()
            loop.join(timeout=5.0)

    def test_start_twice_rejected(self, daemon):
        with pytest.raises(ReproError):
            daemon.start()
