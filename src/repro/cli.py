"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands
--------
``count``        build an index over a text file (or builtin corpus) and
                 count one or more patterns (``--json`` for machine output,
                 ``--engine-stats`` for the engine's work counters).
``build``        build an index and save it (versioned format, repro.io)
                 with a space report; ``--shards N`` partitions the
                 corpus and builds one index per shard.
``query``        load a saved index and count patterns.
``stats``        text statistics: sigma, entropy profile, PST sizes.
``selectivity``  LIKE-predicate estimation (CPST + KVI/MO/MOC/MOL/MOLC).
``validate``     check every index's error contract on a text.
``dataset``      generate a builtin synthetic corpus to a file.
``experiment``   regenerate a paper table/figure (see repro.experiments).
``report``       run every experiment into one markdown document.
``serve-check``  build the resilient degradation ladder, run a health
                 probe workload, print a tier/latency/engine-work report
                 (optionally with injected faults on the primary tier,
                 ``--concurrency N`` to hammer a QueryServer from N
                 threads through admission control and bulkheads,
                 ``--shards K`` to serve through sharded upper tiers, or
                 ``--live DIR`` to serve a live corpus directory).
``ingest``       mutate a live corpus directory (crash-safe WAL-backed
                 appends/deletes, compaction, status) — see repro.live.
``daemon``       run the supervised serving daemon over a live corpus
                 directory (worker fleet over shared-memory generations,
                 heartbeats, hot reload on commit), or — with --status /
                 --reload / --drain / --resume / --revive / --count /
                 --stop — control a running one via its socket.
``space``        space rollup: a live corpus directory (resident +
                 durable bytes) or a saved index file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from .build import spec_for
from .core import CompactPrunedSuffixTree
from .datasets import GENERATORS, generate
from .errors import ReproError
from .experiments.runner import EXPERIMENTS, run as run_experiment
from .space import text_bits
from .suffixtree import PrunedSuffixTreeStructure
from .textutil import Text, entropy_profile

#: The kinds ``count`` and ``build`` offer: those of :data:`repro.build.BUILDERS`
#: less the Elias–Fano APX variant and the statistics tier. Each is built
#: with :func:`repro.build.spec_for`'s parameters for ``--l``.
INDEX_KINDS = ("apx", "cpst", "fm", "patricia", "pst", "qgram", "rlfm")


def _load_text(source: str, size: int, seed: int) -> Text:
    """A builtin corpus name or a path to a text file."""
    if source in GENERATORS:
        return Text(generate(source, size, seed))
    path = Path(source)
    if not path.exists():
        raise ReproError(
            f"{source!r} is neither a builtin corpus ({sorted(GENERATORS)}) "
            "nor an existing file"
        )
    return Text(path.read_text(encoding="utf-8", errors="replace"))


def _build_index(args: argparse.Namespace):
    text = _load_text(args.text, args.size, args.seed)
    return text, spec_for(args.index, args.l).build(text)


def _shard_plan(text: Text, shards: int):
    """Partition a CLI text into a document-aligned :class:`ShardPlan`.

    Non-empty input lines are the documents; corpora without enough line
    structure fall back to ``shards`` contiguous chunks.
    """
    from .shard import ShardPlan

    rows = [line for line in text.raw.splitlines() if line]
    if len(rows) < shards:
        n = len(text.raw)
        rows = [
            text.raw[i * n // shards : (i + 1) * n // shards]
            for i in range(shards)
        ]
        rows = [row for row in rows if row]
    return ShardPlan.for_rows(rows, shards)


def cmd_count(args: argparse.Namespace) -> int:
    from .engine import IndexCounter

    _, index = _build_index(args)
    counter = IndexCounter(index)
    counts = dict(zip(args.patterns, counter.count_many(args.patterns)))
    stats = None if counter.planner is None else counter.stats
    if args.json:
        import json

        payload: dict = dict(counts)
        if args.engine_stats:
            payload = {"counts": dict(counts),
                       "engine": stats.as_dict() if stats else None}
        print(json.dumps(payload, ensure_ascii=False))
        return 0
    for pattern in args.patterns:
        print(f"{pattern!r}: {counts[pattern]}")
    if args.engine_stats:
        print(
            "engine: " + (stats.summary() if stats is not None
                          else "no automaton view (per-pattern counting)")
        )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    from .build import ArtifactCache, BuildContext, build_all
    from .io import save_index

    text = _load_text(args.text, args.size, args.seed)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    reference = text_bits(len(text), text.sigma)
    if args.shards > 1:
        return _cmd_build_sharded(args, text, cache, reference)
    ctx = BuildContext(text, cache=cache, name=args.text)
    specs = [spec_for(kind, args.l) for kind in args.index]
    result = build_all(ctx, specs, max_workers=args.workers)
    for spec in specs:
        index = result[spec.label]
        target = (
            args.output if len(specs) == 1 else f"{args.output}.{spec.label}"
        )
        save_index(index, target)
        print(index.space_report().format(reference_bits=reference))
        print(f"saved {spec.label} to {target}")
    if args.build_report:
        print(result.report.format())
    return 0


def _cmd_build_sharded(args, text, cache, reference) -> int:
    from .io import save_index
    from .shard import build_sharded

    plan = _shard_plan(text, args.shards)
    print(plan.format())
    for kind in args.index:
        estimator, report = build_sharded(
            plan, kind, args.l,
            policy=args.merge_policy,
            cache=cache,
            max_workers=args.workers,
        )
        base = args.output if len(args.index) == 1 else f"{args.output}.{kind}"
        for name in plan.names:
            target = f"{base}.{name}"
            save_index(estimator.estimator_for(name), target)
            print(f"saved {kind} shard {name} to {target}")
        # The merged rollup: one SpaceReport summed across all shards.
        print(estimator.space_report().format(reference_bits=reference))
        if args.build_report:
            print(report.format())
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .io import load_index

    index = load_index(args.index_file)
    for pattern in args.patterns:
        print(f"{pattern!r}: {index.count(pattern)}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    text = _load_text(args.text, args.size, args.seed)
    print(f"length: {len(text)}  sigma: {text.sigma} (incl. sentinel)")
    for k, h in entropy_profile(text.raw, max_k=3).items():
        print(f"H{k}: {h:.3f} bits/symbol")
    for l in args.l:
        structure = PrunedSuffixTreeStructure(text, l)
        print(
            f"l={l}: |PST_l| = {structure.num_nodes} nodes, "
            f"sum|edge| = {structure.total_label_length()} symbols "
            f"(n/l = {len(text) // l})"
        )
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    corpus = generate(args.name, args.size, args.seed)
    Path(args.output).write_text(corpus, encoding="utf-8")
    print(f"wrote {len(corpus)} characters of {args.name!r} to {args.output}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    print(run_experiment(args.name, size=args.size, seed=args.seed))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate

    document = generate(size=args.size, seed=args.seed)
    Path(args.output).write_text(document, encoding="utf-8")
    verdict = document.splitlines()[-1]
    print(f"wrote {args.output} — {verdict}")
    return 0 if "PASS" in verdict else 1


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import validate_all

    text = _load_text(args.text, args.size, args.seed)
    reports = validate_all(text, l=args.l)
    failed = 0
    for report in reports:
        print(report.summary())
        failed += 0 if report.ok else 1
    print("all contracts hold" if not failed else f"{failed} indexes FAILED")
    return 1 if failed else 0


def _daemon_smoke(args: argparse.Namespace) -> int:
    """Rehearse the full daemon cycle against a live corpus directory.

    Starts a real :class:`~repro.daemon.ServingDaemon` (worker fleet,
    shared-memory generations, control socket), then drives one
    ingest -> hot reload -> query cycle entirely through the control
    socket — the same path an operator and the init system use. Exits 0
    only if every step answered and the final counts are sound.
    """
    import json
    import tempfile

    from .daemon import ServingDaemon, send_control

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as sockdir:
        daemon = ServingDaemon(
            args.live, socket_path=Path(sockdir) / "daemon.sock"
        )
        daemon.start()
        try:
            socket_path = daemon.socket_path
            status = send_control(socket_path, {"op": "status"})
            print(
                f"daemon up: generation {status['generation']['number']}, "
                f"{len(status['workers'])} worker(s), "
                f"{len(status['generation']['segments'])} segment(s)"
            )
            name = f"__smoke__{args.seed}"
            send_control(
                socket_path,
                {"op": "append", "name": name, "body": "daemon smoke body"},
            )
            reloaded = send_control(
                socket_path, {"op": "reload", "compact": False}
            )
            print(f"hot reload: now serving generation {reloaded['number']}")
            probes = ["smoke", "daemon", "zz-absent"]
            answers = {
                pattern: send_control(
                    socket_path, {"op": "count", "pattern": pattern}
                )
                for pattern in probes
            }
            for pattern, answer in answers.items():
                print(f"  {pattern!r}: count={answer['count']} "
                      f"[{answer['lo']}, {answer['hi']}] ({answer['model']})")
            send_control(socket_path, {"op": "delete", "name": name})
            send_control(socket_path, {"op": "reload", "compact": False})
            final = send_control(socket_path, {"op": "status"})
            print(f"rehearsal done: generation "
                  f"{final['generation']['number']}, "
                  f"stats {json.dumps(final['stats'])}")
            sound = all(a["lo"] <= a["hi"] for a in answers.values())
            smoke_seen = answers["smoke"]["hi"] >= 1
            if not (sound and smoke_seen):
                print("daemon smoke FAILED: unsound or missing answers")
                return 1
        finally:
            daemon.stop()
    print("daemon smoke OK")
    return 0


def cmd_serve_check(args: argparse.Namespace) -> int:
    from .service import (
        FaultSpec,
        FaultyIndex,
        QueryServer,
        build_default_ladder,
        run_concurrent_probe,
        run_health_probe,
    )

    from .build import BuildContext

    text = None
    if args.text is not None:
        text = _load_text(args.text, args.size, args.seed)
    patterns = None
    process_estimator = None
    if args.hot and (args.processes > 1 or args.daemon_smoke):
        raise ReproError(
            "--hot keeps the hot store in the serving process; it does "
            "not combine with --processes or --daemon-smoke"
        )
    if args.daemon_smoke:
        if not args.live:
            raise ReproError("--daemon-smoke rehearses a live corpus "
                             "directory; pass --live DIR")
        return _daemon_smoke(args)
    if args.processes > 1 and (args.shards > 1 or args.fault_rate > 0):
        raise ReproError(
            "--processes builds its own shard set; it does not combine "
            "with --shards or --fault-rate"
        )
    if args.live:
        if text is not None:
            raise ReproError(
                "--live serves the corpus directory's own documents; "
                "drop the text argument"
            )
        if args.shards > 1 or args.fault_rate > 0:
            raise ReproError(
                "--live serves the corpus's own shard set; "
                "it does not combine with --shards or --fault-rate"
            )
        from .live import LiveCorpus
        from .service import ResilientEstimator, TextStatsEstimator, Tier
        from .textutil import mixed_workload

        corpus = LiveCorpus.open(args.live)
        bodies = list(corpus.documents().values())
        if not bodies:
            corpus.close()
            raise ReproError(
                f"live corpus {args.live} holds no documents; ingest first"
            )
        # Ground truth for the probe is the live concatenation; patterns
        # crossing a document boundary have no corpus-side meaning, so
        # drop separator-containing probes.
        separator = corpus.config.separator
        text = Text.from_rows(bodies, separator=separator)
        patterns = [
            pattern
            for pattern in mixed_workload(text, per_length=10, seed=args.seed)
            if separator not in pattern
        ]
        if args.processes > 1:
            # Serve the corpus through the supervised daemon plane: shard
            # and delta segments in shared memory, one worker process per
            # segment, heartbeat monitoring, hot reload on commit.
            from .daemon import Supervisor

            process_estimator = Supervisor(corpus, owns_corpus=True)
            process_estimator.start()
            status = process_estimator.status()
            print(
                f"daemon ladder: generation "
                f"{status['generation']['number']} "
                f"(corpus generation {corpus.generation}), "
                f"{len(bodies)} document(s), "
                f"{len(status['workers'])} worker process(es) over "
                f"{len(status['generation']['segments'])} shared segment(s)"
            )
            service = ResilientEstimator(
                [
                    Tier(process_estimator, "daemon"),
                    Tier(TextStatsEstimator(text), "stats",
                         always_available=True),
                ],
                deadline_seconds=args.deadline_ms / 1000.0,
            )
        else:
            print(
                f"live ladder: generation {corpus.generation}, "
                f"{len(bodies)} document(s), "
                f"{corpus.delta_pending} pending mutation(s)"
            )
            service = ResilientEstimator(
                [
                    Tier(corpus, "live"),
                    Tier(TextStatsEstimator(text), "stats",
                         always_available=True),
                ],
                deadline_seconds=args.deadline_ms / 1000.0,
            )
    elif text is None:
        raise ReproError(
            "serve-check needs a text source (builtin corpus or file) "
            "or --live DIR"
        )
    elif args.processes > 1:
        from .service import ResilientEstimator, TextStatsEstimator, Tier
        from .shard import build_process_sharded
        from .textutil import ROW_SEPARATOR, mixed_workload

        plan = _shard_plan(text, args.processes)
        print(f"process-sharded ladder: {plan.k} worker processes over "
              f"shared segments, merge policy {args.merge_policy}")
        process_estimator, build_report = build_process_sharded(
            plan, "cpst", args.l, policy=args.merge_policy,
            max_workers=args.workers,
        )
        telemetry = process_estimator.attach_telemetry()
        shared_bytes = sum(t["segment_bytes"] for t in telemetry.values())
        attach_bytes = sum(t["attach_alloc_bytes"] for t in telemetry.values())
        print(f"segments: {shared_bytes} shared bytes (one copy per host), "
              f"{attach_bytes} bytes allocated attaching across "
              f"{plan.k} workers")
        service = ResilientEstimator(
            [
                Tier(process_estimator, "cpst-procs", certified_only=True),
                Tier(TextStatsEstimator(text), "stats", always_available=True),
            ],
            deadline_seconds=args.deadline_ms / 1000.0,
        )
        patterns = [
            pattern
            for pattern in mixed_workload(text, per_length=10, seed=args.seed)
            if ROW_SEPARATOR not in pattern
        ]
    elif args.shards > 1:
        if args.fault_rate > 0:
            raise ReproError(
                "--fault-rate targets the monolithic primary tier; "
                "with --shards use the watchdog's shard quarantine instead"
            )
        from .shard import build_sharded_ladder
        from .textutil import ROW_SEPARATOR, mixed_workload

        plan = _shard_plan(text, args.shards)
        print(f"sharded ladder: {plan.k} shards, "
              f"merge policy {args.merge_policy}")
        service = build_sharded_ladder(
            plan, args.l,
            policy=args.merge_policy,
            deadline_seconds=args.deadline_ms / 1000.0,
            max_workers=args.workers,
        )
        # The probe workload must be shard-meaningful: a pattern crossing
        # a document boundary has different truths in the sharded and
        # monolithic concatenations, so drop separator-containing probes.
        patterns = [
            pattern
            for pattern in mixed_workload(text, per_length=10, seed=args.seed)
            if ROW_SEPARATOR not in pattern
        ]
    else:
        # One context serves every tier (and the fault-wrapped primary):
        # the whole serve-check costs a single suffix sort.
        ctx = BuildContext(text, name=args.text)
        primary = None
        if args.fault_rate > 0:
            spec = FaultSpec(error_rate=args.fault_rate)
            primary = FaultyIndex(
                spec_for("cpst", args.l).build(ctx),
                {"count_or_none": spec, "automaton_count": spec},
                seed=args.fault_seed,
            )
            print(f"injecting transient faults on the primary tier "
                  f"at rate {args.fault_rate:.0%} (seed {args.fault_seed})")
        service = build_default_ladder(
            text, args.l,
            deadline_seconds=args.deadline_ms / 1000.0,
            primary=primary,
            context=ctx,
            max_workers=args.workers,
        )
    if args.hot:
        from .hot import HotPatternTier, with_hot_tier
        from .textutil import ROW_SEPARATOR, mixed_workload, zipf_workload

        store = HotPatternTier.from_text(text.raw, capacity=args.hot_k)
        service, hot_rung = with_hot_tier(service, store)
        if args.live:
            # Appends/deletes/commits on the corpus demote hot answers.
            corpus.attach_hot(store)
        print(
            f"hot tier '{hot_rung.name}': top-{args.hot_k} verified "
            f"answers + count-min warm tail in front of the ladder"
        )
        # A hot tier only shows itself under repetition: extend the
        # probe with a Zipf-distributed query log over in-text patterns.
        base = list(patterns) if patterns is not None else list(
            mixed_workload(text, per_length=10, seed=args.seed)
        )
        separator = (
            corpus.config.separator if args.live else ROW_SEPARATOR
        )
        zipf = [
            q
            for q in zipf_workload(
                text, num_queries=800,
                distinct=max(8, args.hot_k // 2), seed=args.seed,
            )
            if separator not in q
        ]
        patterns = base + zipf
    try:
        if args.concurrency > 1 and process_estimator is not None:
            from .parallel import AsyncQueryServer
            from .service import run_async_probe

            aserver = AsyncQueryServer(
                service,
                max_concurrent=args.concurrency,
                max_waiting=4 * args.concurrency,
                rate=args.rate,
            )
            print(f"hammering the asyncio server with "
                  f"{args.concurrency} concurrent tasks")
            report = run_async_probe(
                aserver, patterns, text=text, seed=args.seed,
                concurrency=args.concurrency,
            )
            print(report.format())
            print("server: " + aserver.stats().summary())
        elif args.concurrency > 1:
            server = QueryServer(
                service,
                max_concurrent=args.concurrency,
                max_waiting=4 * args.concurrency,
                rate=args.rate,
            )
            with server:
                print(f"hammering the query server with "
                      f"{args.concurrency} worker threads")
                report = run_concurrent_probe(
                    server, patterns, text=text, seed=args.seed,
                    concurrency=args.concurrency,
                )
                print(report.format())
                print("server: " + server.stats().summary())
        else:
            report = run_health_probe(
                service, patterns, text=text, seed=args.seed
            )
            print(report.format())
    finally:
        if process_estimator is not None:
            process_estimator.close()
    return 0 if report.ok else 1


def cmd_selectivity(args: argparse.Namespace) -> int:
    from .selectivity import (
        KVIEstimator,
        MOCEstimator,
        MOEstimator,
        MOLCEstimator,
        MOLEstimator,
    )

    estimator_classes = {
        "kvi": KVIEstimator,
        "mo": MOEstimator,
        "moc": MOCEstimator,
        "mol": MOLEstimator,
        "molc": MOLCEstimator,
    }
    text = _load_text(args.text, args.size, args.seed)
    index = CompactPrunedSuffixTree(text, args.l)
    estimator = estimator_classes[args.estimator](index)
    for pattern in args.patterns:
        estimate = estimator.estimate(pattern)
        certified = index.count_or_none(pattern) is not None
        tag = "exact" if certified else "estimated"
        print(f"{pattern!r}: {estimate:.2f} occurrences "
              f"({estimator.selectivity(pattern):.4%} selectivity, {tag})")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .live import LiveCorpus

    corpus = LiveCorpus.attach(
        args.directory,
        kind=args.kind,
        l=args.l,
        shards=args.shards,
        policy=args.merge_policy,
    )
    compaction = None
    try:
        actions = []
        for spec in args.append:
            name, eq, body = spec.partition("=")
            if not eq or not name:
                raise ReproError(f"--append expects NAME=BODY, got {spec!r}")
            actions.append(("append", name, corpus.append(name, body)))
        for spec in args.append_file:
            name, eq, source = spec.partition("=")
            if not eq or not name:
                raise ReproError(
                    f"--append-file expects NAME=PATH, got {spec!r}"
                )
            path = Path(source)
            if not path.exists():
                raise ReproError(f"--append-file: no such file: {source!r}")
            body = path.read_text(encoding="utf-8", errors="replace")
            actions.append(("append", name, corpus.append(name, body)))
        for name in args.delete:
            actions.append(("delete", name, corpus.delete(name)))
        if args.compact:
            compaction = corpus.compact()
        counts = {
            pattern: corpus.count_interval(pattern) for pattern in args.count
        }
        status = corpus.status()
    finally:
        corpus.close()
    if args.json:
        import json

        payload: dict = {
            "actions": [
                {"op": op, "name": name, "seq": seq}
                for op, name, seq in actions
            ],
            "counts": {p: list(interval) for p, interval in counts.items()},
            "status": status,
        }
        if compaction is not None:
            payload["compaction"] = compaction.as_dict()
        print(json.dumps(payload, ensure_ascii=False))
        return 0
    for op, name, seq in actions:
        print(f"{op} {name!r} -> wal seq {seq}")
    if compaction is not None:
        print(compaction.format())
    for pattern, (lo, hi) in counts.items():
        tag = "exact" if lo == hi else "interval"
        print(f"{pattern!r}: [{lo}, {hi}] ({tag})")
    print(
        f"generation {status['generation']}: {status['documents']} "
        f"document(s), {status['delta_pending']} pending mutation(s), "
        f"{status['durable_bytes']} durable byte(s)"
    )
    return 0


def cmd_space(args: argparse.Namespace) -> int:
    target = Path(args.target)
    if target.is_dir():
        from .live import LiveCorpus

        corpus = LiveCorpus.open(target)
        try:
            report = corpus.space_report()
            durable = corpus.durable_bytes()
            status = corpus.status()
            hot_report = None
            if args.hot:
                # Size the hot tier this corpus would get: the answer
                # sketch is built over the live documents, the top-k
                # table and frequency sketch are empty until queries
                # arrive, so this is the steady floor, not a peak.
                from .hot import HotPatternTier

                store = HotPatternTier.from_documents(
                    corpus.documents().items()
                )
                hot_report = store.space_report()
        finally:
            corpus.close()
        if args.json:
            import json

            payload = {
                "components": report.components,
                "overhead": report.overhead,
                "total_bits": report.total_bits,
                "durable_bytes": durable,
                "status": status,
            }
            if hot_report is not None:
                payload["hot"] = {
                    "components": hot_report.components,
                    "overhead": hot_report.overhead,
                    "total_bits": hot_report.total_bits,
                }
            print(json.dumps(payload, ensure_ascii=False))
            return 0
        print(report.format())
        rows = ", ".join(
            f"{role}={size}" for role, size in sorted(durable.items())
        )
        print(f"durable bytes: {rows} (total {sum(durable.values())})")
        if hot_report is not None:
            print(hot_report.format())
            print(
                f"hot tier floor: {hot_report.total_bits / 8:.0f} bytes "
                f"({hot_report.total_bits / 8 / 1024:.1f} KiB)"
            )
        return 0
    if args.hot:
        raise ReproError(
            "--hot sizes a hot tier over a live corpus directory's "
            "documents; pass a corpus DIR, not a saved index file"
        )
    from .io import load_index

    index = load_index(target)
    report = index.space_report()
    if args.json:
        import json

        print(json.dumps({
            "components": report.components,
            "overhead": report.overhead,
            "total_bits": report.total_bits,
        }, ensure_ascii=False))
        return 0
    print(report.format())
    return 0


def cmd_daemon(args: argparse.Namespace) -> int:
    from .daemon import ServingDaemon, default_socket_path, send_control

    socket_path = (
        Path(args.socket)
        if args.socket is not None
        else default_socket_path(args.directory)
    )
    client_ops = []
    if args.status:
        client_ops.append({"op": "status"})
    if args.reload:
        client_ops.append({"op": "reload", "compact": not args.no_compact})
    if args.drain:
        client_ops.append({"op": "drain"})
    if args.resume:
        client_ops.append({"op": "resume"})
    if args.revive is not None:
        client_ops.append({"op": "revive", "index": args.revive})
    for pattern in args.count:
        client_ops.append({"op": "count", "pattern": pattern})
    if args.stop:
        client_ops.append({"op": "stop"})
    if client_ops:
        # Client mode: each flag is one control round trip against the
        # running daemon's socket; nothing is started here.
        import json

        for request in client_ops:
            result = send_control(socket_path, request)
            if args.json:
                print(json.dumps(
                    {"op": request["op"], "result": result},
                    ensure_ascii=False,
                ))
            elif request["op"] == "count":
                print(f"{request['pattern']!r}: count={result['count']} "
                      f"[{result['lo']}, {result['hi']}] "
                      f"({result['model']}, generation "
                      f"{result['generation']})")
            elif request["op"] == "status":
                generation = result["generation"]
                workers = result["workers"]
                serving = sum(
                    1 for w in workers
                    if w["alive"] and not w["quarantined"]
                )
                print(f"generation {generation['number']} "
                      f"(corpus {result['corpus_generation']}, "
                      f"{result['delta_pending']} pending mutation(s))")
                print(f"workers: {serving}/{len(workers)} serving; "
                      f"segments: "
                      + ", ".join(s["name"] for s in generation["segments"]))
                print(f"stats: {json.dumps(result['stats'])}")
            else:
                print(f"{request['op']}: {result}")
        return 0
    # Server mode: run the daemon in the foreground until SIGTERM/SIGINT
    # (graceful drain) — SIGHUP forces a compacting reload.
    corpus_config = {
        "kind": args.kind,
        "l": args.l,
        "shards": args.shards,
        "policy": args.merge_policy,
    }
    daemon = ServingDaemon(
        args.directory,
        socket_path=socket_path,
        create=args.create,
        corpus_config=corpus_config if args.create else None,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        drain_timeout=args.drain_timeout,
    )
    daemon.start()
    try:
        status = daemon.supervisor.status()
        generation = status["generation"]
        print(f"serving {args.directory} at generation "
              f"{generation['number']}: "
              f"{len(status['workers'])} worker(s), control socket "
              f"{daemon.socket_path}")
        daemon.serve_forever()
    finally:
        daemon.stop()
    print("daemon stopped")
    return 0


def _add_text_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("text", help="builtin corpus name or path to a text file")
    parser.add_argument("--size", type=int, default=50_000,
                        help="size when generating a builtin corpus")
    parser.add_argument("--seed", type=int, default=0)


def _add_index_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--index", choices=INDEX_KINDS, default="cpst")
    parser.add_argument("--l", type=int, default=64, help="error threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Space-efficient substring occurrence estimation (PODS 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="build an index and count patterns")
    _add_text_arguments(p)
    _add_index_arguments(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--engine-stats",
        action="store_true",
        help="report the engine work counters (automaton steps, rank ops, "
        "cache traffic, bulk waves) for the batch",
    )
    p.add_argument("patterns", nargs="+")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "build",
        help="build one or more indexes from a shared context and save them",
    )
    _add_text_arguments(p)
    p.add_argument(
        "--index", nargs="+", choices=INDEX_KINDS, default=["cpst"],
        help="index kinds to build; all share one context (one suffix sort)",
    )
    p.add_argument("--l", type=int, default=64, help="error threshold")
    p.add_argument("--output", "-o", required=True,
                   help="output path (multiple kinds save to PATH.<kind>)")
    p.add_argument("--workers", type=int, default=None,
                   help="build independent indexes on N threads")
    p.add_argument("--build-report", action="store_true",
                   help="print the per-stage build telemetry table")
    p.add_argument("--cache-dir", default=None,
                   help="artifact cache directory (SA/BWT reused across runs "
                        "keyed by the text's content digest)")
    p.add_argument("--shards", type=int, default=1,
                   help="N > 1: partition the corpus into N document-aligned "
                        "shards and build one index per shard "
                        "(saved to OUTPUT.<shard>)")
    p.add_argument("--merge-policy", choices=["split", "widen"],
                   default="split",
                   help="sharded error budget: 'split' divides l across "
                        "shards (merged error stays < l), 'widen' keeps l "
                        "per shard and reports the widened merged bound")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="query a saved index")
    p.add_argument("index_file")
    p.add_argument("patterns", nargs="+")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats", help="text statistics and PST sizes")
    _add_text_arguments(p)
    p.add_argument("--l", type=int, nargs="+", default=[8, 64, 256])
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("dataset", help="generate a synthetic corpus")
    p.add_argument("name", choices=sorted(GENERATORS))
    p.add_argument("--size", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("report", help="run every experiment, write a markdown report")
    p.add_argument("--size", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="reproduction_report.md")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("validate", help="check every index's error contract on a text")
    _add_text_arguments(p)
    p.add_argument("--l", type=int, default=16)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("selectivity", help="LIKE-predicate estimation (CPST + estimator)")
    _add_text_arguments(p)
    p.add_argument("--l", type=int, default=64, help="CPST threshold")
    p.add_argument(
        "--estimator", choices=["kvi", "mo", "moc", "mol", "molc"], default="mol"
    )
    p.add_argument("patterns", nargs="+")
    p.set_defaults(func=cmd_selectivity)

    p = sub.add_parser(
        "serve-check",
        help="run a health probe through the resilient degradation ladder",
    )
    p.add_argument("text", nargs="?", default=None,
                   help="builtin corpus name or path to a text file "
                        "(omit when probing a live corpus via --live)")
    p.add_argument("--size", type=int, default=50_000,
                   help="size when generating a builtin corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--live", default=None, metavar="DIR",
                   help="serve a live corpus directory (repro ingest) "
                        "instead of building a ladder from a text")
    p.add_argument("--l", type=int, default=64, help="ladder error threshold")
    p.add_argument("--deadline-ms", type=float, default=500.0,
                   help="per-query soft deadline in milliseconds")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="inject transient faults into the primary tier at this rate")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for deterministic fault injection")
    p.add_argument("--concurrency", type=int, default=1,
                   help="N > 1: hammer a QueryServer with N worker threads "
                        "instead of probing the ladder sequentially")
    p.add_argument("--rate", type=float, default=None,
                   help="optional token-bucket rate limit (queries/second) "
                        "for the concurrent server; excess load is shed")
    p.add_argument("--workers", type=int, default=None,
                   help="build the ladder tiers on N threads "
                        "(they share one context either way)")
    p.add_argument("--shards", type=int, default=1,
                   help="N > 1: serve through sharded upper tiers "
                        "(per-shard CPST/APX fan-out with merged bounds)")
    p.add_argument("--processes", type=int, default=1,
                   help="N > 1: serve N shards from worker processes "
                        "attached to shared-memory segments (zero-copy); "
                        "with --concurrency > 1 the front is the asyncio "
                        "server instead of the thread server")
    p.add_argument("--merge-policy", choices=["split", "widen"],
                   default="split",
                   help="sharded error budget: 'split' divides l across "
                        "shards, 'widen' keeps l per shard")
    p.add_argument("--daemon-smoke", action="store_true",
                   help="with --live DIR: rehearse the serving daemon "
                        "(worker fleet, control socket, one "
                        "ingest -> hot reload -> query cycle) and exit")
    p.add_argument("--hot", action="store_true",
                   help="front the ladder with the frequency-aware hot "
                        "tier (top-k verified answers + count-min warm "
                        "tail); the probe gains a Zipf query log so "
                        "repetition shows up (rejected with "
                        "--processes > 1 or --daemon-smoke)")
    p.add_argument("--hot-k", type=int, default=64,
                   help="hot tier capacity: number of exactly-verified "
                        "top-k entries")
    p.set_defaults(func=cmd_serve_check)

    p = sub.add_parser(
        "ingest",
        help="mutate a crash-safe live corpus directory (see repro.live)",
    )
    p.add_argument("directory", help="live corpus directory (created if new)")
    p.add_argument("--append", action="append", default=[], metavar="NAME=BODY",
                   help="durably append one document (repeatable)")
    p.add_argument("--append-file", action="append", default=[],
                   metavar="NAME=PATH",
                   help="durably append one document read from a file "
                        "(repeatable)")
    p.add_argument("--delete", action="append", default=[], metavar="NAME",
                   help="durably delete one live document (repeatable)")
    p.add_argument("--compact", action="store_true",
                   help="fold the delta into a new immutable shard generation")
    p.add_argument("--count", action="append", default=[], metavar="PATTERN",
                   help="report the served count interval for a pattern "
                        "after the mutations (repeatable)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--kind", choices=["apx", "cpst"], default="cpst",
                   help="shard index kind (new corpus only)")
    p.add_argument("--l", type=int, default=64,
                   help="error threshold (new corpus only)")
    p.add_argument("--shards", type=int, default=2,
                   help="compaction shard count (new corpus only)")
    p.add_argument("--merge-policy", choices=["split", "widen"],
                   default="split",
                   help="sharded error budget (new corpus only)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "space",
        help="space rollup for a live corpus directory or a saved index file",
    )
    p.add_argument("target",
                   help="live corpus directory, or a saved index file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--hot", action="store_true",
                   help="also size the frequency-aware hot tier this "
                        "corpus would serve through (answer sketch over "
                        "the live documents; dir targets only)")
    p.set_defaults(func=cmd_space)

    p = sub.add_parser(
        "daemon",
        help="run (or control) the supervised serving daemon over a live "
             "corpus directory (see repro.daemon)",
    )
    p.add_argument("directory", help="live corpus directory")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="control socket path (default: DIR/daemon.sock)")
    p.add_argument("--create", action="store_true",
                   help="create the corpus directory if it does not exist")
    p.add_argument("--kind", choices=["apx", "cpst"], default="cpst",
                   help="shard index kind (with --create on a new corpus)")
    p.add_argument("--l", type=int, default=64,
                   help="error threshold (with --create on a new corpus)")
    p.add_argument("--shards", type=int, default=2,
                   help="compaction shard count (with --create)")
    p.add_argument("--merge-policy", choices=["split", "widen"],
                   default="split",
                   help="sharded error budget (with --create)")
    p.add_argument("--heartbeat-interval", type=float, default=0.25,
                   help="seconds between worker heartbeats")
    p.add_argument("--heartbeat-timeout", type=float, default=2.0,
                   help="heartbeat reply deadline before a worker is "
                        "counted as failed")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="bound on waiting for in-flight queries when "
                        "retiring a generation")
    p.add_argument("--status", action="store_true",
                   help="client: print the running daemon's status")
    p.add_argument("--reload", action="store_true",
                   help="client: publish and hot-flip a new generation")
    p.add_argument("--no-compact", action="store_true",
                   help="with --reload: export the delta as-is instead of "
                        "compacting first")
    p.add_argument("--drain", action="store_true",
                   help="client: stop admitting queries")
    p.add_argument("--resume", action="store_true",
                   help="client: resume admitting queries")
    p.add_argument("--revive", type=int, default=None, metavar="INDEX",
                   help="client: clear a condemned worker's quarantine "
                        "and respawn it")
    p.add_argument("--count", action="append", default=[], metavar="PATTERN",
                   help="client: probe one pattern through the daemon "
                        "(repeatable)")
    p.add_argument("--stop", action="store_true",
                   help="client: ask the daemon to shut down gracefully")
    p.add_argument("--json", action="store_true",
                   help="client: machine-readable output")
    p.set_defaults(func=cmd_daemon)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    p.add_argument("--size", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
