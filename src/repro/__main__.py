"""Command-line demos: ``python -m repro <scenario>``.

Scenarios:

* ``quickstart``  — schedule a mixed workload three ways (default)
* ``figure1``     — render an algorithm's communication pattern
* ``schedulers``  — the full baseline comparison table
* ``lowerbound``  — sample and attack a Theorem 3.1 hard instance
* ``mst``         — the Section 5 congestion/dilation tradeoff

Plus the telemetry subcommand::

    python -m repro trace <scenario> --out trace.json [--jsonl out.jsonl]

which re-runs a scenario's schedulers with an
:class:`~repro.telemetry.InMemoryRecorder` attached and exports the
phase spans and per-round counters as a Chrome ``trace_event`` file
(open it in ``chrome://tracing`` or https://ui.perfetto.dev).

And the chaos subcommand::

    python -m repro chaos [--quick] [--drops 0,0.02,0.05] [--retries 3]

which sweeps seeded message-drop probabilities over a scheduled
workload — raw (to show divergence) and under the ACK/retransmission
wrapper (to show recovery) — printing a survival table. See
``docs/ROBUSTNESS.md``.

And the sweep subcommand::

    python -m repro sweep [--workers N] [--sides 6,8] [--k 8] [--seeds 3]

which runs a mixed-workload scheduler grid through
:func:`repro.experiments.sweep` — over a
:class:`~repro.parallel.ParallelRunner` process pool when ``--workers``
(or ``REPRO_WORKERS``) asks for more than one worker — and reports the
rows plus wall-clock and solo-run cache statistics. See
``docs/PERFORMANCE.md``.

And the batch scheduling service (see ``docs/SERVICE.md``)::

    python -m repro submit --dir DIR --net grid:6x6 --algo bfs:source=0,hops=4
    python -m repro serve  --dir DIR [--batch-size 8] [--budget R]
    python -m repro status --dir DIR [--job ID]

``submit`` spools job specs into a service directory, ``serve`` drains
the spool — batching compatible jobs into single scheduled executions
and persisting results into the directory's content-addressed run
registry (resubmitted specs are served from it without re-execution) —
and ``status`` reports every job's lifecycle state at any time.
``serve`` also appends a job-lifecycle event log (``events.jsonl``) and
persists the service stats — including p50/p90/p99 queue and
end-to-end latency histograms derived from that log — into
``state.json``; ``status --json`` emits the whole thing as JSON and
``status --metrics`` as Prometheus text.

``serve`` is crash-safe: every job transition is written ahead to
``journal.jsonl`` (fsync policy via ``--fsync``), and a serve killed
mid-drain is recovered with ``serve --resume`` — acknowledged
completions are served from the registry without re-execution, and a
job that repeatedly took the process down is quarantined.
``python -m repro crashpoints`` lists the named crash-injection points
(arm one with ``REPRO_CRASH_POINT=<name>[:<hit>]``) used to test that
contract; see the "Durability & recovery" section of
``docs/SERVICE.md``.

And the observability subcommands (see ``docs/OBSERVABILITY.md``)::

    python -m repro profile <trace>            # wall-time attribution
    python -m repro metrics [state|trace]      # Prometheus exposition
    python -m repro bench compare OLD NEW      # benchmark trajectory

``profile`` attributes self/total wall time across the spans of a
Chrome trace or JSONL stream; ``metrics`` renders a metrics snapshot
(service ``state.json``, raw registry snapshot, or JSONL trace) in the
Prometheus text exposition format; ``bench compare`` diffs two e-series
result artifacts — or two whole ``benchmarks/results`` directories —
and flags metric regressions beyond a threshold.

``python -m repro --version`` prints the package version.
"""

from __future__ import annotations

import argparse
import os
import sys


def _quickstart_workload():
    from repro.algorithms import BFS, HopBroadcast
    from repro.congest import topology
    from repro.core import Workload

    net = topology.grid_graph(8, 8)
    return Workload(
        net,
        [
            BFS(0, hops=6),
            BFS(63, hops=6),
            HopBroadcast(27, "hello", 6),
            HopBroadcast(36, "world", 6),
        ],
    )


def _quickstart() -> None:
    from repro.core import (
        PrivateScheduler,
        RandomDelayScheduler,
        SequentialScheduler,
    )

    work = _quickstart_workload()
    print(f"8x8 grid; workload {work.params()}")
    for scheduler in (
        SequentialScheduler(),
        RandomDelayScheduler(),
        PrivateScheduler(),
    ):
        result = scheduler.run(work, seed=1)
        result.raise_on_mismatch()
        print(result.report.summary())


def _figure1() -> None:
    from repro.algorithms import BFS
    from repro.congest import solo_run, topology
    from repro.congest.render import render_pattern, render_schedule_timeline

    net = topology.path_graph(6)
    run = solo_run(net, BFS(0))
    print("communication pattern of BFS(0) on a 6-path (paper Figure 1):\n")
    print(render_pattern(net, run.pattern))
    print("\na delayed schedule of three copies (timeline):\n")
    print(render_schedule_timeline([5, 5, 5], [0, 2, 4], labels=["BFS-a", "BFS-b", "BFS-c"]))


def _schedulers() -> None:
    from repro.congest import topology
    from repro.core import (
        DoublingScheduler,
        EagerScheduler,
        GreedyPatternScheduler,
        PrivateScheduler,
        RandomDelayScheduler,
        RoundRobinScheduler,
        SequentialScheduler,
        SparsePhaseScheduler,
    )
    from repro.experiments import compare_schedulers, format_table, mixed_workload

    work = mixed_workload(topology.grid_graph(8, 8), 16, seed=42)
    print(f"mixed workload on 8x8 grid: {work.params()}\n")
    rows = compare_schedulers(
        work,
        [
            SequentialScheduler(),
            RoundRobinScheduler(),
            EagerScheduler(),
            GreedyPatternScheduler(),
            RandomDelayScheduler(),
            SparsePhaseScheduler(),
            DoublingScheduler(),
            PrivateScheduler(),
        ],
        seed=5,
    )
    print(
        format_table(
            ["scheduler", "rounds", "pre", "ratio", "correct"],
            [r.as_tuple() for r in rows],
        )
    )


def _run_example(name: str) -> None:
    import runpy
    from pathlib import Path

    candidates = [
        Path("examples") / name,
        Path(__file__).resolve().parents[2] / "examples" / name,
    ]
    for path in candidates:
        if path.exists():
            runpy.run_path(str(path), run_name="__main__")
            return
    raise SystemExit(
        f"example {name} not found; run from the repository root"
    )


def _lowerbound() -> None:
    _run_example("lower_bound_instance.py")


def _mst() -> None:
    _run_example("kshot_mst.py")


def _derandomize() -> None:
    _run_example("derandomized_distinct_elements.py")


def _trace_targets(scenario: str, seed: int):
    """Workload + schedulers to run under the recorder for a scenario."""
    from repro.core import (
        PrivateScheduler,
        RandomDelayScheduler,
        SequentialScheduler,
    )
    from repro.experiments import mixed_workload

    if scenario == "quickstart":
        return _quickstart_workload(), [
            SequentialScheduler(),
            RandomDelayScheduler(),
            PrivateScheduler(),
        ]
    if scenario == "schedulers":
        from repro.congest import topology

        work = mixed_workload(topology.grid_graph(8, 8), 16, seed=42)
        return work, [
            RandomDelayScheduler(),
            PrivateScheduler(),
            PrivateScheduler(dedup=False),
        ]
    if scenario == "distributed":
        from repro.congest import topology

        work = mixed_workload(topology.grid_graph(6, 6), 8, seed=7)
        return work, [PrivateScheduler(distributed_precomputation=True)]
    raise SystemExit(f"scenario {scenario!r} is not traceable")


#: Scenarios ``python -m repro trace`` accepts.
TRACEABLE = ("quickstart", "schedulers", "distributed")


def _trace(args) -> None:
    from repro.telemetry import (
        InMemoryRecorder,
        summary_table,
        write_chrome_trace,
        write_jsonl,
    )

    workload, schedulers = _trace_targets(args.scenario, args.seed)
    recorder = InMemoryRecorder()
    print(f"tracing {args.scenario}: {workload.params()}")
    for scheduler in schedulers:
        with recorder.span(scheduler.name, category="run"):
            result = scheduler.with_recorder(recorder).run(
                workload, seed=args.seed
            )
        result.raise_on_mismatch()
        print(result.report.summary())

    print()
    print(summary_table(recorder))
    path = write_chrome_trace(recorder, args.out, process_name=args.scenario)
    print(
        f"\nwrote {len(recorder.spans)} spans / {len(recorder.samples)} "
        f"samples to {path}"
    )
    print("open it in chrome://tracing or https://ui.perfetto.dev")
    if args.jsonl:
        print(f"wrote JSONL event stream to {write_jsonl(recorder, args.jsonl)}")


def _chaos(args) -> None:
    from repro.congest import topology
    from repro.core import RandomDelayScheduler, Workload
    from repro.experiments import mixed_workload
    from repro.faults import FaultPlan, wrap_workload

    if args.quick:
        net = topology.grid_graph(4, 4)
        work = mixed_workload(net, 2, seed=11)
    else:
        net = topology.grid_graph(6, 6)
        work = mixed_workload(net, 4, seed=11)
    drops = [float(d) for d in args.drops.split(",") if d.strip() != ""]
    wrapped = wrap_workload(work, max_retries=args.retries)
    print(
        f"chaos sweep on {net!r}: k={work.num_algorithms}, "
        f"retries={args.retries}, fault seed={args.seed}"
    )
    header = f"{'drop':>6}  {'mode':<9} {'status':<9} {'verified':>8}  faults"
    print(header)
    print("-" * len(header))
    for drop in drops:
        plan = FaultPlan.message_drop(drop, seed=args.seed)
        for mode, workload in (("raw", work), ("resilient", wrapped)):
            scheduler = RandomDelayScheduler().with_faults(plan)
            result = scheduler.run_resilient(workload, seed=args.seed)
            if result.failure is not None:
                status = "failed"
            elif result.correct:
                status = "ok"
            else:
                status = "diverged"
            verified = (
                f"{len(result.verified_algorithms)}/"
                f"{result.report.params.num_algorithms}"
            )
            faults = (result.report.telemetry or {}).get("faults", {})
            shown = (
                ", ".join(
                    f"{k.split('.')[-1]}={v}" for k, v in sorted(faults.items())
                )
                or "-"
            )
            print(f"{drop:>6.3f}  {mode:<9} {status:<9} {verified:>8}  {shown}")
    print(
        "\n'raw' shows what unprotected schedules lose; 'resilient' wraps "
        "every algorithm\nin the ACK/retransmission transport "
        "(repro.faults.wrap_workload)."
    )


def _sweep_cli(args) -> None:
    from time import perf_counter

    from repro.core import (
        RandomDelayScheduler,
        RoundRobinScheduler,
        SequentialScheduler,
    )
    from repro.experiments import format_table, grid_mixed_workload, sweep
    from repro.parallel import ParallelRunner, default_cache

    sides = [int(s) for s in args.sides.split(",") if s.strip()]
    configs = [{"side": side, "k": args.k} for side in sides]
    schedulers = [
        SequentialScheduler(),
        RoundRobinScheduler(),
        RandomDelayScheduler(),
    ]
    runner = ParallelRunner(args.workers)
    print(
        f"sweep: {len(configs)} configs × {args.seeds} seeds × "
        f"{len(schedulers)} schedulers, workers={runner.workers}"
    )
    start = perf_counter()
    points = sweep(
        configs,
        grid_mixed_workload,
        schedulers,
        seeds=range(args.seeds),
        runner=runner,
    )
    elapsed = perf_counter() - start
    headers = ["side", "k", "scheduler", "C", "D", "len", "pre", "ratio", "ok"]
    rows = [
        [
            p.config["side"],
            p.config["k"],
            p.scheduler,
            p.congestion,
            p.dilation,
            p.length_rounds,
            p.precomputation_rounds,
            round(p.competitive_ratio, 2),
            p.correct,
        ]
        for p in points
        if p.seed == 0
    ]
    print(format_table(headers, rows))
    incorrect = [p for p in points if not p.correct]
    print(
        f"\n{len(points)} points in {elapsed:.2f}s "
        f"({len(incorrect)} incorrect)"
    )
    cache = default_cache()
    if cache is not None:
        note = " (parent process)" if runner.workers > 1 else ""
        print(f"solo-run cache{note}: {cache.stats()}")
    if incorrect:
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# the batch scheduling service (docs/SERVICE.md)
# ---------------------------------------------------------------------------

#: Default service directory for serve/submit/status.
SERVICE_DIR = ".repro_service"

#: Schedulers the serve subcommand can run batches with.
SERVICE_SCHEDULERS = ("random-delay", "round-robin", "sequential", "private")


def _service_scheduler(name: str):
    from repro.core import (
        PrivateScheduler,
        RandomDelayScheduler,
        RoundRobinScheduler,
        SequentialScheduler,
    )

    return {
        "random-delay": RandomDelayScheduler,
        "round-robin": RoundRobinScheduler,
        "sequential": SequentialScheduler,
        "private": PrivateScheduler,
    }[name]()


def _spool_dir(base) -> "object":
    from pathlib import Path

    return Path(base) / "spool"


def _read_state(base) -> dict:
    import json
    from pathlib import Path

    path = Path(base) / "state.json"
    if not path.exists():
        return {"jobs": {}}
    return json.loads(path.read_text())


#: ``spool.seq`` is one fixed-width decimal line, so reserving ids is a
#: single in-place write that never changes the file's length.
_SEQ_WIDTH = 20


def _last_spool_id(base) -> int:
    """The highest id in use under ``base``, by scanning: 0 when none.

    Ids continue across serve runs, so both the waiting spool files and
    the already-served jobs recorded in ``state.json`` count.
    """
    existing = {p.stem for p in _spool_dir(base).glob("s*.json")}
    existing.update(_read_state(base).get("jobs", {}))
    numbers = [int(sid[1:]) for sid in existing if sid[1:].isdigit()]
    return max(numbers) if numbers else 0


def _reserve_spool_ids(base, count: int) -> int:
    """Reserve ``count`` spool ids; return the last id taken before them.

    ``<base>/spool.seq`` holds the last id handed out. It is read and
    advanced under an exclusive ``flock``, and fsynced before the lock
    is released, so concurrent submits never share an id and a crash
    can skip ids but not repeat one. A missing, empty or unreadable
    counter (fresh directory, or one written by an older version) is
    re-derived from the directory scan.
    """
    import fcntl

    fd = os.open(os.path.join(base, "spool.seq"), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        text = os.pread(fd, _SEQ_WIDTH, 0).strip()
        last = int(text) if text.isdigit() else _last_spool_id(base)
        os.pwrite(fd, b"%0*d\n" % (_SEQ_WIDTH, last + count), 0)
        os.fsync(fd)
    finally:
        os.close(fd)  # also drops the lock
    return last


def _submit_cli(args) -> None:
    import json

    from repro._util import atomic_write_text
    from repro.service import parse_algorithm, parse_network

    # Validate the specs before spooling anything.
    parse_algorithm(args.algo, network=parse_network(args.net))
    spool = _spool_dir(args.dir)
    spool.mkdir(parents=True, exist_ok=True)
    last = _reserve_spool_ids(args.dir, args.count)
    submitted = []
    for offset in range(args.count):
        spool_id = f"s{last + 1 + offset:04d}"
        record = {
            "id": spool_id,
            "net": args.net,
            "algo": args.algo,
            "seed": args.seed,
        }
        # Atomic: a submit killed mid-write must not leave a torn spool
        # file for the next serve to choke on.
        atomic_write_text(
            spool / f"{spool_id}.json", json.dumps(record, indent=2)
        )
        submitted.append(spool_id)
    noun = "job" if len(submitted) == 1 else "jobs"
    print(
        f"spooled {len(submitted)} {noun} "
        f"[{submitted[0]}..{submitted[-1]}] into {spool}"
        if len(submitted) > 1
        else f"spooled {submitted[0]} into {spool}"
    )


def _serve_cli(args) -> int:
    import json
    import signal as signal_mod
    from pathlib import Path

    from repro import __version__
    from repro._util import atomic_write_text
    from repro.experiments import format_table
    from repro.parallel import ParallelRunner
    from repro.service import (
        AdmissionPolicy,
        ServeLoop,
        ShardedSchedulerService,
        parse_algorithm,
        parse_network,
    )

    base = Path(args.dir)
    spool = _spool_dir(base)
    follow = getattr(args, "follow", False)

    # Pre-flight without opening (and thus repairing) any journal:
    # unfinished jobs from a crashed serve belong to --resume.
    pending = ShardedSchedulerService.pending_jobs(base)
    if pending and not getattr(args, "resume", False):
        flat = [jid for ids in pending.values() for jid in ids]
        preview = ", ".join(flat[:5]) + ("..." if len(flat) > 5 else "")
        print(
            f"{len(flat)} journaled job(s) from a previous serve are "
            f"unfinished ({preview}); re-run with --resume to recover "
            f"them, or delete the journals under {base} to discard."
        )
        return 1
    resuming = bool(pending) and getattr(args, "resume", False)
    specs = sorted(spool.glob("s*.json")) if spool.exists() else []
    if not specs and not resuming and not follow:
        print(f"nothing to serve: no spooled jobs under {spool}")
        return 0

    policy = AdmissionPolicy(
        round_budget=args.budget,
        park_over_budget=args.park,
        max_shard_depth=getattr(args, "max_shard_depth", None),
        park_over_depth=args.park,
    )
    kwargs = dict(
        scheduler=_service_scheduler(args.scheduler),
        batch_size=args.batch_size,
        policy=policy,
        # One pool for the whole serve: each drain wave maps batches
        # from *all* shards across it at once.
        runner=ParallelRunner(args.workers, persistent=True),
        schedule_seed=args.seed,
        transport=args.transport,
        fsync=args.fsync,
    )
    if resuming:
        service = ShardedSchedulerService.recover(base, **kwargs)
        recovered = sum(
            1 for job in service.jobs() if job.meta.get("recovered")
        )
        print(
            f"recovered {recovered} journaled job(s) from "
            f"{len(service.shards)} shard journal(s) under {base}"
        )
    else:
        service = ShardedSchedulerService(directory=base, **kwargs)
    state = _read_state(base)
    # Spool files already journaled by a crashed serve belong to
    # recovery, not resubmission; everything else is submitted fresh.
    seen_spools = set(service.journaled_spools())
    spool_of = {}
    # One Network per spec string for the life of the serve: the
    # topology is immutable, so every job naming it can share it.
    networks = {}
    # Spool files this serve refused, stem -> reason. sync_state records
    # them and, once state.json holds the verdict, removes the files.
    rejections = {}

    def parse_record(text: str, stem: str):
        record = json.loads(text)
        if not isinstance(record, dict):
            raise ValueError("spool record is not a JSON object")
        missing = [key for key in ("id", "net", "algo") if key not in record]
        if missing:
            raise ValueError(f"spool record lacks {'/'.join(missing)}")
        if record["id"] != stem:
            raise ValueError(
                f"spool record id {record['id']!r} does not match its file name"
            )
        network = networks.get(record["net"])
        if network is None:
            network = networks[record["net"]] = parse_network(record["net"])
        return record, network, parse_algorithm(record["algo"], network=network)

    def poll() -> int:
        if not spool.exists():
            return 0
        submitted = 0
        # A file is read once: queued, parked and refused records are
        # all known by their stem on every later poll.
        new = (p for p in spool.glob("s*.json") if p.stem not in seen_spools)
        for path in sorted(new):
            try:
                text = path.read_text()
            except FileNotFoundError:
                continue  # gone since the glob
            seen_spools.add(path.stem)
            try:
                record, network, algorithm = parse_record(text, path.stem)
            except Exception as exc:  # one bad record must not end the serve
                rejections[path.stem] = str(exc) or type(exc).__name__
                continue
            job = service.submit(
                network,
                algorithm,
                master_seed=record.get("seed", 0),
                spec=record,
            )
            spool_of[job.job_id] = record
            submitted += 1
        return submitted

    def spool_record(job):
        """The spool record ``job`` came from; ``None`` if it has none."""
        record = spool_of.get(job.job_id)
        if record is None and job.meta.get("spool") is not None:
            # Recovered from the journal, which keeps the spec strings.
            record = {
                "id": job.meta["spool"],
                "net": job.meta.get("net", "?"),
                "algo": job.meta.get("algo", "?"),
                "seed": job.master_seed,
            }
        return record

    def sync_state() -> None:
        for job in service.jobs():
            record = spool_record(job)
            if record is None:
                continue
            entry = job.describe()
            entry["net"] = record["net"]
            entry["algo"] = record["algo"]
            entry["seed"] = record.get("seed", 0)
            entry["repro_version"] = __version__
            state["jobs"][record["id"]] = entry
            if job.terminal:
                (spool / f"{record['id']}.json").unlink(missing_ok=True)
        for stem, reason in rejections.items():
            state["jobs"][stem] = {"state": "rejected", "reason": reason}
        state["version"] = __version__
        state["stats"] = service.stats()
        atomic_write_text(base / "state.json", json.dumps(state, indent=2))
        for stem in rejections:
            (spool / f"{stem}.json").unlink(missing_ok=True)

    def checkpoint() -> None:
        sync_state()
        # Compact each shard's surviving history into one checkpoint
        # record: the next serve replays O(live jobs), not
        # O(everything ever journaled).
        service.checkpoint()

    loop = ServeLoop(
        service,
        poll=poll,
        checkpoint=checkpoint,
        poll_interval=getattr(args, "poll_interval", 0.5),
        checkpoint_every=getattr(args, "checkpoint_every", 10.0),
    )
    stop_signal = loop.run(follow=follow)
    # A signal stop leaves queued jobs journaled for --resume; drain was
    # already graceful (the in-flight wave settled before the loop broke).
    service.shutdown(drain=False)

    rows = []
    for job in service.jobs():
        record = spool_record(job)
        if record is None:
            continue
        rows.append(
            [
                record["id"],
                record["algo"],
                job.state.value,
                "registry" if (job.result and job.result.from_registry) else (
                    f"batch×{job.result.batch_size}" if job.result else "-"
                ),
                job.reason or "-",
            ]
        )
    rows.extend(
        [stem, "?", "rejected", "-", reason] for stem, reason in rejections.items()
    )
    stats = service.stats()

    print(format_table(["job", "algorithm", "state", "served by", "note"], rows))
    quarantined = stats["jobs"].get("quarantined", 0)
    extra = f" / {quarantined} quarantined" if quarantined else ""
    print(
        f"\n{stats['jobs']['done']} done / {stats['jobs']['failed']} failed / "
        f"{stats['jobs']['rejected'] + len(rejections)} rejected / "
        f"{stats['jobs']['parked']} parked"
        f"{extra} in {stats['batches']} batches across "
        f"{len(service.shards)} shard(s); registry {stats['registry']}"
    )
    latency = stats.get("latency")
    if latency and latency["e2e_latency_s"]["count"]:
        e2e = latency["e2e_latency_s"]
        print(
            f"e2e latency p50={e2e['p50'] * 1e3:.1f}ms "
            f"p90={e2e['p90'] * 1e3:.1f}ms p99={e2e['p99'] * 1e3:.1f}ms; "
            f"{latency['jobs_per_sec']:.1f} jobs/s "
            f"({latency['events']} events -> {base / 'shards'})"
        )
    if stop_signal is not None:
        name = signal_mod.Signals(stop_signal).name
        queued = stats["queue_depth"]
        tail = (
            f"; {queued} queued job(s) journaled — resume with --resume"
            if queued
            else ""
        )
        print(f"stopped by {name}: in-flight wave settled, journals "
              f"checkpointed{tail}")
        return 0
    return 1 if stats["jobs"]["failed"] or quarantined else 0


def _stats_snapshot(stats: dict) -> dict:
    """Service stats (as persisted in ``state.json``) as a metrics snapshot.

    Rebuilds the ``{"counters", "gauges", "histograms"}`` shape
    :func:`repro.telemetry.prometheus_text` renders, so the persisted
    service state is scrapeable without a live recorder.
    """
    counters = {
        f"service.jobs.{state}": count
        for state, count in (stats.get("jobs") or {}).items()
    }
    counters["service.batches"] = stats.get("batches", 0)
    for name, value in (stats.get("engine_counters") or {}).items():
        counters[name] = value
    registry = stats.get("registry") or {}
    if isinstance(registry, dict):
        for key, value in registry.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counters[f"service.registry.{key}"] = value
    gauges = {
        "service.queue_depth": stats.get("queue_depth", 0),
        "service.backlog": stats.get("backlog", 0),
        "service.events": stats.get("events", 0),
    }
    histograms = {}
    latency = stats.get("latency") or {}
    for key in ("queue_latency_s", "e2e_latency_s"):
        if isinstance(latency.get(key), dict):
            histograms[f"service.{key}"] = latency[key]
    if latency:
        gauges["service.jobs_per_sec"] = latency.get("jobs_per_sec", 0.0)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _status_cli(args) -> int:
    from repro.experiments import format_table

    state = _read_state(args.dir)
    spool = _spool_dir(args.dir)
    jobs = dict(state.get("jobs", {}))
    if spool.exists():
        import json

        for path in sorted(spool.glob("s*.json")):
            try:
                record = json.loads(path.read_text())
            except FileNotFoundError:
                continue  # served and unlinked since the glob
            jobs.setdefault(
                record["id"],
                {"state": "spooled", "algo": record["algo"], "net": record["net"]},
            )
    if getattr(args, "json", False):
        import json

        payload = {
            "dir": str(args.dir),
            "version": state.get("version"),
            "jobs": jobs,
            "stats": state.get("stats"),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        failed = sum(1 for e in jobs.values() if e.get("state") == "failed")
        return 1 if failed else 0
    if getattr(args, "metrics", False):
        from repro.telemetry import prometheus_text

        stats = state.get("stats")
        if not stats:
            print(f"no persisted stats under {args.dir}; run serve first")
            return 1
        print(prometheus_text(_stats_snapshot(stats)), end="")
        return 0
    if args.job:
        entry = jobs.get(args.job)
        if entry is None:
            print(f"unknown job {args.job!r}")
            return 1
        for key, value in sorted(entry.items()):
            print(f"{key}: {value}")
        return 1 if entry.get("state") == "failed" else 0
    if not jobs:
        print(f"no jobs known under {args.dir}")
        return 0
    rows = [
        [
            spool_id,
            entry.get("algo", entry.get("algorithm", "?")),
            entry.get("state", "?"),
            "yes" if entry.get("from_registry") else "-",
            entry.get("reason", "-") or "-",
        ]
        for spool_id, entry in sorted(jobs.items())
    ]
    print(format_table(["job", "algorithm", "state", "registry", "note"], rows))
    failed = sum(1 for e in jobs.values() if e.get("state") == "failed")
    if failed:
        print(f"\n{failed} job(s) failed")
        return 1
    return 0


# ---------------------------------------------------------------------------
# observability front ends: profile / metrics / bench compare
# ---------------------------------------------------------------------------


def _profile_cli(args) -> int:
    from repro.telemetry import load_trace_spans, profile_spans, profile_table

    try:
        spans = load_trace_spans(args.trace)
    except (OSError, ValueError) as exc:
        print(f"cannot profile {args.trace}: {exc}")
        return 1
    if not spans:
        print(f"{args.trace} holds no spans to profile")
        return 1
    profile = profile_spans(spans)
    print(f"profile of {args.trace}:\n")
    print(profile_table(profile, top=args.top))
    return 0


def _metrics_cli(args) -> int:
    import json
    from pathlib import Path

    from repro.telemetry import prometheus_text

    source = Path(args.source) if args.source else Path(args.dir) / "state.json"
    if not source.exists():
        print(f"no metrics source at {source}")
        return 1
    text = source.read_text()
    snapshot = None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        if "counters" in payload or "histograms" in payload:
            snapshot = payload  # a raw registry snapshot
        elif "stats" in payload or "jobs" in payload:
            stats = payload.get("stats") or {}
            if not stats:
                print(f"{source} holds no persisted stats; run serve first")
                return 1
            snapshot = _stats_snapshot(stats)
    if snapshot is None:
        # JSONL trace stream: the trailing record is the metrics snapshot.
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("type") == "metrics":
                snapshot = {
                    "counters": record.get("counters"),
                    "gauges": record.get("gauges"),
                    "histograms": record.get("histograms"),
                }
    if snapshot is None:
        print(f"{source} is neither a service state file nor a JSONL trace")
        return 1
    print(prometheus_text(snapshot), end="")
    return 0


def _bench_compare_cli(args) -> int:
    from pathlib import Path

    from repro.experiments import (
        compare_dirs,
        compare_results,
        load_result,
        markdown_summary,
    )

    old, new = Path(args.old), Path(args.new)
    skipped: list = []
    if old.is_dir() and new.is_dir():
        comparisons, skipped = compare_dirs(
            old, new, threshold=args.threshold, names=args.only or None
        )
    elif old.is_file() and new.is_file():
        try:
            comparisons = [
                compare_results(
                    load_result(old), load_result(new), threshold=args.threshold
                )
            ]
        except ValueError as exc:
            print(f"cannot compare: {exc}")
            return 2
    else:
        print(
            f"old and new must both be files or both be directories "
            f"(got {old} and {new})"
        )
        return 2
    summary = markdown_summary(
        comparisons, threshold=args.threshold, skipped=skipped
    )
    if args.markdown:
        out = Path(args.markdown)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(summary)
        print(f"wrote markdown summary to {out}")
    regressions = [d for c in comparisons for d in c.regressions]
    changes = [d for c in comparisons for d in c.changes]
    print(
        f"compared {len(comparisons)} artifact(s) at threshold "
        f"{args.threshold:.0%}: {len(regressions)} regression(s), "
        f"{len(changes)} change(s), {len(skipped)} skipped"
    )
    for comparison in comparisons:
        for delta in comparison.regressions:
            print(
                f"  REGRESSED {comparison.name}: {delta.name} "
                f"{delta.old:g} -> {delta.new:g} ({delta.rel_change:+.1%})"
            )
    if not args.markdown:
        print()
        print(summary)
    if regressions and args.strict:
        return 1
    return 0


SCENARIOS = {
    "quickstart": _quickstart,
    "figure1": _figure1,
    "schedulers": _schedulers,
    "lowerbound": _lowerbound,
    "mst": _mst,
    "derandomize": _derandomize,
}


def _fuzz_check_index(task):
    # Module-level so --jobs can fan indices out over a process pool;
    # scenario i depends only on (seed, i), so workers need no state.
    seed, index = task
    from repro.fuzz import DifferentialOracle, ScenarioGenerator

    oracle = DifferentialOracle(fuzz_seed=seed)
    return index, oracle.check(ScenarioGenerator(seed).generate(index))


def _fuzz_cli(args) -> int:
    import json
    import time as _time
    from pathlib import Path

    from repro.fuzz import (
        Corpus,
        DifferentialOracle,
        ScenarioGenerator,
        Shrinker,
    )

    oracle = DifferentialOracle(fuzz_seed=args.seed)
    corpus = Corpus(Path(args.corpus)) if args.corpus else None

    if args.replay:
        if corpus is None:
            print("fuzz --replay needs --corpus DIR", file=sys.stderr)
            return 2
        failures = 0
        pairs = corpus.replay(oracle)
        for entry, report in pairs:
            status = "ok" if report.ok else "DIVERGES"
            print(f"{entry.path.name}: {status}")
            for divergence in report.divergences:
                print(f"  {divergence}")
                failures += 1
        print(f"replayed {len(pairs)} reproducers, {failures} divergences")
        return 1 if failures else 0

    indices = [args.only] if args.only is not None else list(range(args.budget))
    started = _time.perf_counter()
    reports = []
    tasks = [(args.seed, index) for index in indices]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            stream = pool.map(_fuzz_check_index, tasks, chunksize=4)
            for index, report in stream:
                reports.append((index, report))
                if (
                    args.time_limit
                    and _time.perf_counter() - started > args.time_limit
                ):
                    break
    else:
        for task in tasks:
            index, report = _fuzz_check_index(task)
            reports.append((index, report))
            if (
                args.time_limit
                and _time.perf_counter() - started > args.time_limit
            ):
                break

    checks = sum(report.checks for _, report in reports)
    divergent = [(i, r) for i, r in reports if not r.ok]
    elapsed = _time.perf_counter() - started
    print(
        f"fuzz: {len(reports)} scenarios, {checks} checks, "
        f"{len(divergent)} divergent, {elapsed:.1f}s "
        f"(seed={args.seed})"
    )
    shrinker = Shrinker(oracle)
    for index, report in divergent:
        divergence = report.divergences[0]
        print(f"\nscenario {index} ({report.scenario.fingerprint()}):")
        for entry in report.divergences:
            print(f"  {entry}")
        print(
            f"  reproduce: python -m repro fuzz "
            f"--seed {args.seed} --only {index}"
        )
        if args.no_shrink:
            continue
        shrunk = shrinker.shrink(report.scenario, divergence)
        print(
            f"  shrunk in {shrunk.steps} steps "
            f"({shrunk.attempts} attempts) to "
            f"{shrunk.scenario.fingerprint()}:"
        )
        print(f"    {json.dumps(shrunk.scenario.to_dict())}")
        if corpus is not None:
            path = corpus.add(shrunk.scenario, shrunk.divergence)
            print(f"  saved reproducer: {path}")
    return 1 if divergent else 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("--version", "-V", "version"):
        from repro import __version__

        print(f"repro {__version__}")
        return 0

    if argv and argv[0] == "submit":
        parser = argparse.ArgumentParser(
            prog="python -m repro submit",
            description="Spool a job for the batch scheduling service.",
        )
        parser.add_argument(
            "--dir", default=SERVICE_DIR,
            help=f"service directory (default: {SERVICE_DIR})",
        )
        parser.add_argument(
            "--net", required=True,
            help="network spec, e.g. grid:6x6, path:8, ring:12",
        )
        parser.add_argument(
            "--algo", required=True,
            help="algorithm spec, e.g. bfs:source=0,hops=4",
        )
        parser.add_argument(
            "--seed", type=int, default=0, help="master seed (default: 0)"
        )
        parser.add_argument(
            "--count", type=int, default=1,
            help="spool the same spec this many times (default: 1)",
        )
        _submit_cli(parser.parse_args(argv[1:]))
        return 0

    if argv and argv[0] == "serve":
        parser = argparse.ArgumentParser(
            prog="python -m repro serve",
            description="Drain the spooled jobs: batch, schedule, persist.",
        )
        parser.add_argument(
            "--dir", default=SERVICE_DIR,
            help=f"service directory (default: {SERVICE_DIR})",
        )
        parser.add_argument(
            "--batch-size", type=int, default=8,
            help="max jobs per workload execution (default: 8)",
        )
        parser.add_argument(
            "--budget", type=int, default=None,
            help="admission round budget (default: unlimited)",
        )
        parser.add_argument(
            "--park", action="store_true",
            help="park over-budget jobs instead of rejecting them",
        )
        parser.add_argument(
            "--scheduler", default="random-delay", choices=SERVICE_SCHEDULERS,
            help="scheduler executing each batch (default: random-delay)",
        )
        parser.add_argument(
            "--workers", type=int, default=None,
            help="process-pool workers for independent batches "
            "(default: REPRO_WORKERS, else serial)",
        )
        parser.add_argument(
            "--seed", type=int, default=1, help="schedule seed (default: 1)"
        )
        parser.add_argument(
            "--transport", default=None,
            choices=("auto", "reference", "numpy"),
            help="message-transport backend for every execution "
            "(default: auto — numpy when available; backends are "
            "bit-identical, only wall-clock differs)",
        )
        parser.add_argument(
            "--resume", action="store_true",
            help="recover unfinished jobs from the per-shard write-ahead "
            "journals left by a crashed serve (idempotent; acknowledged "
            "completions are never re-executed)",
        )
        parser.add_argument(
            "--fsync", default="batch", choices=("always", "batch", "never"),
            help="journal durability: 'always' fsyncs every record "
            "(power-loss safe), 'batch' flushes to the OS (kill -9 "
            "safe, default), 'never' is buffered",
        )
        parser.add_argument(
            "--follow", action="store_true",
            help="keep serving: poll the spool for newly submitted jobs "
            "instead of exiting once drained; stop with SIGTERM/SIGINT "
            "(the in-flight wave settles and the journals checkpoint "
            "before exit)",
        )
        parser.add_argument(
            "--poll-interval", type=float, default=0.5,
            dest="poll_interval",
            help="idle seconds between spool polls in --follow mode "
            "(default: 0.5)",
        )
        parser.add_argument(
            "--checkpoint-every", type=float, default=10.0,
            dest="checkpoint_every",
            help="seconds between periodic journal checkpoints while "
            "serving (default: 10)",
        )
        parser.add_argument(
            "--max-shard-depth", type=int, default=None,
            dest="max_shard_depth",
            help="per-network backpressure: cap each shard's backlog; "
            "submissions to a shard at capacity are shed — or parked "
            "with --park, to be released as the shard drains "
            "(default: uncapped)",
        )
        return _serve_cli(parser.parse_args(argv[1:]))

    if argv and argv[0] == "crashpoints":
        from repro.service import CRASH_POINTS

        for name in CRASH_POINTS:
            print(name)
        return 0

    if argv and argv[0] == "status":
        parser = argparse.ArgumentParser(
            prog="python -m repro status",
            description="Report the lifecycle state of spooled/served jobs.",
        )
        parser.add_argument(
            "--dir", default=SERVICE_DIR,
            help=f"service directory (default: {SERVICE_DIR})",
        )
        parser.add_argument(
            "--job", default=None, help="show one job's full record"
        )
        parser.add_argument(
            "--json", action="store_true",
            help="emit the full service state (jobs + stats) as JSON",
        )
        parser.add_argument(
            "--metrics", action="store_true",
            help="emit persisted service stats as Prometheus text",
        )
        return _status_cli(parser.parse_args(argv[1:]))

    if argv and argv[0] == "profile":
        parser = argparse.ArgumentParser(
            prog="python -m repro profile",
            description="Attribute wall time across the spans of a trace.",
        )
        parser.add_argument(
            "trace",
            help="a Chrome trace JSON or JSONL stream written by "
            "'python -m repro trace'",
        )
        parser.add_argument(
            "--top", type=int, default=15,
            help="hot spans to show (default: 15)",
        )
        return _profile_cli(parser.parse_args(argv[1:]))

    if argv and argv[0] == "metrics":
        parser = argparse.ArgumentParser(
            prog="python -m repro metrics",
            description="Render metrics in Prometheus text exposition format.",
        )
        parser.add_argument(
            "source", nargs="?", default=None,
            help="a service state.json, raw metrics snapshot, or JSONL "
            "trace (default: <dir>/state.json)",
        )
        parser.add_argument(
            "--dir", default=SERVICE_DIR,
            help=f"service directory (default: {SERVICE_DIR})",
        )
        return _metrics_cli(parser.parse_args(argv[1:]))

    if argv and argv[0] == "bench":
        parser = argparse.ArgumentParser(
            prog="python -m repro bench",
            description="Benchmark-trajectory tools over e-series results.",
        )
        sub = parser.add_subparsers(dest="bench_cmd", required=True)
        compare = sub.add_parser(
            "compare",
            help="diff two result artifacts (or directories of them)",
        )
        compare.add_argument("old", help="baseline result JSON or directory")
        compare.add_argument("new", help="fresh result JSON or directory")
        compare.add_argument(
            "--threshold", type=float, default=0.05,
            help="relative change flagged as significant (default: 0.05)",
        )
        compare.add_argument(
            "--markdown", default=None,
            help="write the markdown summary to this path",
        )
        compare.add_argument(
            "--only", action="append", default=None, metavar="STEM",
            help="restrict directory mode to these artifact stems "
            "(repeatable)",
        )
        compare.add_argument(
            "--strict", action="store_true",
            help="exit 1 when any metric regressed beyond the threshold",
        )
        return _bench_compare_cli(parser.parse_args(argv[1:]))

    if argv and argv[0] == "trace":
        parser = argparse.ArgumentParser(
            prog="python -m repro trace",
            description="Run a scenario with telemetry and export the trace.",
        )
        parser.add_argument(
            "scenario",
            nargs="?",
            default="quickstart",
            choices=TRACEABLE,
            help="which scenario to trace",
        )
        parser.add_argument(
            "--out",
            default="trace.json",
            help="Chrome trace-event output path (default: trace.json)",
        )
        parser.add_argument(
            "--jsonl", default=None, help="also write a JSONL event stream here"
        )
        parser.add_argument(
            "--seed", type=int, default=1, help="scheduler seed (default: 1)"
        )
        _trace(parser.parse_args(argv[1:]))
        return 0

    if argv and argv[0] == "sweep":
        parser = argparse.ArgumentParser(
            prog="python -m repro sweep",
            description="Run a scheduler × workload grid, optionally in parallel.",
        )
        parser.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes (default: REPRO_WORKERS, else serial)",
        )
        parser.add_argument(
            "--sides",
            default="6,8",
            help="comma-separated grid side lengths (default: 6,8)",
        )
        parser.add_argument(
            "--k",
            type=int,
            default=8,
            help="algorithms per workload (default: 8)",
        )
        parser.add_argument(
            "--seeds",
            type=int,
            default=2,
            help="number of seeds per configuration (default: 2)",
        )
        _sweep_cli(parser.parse_args(argv[1:]))
        return 0

    if argv and argv[0] == "chaos":
        parser = argparse.ArgumentParser(
            prog="python -m repro chaos",
            description="Sweep seeded message-drop faults over a schedule.",
        )
        parser.add_argument(
            "--quick",
            action="store_true",
            help="small workload + short sweep (CI smoke test)",
        )
        parser.add_argument(
            "--drops",
            default=None,
            help="comma-separated drop probabilities (default: 0,0.02,0.05)",
        )
        parser.add_argument(
            "--retries",
            type=int,
            default=3,
            help="retransmissions per message for the resilient mode",
        )
        parser.add_argument(
            "--seed", type=int, default=7, help="fault-plan seed (default: 7)"
        )
        args = parser.parse_args(argv[1:])
        if args.drops is None:
            args.drops = "0,0.02" if args.quick else "0,0.02,0.05"
        _chaos(args)
        return 0

    if argv and argv[0] == "fuzz":
        parser = argparse.ArgumentParser(
            prog="python -m repro fuzz",
            description=(
                "Mass differential fuzzing: generate scenarios, run them "
                "every which way (solo, scheduled, both transports, "
                "through the sharded service), cross-check, shrink any "
                "divergence to a minimal reproducer. Exit 1 on divergence."
            ),
        )
        parser.add_argument(
            "--budget", type=int, default=200,
            help="number of scenarios to generate (default: 200)",
        )
        parser.add_argument(
            "--seed", type=int, default=0,
            help="generator seed (default: 0)",
        )
        parser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (default: 1)",
        )
        parser.add_argument(
            "--corpus", default=None,
            help="reproducer directory: save shrunk finds / --replay source",
        )
        parser.add_argument(
            "--replay", action="store_true",
            help="replay the --corpus reproducers instead of generating",
        )
        parser.add_argument(
            "--only", type=int, default=None, metavar="INDEX",
            help="check a single scenario index (reproduction)",
        )
        parser.add_argument(
            "--time-limit", type=float, default=None, metavar="SECONDS",
            help="stop generating after this much wall-clock time",
        )
        parser.add_argument(
            "--no-shrink", action="store_true",
            help="report divergences without minimizing them",
        )
        return _fuzz_cli(parser.parse_args(argv[1:]))

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Demos for the Ghaffari PODC'15 scheduling reproduction.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="quickstart",
        choices=sorted(SCENARIOS),
        help="which demo to run (or 'trace' for the telemetry exporter)",
    )
    args = parser.parse_args(argv)
    SCENARIOS[args.scenario]()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout went away mid-print (e.g. piped into `head`); die the
        # way a well-behaved unix filter does instead of tracing back.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(128 + 13)
