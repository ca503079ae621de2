"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile`` — compile a source file for a machine, print the
  control-store listing and statistics.
* ``run`` — compile and execute, with register/memory initialization
  and final-state reporting.
* ``machines`` — describe the shipped machine descriptions.
* ``survey`` — print the survey's language comparison matrix.
* ``verify`` — run the verification subsystem over an S* program.
* ``faultsim`` — compile and simulate under explicitly chosen
  injected faults (``--fault bitflip:addr=3,bit=17`` …).
* ``campaign`` — run a seeded fault-injection campaign across one or
  more machines and classify every outcome (see ``repro.faults``).
* ``profile`` — run a program under the profile recorder (or replay
  a saved profile JSON) and print the hot-path analysis: ranked hot
  traces, loop nesting and an annotated disassembly heat report;
  ``--flamegraph``/``--prometheus`` export collapsed stacks and the
  Prometheus text format.
* ``languages`` — list every registered language and machine with
  its pipeline stages and capabilities (see ``repro.registry``).
* ``serve`` — the long-running batch compile-and-run service
  (``repro.serve``): POST ``/compile`` / ``/run`` / ``/campaign``,
  GET ``/healthz`` / ``/metrics``, with admission control, deadline
  propagation and a crash-safe worker pool.

``compile`` and ``run`` take ``--trace FILE`` (Chrome trace-event
JSON, or JSON-lines when the file ends in ``.jsonl``) and ``--stats``
(per-stage compile-time breakdown; for ``run`` also the simulator
hot-spot report).  ``compile --dump-after STAGE`` prints the program
state after any pipeline stage (or ``all`` of them).

Language and machine dispatch resolves through :mod:`repro.registry`:
registering a new front end or machine description there is all it
takes to appear in every command here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.asm.loader import ControlStore
from repro.errors import ReproError, SimulationLimitError
from repro.lang.sstar import parse_sstar, verify_sstar
from repro.obs import (
    NULL_TRACER,
    TraceRecorder,
    Tracer,
    render_compile_report,
    render_hotspots,
    write_trace,
)
from repro.registry import (
    build_machine as get_machine,
)
from repro.registry import (
    get_language,
    get_machine_spec,
    language_names,
    machine_names,
)
from repro.sim.simulator import Simulator


def _parse_assignments(pairs: list[str]) -> dict[str, int]:
    values: dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not value:
            raise ReproError(f"bad assignment {pair!r}; expected name=value")
        values[name] = int(value, 0)
    return values


def _tracer_for(args) -> Tracer | None:
    """A recording tracer when --trace/--stats ask for one, else null."""
    if getattr(args, "trace", None) or getattr(args, "stats", False):
        return Tracer()
    return NULL_TRACER


def _write_trace(events, path) -> None:
    try:
        write_trace(events, path)
    except OSError as error:
        raise ReproError(f"cannot write trace {path!r}: {error}") from error
    print(f"trace written to {path}")


def _compile(args, tracer=NULL_TRACER) -> tuple:
    source = Path(args.file).read_text()
    machine = get_machine(args.machine)
    extra = {}
    if getattr(args, "restart_safe", False):
        extra["restart_safe"] = True
    if getattr(args, "dump_after", None):
        extra["dump_after"] = args.dump_after
    result = get_language(args.lang).compile(
        source, machine, tracer=tracer, **extra
    )
    return machine, result


def cmd_compile(args) -> int:
    tracer = _tracer_for(args)
    machine, result = _compile(args, tracer)
    for stage, text in result.dumps.items():
        print(f"--- after {stage} ---")
        print(text)
        print()
    print(result.loaded.listing(machine))
    print()
    print(f"{len(result.loaded)} control words "
          f"({len(result.loaded) * machine.control.width} bits), "
          f"{result.composed.n_ops()} micro-operations, "
          f"compaction {result.composed.compaction_ratio():.2f} ops/word")
    if result.legalize_stats.expansions:
        print(f"legalization: {result.legalize_stats.expansions}")
    if result.allocation.mapping:
        print(f"allocation: {result.allocation.mapping}"
              + (f", spilled {result.allocation.spilled_slots}"
                 if result.allocation.spilled_slots else ""))
    if args.stats:
        print()
        print(render_compile_report(tracer.events))
    if args.trace:
        _write_trace(tracer.events, args.trace)
    return 0


def cmd_run(args) -> int:
    tracer = _tracer_for(args)
    machine, result = _compile(args, tracer)
    store = ControlStore(machine)
    store.load(result.loaded)
    recorder = TraceRecorder(tracer) if tracer.enabled else None
    simulator = Simulator(machine, store, recorder=recorder,
                          engine=args.engine,
                          deadline_s=args.deadline_s)
    mapping = result.allocation.mapping
    for name, value in _parse_assignments(args.set or []).items():
        simulator.state.write_reg(mapping.get(name, name), value)
    for address, value in _parse_assignments(args.mem or []).items():
        simulator.state.memory.load_words(int(address, 0), [value])
    try:
        outcome = simulator.run(result.loaded.name,
                                max_cycles=args.max_cycles)
    except SimulationLimitError as error:
        # The structured exit path: a typed budget overrun is not a
        # toolkit failure (exit 2), it is a bounded run — report which
        # budget tripped and exit 3 so scripts can branch on it.
        print(f"simulation limit: kind={error.kind} "
              f"limit={error.limit}", file=sys.stderr)
        print(f"  {error}", file=sys.stderr)
        return 3
    print(outcome)
    if outcome.exit_value is not None:
        print(f"exit value: {outcome.exit_value} ({outcome.exit_value:#x})")
    if args.show:
        for name in args.show:
            register = mapping.get(name, name)
            print(f"{name} = {simulator.state.read_reg(register)}")
    if args.stats:
        print()
        print(render_compile_report(tracer.events))
        print()
        print(render_hotspots(outcome.profile))
    if args.trace:
        _write_trace(tracer.events, args.trace)
    return 0


def cmd_machines(args) -> int:
    for name in machine_names():
        machine = get_machine(name)
        print(machine.summary())
        if args.verbose:
            print(machine.control.describe())
            print()
    return 0


def cmd_languages(_args) -> int:
    print("languages:")
    for name in language_names():
        spec = get_language(name)
        print(f"  {name:6s} {spec.title} (survey §{spec.section})")
        print(f"         stages: {' -> '.join(spec.stage_names())}")
        print(f"         default composer: {spec.default_composer}")
        print(f"         capabilities: "
              f"{', '.join(spec.capabilities) or '(none)'}")
    print()
    print("machines:")
    for name in machine_names():
        spec = get_machine_spec(name)
        capabilities = ", ".join(spec.capabilities)
        suffix = f" [{capabilities}]" if capabilities else ""
        print(f"  {name:8s} {spec.organisation:10s} "
              f"{spec.description}{suffix}")
    return 0


def cmd_survey(_args) -> int:
    from repro.survey import render_conclusions, render_matrix

    print(render_matrix())
    print()
    print(render_conclusions())
    return 0


def cmd_verify(args) -> int:
    machine = get_machine(args.machine)
    program = parse_sstar(Path(args.file).read_text())
    report = verify_sstar(program, machine)
    print(report)
    return 0 if report.passed else 1


def cmd_faultsim(args) -> int:
    from repro.faults import FaultPlan, campaign_json, render_campaign
    from repro.faults.campaign import run_campaign_loaded

    tracer = _tracer_for(args)
    machine, result = _compile(args, tracer)
    plan = FaultPlan.from_specs(args.seed, args.fault)
    campaign = run_campaign_loaded(
        result.loaded, machine,
        lang=args.lang, seed=args.seed, plan=plan,
        registers=_parse_assignments(args.set or []),
        memory={
            int(a, 0): v
            for a, v in _parse_assignments(args.mem or []).items()
        },
        mapping=result.allocation.mapping,
        restart_hazards=result.restart_hazards,
        tracer=tracer,
        engine=args.engine,
        deadline_s=args.deadline_s,
    )
    if args.json:
        print(campaign_json([campaign]))
    else:
        print(render_campaign(campaign))
    if args.stats:
        print()
        print(render_compile_report(tracer.events))
    if args.trace:
        _write_trace(tracer.events, args.trace)
    failures = campaign.counts()["sdc"] + campaign.counts()["hang"]
    return 1 if failures else 0


def cmd_campaign(args) -> int:
    from repro.faults import campaign_json, render_campaign, render_matrix
    from repro.faults.campaign import run_campaign

    tracer = _tracer_for(args)
    source = Path(args.file).read_text()
    registers = _parse_assignments(args.set or [])
    memory = {
        int(a, 0): v for a, v in _parse_assignments(args.mem or []).items()
    }
    cache = None
    if args.cache_dir:
        from repro.cache import CompileCache

        cache = CompileCache(disk_dir=args.cache_dir)
    results = [
        run_campaign(
            source, args.lang, get_machine(name),
            n=args.n, seed=args.seed, restart_safe=args.restart_safe,
            registers=registers, memory=memory, tracer=tracer,
            jobs=args.jobs, engine=args.engine, cache=cache,
            collect_metrics=args.metrics,
        )
        for name in (args.machine or ["HM1"])
    ]
    if args.json:
        print(campaign_json(results))
    elif len(results) == 1:
        print(render_campaign(results[0], scenarios=args.verbose))
    else:
        print(render_matrix(results))
        if args.verbose:
            for campaign in results:
                print()
                print(render_campaign(campaign))
    if args.stats:
        print()
        print(render_compile_report(tracer.events))
    if args.trace:
        _write_trace(tracer.events, args.trace)
    violations = sum(
        len(campaign.restart_invariant_violations()) for campaign in results
    )
    return 1 if violations else 0


def cmd_profile(args) -> int:
    from repro.obs import (
        SimProfile,
        analyze_profile,
        dump_flamegraph,
        render_heat,
        render_hot_traces,
        to_prometheus,
    )

    # Cache counters exist only on the live-run path: a replayed
    # profile carries none, which keeps --replay output byte-identical
    # to what the original run saved (CI diffs exactly that).
    plan_cache = trace_cache = None
    if args.replay:
        try:
            payload = json.loads(Path(args.replay).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ReproError(
                f"cannot replay profile {args.replay!r}: {error}"
            ) from error
        profile = SimProfile.from_json(payload)
    else:
        if not args.file:
            raise ReproError(
                "profile: give a source FILE to run, or --replay "
                "PROFILE.json to analyze a saved profile"
            )
        if not args.lang:
            raise ReproError("profile: --lang is required with a FILE")
        machine, result = _compile(args)
        store = ControlStore(machine)
        store.load(result.loaded)
        recorder = TraceRecorder(NULL_TRACER)
        simulator = Simulator(machine, store, recorder=recorder,
                              engine=args.engine)
        mapping = result.allocation.mapping
        for name, value in _parse_assignments(args.set or []).items():
            simulator.state.write_reg(mapping.get(name, name), value)
        for address, value in _parse_assignments(args.mem or []).items():
            simulator.state.memory.load_words(int(address, 0), [value])
        run = simulator.run(result.loaded.name, max_cycles=args.max_cycles)
        plan_cache, trace_cache = run.plan_cache, run.trace_cache
        profile = recorder.profile
    analysis = analyze_profile(profile)
    if args.save:
        Path(args.save).write_text(
            json.dumps(profile.to_json(), indent=2, sort_keys=True) + "\n"
        )
        print(f"profile written to {args.save}")
    if args.flamegraph:
        dump_flamegraph(analysis, args.flamegraph)
        print(f"flamegraph written to {args.flamegraph}")
    if args.prometheus:
        Path(args.prometheus).write_text(to_prometheus(
            profile, plan_cache=plan_cache, trace_cache=trace_cache,
        ))
        print(f"prometheus metrics written to {args.prometheus}")
    if args.json:
        payload = analysis.to_json()
        if plan_cache is not None:
            payload["plan_cache"] = plan_cache
        if trace_cache is not None:
            payload["trace_cache"] = trace_cache
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_hot_traces(analysis, top=args.top, loops=args.loops))
        print()
        print(render_heat(analysis))
        for label, counters in (
            ("plan cache", plan_cache), ("trace cache", trace_cache),
        ):
            if counters:
                tally = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(counters.items())
                )
                print(f"{label}: {tally}")
    return 0


def cmd_difftest(args) -> int:
    from repro.difftest import run_difftest, self_check

    tracer = _tracer_for(args)
    if args.self_check:
        report = self_check(
            seed=args.seed, budget=min(args.budget, 10), tracer=tracer,
        )
        print("self-check passed: planted engine, trace-stitcher and "
              f"batch-lane bugs found ({len(report.divergences)} "
              "divergence(s))")
        return 0
    report = run_difftest(
        seed=args.seed,
        budget=args.budget,
        langs=tuple(args.langs) if args.langs else None,
        machines=tuple(args.machines),
        axes=tuple(args.axes),
        corpus_dir=args.corpus_dir,
        reduce=not args.no_reduce,
        size=args.size,
        tracer=tracer,
        batch=args.batch,
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.stats:
        print()
        print(render_compile_report(tracer.events))
    if args.trace:
        _write_trace(tracer.events, args.trace)
    return 0 if report.clean else 1


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ReproService, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        class_limits={
            "compile": args.limit_compile,
            "run": args.limit_run,
            "campaign": args.limit_campaign,
        },
        default_deadline_s=args.default_deadline_s,
        max_deadline_s=args.max_deadline_s,
        seed=args.seed,
        breaker_strikes=args.breaker_strikes,
        breaker_cooldown_s=args.breaker_cooldown_s,
        cache_dir=args.cache_dir,
        drain_timeout_s=args.drain_timeout_s,
        enable_chaos=args.enable_chaos,
        batch_window_ms=args.batch_window_ms,
        batch_max_lanes=args.batch_max_lanes,
    )

    async def main() -> None:
        service = ReproService(config)
        await service.start()
        print(f"repro serve listening on "
              f"http://{config.host}:{service.port}  "
              f"(workers={config.workers}, "
              f"limits={config.class_limits}); SIGTERM drains",
              flush=True)
        loop = asyncio.get_running_loop()
        import signal as signal_module

        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(service.shutdown()),
                )
            except (NotImplementedError, RuntimeError):
                pass
        await service._stopped.wait()
        print("repro serve drained, exiting", flush=True)

    asyncio.run(main())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Microprogramming-language toolkit (Sint 1980 survey)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile", help="compile to microcode")
    compile_parser.add_argument("file")
    compile_parser.add_argument("--lang", choices=language_names(),
                                required=True)
    compile_parser.add_argument("--machine", choices=machine_names(),
                                default="HM1")
    compile_parser.add_argument(
        "--dump-after", metavar="STAGE",
        help="print the program state after a pipeline stage "
             "(a stage name from 'repro languages', or 'all')")
    compile_parser.add_argument("--trace", metavar="FILE",
                                help="write a Chrome trace-event JSON "
                                     "(.jsonl for JSON-lines)")
    compile_parser.add_argument("--stats", action="store_true",
                                help="print the per-stage compile-time "
                                     "breakdown")
    compile_parser.set_defaults(handler=cmd_compile)

    run_parser = sub.add_parser("run", help="compile and simulate")
    run_parser.add_argument("file")
    run_parser.add_argument("--lang", choices=language_names(),
                            required=True)
    run_parser.add_argument("--machine", choices=machine_names(),
                            default="HM1")
    run_parser.add_argument("--set", action="append", metavar="VAR=VALUE",
                            help="initialize a variable or register")
    run_parser.add_argument("--mem", action="append", metavar="ADDR=VALUE",
                            help="initialize a memory word")
    run_parser.add_argument("--show", action="append", metavar="VAR",
                            help="print a variable's final value")
    run_parser.add_argument("--max-cycles", type=int, default=1_000_000)
    run_parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the run (Simulator.deadline_s); "
             "overrunning it exits 3 with a structured "
             "'simulation limit: kind=deadline' report instead of "
             "hanging")
    run_parser.add_argument(
        "--engine", choices=("interpretive", "decoded", "traced"),
        default="decoded",
        help="simulator execution engine (decoded pre-lowers each "
             "control-store word once; traced additionally compiles hot "
             "loops to superinstructions; all observably identical)")
    run_parser.add_argument("--trace", metavar="FILE",
                            help="write compile spans + simulator cycle "
                                 "events as Chrome trace-event JSON "
                                 "(.jsonl for JSON-lines)")
    run_parser.add_argument("--stats", action="store_true",
                            help="print compile-time breakdown and the "
                                 "simulator hot-spot report")
    run_parser.set_defaults(handler=cmd_run)

    machines_parser = sub.add_parser("machines", help="list machines")
    machines_parser.add_argument("-v", "--verbose", action="store_true")
    machines_parser.set_defaults(handler=cmd_machines)

    languages_parser = sub.add_parser(
        "languages",
        help="list registered languages and machines with capabilities",
    )
    languages_parser.set_defaults(handler=cmd_languages)

    survey_parser = sub.add_parser("survey", help="print the survey matrix")
    survey_parser.set_defaults(handler=cmd_survey)

    verify_parser = sub.add_parser("verify", help="verify an S* program")
    verify_parser.add_argument("file")
    verify_parser.add_argument("--machine", choices=machine_names(),
                               default="HM1")
    verify_parser.set_defaults(handler=cmd_verify)

    faultsim_parser = sub.add_parser(
        "faultsim", help="simulate under explicitly injected faults"
    )
    faultsim_parser.add_argument("file")
    faultsim_parser.add_argument("--lang", choices=language_names(),
                                 required=True)
    faultsim_parser.add_argument("--machine", choices=machine_names(),
                                 default="HM1")
    faultsim_parser.add_argument(
        "--fault", action="append", metavar="SPEC", required=True,
        help="fault spec, e.g. bitflip:addr=3,bit=17 / "
             "memfault:op=read,nth=2 / stuck:reg=R2,value=0 / "
             "storm:period=7; repeat for several scenarios")
    faultsim_parser.add_argument("--seed", type=int, default=7)
    faultsim_parser.add_argument("--set", action="append",
                                 metavar="VAR=VALUE")
    faultsim_parser.add_argument("--mem", action="append",
                                 metavar="ADDR=VALUE")
    faultsim_parser.add_argument("--restart-safe", action="store_true",
                                 help="apply the 2.1.5 idempotence "
                                      "transform before injecting")
    faultsim_parser.add_argument(
        "--engine", choices=("interpretive", "decoded", "traced"),
        default="decoded",
        help="simulator execution engine for golden and fault runs")
    faultsim_parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per simulated run; a scenario that "
             "overruns it classifies as 'hang' via the typed "
             "SimulationLimitError(kind='deadline') path")
    faultsim_parser.add_argument("--json", action="store_true",
                                 help="machine-readable report")
    faultsim_parser.add_argument("--trace", metavar="FILE",
                                 help="write compile spans + fault events "
                                      "as Chrome trace-event JSON")
    faultsim_parser.add_argument("--stats", action="store_true")
    faultsim_parser.set_defaults(handler=cmd_faultsim)

    campaign_parser = sub.add_parser(
        "campaign", help="seeded fault-injection campaign"
    )
    campaign_parser.add_argument("file")
    campaign_parser.add_argument("--lang", choices=language_names(),
                                 required=True)
    campaign_parser.add_argument(
        "--machine", action="append", choices=machine_names(),
        help="target machine; repeat for a matrix (default HM1)")
    campaign_parser.add_argument("-n", type=int, default=25,
                                 help="scenarios per machine (default 25)")
    campaign_parser.add_argument("--seed", type=int, default=7,
                                 help="fault-plan seed; same seed, same "
                                      "campaign, byte for byte")
    campaign_parser.add_argument("--set", action="append",
                                 metavar="VAR=VALUE")
    campaign_parser.add_argument("--mem", action="append",
                                 metavar="ADDR=VALUE")
    campaign_parser.add_argument("--restart-safe", action="store_true",
                                 help="apply the 2.1.5 idempotence "
                                      "transform before injecting")
    campaign_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard scenarios across N worker processes; reports stay "
             "byte-identical to --jobs 1 (default 1)")
    campaign_parser.add_argument(
        "--engine", choices=("interpretive", "decoded", "traced"),
        default="decoded",
        help="simulator execution engine for golden and fault runs")
    campaign_parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="on-disk compile cache shared across invocations")
    campaign_parser.add_argument(
        "--metrics", action="store_true",
        help="collect a shard-mergeable metrics rollup (profiles, "
             "plan-cache and classification tallies); byte-identical "
             "for any --jobs value")
    campaign_parser.add_argument("--json", action="store_true",
                                 help="machine-readable report")
    campaign_parser.add_argument("-v", "--verbose", action="store_true",
                                 help="list every scenario outcome")
    campaign_parser.add_argument("--trace", metavar="FILE",
                                 help="write compile spans + fault events "
                                      "as Chrome trace-event JSON")
    campaign_parser.add_argument("--stats", action="store_true")
    campaign_parser.set_defaults(handler=cmd_campaign)

    profile_parser = sub.add_parser(
        "profile",
        help="profile a run (or replay a saved profile) and print the "
             "hot-path analysis",
    )
    profile_parser.add_argument(
        "file", nargs="?",
        help="source file to compile and run (omit with --replay)")
    profile_parser.add_argument("--lang", choices=language_names(),
                                help="source language (required with FILE)")
    profile_parser.add_argument("--machine", choices=machine_names(),
                                default="HM1")
    profile_parser.add_argument(
        "--replay", metavar="PROFILE.json",
        help="analyze a saved profile instead of running a program")
    profile_parser.add_argument(
        "--save", metavar="PROFILE.json",
        help="write the run's profile as JSON (replayable with --replay)")
    profile_parser.add_argument("--set", action="append",
                                metavar="VAR=VALUE")
    profile_parser.add_argument("--mem", action="append",
                                metavar="ADDR=VALUE")
    profile_parser.add_argument("--max-cycles", type=int, default=1_000_000)
    profile_parser.add_argument(
        "--engine", choices=("interpretive", "decoded", "traced"),
        default="decoded")
    profile_parser.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="hot traces to list (default 5)")
    profile_parser.add_argument(
        "--loops", action="store_true",
        help="include the loop-nesting table in the report")
    profile_parser.add_argument(
        "--flamegraph", metavar="FILE",
        help="write collapsed-stack lines for flamegraph.pl/speedscope")
    profile_parser.add_argument(
        "--prometheus", metavar="FILE",
        help="write the profile in Prometheus text exposition format")
    profile_parser.add_argument(
        "--json", action="store_true",
        help="print the full analysis as JSON instead of the report")
    profile_parser.set_defaults(handler=cmd_profile)

    difftest_parser = sub.add_parser(
        "difftest",
        help="differential-test the engines, cache, restart transform "
             "and campaign sharding over generated programs",
    )
    difftest_parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; case i reproduces from seed and i alone")
    difftest_parser.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="generated cases to run (default 200)")
    difftest_parser.add_argument(
        "--langs", nargs="+", choices=language_names(), metavar="LANG",
        help="languages to generate for (default: all with generators)")
    difftest_parser.add_argument(
        "--machines", nargs="+", default=["HM1", "CM1", "VM1"],
        choices=machine_names(), metavar="MACHINE",
        help="target machines (default: HM1 CM1 VM1)")
    difftest_parser.add_argument(
        "--axes", nargs="+",
        default=["engine", "traced", "batched", "cache", "restart",
                 "shards"],
        choices=("engine", "traced", "batched", "cache", "restart",
                 "shards"),
        metavar="AXIS",
        help="axis pairs to diff (default: all six)")
    difftest_parser.add_argument(
        "--batch", type=int, default=64, metavar="N",
        help="lane count for the batched axis (default 64); divergence "
             "reports stay identical for any N")
    difftest_parser.add_argument(
        "--corpus-dir", metavar="DIR",
        help="write self-contained JSON reproducers for divergences here")
    difftest_parser.add_argument(
        "--size", type=int, metavar="N",
        help="statements per generated program (default: seeded 6-18)")
    difftest_parser.add_argument(
        "--no-reduce", action="store_true",
        help="skip shrinking diverging programs")
    difftest_parser.add_argument(
        "--self-check", action="store_true",
        help="plant decoded-engine, trace-stitcher and batch-lane bugs "
             "and prove the campaign finds (and shrinks) them")
    difftest_parser.add_argument("--json", action="store_true",
                                 help="machine-readable report")
    difftest_parser.add_argument("--trace", metavar="FILE",
                                 help="write difftest.case/divergence "
                                      "events as Chrome trace-event JSON")
    difftest_parser.add_argument("--stats", action="store_true")
    difftest_parser.set_defaults(handler=cmd_difftest)

    serve_parser = sub.add_parser(
        "serve",
        help="run the fault-tolerant batch compile-and-run service "
             "(POST /compile /run /campaign, GET /healthz /metrics)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8750,
        help="bind port; 0 picks an ephemeral port (default 8750)")
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="crash-safe worker processes (default 2)")
    serve_parser.add_argument(
        "--limit-compile", type=int, default=32, metavar="N",
        help="max queued-or-running compile requests (default 32)")
    serve_parser.add_argument(
        "--limit-run", type=int, default=32, metavar="N",
        help="max queued-or-running run requests (default 32)")
    serve_parser.add_argument(
        "--limit-campaign", type=int, default=8, metavar="N",
        help="max queued-or-running campaigns — the first class shed "
             "under overload (default 8)")
    serve_parser.add_argument(
        "--default-deadline-s", type=float, default=30.0,
        metavar="SECONDS",
        help="per-request wall-clock budget when the client names "
             "none (default 30)")
    serve_parser.add_argument(
        "--max-deadline-s", type=float, default=120.0, metavar="SECONDS",
        help="cap on client-requested deadlines (default 120)")
    serve_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the deterministic retry-backoff jitter")
    serve_parser.add_argument(
        "--breaker-strikes", type=int, default=2, metavar="N",
        help="worker deaths before a request key is quarantined "
             "(default 2)")
    serve_parser.add_argument(
        "--breaker-cooldown-s", type=float, default=30.0,
        metavar="SECONDS",
        help="quarantine time before one half-open probe (default 30)")
    serve_parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="shared on-disk compile cache for all workers")
    serve_parser.add_argument(
        "--drain-timeout-s", type=float, default=30.0, metavar="SECONDS",
        help="SIGTERM drain bound before in-flight work is aborted")
    serve_parser.add_argument(
        "--enable-chaos", action="store_true",
        help="accept 'chaos' request fields (worker self-kill "
             "schedules) — tests and CI smoke only")
    serve_parser.add_argument(
        "--batch-window-ms", type=float, default=5.0, metavar="MS",
        help="gather window for cross-request run micro-batching "
             "(default 5; 0 batches only what is already queued)")
    serve_parser.add_argument(
        "--batch-max-lanes", type=int, default=8, metavar="N",
        help="max lockstep lanes per batched dispatch "
             "(default 8; 1 disables batching)")
    serve_parser.set_defaults(handler=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
