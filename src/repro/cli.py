"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one model on one configuration via
  :func:`repro.api.simulate` and print the per-step report (optionally
  with an ASCII schedule timeline and/or a Chrome/Perfetto trace file);
* ``profile`` — Table-I style CPU characterization of a model;
* ``experiment`` — regenerate one paper table/figure by id; an
  interrupted run is finished by re-running the same command (completed
  jobs are free cache hits, the artifact comes out byte-identical to an
  uninterrupted run);
* ``cache`` — inspect (``stats``) or LRU-prune (``prune``) the on-disk
  simulation result cache;
* ``trace`` — export a model trace to JSON (``--format ops`` for the raw
  operation trace, ``--format chrome`` for a Chrome Trace Event schedule);
* ``faults`` — inject a (seeded or file-supplied) fault spec into a run
  and report the resilience overhead against the fault-free baseline;
* ``validate`` — paper-fidelity gate: simulate the Fig 8/9/Table 1
  experiments (cache-backed) and check every speedup/energy ratio against
  the golden bands in :mod:`repro.validate.golden` (a trained cost
  surrogate's declared error bands print alongside);
* ``surrogate`` — train (``train``) or evaluate (``eval``) the learned
  cost surrogate (:mod:`repro.surrogate`) from already-cached simulation
  results; ``run --surrogate`` / ``experiment --surrogate`` then answer
  from it;
* ``serve`` — long-lived HTTP/JSON simulation service
  (:mod:`repro.serve`): request dedup, per-tenant quotas, journal-backed
  restart recovery, byte-identical stored reports;
* ``models`` / ``configs`` / ``backends`` — list available workloads,
  configurations and registered hardware backends.

Experiment artifacts print to **stdout** only; progress banners go to
stderr, so redirected artifacts stay byte-comparable across
interrupted-and-re-run and uninterrupted runs.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from . import api, experiments
from .baselines import CONFIGURATION_ORDER
from .errors import (
    FidelityError,
    Interrupted,
    InvariantViolation,
    PoisonJob,
    ReproError,
    UnknownBackendError,
)
from .nn.models import available_models, build_model
from .profiling import WorkloadProfiler
from .sim.trace_io import export_trace
from .units import GB, KB, MB, TB

EXPERIMENT_IDS = (
    "table1", "fig2", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "ablations", "compare",
    "extensions", "families", "faults", "summary",
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_SIZE_SUFFIXES = {"K": KB, "M": MB, "G": GB, "T": TB}


def _byte_size(text: str) -> int:
    """Parse a byte budget: plain int or with a K/M/G/T suffix."""
    raw = text.strip().upper().removesuffix("B")
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (use e.g. 500000, 500K, 1.5G)"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous-PIM NN-training reproduction (MICRO 2018)",
    )
    parser.add_argument(
        "--jobs", "-j", type=_positive_int, default=None, metavar="N",
        help="worker processes for independent simulations "
             "(default: $REPRO_JOBS or 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one model on one configuration")
    run.add_argument("model", choices=available_models())
    run.add_argument(
        "--config", default=None, metavar="NAME",
        help="configuration of the chosen backend (default: the "
             "backend's default, 'hetero-pim' on hmc-hetero); "
             "see 'repro configs'",
    )
    run.add_argument(
        "--backend", default=None, metavar="NAME",
        help="registered hardware backend to simulate on "
             "(default: hmc-hetero); see 'repro backends'",
    )
    run.add_argument("--steps", type=_positive_int, default=None,
                     help="training steps to simulate (default: 3)")
    run.add_argument("--frequency-scale", type=float, default=1.0,
                     help="PIM PLL multiplier (paper studies 1/2/4)")
    run.add_argument("--batch-size", type=int, default=None)
    run.add_argument("--timeline", action="store_true",
                     help="print an ASCII schedule timeline")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the schedule as Chrome Trace Event JSON "
                          "(open in chrome://tracing or ui.perfetto.dev)")
    run.add_argument("--validate", action="store_true",
                     help="run under the invariant checker "
                          "(conservation/consistency laws; see "
                          "docs/architecture.md §11)")
    run.add_argument("--surrogate", action="store_true",
                     help="answer from the learned cost surrogate "
                          "(estimated, with error bands) when possible; "
                          "train one first with 'repro surrogate train'")
    run.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write the canonical RunReport JSON (the byte-identical "
             "form 'repro serve' stores and serves) to PATH",
    )

    profile = sub.add_parser("profile", help="CPU characterization (Table I)")
    profile.add_argument("model", choices=available_models())
    profile.add_argument("--top", type=int, default=5)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument("id", choices=EXPERIMENT_IDS)
    experiment.add_argument(
        "--surrogate", action="store_true",
        help="answer per-run queries from the learned cost surrogate "
             "where possible (estimated artifacts, NOT byte-identical "
             "to exact ones); falls back to simulation per query",
    )
    experiment.add_argument(
        "--steps-small", action="store_true",
        help="small smoke-test mode where the experiment supports it "
             "(currently 'compare': fewer models, 1 step) — artifacts "
             "are NOT comparable to full-mode ones",
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect or prune the simulation result cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="hit/miss counters and disk usage")
    prune = cache_sub.add_parser(
        "prune", help="evict least-recently-used disk entries to a budget"
    )
    prune.add_argument(
        "--max-bytes", type=_byte_size, required=True, metavar="N",
        help="keep the disk tier at or below this size "
             "(plain bytes or K/M/G/T suffix)",
    )
    fsck = cache_sub.add_parser(
        "fsck",
        help="verify every stored object, journal and serve report "
             "against its checksum",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help="quarantine damaged files and recompute them from their "
             "embedded metadata / journaled requests",
    )
    fsck.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    trace = sub.add_parser("trace", help="export a model trace to JSON")
    trace.add_argument("model", choices=available_models())
    trace.add_argument("output")
    trace.add_argument("--steps", type=_positive_int, default=1)
    trace.add_argument(
        "--format", choices=("ops", "chrome"), default="ops",
        help="ops: raw operation trace; chrome: simulated schedule in "
             "Chrome Trace Event format",
    )
    trace.add_argument(
        "--config", default="hetero-pim",
        choices=list(CONFIGURATION_ORDER) + ["neurocube"],
        help="configuration to simulate (chrome format only)",
    )

    faults = sub.add_parser(
        "faults",
        help="inject faults into a run and report the resilience overhead",
    )
    faults.add_argument("model", choices=available_models())
    faults.add_argument(
        "--config", default="hetero-pim",
        choices=list(CONFIGURATION_ORDER) + ["neurocube"],
    )
    faults.add_argument("--steps", type=_positive_int, default=3)
    faults.add_argument(
        "--seed", type=int, default=1,
        help="fault-generation seed (ignored with --spec)",
    )
    faults.add_argument(
        "--events", type=int, default=2,
        help="number of faults to generate (ignored with --spec)",
    )
    faults.add_argument(
        "--spec", metavar="PATH", default=None,
        help="JSON FaultSpec to inject instead of generating one",
    )
    faults.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the faulted run's schedule + fault lane as Chrome "
             "Trace Event JSON",
    )

    validate = sub.add_parser(
        "validate",
        help="check Fig 8/9/Table 1 numbers against the paper's golden bands",
    )
    validate.add_argument(
        "--models", nargs="+", default=None, choices=available_models(),
        metavar="MODEL",
        help="models to gate (default: the three fast ones; "
             "--full for all five evaluated models)",
    )
    validate.add_argument(
        "--full", action="store_true",
        help="gate all five evaluated models (slower on a cold cache)",
    )
    validate.add_argument(
        "--quiet", action="store_true",
        help="print failures only",
    )

    surrogate = sub.add_parser(
        "surrogate",
        help="train/evaluate the learned cost surrogate from cached results",
    )
    surrogate_sub = surrogate.add_subparsers(
        dest="surrogate_command", required=True
    )
    surrogate_sub.add_parser(
        "train",
        help="fit the surrogate on cached simulation results and save it",
    )
    surrogate_sub.add_parser(
        "eval",
        help="score the saved surrogate against cached exact results",
    )

    serve = sub.add_parser(
        "serve",
        help="HTTP/JSON simulation service (dedup, quotas, durable reports)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="address to bind (default: loopback; put a reverse proxy "
             "in front for anything else)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = ephemeral; the bound port is "
             "printed to stderr)",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="simulation worker threads draining the request queue "
             "(default: 2)",
    )
    serve.add_argument(
        "--quota", default=None, metavar="RATE[:BURST]",
        help="per-tenant admission quota: RATE fresh simulations per "
             "second, optional BURST bucket size (default: unlimited; "
             "dedup'd and stored-report requests are never charged)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=0, metavar="N",
        help="bound the admission queue at N waiting requests; excess "
             "load is shed with 503 + Retry-After (default: 0 = "
             "unbounded)",
    )
    serve.add_argument(
        "--no-resume", action="store_true",
        help="do not recover accepted-but-unserved requests from "
             "prior daemons' journals on startup",
    )

    sub.add_parser("models", help="list available training workloads")
    sub.add_parser("configs", help="list evaluated system configurations")
    sub.add_parser(
        "backends",
        help="list registered hardware backends and their configurations",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    observe = bool(args.timeline or args.trace_out)
    try:
        report = api.simulate(
            args.model,
            args.config,
            args.steps if args.steps is not None else 3,
            batch_size=args.batch_size,
            frequency_scale=args.frequency_scale,
            observe=observe,
            validate=bool(args.validate) or None,
            surrogate=bool(args.surrogate),
            backend=args.backend,
        )
    except UnknownBackendError as exc:
        # mirror the cache-stats missing-state UX: names, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"validation FAILED: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        # e.g. a configuration name the chosen backend does not have
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report.result
    b = result.step_breakdown
    surrogate = report.surrogate
    if surrogate is not None and surrogate["mode"] == "exact":
        print(f"surrogate unavailable ({surrogate['reason']}); "
              "simulated exactly", file=sys.stderr)
    print(f"{args.model} on {result.config_name} "
          f"(PLL {args.frequency_scale:g}x, {result.steps} steps)")
    if surrogate is not None and surrogate["mode"] == "surrogate":
        bands = surrogate["bands"]
        print("  ESTIMATED by the cost surrogate (no simulation ran); "
              "declared error bands:")
        print(f"    step time +/-{bands['step_time_rel']:.1%}, "
              f"dynamic energy +/-{bands['dynamic_energy_rel']:.1%}, "
              f"total energy +/-{bands['total_energy_rel']:.1%}")
    print(f"  step time          {result.step_time_s * 1e3:10.3f} ms")
    print(f"    operation        {b.operation_s * 1e3:10.3f} ms")
    print(f"    data movement    {b.data_movement_s * 1e3:10.3f} ms")
    print(f"    synchronization  {b.sync_s * 1e3:10.3f} ms")
    print(f"  dynamic energy     {result.step_dynamic_energy_j:10.3f} J/step")
    print(f"  average power      {result.average_power_w:10.1f} W")
    print(f"  EDP                {result.edp():10.5f} J*s")
    print(f"  pool utilization   {result.fixed_pim_utilization:10.0%}")
    busy = report.device_busy_fraction
    if busy:
        lanes = "  ".join(f"{d} {f:.0%}" for d, f in busy.items())
        print(f"  device busy        {lanes}")
    if report.validation is not None:
        checked = len(report.validation.get("invariants", ()))
        print(f"  validation         {checked} invariants ok "
              f"(cache {report.validation.get('cache_equivalence')})")
    if args.trace_out:
        n = report.save_trace(args.trace_out)
        print(f"  trace              {n} events -> {args.trace_out}")
    if args.timeline and report.timeline is not None:
        print()
        print(report.timeline.render())
    if args.report_out:
        from pathlib import Path

        from .experiments.common import write_atomic

        text = api.canonical_report(report).to_json() + "\n"
        write_atomic(Path(args.report_out), text)
        print(f"  report             -> {args.report_out}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    profile = WorkloadProfiler().profile(build_model(args.model))
    print(f"{args.model}: step {profile.step_time_s:.3f} s, "
          f"{profile.total_memory_bytes / GB:.2f} GB main-memory traffic")
    print(f"\n{'op type':32s} {'time%':>7s} {'mem%':>7s} {'#inv':>5s}")
    for t in profile.top_compute(args.top):
        print(f"{t.op_type:32s} {t.time_share:7.1%} "
              f"{t.memory_share:7.1%} {t.invocations:5d}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run one experiment module; artifact on stdout, supervision and
    progress on stderr."""
    if args.surrogate:
        print(
            "surrogate mode: per-run numbers are estimates with error "
            "bands, not exact simulations",
            file=sys.stderr,
        )
    from .experiments import compare, runner
    from .experiments.common import set_surrogate

    prior = set_surrogate(args.surrogate)
    prior_small = compare.set_small(args.steps_small)
    try:
        getattr(experiments, args.id).main()
    except Interrupted:
        print(
            "interrupted — completed jobs are cached; re-run the same "
            "command to finish",
            file=sys.stderr,
        )
        return 130
    except PoisonJob as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        set_surrogate(prior)
        compare.set_small(prior_small)
    supervision = runner.last_supervision()
    if supervision is not None:
        print(f"batch: {supervision.summary()}", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .sim import cache as sim_cache

    if args.cache_command == "stats":
        cache_path = sim_cache.cache_dir()
        usage = sim_cache.disk_usage()
        if usage["disk_entries"] == 0:
            state = "missing" if not cache_path.is_dir() else "empty"
            print(
                f"error: result cache at {cache_path} is {state} — run a "
                "simulation first (e.g. 'repro run alexnet') or point "
                "REPRO_CACHE_DIR at an existing cache",
                file=sys.stderr,
            )
            return 1
        print(f"cache dir     {cache_path}")
        print(f"disk entries  {usage['disk_entries']}")
        print(f"disk bytes    {usage['disk_bytes']}")
        for key, value in sorted(sim_cache.stats().items()):
            print(f"{key:13s} {value}")
        tenants = sim_cache.tenant_disk_usage()
        if tenants["tenants"]:
            # entries referenced by several tenants are counted once in
            # the union/shared lines — per-tenant rows overlap by design
            print("tenants:")
            for name, row in sorted(tenants["tenants"].items()):
                print(f"  {name:15s} {row['entries']:6d} entries "
                      f"{row['bytes']:12d} bytes")
            print(f"  {'(shared)':15s} {tenants['shared_entries']:6d} entries "
                  f"{tenants['shared_bytes']:12d} bytes "
                  "(referenced by >1 tenant; counted once below)")
            print(f"  {'(union)':15s} {tenants['union_entries']:6d} entries "
                  f"{tenants['union_bytes']:12d} bytes")
        return 0
    if args.cache_command == "prune":
        outcome = sim_cache.prune(args.max_bytes)
        print(
            f"pruned {outcome['removed_entries']} entries "
            f"({outcome['removed_bytes']} bytes); "
            f"kept {outcome['kept_entries']} entries "
            f"({outcome['kept_bytes']} bytes) <= {args.max_bytes}"
        )
        return 0
    if args.cache_command == "fsck":
        from .sim import fsck as fsck_mod

        report = fsck_mod.fsck(repair=args.repair)
        print(fsck_mod.to_json(report) if args.json else fsck_mod.render(report))
        return 0 if fsck_mod.clean(report) else 1
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.format == "chrome":
        report = api.simulate(
            args.model, args.config, args.steps, observe=True
        )
        n = report.save_trace(args.output)
        print(f"wrote {n} trace events ({args.steps} steps of {args.model} "
              f"on {report.config_name}) to {args.output}")
        return 0
    graph = build_model(args.model)
    n = export_trace(graph, args.steps, args.output)
    print(f"wrote {n} task records ({args.steps} steps of {args.model}) "
          f"to {args.output}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .faults import FaultSpec
    from .hardware.hmc import StackGeometry

    spec = None
    if args.spec is not None:
        try:
            spec = FaultSpec.from_json(Path(args.spec).read_text())
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    baseline = api.simulate(args.model, args.config, args.steps)
    if spec is None:
        system, _policy = api.resolve_configuration(args.config)
        spec = FaultSpec.generate(
            seed=args.seed,
            horizon_s=baseline.makespan_s,
            n_events=args.events,
            banks=len(StackGeometry(system.stack).banks),
            pool_units=system.fixed_pim.n_units,
            prog_pims=system.prog_pim.n_pims,
        )
    faulted = api.simulate(
        args.model,
        args.config,
        args.steps,
        faults=spec,
        observe=bool(args.trace_out),
    )
    counts = faulted.fault_counts
    base_t, fault_t = baseline.step_time_s, faulted.step_time_s
    base_e = baseline.step_dynamic_energy_j
    fault_e = faulted.step_dynamic_energy_j
    print(f"{args.model} on {faulted.config_name} "
          f"({faulted.steps} steps, {len(spec.events)} injected faults)")
    print(f"  step time   {base_t * 1e3:10.3f} ms -> {fault_t * 1e3:10.3f} ms "
          f"({(fault_t / base_t - 1):+8.1%})")
    print(f"  energy/step {base_e:10.3f} J  -> {fault_e:10.3f} J  "
          f"({(fault_e / base_e - 1):+8.1%})")
    print(f"  recovery    {counts['retries']} retries, "
          f"{counts['degradations']} degradations, "
          f"{counts['reselections']} offload re-selections")
    for event in spec.events:
        print(f"    t={event.time_s * 1e3:9.3f} ms  {event!r}")
    if args.trace_out:
        n = faulted.save_trace(args.trace_out)
        print(f"  trace       {n} events -> {args.trace_out}")
    return 0


def _cmd_surrogate(args: argparse.Namespace) -> int:
    from .surrogate import evaluate_from_cache, model_path, train_from_cache
    from .surrogate.model import TARGETS

    if args.surrogate_command == "train":
        model, misses = train_from_cache()
        meta = model.meta
        print(f"trained on {meta['rows']} cached runs -> {model_path()}")
        for target in TARGETS:
            head = model.heads[target]
            print(f"  {target:24s} in-sample mean "
                  f"{head['insample_mean_rel']:.2%}, "
                  f"LOO mean {head['loo_mean_rel']:.2%}, "
                  f"band +/-{head['band_key_rel']:.1%}")
        if misses:
            _print_surrogate_misses(misses)
        return 0
    if args.surrogate_command == "eval":
        outcome = evaluate_from_cache()
        print(f"evaluated on {outcome['rows']} cached runs")
        ok = True
        for target, agg in outcome["aggregate"].items():
            within = "yes" if agg["within_band"] else "NO"
            print(f"  {target:24s} mean {agg['mean_rel_error']:.2%}, "
                  f"max {agg['max_rel_error']:.2%}, "
                  f"band +/-{agg['band_rel']:.1%}, within band: {within}")
            if agg["mean_rel_error"] > 0.05 or not agg["within_band"]:
                ok = False
        print("PASS (mean error <= 5%, all points within declared bands)"
              if ok else
              "FAIL (mean error > 5% or a point outside its declared band)")
        return 0 if ok else 2
    raise AssertionError(
        f"unhandled surrogate command {args.surrogate_command!r}"
    )


def _print_surrogate_misses(misses: List[str]) -> None:
    """Name each uncached training point with a command that caches it.

    A standard-grid point is one ``repro run`` at its default steps; the
    sweep and co-run points are what ``repro experiment summary`` makes.
    """
    from .surrogate.dataset import STANDARD_GRID

    grid = {f"{model}/{config}" for model, config in STANDARD_GRID}
    print(f"  {len(misses)} training points not cached:", file=sys.stderr)
    swept = []
    for label in misses:
        if label in grid:
            model, config = label.split("/")
            print(f"    {label}: repro run {model} --config {config}",
                  file=sys.stderr)
        else:
            swept.append(label)
    if swept:
        print(f"    {', '.join(swept)}: repro experiment summary",
              file=sys.stderr)


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import EVAL_MODELS, FAST_MODELS, evaluate, failures

    if args.models:
        models = tuple(args.models)
    else:
        models = EVAL_MODELS if args.full else FAST_MODELS
    print(
        f"fidelity gate: {', '.join(models)} over Fig 8/9/Table 1 "
        "golden bands",
        file=sys.stderr,
    )
    findings = evaluate(models)
    failed = failures(findings)
    for finding in findings:
        if finding.ok and args.quiet:
            continue
        print(finding.render())
    print(
        f"{len(findings) - len(failed)}/{len(findings)} fidelity checks "
        "within tolerance"
    )
    _print_surrogate_bands()
    if failed:
        print(
            f"error: {len(failed)} golden band(s) violated — see "
            "docs/architecture.md §11 for the tolerance policy",
            file=sys.stderr,
        )
        return 1
    return 0


def _print_surrogate_bands() -> None:
    """Print the trained surrogate's declared error bands next to the
    golden-band verdicts (so one gate shows both tolerances); a missing
    model only notes itself on stderr."""
    from .surrogate import SurrogateUnavailable, load_model
    from .surrogate.model import TARGETS

    try:
        model = load_model()
    except SurrogateUnavailable as exc:
        print(f"surrogate error bands: none ({exc})", file=sys.stderr)
        return
    bands = ", ".join(
        f"{t} +/-{model.band_rel(t):.1%}" for t in TARGETS
    )
    print(f"surrogate error bands (leave-one-out, declared): {bands}")


def _parse_quota(text: Optional[str]) -> tuple:
    """Parse ``--quota RATE[:BURST]`` into ``(rate, burst)``."""
    if text is None:
        return 0.0, None
    raw_rate, sep, raw_burst = text.partition(":")
    try:
        rate = float(raw_rate)
        burst = float(raw_burst) if sep else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a quota: {text!r} (use RATE or RATE:BURST, e.g. 2 or 2:10)"
        )
    if rate <= 0:
        raise argparse.ArgumentTypeError(
            f"quota rate must be > 0, got {raw_rate!r}"
        )
    if burst is not None and burst < 1:
        raise argparse.ArgumentTypeError(
            f"quota burst must be >= 1, got {raw_burst!r}"
        )
    return rate, burst


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ServeDaemon

    try:
        rate, burst = _parse_quota(args.quota)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def announce(daemon: ServeDaemon) -> None:
        quota = f"{rate:g}/s" if rate else "unlimited"
        print(
            f"repro serve listening on {daemon.host}:{daemon.port} "
            f"({daemon.workers} workers, quota {quota}, "
            f"{daemon.stats.recovered} requests recovered)",
            file=sys.stderr,
            flush=True,
        )

    daemon = ServeDaemon(
        host=args.host,
        port=args.port,
        workers=args.workers,
        quota_rate=rate,
        quota_burst=burst,
        max_queue=args.max_queue,
        resume=not args.no_resume,
        on_start=announce,
    )
    try:
        asyncio.run(daemon.run())
    except OSError as exc:  # e.g. port already bound
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("repro serve drained and stopped", file=sys.stderr)
    return 0


def _set_sigint(handler) -> None:
    """Best-effort SIGINT handler swap (no-op off the main thread)."""
    try:
        signal.signal(signal.SIGINT, handler)
    except (ValueError, OSError):
        pass


def main(argv: Optional[List[str]] = None) -> int:
    # Pin the default KeyboardInterrupt handler so an inherited SIG_IGN
    # (some CI runners) cannot make Ctrl-C a no-op, and the exit path
    # below is the only SIGINT story this process has.
    _set_sigint(signal.default_int_handler)
    args = _build_parser().parse_args(argv)
    if args.jobs is not None:
        from .experiments import runner

        runner.set_jobs(args.jobs)
    try:
        code = _dispatch(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    # Dispatch is done and the exit code is decided: shield interpreter
    # teardown (atexit hooks, executor joins) so a late signal from a
    # driver that double-taps Ctrl-C cannot flip a clean exit into a
    # raw -SIGINT death.
    _set_sigint(signal.SIG_IGN)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "validate":
        try:
            return _cmd_validate(args)
        except (InvariantViolation, FidelityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "surrogate":
        from .surrogate import SurrogateUnavailable

        try:
            return _cmd_surrogate(args)
        except SurrogateUnavailable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.command == "models":
        print("\n".join(available_models()))
        return 0
    if args.command == "configs":
        print("\n".join(list(CONFIGURATION_ORDER) + ["neurocube"]))
        return 0
    if args.command == "backends":
        return _cmd_backends()
    raise AssertionError(f"unhandled command {args.command!r}")


def _cmd_backends() -> int:
    from .hardware import registry

    for name in registry.list_backends():
        descriptor = registry.get(name).descriptor
        configs = ", ".join(descriptor.configurations)
        default = descriptor.default_configuration
        print(f"{name}")
        print(f"  {descriptor.description}")
        print(f"  configurations: {configs} (default: {default})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
