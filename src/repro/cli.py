"""Command-line entry point: regenerate any paper artifact by name.

``python -m repro <experiment>`` prints the same rows the corresponding
benchmark regenerates, without pytest in the loop — handy for quick looks
and for piping into downstream tooling.

Examples::

    python -m repro list
    python -m repro table1
    python -m repro fig13 --models RM1 RM2 --batches 2048 8192
    python -m repro fig5b
    python -m repro fig16 --dataset criteo
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Sequence, Tuple

from .data.datasets import DATASETS, dataset_names
from .experiments import (
    format_hotcache,
    hotcache_sweep,
    fig4_breakdown,
    fig5a_probability_functions,
    fig5b_gradient_sizes,
    fig6_traffic,
    fig12_breakdown,
    fig13_speedup,
    fig14_energy,
    fig15_utilization,
    fig16_batch_sensitivity,
    fig17_dim_sensitivity,
    format_fig4,
    format_fig5a,
    format_fig5b,
    format_fig6,
    format_fig12,
    format_fig13,
    format_fig14,
    format_fig15,
    format_link_sweep,
    format_overlap,
    format_scaling,
    format_sensitivity,
    format_table1,
    format_table2,
    link_bandwidth_sweep,
    OVERLAP_BATCHES,
    overlap_sweep,
    SCALING_SHARDS,
    scaling_sweep,
)
from .model.configs import ALL_MODELS, get_model
from .model.optim import optimizer_names
from .obs.session import Observability
from .runtime.systems import SystemHardware

__all__ = ["main", "EXPERIMENTS", "BUILTIN_COMMANDS"]


def _models_from(args: argparse.Namespace) -> list:
    if not args.models:
        return list(ALL_MODELS)
    return [get_model(name) for name in args.models]


def _run_table1(args: argparse.Namespace, hardware: SystemHardware) -> str:
    return format_table1()


def _run_table2(args: argparse.Namespace, hardware: SystemHardware) -> str:
    return format_table2()


def _run_fig4(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (1024, 2048, 4096)
    return format_fig4(
        fig4_breakdown(models=_models_from(args), batches=batches,
                       dataset=args.dataset, hardware=hardware)
    )


def _run_fig5a(args: argparse.Namespace, hardware: SystemHardware) -> str:
    return format_fig5a(fig5a_probability_functions())


def _run_fig5b(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (1024, 2048, 4096)
    return format_fig5b(fig5b_gradient_sizes(batches=batches))


def _run_fig6(args: argparse.Namespace, hardware: SystemHardware) -> str:
    return format_fig6(fig6_traffic(include_casted=True))


def _run_fig12(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (1024, 2048, 4096, 8192)
    return format_fig12(
        fig12_breakdown(models=_models_from(args), batches=batches,
                        dataset=args.dataset, hardware=hardware)
    )


def _run_fig13(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (1024, 2048, 4096, 8192)
    return format_fig13(
        fig13_speedup(models=_models_from(args), batches=batches,
                      dataset=args.dataset, hardware=hardware)
    )


def _run_fig14(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (1024, 2048, 4096, 8192)
    return format_fig14(
        fig14_energy(models=_models_from(args), batches=batches,
                     dataset=args.dataset, hardware=hardware)
    )


def _run_fig15(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (1024, 2048, 4096, 8192)
    return format_fig15(
        fig15_utilization(models=_models_from(args), batches=batches,
                          dataset=args.dataset, hardware=hardware)
    )


def _run_fig16(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (8192, 16384, 32768)
    return format_sensitivity(
        fig16_batch_sensitivity(models=_models_from(args), batches=batches,
                                dataset=args.dataset, hardware=hardware)
    )


def _run_fig17(args: argparse.Namespace, hardware: SystemHardware) -> str:
    return format_sensitivity(
        fig17_dim_sensitivity(models=_models_from(args),
                              dataset=args.dataset, hardware=hardware)
    )


def _run_link(args: argparse.Namespace, hardware: SystemHardware) -> str:
    return format_link_sweep(
        link_bandwidth_sweep(models=_models_from(args),
                             dataset=args.dataset, hardware=hardware)
    )


def _run_scaling(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (4096,)
    shard_counts = args.shards or SCALING_SHARDS
    return format_scaling(
        scaling_sweep(models=_models_from(args), batches=batches,
                      shard_counts=shard_counts, dataset=args.dataset,
                      hardware=hardware)
    )


def _run_overlap(
    args: argparse.Namespace,
    hardware: SystemHardware,
    obs: "Observability | None" = None,
) -> str:
    batches = args.batches or OVERLAP_BATCHES
    # `or` would swallow an explicit 0, hiding overlap_sweep's validation.
    steps = args.steps if args.steps is not None else 8
    return format_overlap(
        overlap_sweep(batches=batches, steps=steps,
                      dataset=args.dataset, hardware=hardware,
                      trace=args.trace,
                      optimizer=args.optimizer or "sgd",
                      lr=args.lr if args.lr is not None else 0.1,
                      checkpoint_dir=args.checkpoint_dir, resume=args.resume,
                      obs=obs)
    )


def _run_cache(args: argparse.Namespace, hardware: SystemHardware) -> str:
    batches = args.batches or (1024,)
    if len(batches) > 1:
        raise ValueError(f"'cache' replays one batch size, got {batches}")
    steps = args.steps if args.steps is not None else 24
    return format_hotcache(
        hotcache_sweep(dataset=args.dataset, batch=batches[0], steps=steps,
                       trace=args.trace)
    )


#: Experiment registry: name -> (runner, description).
EXPERIMENTS: Dict[str, tuple[Callable, str]] = {
    "table1": (_run_table1, "Table I - disaggregated memory configuration"),
    "table2": (_run_table2, "Table II - recommendation model configurations"),
    "fig4": (_run_fig4, "Figure 4 - CPU-only vs CPU-GPU breakdown"),
    "fig5a": (_run_fig5a, "Figure 5a - lookup probability functions"),
    "fig5b": (_run_fig5b, "Figure 5b - gradient sizes before/after coalescing"),
    "fig6": (_run_fig6, "Figure 6 - memory traffic per primitive"),
    "fig12": (_run_fig12, "Figure 12 - accumulated latency of design points"),
    "fig13": (_run_fig13, "Figure 13 - end-to-end speedup"),
    "fig14": (_run_fig14, "Figure 14 - energy consumption"),
    "fig15": (_run_fig15, "Figure 15 - NMP utilization"),
    "fig16": (_run_fig16, "Figure 16 - batch-size sensitivity"),
    "fig17": (_run_fig17, "Figure 17 - embedding-dimension sensitivity"),
    "link": (_run_link, "Section VI-D - link-bandwidth sweep"),
    "scaling": (_run_scaling, "Beyond the paper - Section IV runtime sharded "
                              "across N devices (speedup + traffic)"),
    "overlap": (_run_overlap, "Section IV-B executed - measured cast-ahead "
                              "pipeline vs the analytic overlap bound"),
    "cache": (_run_cache, "Section II-D related work executed - hot-row "
                          "cache hit rates, measured (LRU/LFU) vs analytic"),
}

#: Experiments that train a real model through the runtime engine.  These
#: runners take ``obs=``.
TRAINER_EXPERIMENTS = ("overlap",)

#: Flag dest -> the experiments (and built-in commands) that accept it.
#: Setting a scoped flag for any other command exits 2; unscoped flags
#: apply everywhere.  Read by :func:`main`, the ``--help`` strings and
#: repro-lint's ``registry-consistency`` rule.
FLAG_SCOPE: Dict[str, Tuple[str, ...]] = {
    "trace": ("cache",) + TRAINER_EXPERIMENTS,
    "checkpoint_dir": TRAINER_EXPERIMENTS,
    "resume": TRAINER_EXPERIMENTS,
    "optimizer": TRAINER_EXPERIMENTS,
    "lr": TRAINER_EXPERIMENTS,
    "trace_out": TRAINER_EXPERIMENTS,
    "metrics_out": TRAINER_EXPERIMENTS,
    "models": ("fig4", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
               "link", "scaling"),
    "batches": ("fig4", "fig5b", "fig12", "fig13", "fig14", "fig15", "fig16",
                "scaling", "overlap", "cache"),
    "shards": ("scaling",),
    "steps": ("overlap", "cache"),
}


def _scope(dest: str) -> str:
    """``dest``'s experiments, comma-joined (for help and error text)."""
    return ", ".join(FLAG_SCOPE[dest])


#: Per-flag value checks: dest -> (is the value acceptable?, message
#: template over ``v``).  Run after the scope check, in this order.
_VALUE_CHECKS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "trace": (
        lambda v: Path(v).is_file(),
        "trace file {v!r} does not exist (record one with "
        "repro.data.record_trace)",
    ),
    "optimizer": (
        lambda v: v.lower() in optimizer_names(),
        "unknown optimizer {v!r}; registered optimizers: "
        + ", ".join(optimizer_names()),
    ),
    "lr": (
        lambda v: 0 < v < float("inf"),
        "learning rate must be positive and finite, got {v}",
    ),
    "resume": (
        lambda v: Path(v).is_file(),
        "checkpoint file {v!r} does not exist (write one with "
        "--checkpoint-dir or repro.runtime.checkpoint.save_checkpoint)",
    ),
}


def _run_list(args: argparse.Namespace) -> int:
    """Enumerate every runnable command."""
    for name, (_, description) in sorted(
        list(EXPERIMENTS.items()) + list(BUILTIN_COMMANDS.items())
    ):
        print(f"{name:8s} {description}")
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from .validation import validate_all

    report = validate_all()
    print(report.summary())
    return 0 if report.passed else 1


#: Built-in (non-experiment) commands.  Same registry shape as EXPERIMENTS,
#: but runners take only ``args``, print their own output, and return the
#: exit code.  Parser choices and the ``list`` output both derive from the
#: two registries — there is no third hand-maintained name list to drift.
BUILTIN_COMMANDS: Dict[str, tuple[Callable, str]] = {
    "list": (_run_list, "Enumerate every command"),
    "validate": (_run_validate, "Run the cross-cutting self-checks"),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the Tensor Casting paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + sorted(BUILTIN_COMMANDS),
        help="which artifact to regenerate ('list' to enumerate, "
             "'validate' to run the self-checks)",
    )
    parser.add_argument(
        "--models", nargs="*", default=None, metavar="RM",
        help="restrict to these Table II models (default: all)",
    )
    parser.add_argument(
        "--batches", nargs="*", type=int, default=None, metavar="B",
        help="mini-batch sizes to sweep (default: the figure's own)",
    )
    parser.add_argument(
        "--dataset", default="random",
        help="locality profile: random, amazon, movielens, alibaba, criteo "
             "(unknown names exit nonzero listing the candidates)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a recorded batch trace (repro.data.record_trace) as the "
             "index stream instead of synthetic generation; accepted by: "
             f"{_scope('trace')}",
    )
    parser.add_argument(
        "--shards", nargs="*", type=int, default=None, metavar="N",
        help="shard counts for the analytic scaling sweep "
             f"(default: {' '.join(str(s) for s in SCALING_SHARDS)})",
    )
    parser.add_argument(
        "--steps", type=int, default=None, metavar="S",
        help="training steps per measured cell (default: 8 for 'overlap'), "
             "or batches drawn and replayed by 'cache' (default: 24)",
    )
    parser.add_argument(
        "--optimizer", default=None, metavar="NAME",
        help="update rule for the trainer-backed experiments "
             f"({_scope('optimizer')}); registered: "
             f"{', '.join(optimizer_names())} (default: sgd)",
    )
    parser.add_argument(
        "--lr", type=float, default=None, metavar="LR",
        help="learning rate for the trainer-backed experiments "
             "(default: 0.1)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="save each trained cell's parameters + optimizer state + step "
             f"into DIR (trainer-backed experiments: {_scope('checkpoint_dir')})",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto-loadable Chrome trace of the run to PATH, "
             "plus the step stream (<stem>.steps.jsonl) and run manifest "
             "(<stem>.manifest.json) next to it (training-engine "
             f"experiments: {_scope('trace_out')})",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metric series (counters and gauges) "
             "as JSON to PATH (training-engine experiments: "
             f"{_scope('metrics_out')})",
    )
    parser.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="warm-start every measured trainer from a checkpoint written "
             "by --checkpoint-dir (or repro.runtime.checkpoint); the "
             "stream fast-forwards past the checkpointed steps",
    )
    return parser


def _fail(message: str) -> int:
    """Report a usage error argparse-style; the exit code for all of them."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Every usage error — unknown names, a flag outside its
    :data:`FLAG_SCOPE`, a bad value — exits 2 with one ``error:`` line
    before any experiment runs.
    """
    args = build_parser().parse_args(argv)
    if args.dataset is not None and args.dataset.lower() not in DATASETS:
        return _fail(
            f"unknown dataset {args.dataset!r}; registered profiles: "
            f"{', '.join(dataset_names())} (or replay a recorded stream "
            "with --trace PATH)"
        )
    for dest, scope in FLAG_SCOPE.items():
        if getattr(args, dest) is not None and args.experiment not in scope:
            return _fail(
                f"--{dest.replace('_', '-')} does not apply to "
                f"{args.experiment!r}; it applies to: {', '.join(scope)}"
            )
    for dest, (accepts, message) in _VALUE_CHECKS.items():
        value = getattr(args, dest)
        if value is not None and not accepts(value):
            return _fail(message.format(v=value))
    if args.experiment in BUILTIN_COMMANDS:
        runner, _ = BUILTIN_COMMANDS[args.experiment]
        return runner(args)
    # Observability is opt-in: either output flag attaches a tracer +
    # metric registry to the experiment's measured runs, exported after
    # the run succeeds (a failed run writes nothing).
    obs = (
        Observability()
        if args.trace_out is not None or args.metrics_out is not None
        else None
    )
    runner, description = EXPERIMENTS[args.experiment]
    try:
        if args.experiment in TRAINER_EXPERIMENTS:
            output = runner(args, SystemHardware(), obs=obs)
        else:
            output = runner(args, SystemHardware())
    except ValueError as error:
        # Bad numeric arguments (--batches 0, --steps 0, --shards 0, ...)
        # surface as the experiment's own ValueError; report it
        # argparse-style instead of a traceback.
        return _fail(str(error))
    print(f"# {description}")
    print(output)
    if obs is not None:
        obs.annotate(experiment=args.experiment)
        if args.trace_out is not None:
            written = obs.export(args.trace_out, metrics_path=args.metrics_out)
        else:
            metrics_path = Path(args.metrics_out)
            obs.metrics.write_json(metrics_path)
            written = [metrics_path]
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 0
