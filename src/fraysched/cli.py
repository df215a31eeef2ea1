"""Command-line front end: generate, schedule, validate, bench.

Exit codes: 0 success (validate: schedule feasible), 1 validation found
violations, 2 unreadable/malformed input or infeasible instance.  The
argument parser is built once per process and reused by every `main` call.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

from . import core, exclusion, multischedule, validator
from .scheduler import OrderingStrategy, schedule


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_generate(args) -> int:
    from . import benchgen

    profile = benchgen.PROFILES.get(args.profile.lower())
    if profile is None:
        return _fail(
            f"unknown profile {args.profile!r}; available: "
            + ", ".join(sorted(benchgen.PROFILES))
        )
    doc = benchgen.generate_instance(profile, args.seed)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_schedule(args) -> int:
    try:
        instance = core.read_instance(args.instance)
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc.filename}")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read {args.instance}: {exc}")
    except core.InstanceError as exc:
        return _fail(str(exc))
    try:
        strategy = OrderingStrategy.from_name(args.strategy)
    except ValueError as exc:
        return _fail(str(exc))

    try:
        result = schedule(instance, strategy)
    except core.InfeasibleSignalError as exc:
        return _fail(f"infeasible instance: {exc}")

    stats = {
        "strategy": strategy.value,
        "slot_count": result.slot_count,
        "wall_time_s": round(result.wall_time_s, 6),
        "signal_count": len(instance.signals),
        "variant_count": len(instance.variants),
    }
    try:
        # the multischedule text first; the natives are built, one text at
        # a time, only when they are read
        documents = multischedule.render_documents(result.multischedule)
        Path(args.out).write_text(next(documents), encoding="utf-8")
        if args.native_dir:
            out_dir = Path(args.native_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            for j, text in enumerate(documents):
                (out_dir / f"variant{j:02d}.json").write_text(text, encoding="utf-8")

        if args.mems_dump:
            exclusion.dump_mems_csv(result.multischedule.mems, args.mems_dump)

        if args.stats:
            Path(args.stats).write_text(
                json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    print(
        "scheduled {signal_count} signals / {variant_count} variants with "
        "{strategy}: {slot_count} slots in {wall_time_s:.3f} s".format(**stats)
    )
    if 0 < instance.config.static_slots < result.slot_count:
        print(
            f"warning: allocated {result.slot_count} slots but the network "
            f"declares only {instance.config.static_slots}",
            file=sys.stderr,
        )
    return 0


def cmd_validate(args) -> int:
    path = args.instance
    try:
        instance = core.read_instance(path)
        path = args.schedule
        parsed = multischedule.schedule_from_dict(core.read_json(path), instance)
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc.filename}")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read {path}: {exc}")
    except (core.InstanceError, multischedule.ScheduleError) as exc:
        return _fail(str(exc))

    violations = validator.validate_multischedule(*parsed, instance)
    for v in violations:
        print(json.dumps(v.to_dict(), sort_keys=True))
    if violations:
        print(f"INFEASIBLE: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("ok", file=sys.stderr)
    return 0


_BENCH_FIELDS = ("profile", "seed", "strategy", "signal_count", "variant_count",
                 "slot_count", "wall_time_s", "status")


def cmd_bench(args) -> int:
    import csv

    from . import benchgen

    names = ",".join(sorted(benchgen.PROFILES)) if args.profiles is None else args.profiles
    profiles = [p.strip().lower() for p in names.split(",") if p.strip()]
    strategies = [s.strip().lower() for s in args.strategies.split(",") if s.strip()]
    if not profiles or not strategies:
        return _fail("--profiles and --strategies must each name at least one")
    if args.repeats < 1:
        return _fail(f"--repeats must be >= 1, not {args.repeats}")
    for p in profiles:
        if p not in benchgen.PROFILES:
            return _fail(f"unknown profile {p!r}")
    try:
        orderings = [OrderingStrategy.from_name(s) for s in strategies]
    except ValueError as exc:
        return _fail(str(exc))

    # one instance per (profile, seed), shared by all strategies; a failure
    # is recorded in the status of each row it affects and the batch goes
    # on.  Fields a failed row lacks are written empty.
    rows = []
    # per-profile mean slot counts, profiles in rows and strategies in
    # columns like the usual results-table layout
    means: dict[tuple[str, str], list[int]] = {}
    for p in profiles:
        for seed in range(args.seed_base, args.seed_base + args.repeats):
            try:
                instance = core.load_instance(
                    benchgen.generate_instance(benchgen.PROFILES[p], seed)
                )
            except Exception as exc:
                rows += [dict(profile=p, seed=seed, strategy=s, status=f"error: {exc}")
                         for s in strategies]
                continue
            for s, ordering in zip(strategies, orderings):
                try:
                    result = schedule(instance, ordering)
                except Exception as exc:
                    rows.append(dict(profile=p, seed=seed, strategy=s, status=f"error: {exc}"))
                    continue
                rows.append(dict(
                    profile=p, seed=seed, strategy=s, signal_count=len(instance.signals),
                    variant_count=len(instance.variants), slot_count=result.slot_count,
                    wall_time_s=f"{result.wall_time_s:.6f}", status="ok",
                ))
                means.setdefault((p, s), []).append(result.slot_count)

    path = args.out
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=_BENCH_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        if args.aggregate_out:
            path = args.aggregate_out
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["profile"] + strategies)
                for p in profiles:
                    line = [p]
                    for s in strategies:
                        vals = means.get((p, s))
                        line.append(f"{sum(vals) / len(vals):.2f}" if vals else "")
                    writer.writerow(line)
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc}")
    print(f"wrote {len(rows)} bench rows to {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser with all four commands."""
    parser = argparse.ArgumentParser(
        prog="fraysched",
        description="Multi-variant FlexRay static-segment schedule synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a benchmark instance")
    p.add_argument("--profile", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("schedule", help="synthesize a multischedule")
    p.add_argument("instance")
    p.add_argument("--strategy", default="ffc",
                   help="|".join(s.value for s in OrderingStrategy))
    p.add_argument("--out", default="schedule.json")
    p.add_argument("--native-dir", help="also write per-variant native schedules")
    p.add_argument("--stats", help="write a JSON stats record")
    p.add_argument("--mems-dump", help="dump exclusion matrices as CSV into DIR")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("validate", help="check a schedule against its instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="batch-run generated benchmarks")
    p.add_argument("--profiles", help="comma-separated (default: every profile)")
    p.add_argument("--strategies", default=",".join(s.value for s in OrderingStrategy))
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--out", default="bench.csv")
    p.add_argument("--aggregate-out", help="write per-profile mean slot counts")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    # schedule and validate build only acyclic records, which refcounting
    # frees, so they run with the cyclic collector paused
    enabled = gc.isenabled()
    if args.func in (cmd_schedule, cmd_validate):
        gc.disable()
    try:
        code = args.func(args)
        # flush here, not at interpreter exit, so that a closed pipe shows
        # up as the exception below
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (`fraysched validate ... | head`);
        # unflushed text would fail again at exit, so stdout is pointed at
        # devnull first
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # an in-memory stdout has no descriptor
            return 2
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
