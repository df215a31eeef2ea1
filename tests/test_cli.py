import csv
import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

from fraysched import benchgen, cli
from fraysched.benchgen import PROFILES, generate_instance
from fraysched.cli import main
from fraysched.core import load_instance
from fraysched.scheduler import OrderingStrategy, schedule

from conftest import run_cli, run_python, shared_int_doc


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def ex1(tmp_path, example1_instance_path):
    dest = tmp_path / "example1.json"
    shutil.copy(example1_instance_path, dest)
    return dest


class TestScheduleCommand:
    def test_schedule_validate_roundtrip(self, tmp_path, ex1, capsys):
        out = tmp_path / "sched.json"
        stats = tmp_path / "stats.json"
        assert run(["schedule", ex1, "--strategy", "ffp", "--out", out,
                    "--stats", stats]) == 0
        captured = capsys.readouterr()
        assert "3 slots" in captured.out
        record = json.loads(stats.read_text())
        assert record == {
            "strategy": "ffp",
            "slot_count": 3,
            "wall_time_s": record["wall_time_s"],
            "signal_count": 8,
            "variant_count": 2,
        }
        assert run(["validate", ex1, out]) == 0

    def test_native_and_mems_outputs(self, tmp_path, ex1):
        out = tmp_path / "sched.json"
        assert run(["schedule", ex1, "--strategy", "ffc", "--out", out,
                    "--native-dir", tmp_path / "nat",
                    "--mems-dump", tmp_path / "mems"]) == 0
        natives = sorted((tmp_path / "nat").iterdir())
        assert [p.name for p in natives] == ["variant00.json", "variant01.json"]
        native0 = json.loads(natives[0].read_text())
        assert {p["signal"] for s in native0["slots"] for p in s["placements"]} == set(
            "ABCDFG"
        )
        assert (tmp_path / "mems" / "smem.csv").exists()
        assert (tmp_path / "mems" / "nmem.csv").exists()
        # the natives are optional output: without them the multischedule
        # bytes are the same
        alone = tmp_path / "alone.json"
        assert run(["schedule", ex1, "--strategy", "ffc", "--out", alone]) == 0
        assert alone.read_bytes() == out.read_bytes()

    def test_a_variant_listing_a_signal_twice_uses_it_once(self, tmp_path):
        # two 4-bit signals fill the 8-bit frame only if each is committed
        # once to variant 0: a second commit of a would free its bits again
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
            "signals": [
                {"id": sid, "node": 1, "period_us": 1000, "length_bits": 4} for sid in "ab"
            ],
            "variants": [["a", "a", "b"]],
        }
        assert load_instance(doc).variants_of == {"a": [0], "b": [0]}
        schedules = []
        for variants in ([["a", "a", "b"]], [["a", "b"]]):
            path, out = tmp_path / "inst.json", tmp_path / "s.json"
            path.write_text(json.dumps(dict(doc, variants=variants)))
            assert run(["schedule", path, "--out", out]) == 0
            assert run(["validate", path, out]) == 0
            schedules.append(out.read_bytes())
        assert schedules[0] == schedules[1]

    def test_mixed_int_and_str_nodes_schedule_and_validate(self, tmp_path):
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
            "signals": [
                {"id": "a", "node": 1, "period_us": 1000, "length_bits": 4},
                {"id": "b", "node": "gw", "period_us": 2000, "length_bits": 4},
            ],
            "variants": [["a", "b"]],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s.json"
        for strategy in ("ff", "ffp", "ffw", "ffl", "ffc"):
            assert run(["schedule", path, "--strategy", strategy, "--out", out,
                        "--native-dir", tmp_path / "nat"]) == 0
            assert run(["validate", path, out]) == 0
        slots = json.loads(out.read_text())["slots"]
        assert [s["nodes"] for s in slots] == [[1], ["gw"]]


class TestValidateCommand:
    def test_reference_schedule_ok(self, ex1, example1_schedule_path):
        assert run(["validate", ex1, example1_schedule_path]) == 0

    def test_mutated_schedule_exits_1(self, tmp_path, ex1, example1_schedule_doc, capsys):
        doc = json.loads(json.dumps(example1_schedule_doc))
        doc["slots"][0]["placements"][1]["offset_bits"] = 0  # B onto A
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate", ex1, bad]) == 1
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert lines == [
            {"cycle": c, "message": f"signals A and B overlap in slot 0 cycle {c} but "
             "share variant 0", "rule": "frame-overlap", "signal": "A", "slot": 0,
             "variant": 0}
            for c in (1, 3)
        ]

    def test_closed_stdout_exits_2_without_traceback(
        self, tmp_path, ex1, example1_schedule_doc
    ):
        # the reader is gone before the child writes its violation lines
        doc = json.loads(json.dumps(example1_schedule_doc))
        doc["slots"][0]["placements"][1]["offset_bits"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_python(
                ["-m", "fraysched.cli", "validate", str(ex1), str(bad)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr

    def test_broken_pipe_with_in_memory_stdout_exits_2(
        self, ex1, example1_schedule_path, monkeypatch, capsys
    ):
        # raised below the command function, which the cached parser holds
        def closed(*args):
            raise BrokenPipeError

        monkeypatch.setattr(cli.validator, "validate_multischedule", closed)
        assert run(["validate", ex1, example1_schedule_path]) == 2
        print("stdout still usable")
        assert capsys.readouterr().out == "stdout still usable\n"

    @pytest.mark.parametrize("nodes", [[99], [], [1, 2], ["1"]])
    def test_stated_nodes_must_be_the_slots_nodes_exits_1(self, tmp_path, ex1, capsys, nodes):
        stated = tmp_path / "stated.json"
        assert run(["schedule", ex1, "--strategy", "ffp", "--out", stated]) == 0
        doc = json.loads(stated.read_text())
        assert doc["slots"][0]["nodes"] == [1]
        doc["slots"][0]["nodes"] = nodes
        stated.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["validate", ex1, stated]) == 1
        assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [
            {
                "rule": "slot-nodes",
                "slot": 0,
                "message": f"slot 0 states nodes {sorted(map(str, nodes))} "
                "but carries ['1']",
            }
        ]


class TestCollector:
    """schedule and validate run with the cyclic collector paused and leave
    it as they found it, on every exit code."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.fixture()
    def overlapping(self, tmp_path, example1_schedule_doc):
        doc = json.loads(json.dumps(example1_schedule_doc))
        doc["slots"][0]["placements"][1]["offset_bits"] = 0  # B onto A
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return bad

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["schedule", "EX1", "--out", "OUT"], 0),
            (["validate", "EX1", "SCHED"], 0),
            (["validate", "EX1", "BAD"], 1),
            (["schedule", "MISSING", "--out", "OUT"], 2),
            (["validate", "EX1", "MISSING"], 2),
        ],
        ids=["schedule-0", "validate-0", "validate-1", "schedule-2", "validate-2"],
    )
    def test_collector_state_is_restored(
        self, tmp_path, ex1, example1_schedule_path, overlapping, collector,
        monkeypatch, argv, code,
    ):
        paths = {"EX1": ex1, "OUT": tmp_path / "out.json", "SCHED": example1_schedule_path,
                 "BAD": overlapping, "MISSING": tmp_path / "missing.json"}
        seen = []

        def spy(fn):
            def wrapped(*args):
                seen.append(gc.isenabled())
                return fn(*args)
            return wrapped

        monkeypatch.setattr(cli.core, "read_instance", spy(cli.core.read_instance))
        assert run([paths.get(a, a) for a in argv]) == code
        assert gc.isenabled() is collector
        # the load ran with the collector off
        assert seen == [False]


@pytest.mark.parametrize(
    "case",
    [
        "schedule-out-in-missing-dir",
        "schedule-instance-is-dir",
        "validate-schedule-is-dir",
        "schedule-instance-not-utf8",
        "validate-schedule-not-utf8",
    ],
)
def test_io_errors_exit_2_with_one_line(tmp_path, ex1, example1_schedule_path, capsys, case):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"slots": [], "note": "\u00e9"}'.encode("latin-1"))
    argv = {
        "schedule-out-in-missing-dir": ["schedule", ex1, "--out", tmp_path / "no" / "s.json"],
        "schedule-instance-is-dir": ["schedule", tmp_path, "--out", tmp_path / "s.json"],
        "validate-schedule-is-dir": ["validate", ex1, tmp_path],
        "schedule-instance-not-utf8": ["schedule", latin1, "--out", tmp_path / "s.json"],
        "validate-schedule-not-utf8": ["validate", ex1, latin1],
    }[case]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "command, document",
    [("schedule", "instance"), ("validate", "instance"), ("validate", "schedule"),
     ("validate", "both")],
)
def test_missing_file_exits_2_with_the_same_line(
    tmp_path, ex1, example1_schedule_path, capsys, command, document
):
    # with both files missing, the instance is read first and named
    missing = tmp_path / "missing.json"
    argv = {
        ("schedule", "instance"): ["schedule", missing, "--out", tmp_path / "s.json"],
        ("validate", "instance"): ["validate", missing, example1_schedule_path],
        ("validate", "schedule"): ["validate", ex1, missing],
        ("validate", "both"): ["validate", missing, tmp_path / "missing-schedule.json"],
    }[command, document]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: file not found: {missing}\n"


# JSON that the decoder itself rejects with something other than a
# JSONDecodeError: nesting past the recursion limit (RecursionError) and an
# int with more digits than int() converts (ValueError)
UNPARSABLE = {
    "deep": "[" * 200000,
    "long-int": "[" + "9" * 5000 + "]",
    "truncated-object": "{",
}


@pytest.mark.parametrize("text", sorted(UNPARSABLE))
@pytest.mark.parametrize(
    "command, document",
    [("schedule", "instance"), ("validate", "instance"), ("validate", "schedule")],
)
def test_unparsable_json_exits_2_with_one_line(
    tmp_path, ex1, example1_schedule_path, capsys, command, document, text
):
    raw = tmp_path / "raw.json"
    raw.write_text(UNPARSABLE[text], encoding="utf-8")
    argv = {
        ("schedule", "instance"): ["schedule", raw, "--out", tmp_path / "s.json"],
        ("validate", "instance"): ["validate", raw, example1_schedule_path],
        ("validate", "schedule"): ["validate", ex1, raw],
    }[command, document]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {raw}: not valid JSON (")
    assert "Traceback" not in err


def test_cli_import_loads_no_numpy_csv_or_process_pool():
    # the CLI's cold start pays for none of these; csv is imported only by
    # the bench command, the generator (and its random) only by generate
    # and bench, and nothing starts a process pool; the instance records are
    # named tuples, so dataclasses (and its inspect) stays unloaded too
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fraysched.cli\n"
        "heavy = ('numpy', 'csv', 'concurrent.futures', 'fraysched.benchgen', 'dataclasses')\n"
        "print(sorted(m for m in heavy if m in set(sys.modules) - before))\n"
    )
    done = run_python(["-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


def _rename_offset(doc):
    placement = doc["slots"][0]["placements"][0]
    placement["offset_bit"] = placement.pop("offset_bits")


def _rename_release(doc):
    signal = doc["signals"][0]
    signal["release_uss"] = signal.pop("release_us")


# documents that the cases below read from their directory: edited copies
# of example 1's instance or reference schedule, and the shared-int instance
INPUTS = {
    "example1.json": ("instance", None),
    "schedule.json": ("schedule", None),
    # B moved onto A's offset in slot 0; both ride in variant 0
    "overlap.json": ("schedule", lambda d: d["slots"][0]["placements"][1].update(offset_bits=0)),
    "offset-typo.json": ("schedule", _rename_offset),
    "release-typo.json": ("instance", _rename_release),
    "bad-node.json": ("instance", lambda d: d["signals"][1].update(node=[1])),
    # A's deadline ends inside its release cycle
    "infeasible.json": ("instance", lambda d: d["signals"][0].update(deadline_us=4000)),
}


@pytest.fixture()
def inputs(tmp_path, example1_instance_path, example1_schedule_path):
    sources = {"instance": example1_instance_path, "schedule": example1_schedule_path}
    for name, (source, edit) in INPUTS.items():
        doc = json.loads(sources[source].read_text())
        if edit:
            edit(doc)
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "shared.json").write_text(json.dumps(shared_int_doc()))
    return tmp_path


BAD_NODE = "signal B: node must be an integer or a non-empty string, not [1]"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["schedule", "bad-node.json", "--out", "s.json"], BAD_NODE),
        (["schedule", "infeasible.json", "--out", "s.json"],
         "infeasible instance: signal A: no complete cycle between release 0 us "
         "and deadline 4000 us"),
        (["schedule", "example1.json", "--strategy", "magic", "--out", "s.json"],
         "unknown strategy 'magic'; expected one of ff|ffp|ffw|ffl|ffc"),
        (["validate", "bad-node.json", "schedule.json"], BAD_NODE),
        (["validate", "example1.json", "offset-typo.json"],
         "slot 0: placement: unknown key 'offset_bit'"),
        (["validate", "bad-node.json", "offset-typo.json"], BAD_NODE),
    ],
    ids=["schedule-instance", "schedule-infeasible", "schedule-strategy",
         "validate-instance", "validate-schedule", "validate-instance-first"],
)
def test_input_error_exits_2_with_one_line(inputs, monkeypatch, capsys, argv, message):
    # what the CLI decides about a bad input, per command and error source:
    # exit 2, the error's own text on one stderr line (the loader's and the
    # reader's rule tables pin each text), nothing on stdout and no file
    # written.  validate reads the instance before the schedule
    monkeypatch.chdir(inputs)
    files = sorted(inputs.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(inputs.iterdir()) == files


@pytest.mark.parametrize(
    "steps, preexec_fn",
    [
        ([(["schedule", "example1.json", "--out", "s.json", "--native-dir", "natives",
            "--mems-dump", "mems", "--stats", "stats.json"], 0),
          (["validate", "example1.json", "s.json"], 0)], None),
        ([(["validate", "example1.json", "overlap.json"], 1)], None),
        ([(["validate", "example1.json", "offset-typo.json"], 2)], None),
        ([(["schedule", "release-typo.json", "--out", "s.json"], 2)], None),
        ([(["generate", "--profile", "set5", "--seed", "0", "--out", "set5.json"], 0)], None),
        ([(["bench", "--profiles", "set1", "--repeats", "1", "--aggregate-out", "means.csv"],
           0)], None),
        # a copy of each slot's free bits per variant would need about 330
        # MB of address space
        pytest.param(
            [(["schedule", "shared.json", "--out", "s.json", "--native-dir", "natives"], 0),
             (["validate", "shared.json", "s.json"], 0)],
            _limit_address_space,
            marks=pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS on Linux"),
        ),
    ],
    ids=["schedule-validate", "overlap", "placement-key-typo", "signal-key-typo",
         "generate", "bench", "shared-int-in-256-mib"],
)
def test_real_process_exit_codes(inputs, steps, preexec_fn):
    # each command in its own interpreter, run from the inputs' directory:
    # the exit code, one error line on exit 2, and no leak or traceback on
    # stderr
    for argv, want in steps:
        code, _, err = run_cli(argv, cwd=inputs, preexec_fn=preexec_fn)
        assert code == want, err
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: ")


def parse(parser, argv, capsys):
    """(namespace or None, stdout, stderr, exit code) of one parse."""
    capsys.readouterr()
    try:
        args, code = parser.parse_args(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return args, captured.out, captured.err, code


@pytest.mark.parametrize(
    "argv",
    [[command, "--help"] for command in ("generate", "schedule", "validate", "bench")]
    + [
        ["--help"],
        ["validate"],
        ["validate", "a"],
        ["schedule"],
        ["generate"],
        ["validate", "a", "b", "--bogus"],
        ["schedule", "a", "--native-dir"],
        [],
        ["bogus"],
        ["bogus", "a", "b"],
        ["--bogus", "validate"],
        ["validate", "a", "b"],
        ["schedule", "a", "--strategy", "ff", "--stats", "s.json"],
        ["generate", "--profile", "set1", "--seed", "3"],
        ["bench", "--repeats", "2"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_reused_parser_matches_a_fresh_one(argv, capsys):
    # main's one parser, reused after an error and after a parse of the
    # same argv, gives the help, usage lines, errors, exit codes and parsed
    # arguments of a freshly built parser
    fresh = parse(cli.build_parser.__wrapped__(), argv, capsys)
    shared = cli.build_parser()
    for before in (["bogus"], argv):
        parse(shared, before, capsys)
        assert parse(shared, argv, capsys) == fresh
    if fresh[0] is None:
        # and main, which parses with it, exits as the fresh parser does
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert (exited.value.code, *capsys.readouterr()) == (fresh[3], fresh[1], fresh[2])


def test_one_parser_per_process(monkeypatch):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    # and main parses with it, building none of its own
    seen = []
    monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(argv) or sys.exit(3))
    with pytest.raises(SystemExit):
        main(["validate", "a", "b"])
    assert seen == [["validate", "a", "b"]]


def test_strategy_defaults_and_help_come_from_the_enum(capsys):
    # bench runs every ordering by default, and schedule's help names them all
    values = [s.value for s in OrderingStrategy]
    assert cli.build_parser().parse_args(["bench"]).strategies == ",".join(values)
    _, out, _, code = parse(cli.build_parser(), ["schedule", "--help"], capsys)
    assert code == 0
    assert "|".join(values) in out


class TestGenerateCommand:
    def test_generate_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "--profile", "set1", "--seed", 5, "--out", out]) == 0
        from fraysched.core import read_instance

        inst = read_instance(out)
        assert len(inst.signals) >= 500

    def test_unknown_profile_exits_2(self, tmp_path, capsys):
        assert run(["generate", "--profile", "set99", "--out", tmp_path / "x.json"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown profile 'set99'; available: " + ", ".join(sorted(PROFILES)) + "\n"
        )

    def test_generated_set5_schedules_and_validates(self, tmp_path):
        # 6 nodes, so slots close to nodes under both orderings; FFL runs
        # the later-job check, while FFC places each node's signals by
        # period and never needs it.  The native dir holds one file per
        # variant
        inst = tmp_path / "set5.json"
        sched = tmp_path / "sched.json"
        assert run(["generate", "--profile", "set5", "--seed", 1, "--out", inst]) == 0
        for strategy in ("ffc", "ffl"):
            natives = tmp_path / strategy
            assert run(["schedule", inst, "--strategy", strategy, "--out", sched,
                        "--native-dir", natives]) == 0
            assert run(["validate", inst, sched]) == 0
            assert sorted(p.name for p in natives.iterdir()) == [
                f"variant{j:02d}.json" for j in range(20)
            ]


class TestBenchCommand:
    def test_row_and_aggregate_schema(self, tmp_path):
        out = tmp_path / "rows.csv"
        agg = tmp_path / "agg.csv"
        assert run([
            "bench", "--profiles", "set1", "--strategies", "ff,ffc",
            "--repeats", 2, "--seed-base", 0, "--out", out,
            "--aggregate-out", agg,
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 seeds x 2 strategies
        assert all(r["status"] == "ok" for r in rows)
        assert [
            (r["profile"], r["seed"], r["strategy"]) for r in rows
        ] == [("set1", "0", "ff"), ("set1", "0", "ffc"),
              ("set1", "1", "ff"), ("set1", "1", "ffc")]
        with open(agg) as fh:
            agg_rows = list(csv.reader(fh))
        assert agg_rows[0] == ["profile", "ff", "ffc"]
        assert agg_rows[1][0] == "set1"
        ff_rows = [int(r["slot_count"]) for r in rows if r["strategy"] == "ff"]
        assert float(agg_rows[1][1]) == pytest.approx(sum(ff_rows) / len(ff_rows))

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--repeats", 0, "--repeats must be >= 1, not 0"),
            ("--repeats", -2, "--repeats must be >= 1, not -2"),
            ("--profiles", "", "--profiles and --strategies must each name at least one"),
            ("--strategies", " , ", "--profiles and --strategies must each name at least one"),
        ],
        ids=["zero-repeats", "negative-repeats", "no-profile", "no-strategy"],
    )
    def test_nothing_to_run_exits_2_with_one_line(
        self, tmp_path, capsys, option, value, message
    ):
        out = tmp_path / "rows.csv"
        argv = ["bench", "--profiles", "set1", "--strategies", "ff", "--repeats", 1,
                "--out", out]
        argv[argv.index(option) + 1] = value
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_rows_match_direct_schedule(self, tmp_path):
        # each row's figures are those of scheduling the generated instance
        # directly; set5 is multi-node, so node exclusion is in play, and
        # ff and ffc give different slot counts on every one of these seeds
        out = tmp_path / "rows.csv"
        assert run(["bench", "--profiles", "set1,set5", "--strategies", "ff,ffc",
                    "--repeats", 2, "--seed-base", 1, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        expected = []
        for profile in ("set1", "set5"):
            for seed in (1, 2):
                inst = load_instance(generate_instance(PROFILES[profile], seed))
                for strategy in ("ff", "ffc"):
                    result = schedule(inst, OrderingStrategy.from_name(strategy))
                    expected.append({
                        "profile": profile, "seed": str(seed), "strategy": strategy,
                        "signal_count": str(len(inst.signals)),
                        "variant_count": str(len(inst.variants)),
                        "slot_count": str(result.slot_count), "status": "ok",
                    })
        assert [
            {k: v for k, v in row.items() if k != "wall_time_s"} for row in rows
        ] == expected

    def test_failed_cells_are_recorded_and_the_batch_goes_on(self, tmp_path, monkeypatch):
        # seed 1 fails to generate, so both of its rows fail; ff fails to
        # schedule, so only its own row of seed 0 fails
        generate = benchgen.generate_instance

        def flaky_generate(profile, seed):
            if seed == 1:
                raise RuntimeError("no instance")
            return generate(profile, seed)

        def flaky_schedule(instance, ordering):
            if ordering is OrderingStrategy.FF:
                raise RuntimeError("no schedule")
            return schedule(instance, ordering)

        monkeypatch.setattr(benchgen, "generate_instance", flaky_generate)
        monkeypatch.setattr(cli, "schedule", flaky_schedule)
        out = tmp_path / "rows.csv"
        assert run(["bench", "--profiles", "set1", "--strategies", "ff,ffc",
                    "--repeats", 2, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["seed"], r["strategy"], r["status"], r["slot_count"] != "")
                for r in rows] == [
            ("0", "ff", "error: no schedule", False),
            ("0", "ffc", "ok", True),
            ("1", "ff", "error: no instance", False),
            ("1", "ffc", "error: no instance", False),
        ]

    def test_unknown_profile_exits_2(self, tmp_path, capsys):
        assert run(["bench", "--profiles", "setx", "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == "error: unknown profile 'setx'\n"

    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("option", ["--out", "--aggregate-out"])
    def test_unwritable_output_exits_2_with_one_line(self, tmp_path, capsys, option, target):
        bad = tmp_path / "nowhere" / "x.csv" if target == "missing-dir" else tmp_path
        paths = {"--out": tmp_path / "rows.csv", "--aggregate-out": tmp_path / "agg.csv"}
        paths[option] = bad
        argv = ["bench", "--profiles", "set1", "--strategies", "ff", "--repeats", 1]
        for opt, path in paths.items():
            argv += [opt, path]
        assert run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {bad}: ")
