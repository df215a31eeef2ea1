import argparse
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

    def test_missing_instance_exits_2(self, tmp_path):
        assert run(["schedule", tmp_path / "nope.json", "--out", tmp_path / "s.json"]) == 2

    def test_unknown_strategy_exits_2(self, tmp_path, ex1):
        assert run(["schedule", ex1, "--strategy", "magic", "--out", tmp_path / "s.json"]) == 2

    def test_infeasible_instance_exits_2(self, tmp_path):
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
            "signals": [{"id": "x", "node": 1, "period_us": 1000, "length_bits": 2,
                         "deadline_us": 500}],
            "variants": [["x"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["schedule", path, "--out", tmp_path / "s.json"]) == 2


    def test_zero_deadline_exits_2_with_one_line(self, tmp_path, capsys):
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
            "signals": [{"id": "x", "node": 1, "period_us": 1000, "length_bits": 2,
                         "deadline_us": 0}],
            "variants": [["x"]],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["schedule", path, "--out", tmp_path / "s.json"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "deadline must be positive" in err[0]
        assert not (tmp_path / "s.json").exists()

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


    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"node": [1]}, "signal b: node must be an integer or a non-empty string, not [1]"),
            ({"node": True}, "signal b: node must be an integer or a non-empty string, not True"),
            ({"node": ""}, "signal b: node must be an integer or a non-empty string, not ''"),
            ({"id": "a"}, "duplicate signal id 'a'"),
        ],
        ids=["list", "bool", "empty-str", "duplicate-id"],
    )
    def test_non_int_str_node_exits_2_with_one_line(self, tmp_path, capsys, edit, message):
        # the second record fails a column check of the loader's signal
        # table, and the bisection of that check names it
        doc = {
            "config": {"cycle_us": 1000, "hyperperiod_cycles": 2, "payload_bits": 8},
            "signals": [
                {"id": "a", "node": 1, "period_us": 1000, "length_bits": 4},
                {"id": "b", "node": 2, "period_us": 1000, "length_bits": 4, **edit},
            ],
            "variants": [["a", "b"]],
        }
        path = tmp_path / "node.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["schedule", path, "--out", tmp_path / "s.json"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not (tmp_path / "s.json").exists()


    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(signals=5), "signals must be a list"),
            (lambda d: d.update(variants=5), "variants must be a list"),
            (lambda d: d["variants"].append("ABCDFG"), "variant 2 must be a list"),
            (lambda d: d["variants"][0].append(["A"]), "signal ids must be strings"),
            (lambda d: d["variants"][1].insert(0, 7), "signal ids must be strings"),
            (lambda d: d.update(config=[5000]), "config must be a JSON object"),
        ],
        ids=["signals-int", "variants-int", "variant-str", "variant-holds-list",
             "variant-holds-int", "config-list"],
    )
    def test_malformed_instance_shape_exits_2_with_one_line(
        self, tmp_path, example1_instance_path, capsys, mutate, message
    ):
        doc = json.loads(example1_instance_path.read_text())
        mutate(doc)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["schedule", path, "--out", tmp_path / "s.json"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("signal", "period_us", 5000.9, "signal A: period_us must be an integer, not 5000.9"),
            ("signal", "length_bits", True, "signal A: length_bits must be an integer, not True"),
            ("signal", "release_us", False, "signal A: release_us must be an integer, not False"),
            ("signal", "deadline_us", "5000",
             "signal A: deadline_us must be an integer, not '5000'"),
            ("config", "cycle_us", 5000.0, "config: cycle_us must be an integer, not 5000.0"),
            ("config", "hyperperiod_cycles", True,
             "config: hyperperiod_cycles must be an integer, not True"),
            ("config", "payload_bits", 2040,
             "config: payload_bits must be between 1 and 2032 (254 bytes), not 2040"),
            ("config", "static_slots", -1, "config: static_slots must be >= 0"),
            ("config", "slot_us", -40, "config: slot_us must be >= 0"),
            ("config", "static_slots", False,
             "config: static_slots must be an integer, not False"),
        ],
        ids=["float-period", "bool-length", "bool-release", "str-deadline",
             "float-cycle", "bool-hyperperiod", "payload-over-254-bytes",
             "negative-static-slots", "negative-slot-time", "bool-static-slots"],
    )
    def test_non_integer_or_out_of_range_number_exits_2_with_one_line(
        self, tmp_path, example1_instance_path, capsys, section, key, value, message
    ):
        doc = json.loads(example1_instance_path.read_text())
        (doc["signals"][0] if section == "signal" else doc["config"])[key] = value
        path = tmp_path / "number.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["schedule", path, "--out", tmp_path / "s.json"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not (tmp_path / "s.json").exists()


    @pytest.mark.parametrize("command", ["schedule", "validate"])
    @pytest.mark.parametrize(
        "section, old, new, message",
        [
            ("config", "static_slots", "static_slot", "config: unknown key 'static_slot'"),
            ("signal", "release_us", "release_uss", "signal A: unknown key 'release_uss'"),
            ("signal", "deadline_us", "deadline_uss", "signal A: unknown key 'deadline_uss'"),
            ("signal", None, "priority", "signal A: unknown key 'priority'"),
        ],
        ids=["config-typo", "release-typo", "deadline-typo", "extra-key"],
    )
    def test_unknown_instance_key_exits_2_with_one_line(
        self, tmp_path, example1_instance_path, example1_schedule_path, capsys,
        command, section, old, new, message,
    ):
        doc = json.loads(example1_instance_path.read_text())
        raw = doc["config"] if section == "config" else doc["signals"][0]
        raw[new] = raw.pop(old) if old else 1
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        argv = {
            "schedule": ["schedule", path, "--out", tmp_path / "s.json"],
            "validate": ["validate", path, example1_schedule_path],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not (tmp_path / "s.json").exists()


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

    def test_unknown_signal_exits_2(self, tmp_path, ex1, example1_schedule_doc):
        doc = json.loads(json.dumps(example1_schedule_doc))
        doc["slots"][0]["placements"].append(
            {"signal": "QQ", "first_cycle": 0, "offset_bits": 0}
        )
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate", ex1, bad]) == 2

    def test_missing_files_exit_2(self, tmp_path, ex1):
        assert run(["validate", tmp_path / "no.json", tmp_path / "rly.json"]) == 2

    @pytest.mark.parametrize(
        "doc",
        [{"slots": [[1, 2]]}, {"slots": [{"placements": [5]}]}, {"slots": 5}],
        ids=["slot-not-object", "placement-not-object", "slots-not-list"],
    )
    def test_malformed_schedule_shape_exits_2_with_one_line(
        self, tmp_path, ex1, capsys, doc
    ):
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["validate", ex1, bad]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


    @pytest.mark.parametrize(
        "key, value",
        [("first_cycle", True), ("offset_bits", False), ("offset_bits", 0.0),
         ("first_cycle", "0")],
        ids=["bool-cycle", "bool-offset", "float-offset", "str-cycle"],
    )
    def test_non_integer_placement_exits_2_with_one_line(
        self, tmp_path, ex1, example1_schedule_doc, capsys, key, value
    ):
        doc = json.loads(json.dumps(example1_schedule_doc))
        doc["slots"][0]["placements"][0][key] = value
        bad = tmp_path / "number.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["validate", ex1, bad]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "must be integers" in err[0]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: [s.update(placement=s.pop("placements")) for s in d["slots"]],
             "slot 0: unknown key 'placement'"),
            (lambda d: d.update(variant=5), "schedule document: unknown key 'variant'"),
            (lambda d: d["slots"][1].update(bogus=1), "slot 1: unknown key 'bogus'"),
            (lambda d: d["slots"][0]["placements"][0].update(note="x"),
             "slot 0: placement: unknown key 'note'"),
            (lambda d: d["slots"][0]["placements"][0].update(
                first=d["slots"][0]["placements"][0].pop("first_cycle")),
             "slot 0: placement: unknown key 'first'"),
            (lambda d: d["slots"][0]["placements"][0].update(
                sig=d["slots"][0]["placements"][0].pop("signal")),
             "slot 0: placement: unknown key 'sig'"),
            (lambda d: d["slots"][0]["placements"][0].update(
                signal="QQ", offset=d["slots"][0]["placements"][0].pop("offset_bits")),
             "slot 0: placement: unknown key 'offset'"),
            (lambda d: d["slots"][0]["placements"][0].update(
                offset_bit=d["slots"][0]["placements"][0].pop("offset_bits")),
             "slot 0: placement: unknown key 'offset_bit'"),
        ],
        ids=["placement-typo", "document-key", "slot-key", "placement-key",
             "placement-key-for-missing", "signal-key-for-missing",
             "placement-key-before-unknown-signal", "offset-key-typo"],
    )
    def test_unknown_key_exits_2_with_one_line(
        self, tmp_path, ex1, example1_schedule_doc, capsys, edit, message
    ):
        doc = json.loads(json.dumps(example1_schedule_doc))
        edit(doc)
        bad = tmp_path / "keys.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["validate", ex1, bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {message}"]

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
        def closed(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "cmd_validate", closed)
        assert run(["validate", ex1, example1_schedule_path]) == 2
        print("stdout still usable")
        assert capsys.readouterr().out == "stdout still usable\n"

    @pytest.fixture()
    def ffp_doc(self, tmp_path, ex1):
        out = tmp_path / "ffp.json"
        assert run(["schedule", ex1, "--strategy", "ffp", "--out", out]) == 0
        return json.loads(out.read_text())

    def validate_doc(self, tmp_path, ex1, capsys, doc):
        bad = tmp_path / "stated.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["validate", ex1, bad])
        captured = capsys.readouterr()
        return code, captured.out, captured.err.strip().splitlines()

    @pytest.mark.parametrize("index", [7, 0, "1", 1.0, True])
    def test_slot_index_must_match_position_exits_2_with_one_line(
        self, tmp_path, ex1, capsys, ffp_doc, index
    ):
        ffp_doc["slots"][1]["index"] = index
        code, _, err = self.validate_doc(tmp_path, ex1, capsys, ffp_doc)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: slot 1: index is")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["config"].update(payload_bits=64),
            lambda d: d["config"].update(payload_bits=16.0),
            lambda d: d["config"].update(static_slots=True),
            lambda d: d["config"].pop("slot_us"),
            lambda d: d["config"].update(extra=1),
            lambda d: d.update(config=[16]),
        ],
        ids=["payload-64", "payload-float", "bool-slots", "missing-key", "extra-key",
             "not-an-object"],
    )
    def test_config_must_match_instance_exits_2_with_one_line(
        self, tmp_path, ex1, capsys, ffp_doc, edit
    ):
        edit(ffp_doc)
        code, _, err = self.validate_doc(tmp_path, ex1, capsys, ffp_doc)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: schedule config")

    @pytest.mark.parametrize(
        "nodes", [[[1]], [{"n": 1}], 1, None, [True], [""], [1.5]],
        ids=["list-entry", "object-entry", "int", "null", "bool", "empty-str", "float"],
    )
    def test_slot_nodes_must_be_node_ids_exits_2_with_one_line(
        self, tmp_path, ex1, capsys, ffp_doc, nodes
    ):
        ffp_doc["slots"][0]["nodes"] = nodes
        code, _, err = self.validate_doc(tmp_path, ex1, capsys, ffp_doc)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: slot 0: nodes must be")

    @pytest.mark.parametrize("nodes", [[99], [], [1, 2], ["1"]])
    def test_stated_nodes_must_be_the_slots_nodes_exits_1(
        self, tmp_path, ex1, capsys, ffp_doc, nodes
    ):
        assert ffp_doc["slots"][0]["nodes"] == [1]
        ffp_doc["slots"][0]["nodes"] = nodes
        code, out, _ = self.validate_doc(tmp_path, ex1, capsys, ffp_doc)
        assert code == 1
        assert [json.loads(line) for line in out.splitlines()] == [
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
    [("schedule", "instance"), ("validate", "instance"), ("validate", "schedule")],
)
def test_missing_file_exits_2_with_the_same_line(
    tmp_path, ex1, example1_schedule_path, capsys, command, document
):
    missing = tmp_path / "missing.json"
    argv = {
        ("schedule", "instance"): ["schedule", missing, "--out", tmp_path / "s.json"],
        ("validate", "instance"): ["validate", missing, example1_schedule_path],
        ("validate", "schedule"): ["validate", ex1, missing],
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


# documents that the real-process cases read: edited copies of example 1's
# instance or reference schedule, and the shared-int instance
REAL_PROCESS_INPUTS = {
    "example1.json": ("instance", None),
    # B moved onto A's offset in slot 0; both ride in variant 0
    "overlap.json": ("schedule", lambda d: d["slots"][0]["placements"][1].update(offset_bits=0)),
    "offset-typo.json": ("schedule", _rename_offset),
    "release-typo.json": ("instance", _rename_release),
}


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
def test_real_process_exit_codes(
    tmp_path, example1_instance_path, example1_schedule_path, steps, preexec_fn
):
    # each command in its own interpreter, run from tmp_path: the exit code,
    # one error line on exit 2, and no leak or traceback on stderr
    sources = {"instance": example1_instance_path, "schedule": example1_schedule_path}
    for name, (source, edit) in REAL_PROCESS_INPUTS.items():
        doc = json.loads(sources[source].read_text())
        if edit:
            edit(doc)
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "shared.json").write_text(json.dumps(shared_int_doc()))
    for argv, want in steps:
        code, _, err = run_cli(argv, cwd=tmp_path, preexec_fn=preexec_fn)
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
    [[command, "--help"] for command in cli._COMMANDS]
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
def test_per_command_parser_matches_the_full_parser(argv, capsys):
    # main builds only the named command's sub-parser; help, usage lines,
    # errors, exit codes and parsed arguments must be those of all four
    full = parse(cli.build_parser(), argv, capsys)
    assert parse(cli.build_parser(argv), argv, capsys) == full
    if full[0] is None:
        # and main, which parses with it, exits as the full parser does
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert (exited.value.code, *capsys.readouterr()) == (full[3], full[1], full[2])


def test_per_command_parser_builds_one_sub_parser():
    sub = next(
        a for a in cli.build_parser(["validate", "a", "b"])._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert list(sub.choices) == ["validate"]


def test_strategy_defaults_and_help_come_from_the_enum(capsys):
    # bench runs every ordering by default, and schedule's help names them all
    values = [s.value for s in OrderingStrategy]
    assert cli.build_parser(["bench"]).parse_args(["bench"]).strategies == ",".join(values)
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

    def test_unknown_profile_exits_2(self, tmp_path):
        assert run(["generate", "--profile", "set99", "--out", tmp_path / "x.json"]) == 2

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

    def test_unknown_profile_exits_2(self, tmp_path):
        assert run(["bench", "--profiles", "setx", "--out", tmp_path / "x.csv"]) == 2

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
