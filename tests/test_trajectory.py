"""tools/trajectory.py: entries parsed from stored benchmark output, appended without rewriting, and each
run's output shown on the recorder's stderr."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "data" / "trajectory"

_spec = importlib.util.spec_from_file_location("trajectory", ROOT / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def _output(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _stored_run(checkout, workload, seconds, trace):
    """Stands in for run_benchmark: the stored seed-1 reg-hyper output of the run asked for."""
    assert workload == "reg-hyper" and trajectory.SEED == 1
    return _output(f"reg-hyper-trace{trace}.txt")


class TestEntry:
    def test_stored_output_parses_into_every_field(self):
        entry = trajectory.make_entry(
            _output("reg-hyper-trace0.txt"), _output("reg-hyper-trace1.txt"),
            commit="7eda1d4", date="2026-10-22T21:00:00+00:00", session="s1", seconds=1.0,
        )
        env = entry.pop("env")
        assert (env["blas_threads"], env["python"], env["numpy"]) == (2, "3.11.7", "2.4.6")
        assert entry == {
            "commit": "7eda1d4",
            "date": "2026-10-22T21:00:00+00:00",
            "session": "s1",
            "workload": "reg-hyper",
            "seed": 1,
            "seconds": 1.0,
            "threads": 2,
            "correct": True,
            "failed": 0,
            "nlpd": 0.8464046780301582,
            "error": 0.5593852408385036,
            "regret": None,
            "setup_s": 0.11108459099705215,
            "peak_rss_mb": 43.26953125,
            "stage_ms": {
                "sequential.hyper_ms": 641.3963230079389,
                "sequential.refresh_ms": 19.168564991559833,
                "sequential.remove_ms": 14.771663991268724,
                "sequential.ngd_ms": 11.233388002438005,
                "sequential.objective_ms": 3.922224997950252,
                "sequential.memory_ms": 1.9881240077666007,
                "acquisition.maximize_ms": 0.0,
                "acquisition.condition_ms": 0.0,
                "harness.evaluate_ms": 11.330176996125374,
                "trace.wall_ms": 711.1394210005528,
            },
            "untraced_wall_ms": 716.1720260046422,
            "single_thread_wall_ms": 648.8222699990729,
            "counts": {
                "gram_calls": 1096,
                "cholesky_calls": 1089,
                "cholesky_jitter": 0,
                "hyper_evals": 520,
                "hyper_accepted": 40,
                "evaluate_calls": 0,
                "clip_batches": 7,
                "clip_max": 135.5351378358949,
                "missing_names": 0,
            },
        }

    def test_a_printed_only_metric_is_read_from_its_line(self):
        """regret is not in the JSON line; the printed line gives it to six digits."""
        run = trajectory.parse_run(_output("bo-branin-trace0.txt"))
        assert (run["workload"], run["metrics"]["regret"], run["metrics"]["nlpd"]) == (
            "bo-branin", 2.32738, 1669.7273949404878
        )

    def test_a_failed_check_marks_the_entry(self):
        failed = _output("reg-hyper-trace0.txt").replace("checks: all passed", "checks: 1 failed")
        entry = trajectory.make_entry(failed, _output("reg-hyper-trace1.txt"), commit="c", date="d", session="s",
                                      seconds=1.0)
        assert entry["correct"] is False

    def test_runs_of_different_workloads_do_not_make_an_entry(self):
        with pytest.raises(ValueError, match="different workloads"):
            trajectory.make_entry(_output("bo-branin-trace0.txt"), _output("reg-hyper-trace1.txt"),
                                  commit="c", date="d", session="s", seconds=1.0)


class TestAppend:
    def test_an_append_keeps_earlier_bytes_and_a_rerun_adds_an_entry(self, tmp_path):
        path = tmp_path / "BENCH_reg-hyper.json"
        earlier = b'{"commit": "d83d292", "note": "an entry of an earlier session"}\n'
        path.write_bytes(earlier)
        record = dict(seconds=1.0, commit="7eda1d4", run=_stored_run)
        first = trajectory.record(ROOT, tmp_path, "reg-hyper", session="one", **record)
        after_first = path.read_bytes()
        assert after_first.startswith(earlier)
        second = trajectory.record(ROOT, tmp_path, "reg-hyper", session="two", **record)
        after_second = path.read_bytes()
        assert after_second.startswith(after_first)
        lines = after_second.decode("utf-8").splitlines()
        assert [json.loads(line)["commit"] for line in lines] == ["d83d292", "7eda1d4", "7eda1d4"]
        assert [json.loads(line) for line in lines[1:]] == [first, second]
        assert (first["session"], second["session"]) == ("one", "two")


def _fake_checkout(root: Path, *, fail: bool) -> Path:
    """A checkout whose ``perfbench/run.py`` prints the stored reg-hyper output of the trace asked for.

    With ``fail`` its check line reads ``checks: 1 failed`` and it exits 1.
    Either way it writes one line to its stderr.
    """
    script = root / "perfbench" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text(textwrap.dedent(f"""\
        import sys
        trace = sys.argv[sys.argv.index("--trace") + 1]
        with open({str(FIXTURES)!r} + f"/reg-hyper-trace{{trace}}.txt", encoding="utf-8") as fixture:
            text = fixture.read()
        if {fail!r}:
            text = text.replace("checks: all passed", "checks: 1 failed")
        sys.stdout.write(text)
        print("a line on the run's stderr", file=sys.stderr)
        sys.exit(1 if {fail!r} else 0)
    """), encoding="utf-8")
    return root


class TestRuns:
    def test_a_run_is_returned_and_shown_on_stderr(self, tmp_path, capsys):
        text = trajectory.run_benchmark(_fake_checkout(tmp_path, fail=False), "reg-hyper", 1.0, 0)
        assert text == _output("reg-hyper-trace0.txt")
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err == text + "a line on the run's stderr\n"

    def test_a_failed_check_fails_the_recorder_and_reaches_its_stderr(self, tmp_path, capsys):
        checkout, out = _fake_checkout(tmp_path / "checkout", fail=True), tmp_path / "out"
        argv = ["--checkout", str(checkout), "--commit", "c", "--workload", "reg-hyper", "--seconds", "1",
                "--out", str(out)]
        assert trajectory.main(argv) == 1
        shown = capsys.readouterr()
        assert shown.err.count("checks: 1 failed") == 2 and "checks: all passed" not in shown.err
        assert [json.loads(line)["correct"] for line in shown.out.splitlines()] == [False]
        assert len((out / "BENCH_reg-hyper.json").read_text(encoding="utf-8").splitlines()) == 1
