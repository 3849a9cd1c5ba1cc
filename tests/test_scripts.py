"""The experiment scripts, run as a user runs them: in a subprocess."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sigmairr
from oracles import extremal_by_graphs, free_tree_counts_otter
from sigmairr import bounds, records, streams
from sigmairr.cli import main
from sigmairr.errors import InputError, exit_code
from sigmairr.streams import split_orders

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
GOALS = (("sigma", "max"), ("sigma", "min"), ("albertson", "max"), ("albertson", "min"))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(sigmairr.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_extremal_survey_matches_oracles():
    done = run_script("extremal_survey.py", "--min-n", "1", "--max-n", "12")
    assert done.returncode == 0 and done.stderr == ""
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0] == ["n", "trees", "sigma_max", "sigma_max_degrees", "sigma_min", "sigma_min_degrees",
                       "albertson_max", "albertson_min", "seconds"]
    counts = free_tree_counts_otter(12)
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 13))
    for row in rows[1:]:
        n = int(row[0])
        star = " ".join(["1"] * (n - 1) + [str(n - 1)])
        path = " ".join(["1", "1"] + ["2"] * (n - 2)) if n >= 2 else "0"
        path_value = 2 if n >= 3 else 0
        closed_forms = [str(counts[n - 1]), str((n - 1) * (n - 2) ** 2), star, str(path_value), path,
                        str((n - 1) * (n - 2)), str(path_value)]
        assert row[1:8] == closed_forms, n
        reference = []
        for optimum, edges, _, examined in extremal_by_graphs(n, lambda degrees: True, GOALS):
            degrees = [0] * n
            for u, v in edges:
                degrees[u] += 1
                degrees[v] += 1
            reference.append((examined, optimum, " ".join(map(str, sorted(degrees)))))
        smax, smin, amax, amin = reference
        assert row[1:8] == [str(smax[0]), str(smax[1]), smax[2], str(smin[1]), smin[2],
                            str(amax[1]), str(amin[1])], n
        float(row[8])  # seconds


# sha256 of the survey's CSV for n = 1..16 without its ``seconds`` column:
# it pins each order's optima and witness degree multisets past n = 12,
# where the oracles above stop.
SURVEY_DIGEST = "a53819da6c080df56b6dead4fa4c81fb13d8aea5eec2f954ccb96cfc72b79f45"


def test_extremal_survey_is_pinned_to_order_16():
    done = run_script("extremal_survey.py", "--min-n", "1", "--max-n", "16")
    assert done.returncode == 0 and done.stderr == ""
    kept = "".join(line.rsplit(",", 1)[0] + "\n" for line in done.stdout.splitlines())
    assert hashlib.sha256(kept.encode("utf-8")).hexdigest() == SURVEY_DIGEST


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _allow_cpus(monkeypatch, count: int) -> None:
    """Let ``split_orders`` see ``count`` CPUs, which decides whether it forks."""
    cpus = set(range(count))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="this system has no os.fork")


def _count_forks(monkeypatch) -> list:
    """The pid of each worker forked from now on."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@needs_fork
def test_split_orders_hands_receive_the_same_texts_forked_and_in_process(monkeypatch):
    # A lazy text, a whole one, an empty one and one longer than a 64 KiB
    # read, for each part; the worker's part is read back from the pipe.
    forks = _count_forks(monkeypatch)

    def texts(part):
        return [(str(n) for n in part), ["a", "bc"], [], iter(["x" * 70000, "y"])]

    received = []
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        split_orders(range(3, 7), texts,
                     lambda first, last: received.append([["".join(text) for text in part] for part in (first, last)]))
    long = "x" * 70000 + "y"
    assert received == [[["345", "abc", "", long], ["6", "abc", "", long]]] * 2
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
def test_split_orders_runs_one_order_and_one_cpu_here(monkeypatch):
    # Neither forks; one order gives an empty first part, and each text
    # reaches ``receive`` as the very iterator ``texts`` made, unread.
    forks = _count_forks(monkeypatch)
    made = {}

    def texts(part):
        made[part] = text = iter(part)
        return [text]

    received = []

    def receive(first, last):
        received.append(([made[range(3, 6)]] if first else []) == first and [made[range(6, 7)]] == last)
        received.append([list(text) for part in (first, last) for text in part])

    _allow_cpus(monkeypatch, 2)
    split_orders(range(6, 7), texts, receive)
    _allow_cpus(monkeypatch, 1)
    split_orders(range(3, 7), texts, receive)
    assert received == [True, [[6]], True, [[3, 4, 5], [6]]]
    assert forks == []


@needs_fork
def test_split_orders_reads_what_receive_leaves(monkeypatch):
    # ``receive`` takes the first 64 KiB of the worker's first text and then
    # its second text, and leaves its third, larger than a pipe holds: the
    # rest of the first is skipped, and the third is read out, so the
    # worker can end and be reaped.
    _allow_cpus(monkeypatch, 2)
    received = []

    def receive(first, last):
        received.append(next(next(first)))
        received.append("".join(next(first)))

    split_orders(range(2, 4), lambda part: [["x" * 70000], ["y"], ["z" * 70000]], receive)
    assert received == ["x" * 65536, "y"]
    _assert_no_child_left()


def _killed_inside_a_text(monkeypatch):
    """A worker's texts: one, whose length it writes before it is killed at
    the text's first bytes."""
    parent, write = os.getpid(), streams._write

    def dying_write(fd, data):
        if os.getpid() != parent and data == b"text":
            _kill_self()
        write(fd, data)

    monkeypatch.setattr(streams, "_write", dying_write)
    return lambda part: [["te", "xt"]]


@needs_fork
@pytest.mark.parametrize("worker_texts, message", [
    (lambda monkeypatch: _raise, r"failed: InputError\('no walk here'\)"),
    (_killed_inside_a_text, "ended by signal 9"),
], ids=["raises", "killed inside a text"])
def test_split_orders_reports_a_failed_worker(monkeypatch, worker_texts, message):
    _allow_cpus(monkeypatch, 2)
    parent, worker = os.getpid(), worker_texts(monkeypatch)

    def texts(part):
        return [["own"]] if os.getpid() == parent else worker(part)

    with pytest.raises(ChildProcessError, match=rf"^the worker for n = 2\.\.3 {message}$"):
        split_orders(range(2, 5), texts, lambda first, last: [list(text) for text in first])
    _assert_no_child_left()


@needs_fork
def test_the_worker_makes_every_text_before_its_first_write(monkeypatch):
    # The worker makes its texts while this process makes its own, not as
    # this process reads them: a write before the last piece is made kills it.
    _allow_cpus(monkeypatch, 2)
    parent, write, made = os.getpid(), streams._write, []

    def text(name):
        for piece in (name, "-", name):
            made.append(piece)
            yield piece

    def checked_write(fd, data):
        if os.getpid() != parent and len(made) < 6:
            _kill_self()
        write(fd, data)

    monkeypatch.setattr(streams, "_write", checked_write)
    received = []
    split_orders(range(2, 4), lambda part: [text("a"), text("b")],
                 lambda first, last: received.extend("".join(text) for text in first))
    assert received == ["a-a", "b-b"]
    _assert_no_child_left()


@needs_fork
def test_survey_rows_are_the_same_forked_and_in_process(monkeypatch, capsys):
    survey = _load_script("extremal_survey")
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["extremal_survey.py", "--min-n", "1", "--max-n", "12"])
    rows = {}
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        assert survey.main() == 0
        out, err = capsys.readouterr()
        assert err == "" and len(forks) == cpus - 1
        rows[cpus] = [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert rows[1] == rows[2] and [row.split(",")[0] for row in rows[2][1:]] == [str(n) for n in range(1, 13)]
    _assert_no_child_left()


def _fork_script(script, name: str, args: list, monkeypatch, main_call, worker_call) -> None:
    """Make ``script`` fork when run with ``args``, this process calling
    ``main_call`` and the worker ``worker_call`` in place of ``name``."""
    parent = os.getpid()
    monkeypatch.setattr(script, name, lambda *a, **k: (main_call if os.getpid() == parent else worker_call)(*a, **k))
    monkeypatch.setattr(sys, "argv", [f"{script.__name__}.py", *args])
    _allow_cpus(monkeypatch, 2)


def _raise(*args, **kwargs):
    raise InputError("no walk here")


def _kill_self(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@needs_fork
@pytest.mark.parametrize("worker_walk, message", [
    (_raise, "error: the worker for n = 4..8 failed: InputError('no walk here')\n"),
    (_kill_self, "error: the worker for n = 4..8 ended by signal 9\n"),
])
def test_survey_reports_a_failed_worker_in_one_line(monkeypatch, capsys, tmp_path, worker_walk, message):
    # The header row is written before the worker fails: the --out file is
    # written whole or not at all, so nothing is left at its path.
    survey = _load_script("extremal_survey")
    _fork_script(survey, "extremal_goals", ["--max-n", "9", "--out", str(tmp_path / "survey.csv")], monkeypatch,
                 survey.extremal_goals, worker_walk)
    assert exit_code(survey.main) == 1
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


@needs_fork
def test_survey_kills_its_worker_when_the_main_walk_is_interrupted(monkeypatch):
    # The worker sleeps for a minute: only the kill lets the reaping wait return sooner.
    survey = _load_script("extremal_survey")
    _fork_script(survey, "extremal_goals", ["--max-n", "9"], monkeypatch, _interrupt, lambda *args: time.sleep(60))
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        survey.main()
    assert time.monotonic() - started < 30
    _assert_no_child_left()


@needs_fork
def test_survey_reaps_its_worker_when_a_write_fails(monkeypatch, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    survey = _load_script("extremal_survey")
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(sys, "argv", ["extremal_survey.py", "--max-n", "9", "--out", "/dev/full"])
    assert exit_code(survey.main) == 1
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
    _assert_no_child_left()


def _campaign_lines(out: str) -> list:
    """The campaign's stdout lines without the time on ``evaluated in``."""
    return [line for line in out.splitlines() if not line.startswith("evaluated in ")]


@needs_fork
def test_campaign_output_is_the_same_forked_and_in_process(monkeypatch, capsys, tmp_path):
    campaign = _load_script("falsification_campaign")
    forks = _count_forks(monkeypatch)
    target = tmp_path / "campaign.json"
    for nmax in range(2, 11):
        # Without --json every entry's text is empty: the worker sends texts of no bytes.
        for sink in (["--json", str(target)], []):
            monkeypatch.setattr(sys, "argv", ["falsification_campaign.py", "--nmax", str(nmax), *sink])
            outputs = {}
            for cpus in (1, 2):
                _allow_cpus(monkeypatch, cpus)
                del forks[:]
                assert campaign.main() == 0
                out, err = capsys.readouterr()
                assert err == "" and len(forks) == (cpus - 1 if nmax > 2 else 0), (nmax, cpus)
                outputs[cpus] = (target.read_bytes() if sink else None, _campaign_lines(out))
            assert outputs[1] == outputs[2], (nmax, sink)
            lines = outputs[2][1]
            assert len(lines) == 19 + bool(sink) and (lines[-1] == f"wrote {target}") == bool(sink)
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("worker_falsify, message", [
    (_raise, "error: the worker for n = 2..8 failed: InputError('no walk here')\n"),
    (_kill_self, "error: the worker for n = 2..8 ended by signal 9\n"),
])
def test_campaign_reports_a_failed_worker_in_one_line(monkeypatch, capsys, tmp_path, worker_falsify, message):
    # The worker fails before it sends anything; the document is written whole
    # or not at all, so no file is left at its path, nor any part of one.
    campaign = _load_script("falsification_campaign")
    target = tmp_path / "campaign.json"
    _fork_script(campaign, "tally_counterexamples", ["--nmax", "9", "--json", str(target)], monkeypatch,
                 campaign.tally_counterexamples, worker_falsify)
    assert exit_code(campaign.main) == 1
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


@needs_fork
def test_campaign_reports_a_worker_killed_while_sending(monkeypatch, capsys, tmp_path):
    # The worker sends its tallies' text, then dies before the first
    # entry's text; the main process has begun the document by then, and
    # removes it.
    campaign = _load_script("falsification_campaign")
    target = tmp_path / "campaign.json"
    parent, write, writes = os.getpid(), streams._write, []

    def dying_write(fd, data):
        if os.getpid() != parent:
            writes.append(data)
            if len(writes) == 3:  # the length of the second text
                _kill_self()
        write(fd, data)

    monkeypatch.setattr(streams, "_write", dying_write)
    _fork_script(campaign, "tally_counterexamples", ["--nmax", "9", "--json", str(target)], monkeypatch,
                 campaign.tally_counterexamples, campaign.tally_counterexamples)
    assert exit_code(campaign.main) == 1
    out, err = capsys.readouterr()
    assert err == "error: the worker for n = 2..8 ended by signal 9\n"
    assert out.splitlines()[-1].startswith("evaluated in ")
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


@needs_fork
def test_cli_falsify_is_the_same_forked_and_in_process(monkeypatch, capsys):
    # The worker decides orders 2..8 and its text goes ahead of this
    # process's order 9, so the records stay in stream order.
    forks = _count_forks(monkeypatch)
    for fmt in ("json", "csv", "human"):
        outputs = []
        for cpus in (1, 2):
            _allow_cpus(monkeypatch, cpus)
            assert main(["bounds", "falsify", "--bound", "all", "--nmax", "9", "--format", fmt]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == "" and len(outputs[0].out) > 10000, fmt
    assert len(forks) == 3
    _assert_no_child_left()


def _cli_falsify_forked(monkeypatch, tmp_path, worker_texts) -> int:
    """``bounds falsify --nmax 10`` into a file in ``tmp_path``, forked, its
    worker calling ``worker_texts`` in place of ``counterexample_texts``."""
    parent, texts = os.getpid(), records.counterexample_texts
    monkeypatch.setattr(records, "counterexample_texts",
                        lambda *a, **k: (texts if os.getpid() == parent else worker_texts)(*a, **k))
    _allow_cpus(monkeypatch, 2)
    return main(["bounds", "falsify", "--bound", "all", "--nmax", "10", "--format", "json",
                 "--out", str(tmp_path / "falsify.json")])


@needs_fork
@pytest.mark.parametrize("worker_texts, message", [
    (_raise, "error: the worker for n = 2..9 failed: InputError('no walk here')\n"),
    (_kill_self, "error: the worker for n = 2..9 ended by signal 9\n"),
])
def test_cli_falsify_reports_a_failed_worker_in_one_line(monkeypatch, capsys, tmp_path, worker_texts, message):
    # The --out file that was there before is left as it was, and nothing else.
    (tmp_path / "falsify.json").write_text("before\n")
    assert _cli_falsify_forked(monkeypatch, tmp_path, worker_texts) == 1
    assert capsys.readouterr() == ("", message)
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("falsify.json", "before\n")]
    _assert_no_child_left()


def test_out_through_a_symbolic_link_is_written_into_its_target(tmp_path):
    # Only a regular file is replaced whole; a link (``/dev/stdout`` is one)
    # is written through, so it stays a link, and nothing is left beside it.
    (tmp_path / "target.json").write_text("before\n")
    (tmp_path / "link.json").symlink_to(tmp_path / "target.json")
    assert main(["indices", "--family", "path:4", "--format", "json", "--out", str(tmp_path / "link.json")]) == 0
    assert (tmp_path / "link.json").is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == [
        "link.json", "target.json"]
    assert json.loads((tmp_path / "target.json").read_text())["n"] == 4


def test_out_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("before\n")
    target.chmod(0o640)
    assert main(["indices", "--family", "path:4", "--format", "json", "--out", str(target)]) == 0
    assert target.stat().st_mode & 0o777 == 0o640 and json.loads(target.read_text())["n"] == 4


@pytest.mark.parametrize("case", ["hard link", "name too long", "directory takes no new file"])
def test_out_is_written_directly_where_no_file_can_replace_it(monkeypatch, tmp_path, case):
    # A file with a second link is written in place, so both links read the
    # new text; a name with no room for the suffix, or a directory this
    # process may not write into (simulated: root writes into any), takes
    # no file beside it.
    target = tmp_path / ("a" * 245 + ".json" if case == "name too long" else "out.json")
    target.write_text("before\n")
    if case == "hard link":
        os.link(target, tmp_path / "other.json")
    if case == "directory takes no new file":
        def refuse_new(path, mode="r", **kwargs):
            if "x" in mode:
                raise PermissionError(13, "Permission denied", path)
            return open(path, mode, **kwargs)

        monkeypatch.setattr(streams, "open", refuse_new, raising=False)
    inode = target.stat().st_ino
    assert main(["indices", "--family", "path:4", "--format", "json", "--out", str(target)]) == 0
    assert target.stat().st_ino == inode and json.loads(target.read_text())["n"] == 4
    assert {p.read_text() for p in tmp_path.iterdir()} == {target.read_text()}


def test_an_empty_out_path_fails_before_any_tree(monkeypatch, capsys):
    import sigmairr.search as search_module

    walked = []
    monkeypatch.setattr(search_module, "free_tree_level_sequences", lambda n: walked.append(n) or iter(()))
    assert main(["bounds", "falsify", "--bound", "all", "--nmax", "12", "--out", ""]) == 1
    assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n") and walked == []


@needs_fork
def test_cli_falsify_reports_a_worker_killed_after_its_first_chunk(monkeypatch, capsys, tmp_path):
    # The worker sends the length of its one text (390 KB) and its first
    # 64 KiB chunk, then dies before the second; this process has written
    # the first into the --out file by then, and removes it.
    parent, write, writes = os.getpid(), streams._write, []

    def dying_write(fd, data):
        if os.getpid() != parent:
            writes.append(data)
            if len(writes) == 3:  # the second chunk
                _kill_self()
        write(fd, data)

    monkeypatch.setattr(streams, "_write", dying_write)
    assert _cli_falsify_forked(monkeypatch, tmp_path, records.counterexample_texts) == 1
    assert capsys.readouterr() == ("", "error: the worker for n = 2..9 ended by signal 9\n")
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


@needs_fork
def test_campaign_kills_its_worker_when_the_main_order_is_interrupted(monkeypatch):
    # The worker sleeps for a minute: only the kill lets the reaping wait return sooner.
    campaign = _load_script("falsification_campaign")
    _fork_script(campaign, "tally_counterexamples", ["--nmax", "9"], monkeypatch, _interrupt,
                 lambda *args, **kwargs: time.sleep(60))
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        campaign.main()
    assert time.monotonic() - started < 30
    _assert_no_child_left()


@needs_fork
def test_campaign_reaps_its_worker_when_a_write_fails(monkeypatch, capsys):
    if not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    campaign = _load_script("falsification_campaign")
    forks = _count_forks(monkeypatch)
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(sys, "argv", ["falsification_campaign.py", "--nmax", "9", "--json", "/dev/full"])
    assert exit_code(campaign.main) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n" and len(forks) == 1
    _assert_no_child_left()


@pytest.mark.parametrize(
    "script,args",
    [
        ("extremal_survey.py", ("--min-n", "0")),
        ("extremal_survey.py", ("--max-n", "19")),
        ("extremal_survey.py", ("--min-n", "9", "--max-n", "5")),
        ("falsification_campaign.py", ("--nmax", "1")),
        ("falsification_campaign.py", ("--nmax", "19")),
    ],
)
def test_scripts_reject_bad_orders_in_one_line(script, args):
    done = run_script(script, *args)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_survey_rejects_an_unwritable_out_path(tmp_path):
    target = tmp_path / "missing" / "survey.csv"
    done = run_script("extremal_survey.py", "--max-n", "5", "--out", str(target))
    assert done.returncode == 1 and done.stdout == "" and not target.exists()
    assert done.stderr == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


def test_campaign_rejects_an_unwritable_json_path(tmp_path):
    target = tmp_path / "missing" / "campaign.json"
    done = run_script("falsification_campaign.py", "--nmax", "3", "--json", str(target))
    assert done.returncode == 1 and done.stdout == "" and not target.exists()
    assert done.stderr == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


@pytest.mark.parametrize("script,args", [
    ("extremal_survey.py", ("--max-n", "12")),
    ("falsification_campaign.py", ("--nmax", "8")),
    ("reproduce_published_numbers.py", ()),
])
def test_scripts_exit_cleanly_when_stdout_is_closed(script, args):
    # As `script | head -1` once head has exited: the pipe's read end is
    # closed before the script starts, so its first write to stdout fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(sigmairr.__file__).resolve().parents[1])}
    try:
        done = subprocess.run([sys.executable, str(SCRIPTS / script), *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")


# Each entry point: its command, a run that succeeds, an argument with a bad
# value, and its output-file option (the reproduction script has none).
ENTRY_POINTS = {
    "extremal_survey": ([str(SCRIPTS / "extremal_survey.py")], ["--max-n", "5"], ["--max-n", "x"], "--out"),
    "falsification_campaign": (
        [str(SCRIPTS / "falsification_campaign.py")], ["--nmax", "5"], ["--nmax", "x"], "--json"
    ),
    "reproduce_published_numbers": ([str(SCRIPTS / "reproduce_published_numbers.py")], [], ["--verbose=x"], None),
    "sigmairr": (["-m", "sigmairr"], ["indices", "--family", "path:5"], ["enumerate", "--n", "x"], "--out"),
}


CLOSED = "fd 1 closed"
CLOSE_STDOUT_AND_EXEC = "import os, sys; os.close(1); os.execv(sys.argv[1], sys.argv[1:])"


def _failures():
    for name, (command, good, bad, out_option) in ENTRY_POINTS.items():
        yield pytest.param(command, bad, None, id=f"{name}-bad-value")
        yield pytest.param(command, [*good, "--bogus"], None, id=f"{name}-unknown-option")
        yield pytest.param(command, good, "/dev/full", id=f"{name}-stdout-full")
        yield pytest.param(command, good, CLOSED, id=f"{name}-stdout-closed")
        yield pytest.param(command, ["--help"], "/dev/full", id=f"{name}-help-stdout-full")
        if out_option:
            yield pytest.param(command, [*good, out_option, "/dev/full"], None, id=f"{name}-out-full")


def run_entry_point(command, args, stdout) -> subprocess.CompletedProcess:
    """Run ``command`` as a user does, with warnings as errors and stdout
    buffered (the default outside this suite's environment).  ``CLOSED``
    as ``stdout`` starts it with fd 1 closed, as ``command >&-`` does."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(sigmairr.__file__).resolve().parents[1])
    argv = [sys.executable, "-X", "dev", "-W", "error", *command, *args]
    if stdout is CLOSED:
        argv = [sys.executable, "-c", CLOSE_STDOUT_AND_EXEC, *argv]
        stdout = None
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command, args, stdout", list(_failures()))
def test_every_entry_point_fails_in_one_line(command, args, stdout):
    if "/dev/full" in (stdout, *args) and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    if stdout is CLOSED:
        done = run_entry_point(command, args, CLOSED)
    else:
        with open(stdout or os.devnull, "w") as sink:
            done = run_entry_point(command, args, sink)
    assert done.returncode == 1, done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("name", ["extremal_survey", "sigmairr"])
def test_an_entry_point_writing_to_its_out_file_needs_no_stdout(name, tmp_path):
    command, good, _, out_option = ENTRY_POINTS[name]
    target = tmp_path / "out"
    done = run_entry_point(command, [*good, out_option, str(target)], CLOSED)
    assert (done.returncode, done.stderr) == (0, "")
    assert target.read_text(encoding="utf-8").splitlines()[0] == (
        "n,trees,sigma_max,sigma_max_degrees,sigma_min,sigma_min_degrees,albertson_max,albertson_min,seconds"
        if name == "extremal_survey" else "index      value"
    )


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_prints_help(name):
    done = run_entry_point(ENTRY_POINTS[name][0], ["--help"], subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, "") and done.stdout.startswith("usage: ")


# The campaign's first 19 lines at --nmax 8.
CAMPAIGN_SUMMARY_NMAX_8 = (
    'exhaustive falsification over all trees with 2 <= n <= 8',
    '  B1a  : no counterexamples',
    '  B1b  :    27 counterexamples, orders 3..8, smallest witness n=3 lhs=2 < rhs=1',
    '  B2a  :    30 counterexamples, orders 2..8, smallest witness n=2 lhs=0 > rhs=7',
    '  B2b  :    20 counterexamples, orders 5..8, smallest witness n=5 lhs=12 < rhs=11',
    '  B3   :    33 counterexamples, orders 2..8, smallest witness n=2 lhs=0 >= rhs=1',
    '  B4   : no counterexamples',
    '  B5   :    18 counterexamples, orders 5..8, smallest witness n=5 lhs=36 >= rhs=468/5',
    '  B6   : no counterexamples',
    '  B7   : no counterexamples',
    '  B8   :    45 counterexamples, orders 2..8, smallest witness n=2 lhs=0 > rhs=5',
    '  B9   : no counterexamples',
    '  B10  :     4 counterexamples, orders 6..8, smallest witness n=6 lhs=80 <= rhs=243/4',
    '  B11  :    20 counterexamples, orders 4..8, smallest witness n=4 lhs=12 <= rhs=7',
    '  B12  :     5 counterexamples, orders 4..8, smallest witness n=4 lhs=2 > rhs=4',
    '  B13  : no counterexamples',
    '  B14  : no counterexamples',
    '  B15a : no counterexamples',
    '  B15b : no counterexamples',
)


def test_campaign_summary_reads_the_records(monkeypatch, capsys):
    # Each summary line prints its smallest witness's sides from that record's
    # report: no claim is decided a second time, and with no --json no record
    # is rendered.
    def refuse(*args):
        raise AssertionError("evaluate_bound or a record renderer called")

    monkeypatch.setattr(bounds, "evaluate_bound", refuse)
    monkeypatch.setattr(records, "_record_renderers", refuse)
    campaign = _load_script("falsification_campaign")
    monkeypatch.setattr(sys, "argv", ["falsification_campaign.py", "--nmax", "8"])
    assert campaign.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert tuple(lines[:19]) == CAMPAIGN_SUMMARY_NMAX_8
    assert len(lines) == 20 and lines[19].startswith("evaluated in ")


def test_campaign_matches_recorded_digest(tmp_path):
    # The benchmark's recorded campaign at --nmax 6: any byte change to the
    # counterexample JSON, or to a claim's count, fails here too.
    reference = json.loads(REFERENCE_PATH.read_text())["falsify-exhaustive"]["smoke"]
    target = tmp_path / "campaign.json"
    done = run_script("falsification_campaign.py", "--nmax", "6", "--json", str(target))
    assert done.returncode == 0 and done.stderr == ""
    found = json.loads(target.read_text(encoding="utf-8"))
    counts = {claim: len(items) for claim, items in found.items() if items}
    assert counts == reference["counts"] and sum(counts.values()) == reference["total"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == reference["sha256"]


# The benchmark's full-size outputs, so that every interpreter the test
# suite runs under checks them: the campaign at --nmax 12, its per-claim
# summary lines, and each base claim's bounds falsify JSON on 200 random
# trees of order 40.

CAMPAIGN_SUMMARY_NMAX_12 = (
    '  B1a  : no counterexamples',
    '  B1b  :   455 counterexamples, orders 3..12, smallest witness n=3 lhs=2 < rhs=1',
    '  B2a  :   133 counterexamples, orders 2..12, smallest witness n=2 lhs=0 > rhs=7',
    '  B2b  :   703 counterexamples, orders 5..12, smallest witness n=5 lhs=12 < rhs=11',
    '  B3   :   714 counterexamples, orders 2..12, smallest witness n=2 lhs=0 >= rhs=1',
    '  B4   : no counterexamples',
    '  B5   :   408 counterexamples, orders 5..12, smallest witness n=5 lhs=36 >= rhs=468/5',
    '  B6   : no counterexamples',
    '  B7   : no counterexamples',
    '  B8   :   978 counterexamples, orders 2..12, smallest witness n=2 lhs=0 > rhs=5',
    '  B9   : no counterexamples',
    '  B10  :    20 counterexamples, orders 6..12, smallest witness n=6 lhs=80 <= rhs=243/4',
    '  B11  :   367 counterexamples, orders 4..12, smallest witness n=4 lhs=12 <= rhs=7',
    '  B12  :    18 counterexamples, orders 4..12, smallest witness n=4 lhs=2 > rhs=4',
    '  B13  : no counterexamples',
    '  B14  : no counterexamples',
    '  B15a : no counterexamples',
    '  B15b : no counterexamples',
)

def test_campaign_matches_full_size_digest(tmp_path):
    reference = json.loads(REFERENCE_PATH.read_text())["falsify-exhaustive"]["full"]
    target = tmp_path / "campaign.json"
    done = run_script("falsification_campaign.py", "--nmax", "12", "--json", str(target))
    assert done.returncode == 0 and done.stderr == ""
    found = json.loads(target.read_text(encoding="utf-8"))
    counts = {claim: len(items) for claim, items in found.items() if items}
    assert counts == reference["counts"] and sum(counts.values()) == reference["total"] == 3796
    assert hashlib.sha256(target.read_bytes()).hexdigest() == reference["sha256"]
    lines = done.stdout.splitlines()
    assert lines[0] == "exhaustive falsification over all trees with 2 <= n <= 12"
    assert tuple(lines[1:19]) == CAMPAIGN_SUMMARY_NMAX_12
    assert lines[19].startswith("evaluated in ") and lines[20:] == [f"wrote {target}"]


def test_falsify_random_matches_full_size_digests(tmp_path, capsys):
    reference = json.loads(REFERENCE_PATH.read_text())["falsify-random"]["full"]
    assert sorted(reference["sha256"]) == sorted(f"B{k}" for k in range(1, 16))
    for base, digest in sorted(reference["sha256"].items()):
        target = tmp_path / f"{base}.json"
        argv = ["bounds", "falsify", "--bound", base, "--n", "40", "--samples", "200",
                "--seed", str(reference["seed"]), "--format", "json", "--out", str(target)]
        assert main(argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, base
    assert capsys.readouterr() == ("", "")


# Every derivable published number, as the script prints it.
PUBLISHED_NUMBERS = (
    'table 1 column T1    : reproduced',
    'table 1 column T2    : reproduced',
    'table 1 column sigma : reproduced',
    'table 2 column n     : reproduced',
    'table 2 column sigma : reproduced',
    'table 2 column lambda: reproduced',
    'table 2 column eta   : deviates as expected (21->41, 31->55, 41->69, 51->91)',
    'correlation matrix 1: 25 entries, 12 beyond 5e-3 of the printed matrix',
    'correlation matrix 2: 25 entries, 8 beyond 5e-3 of the printed matrix',
    'regression 1: printed model at (350.0, 50.0) gives -32304623.284720 (printed -32304623.284719, gap 1.04e-06)',
    '    fit exact_mean: R^2=0.877556 cond=inf matches printed R^2 within 0.02',
    '    fit rounded_mean: R^2=0.921583 cond=2.561e+04 deviates from printed R^2 within 0.02',
    'regression 2: printed model at (400.0, 200.0) gives -492960.396220 (printed -492960.531704, gap 1.35e-01)',
    'closed-form audit:',
    '    bipartite_sigma              on K_{2,3}: claimed 3, actual 6 -> DISAGREES',
    '    product_sigma_as_printed     on P_3 x K_2: claimed 6, actual 4 -> DISAGREES',
    '    product_sigma_swapped        on P_3 x K_2: claimed 4, actual 4 -> agrees',
    '    complement_zagreb_identity   on P_4: claimed 4, actual 4 -> agrees',
    '    path_sigma_constant          on P_5: claimed 2, actual 2 -> agrees',
    '    cycle_sigma_zero             on C_5: claimed 0, actual 0 -> agrees',
    '    double_star_sigma            on S_{3,4}: claimed 36, actual 36 -> agrees',
    '    monogenic_albertson          on threshold graph on 6 labels: claimed 16, actual 16 -> agrees',
    '    albertson_len4_closed_form   on tree sequence (1, 1, 2, 2): claimed 8, actual 2 -> DISAGREES',
)


def test_reproduce_published_numbers_prints_every_number():
    done = run_script("reproduce_published_numbers.py")
    assert (done.returncode, done.stderr) == (0, "")
    assert tuple(done.stdout.splitlines()) == PUBLISHED_NUMBERS


def test_reproduce_published_numbers_fails_on_a_wrong_cell():
    # Table 1's first printed T1 cell, one off: neither the T1 column nor T2,
    # which is recomputed from the printed T1, reproduces.
    patch = (
        "import runpy, sys; from sigmairr import stats_tables as s; "
        "s.TABLE1 = (s.TABLE1[0]._replace(t1=s.TABLE1[0].t1 + 1), *s.TABLE1[1:]); "
        "sys.argv = [sys.argv[1]]; runpy.run_path(sys.argv[0], run_name='__main__')"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sigmairr.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", patch, str(SCRIPTS / "reproduce_published_numbers.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (1, "")
    lines = done.stdout.splitlines()
    assert lines[:2] == ["table 1 column T1    : MISMATCH", "table 1 column T2    : MISMATCH"]
    assert lines[2:] == list(PUBLISHED_NUMBERS[2:])
