"""The fleet's worker server: preloaded, stopped at exit, reused safely.

Workers are forks of one ``forkserver`` per supervisor process, which
imports ``repro.fleet.worker`` before its first fork.  None of that may
show in a result, in where worker output goes, or in what is left
running afterwards.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from multiprocessing import forkserver
from pathlib import Path

import pytest

import repro
from repro.engine import run_simulation
from repro.engine.config import SimulationConfig
from repro.errors import SimulationError
from repro.fleet import run_fleet, supervisor
from repro.fleet.worker import worker_main
from repro.live.harness import run_live

pytestmark = [
    pytest.mark.live,
    pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="reads processes off /proc"
    ),
]

CONFIG = SimulationConfig(
    n_repositories=5, n_routers=15, n_items=2, trace_samples=80
)
SRC = str(Path(repro.__file__).resolve().parent.parent)

#: ``run_fleet`` does not vet ``n_clients``; every worker's client
#: generator refuses it while building, and the worker says ``fatal``.
CRASHING = {"n_clients": -1}

#: A tiny fleet, then a child of the same server whose target is a
#: builtin (it imports nothing from repro): its exit code says whether
#: the server had imported the worker module.  PYTHONPATH is stripped
#: from the environment, so only ``run_fleet``'s own export can lead
#: the server to ``repro``.  The report is printed by the exit hook
#: registered first, which runs last: after every hook ``repro`` and
#: ``multiprocessing`` registered, the server must already be gone.
_PRELOAD_SCRIPT = """
import atexit, json, os, sys
found = {{}}
atexit.register(lambda: print(json.dumps(
    dict(found, running_at_exit=os.path.exists(f"/proc/{{found['server']}}"))
)))
sys.path.insert(0, {src!r})
import multiprocessing
from multiprocessing import forkserver
from repro.engine.config import SimulationConfig
from repro.fleet import run_fleet

config = SimulationConfig(n_repositories=5, n_routers=15, n_items=2, trace_samples=80)
assert run_fleet(config, workers=1, duration=20.0, time_scale=400.0).conserved
probe = multiprocessing.get_context("forkserver").Process(
    target=exec,
    args=("import sys; sys.exit('repro.fleet.worker' not in sys.modules)",),
)
probe.start()
probe.join()
found.update(server=forkserver._forkserver._forkserver_pid, preloaded=probe.exitcode == 0)
"""


def _ppid_and_args(pid: int) -> tuple[int, str] | None:
    """``pid``'s parent and command line, or ``None`` once it is gone."""
    proc = Path("/proc") / str(pid)
    try:
        stat = (proc / "stat").read_text()
        args = (proc / "cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return None
    # The command name sits in parentheses and may hold anything.
    return int(stat.rsplit(")", 1)[1].split()[1]), args


def _children_of(pid: int) -> list[int]:
    """Every process whose parent is ``pid``, zombies included."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            found = _ppid_and_args(int(entry.name))
            if found is not None and found[0] == pid:
                children.append(int(entry.name))
    return children


@pytest.fixture(scope="module")
def preload_run() -> dict:
    """What :data:`_PRELOAD_SCRIPT` printed, read once it has exited."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", _PRELOAD_SCRIPT.format(src=SRC)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_the_server_has_imported_the_worker_module(preload_run):
    """``forkserver.main`` drops a failed preload without a word, and the
    workers then import everything themselves: correct, and as slow as
    a fresh interpreter.  Only a child that imports nothing can tell."""
    assert preload_run["preloaded"]


def test_no_server_outlives_its_process(preload_run):
    server = preload_run["server"]
    assert server is not None
    # Left alone, the server would end only once it saw the process's
    # end of its pipe close: after the last exit hook, not before.
    assert not preload_run["running_at_exit"]
    found = _ppid_and_args(server)
    assert found is None or "forkserver" not in found[1]


def _chatty_worker(worker_id, spec, conn, stderr_fd=None):
    """The real worker, then a line on whatever fd 2 it ended up with."""
    worker_main(worker_id, spec, conn, stderr_fd)
    print(f"fleet worker {worker_id} wrote this", file=sys.stderr, flush=True)


def test_worker_stderr_follows_the_caller_s_fd_2(monkeypatch, tmp_path):
    """A forkserver child inherits the server's fd 2, fixed when the
    server started.  A redirect the caller makes later -- pytest's
    ``capfd``, the perf ledger's log file -- must still catch it."""
    assert run_fleet(CONFIG, workers=1, duration=20.0, time_scale=400.0).conserved
    assert forkserver._forkserver._forkserver_pid is not None  # up before the redirect
    monkeypatch.setattr(supervisor, "worker_main", _chatty_worker)
    log = tmp_path / "stderr.log"
    saved = os.dup(2)
    try:
        with open(log, "wb") as sink:
            os.dup2(sink.fileno(), 2)
        result = run_fleet(CONFIG, workers=2, duration=20.0, time_scale=400.0)
    finally:
        os.dup2(saved, 2)
        os.close(saved)
    assert result.conserved
    text = log.read_text()
    assert "fleet worker 0 wrote this" in text
    assert "fleet worker 1 wrote this" in text


def test_error_paths_leave_the_server_fit_for_the_next_run():
    """A crashed fleet, then a severed one, then a clean run on the same
    server: the last must pass what a run in a fresh process passes,
    and no run may leave a worker behind."""
    with pytest.raises(SimulationError, match="n_clients must be >= 1"):
        run_fleet(CONFIG, workers=2, time_scale=400.0, **CRASHING)
    server = forkserver._forkserver._forkserver_pid
    assert multiprocessing.active_children() == []
    assert _children_of(server) == []

    severed = run_fleet(
        CONFIG,
        workers=2,
        duration=40.0,
        time_scale=100.0,
        heartbeat_interval_s=0.05,
        sever_at_s=10.0,
    )
    assert severed.conserved and severed.extras.get("reconnects", 0) >= 1

    clean = run_fleet(CONFIG, workers=2, time_scale=400.0)
    counters = clean.counters
    assert clean.conserved and clean.dropped == 0
    assert counters.deliveries + counters.drops == counters.messages
    assert clean.sent == run_simulation(CONFIG).messages
    single = run_live(CONFIG, "inprocess")
    assert clean.loss_of_fidelity == pytest.approx(single.loss_of_fidelity, abs=0.5)

    assert forkserver._forkserver._forkserver_pid == server  # one server throughout
    assert multiprocessing.active_children() == []
    assert _children_of(server) == []
