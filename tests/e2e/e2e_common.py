"""Helpers shared by the end-to-end scripts in this directory.

Every script works in a directory of its own, so `ctest -j` can run them
side by side.  By default that is a fresh temporary directory, removed at
exit.  When HIDISC_E2E_OUT is set, the script uses HIDISC_E2E_OUT/<name>
instead (emptied first) and leaves it behind: the JSON exports, service
stats, daemon logs and `--bench-json` legs a run wrote stay there to be
read or uploaded.
"""
import contextlib
import json
import os
import shutil
import signal
import socket
import subprocess
import tempfile
import time


def run(cmd, env=None):
    """Run a command to completion, capturing its text output."""
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env)


@contextlib.contextmanager
def workdir(name):
    out = os.environ.get("HIDISC_E2E_OUT")
    if not out:
        with tempfile.TemporaryDirectory(prefix=name + "-") as path:
            yield path
        return
    path = os.path.join(os.path.abspath(out), name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path


def load(path):
    with open(path) as f:
        return json.load(f)


def threads():
    """Plan threads: one per CPU, as `--threads "$(nproc)"` would give."""
    return str(os.cpu_count() or 1)


def plan_cmd(hilab, wd, out, *extra, bench=None):
    """`hilab ... --quiet --json WD/OUT`.  `bench` names a `--bench-json`
    leg, written to WD/bench-<last part of the name>.json."""
    cmd = [hilab, *extra, "--quiet", "--json", os.path.join(wd, out)]
    if bench:
        leg = bench.rsplit("/", 1)[-1]
        cmd += ["--bench-json", os.path.join(wd, f"bench-{leg}.json"),
                "--bench-name", bench]
    return cmd


def run_plan(hilab, wd, out, *extra, bench=None, env=None):
    """Runs plan_cmd, asserts exit 0 and returns the export."""
    cmd = plan_cmd(hilab, wd, out, *extra, bench=bench)
    proc = run(cmd, env=env)
    assert proc.returncode == 0, (cmd, proc.returncode, proc.stderr)
    return load(os.path.join(wd, out))


def results(doc):
    return [c.get("result") for c in doc["cells"]]


def service_stats(hilab, endpoint, path):
    proc = run([hilab, "--connect", endpoint, "--service-stats", path])
    assert proc.returncode == 0, proc.stderr
    return load(path)


def free_tcp_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """A hiserved process logging to LOG, ready once it is listening.

    `endpoint` is what `hilab --connect` takes.  A Unix socket is SOCK, or
    else lives in a short temporary directory of its own (socket paths are
    limited to about 100 bytes).  A TCP daemon gets a free loopback port,
    and another one if a racing process took the port first."""

    def __init__(self, hiserved, log, *args, tcp=False, sock=None):
        self.log = log
        self.sockdir = None
        if not tcp and sock is None:
            self.sockdir = tempfile.mkdtemp(prefix="hs-")
            sock = os.path.join(self.sockdir, "hiserve.sock")
        for _ in range(5):
            if tcp:
                addr = f"127.0.0.1:{free_tcp_port()}"
                listen, self.endpoint = ["--tcp", addr], "tcp:" + addr
            else:
                listen, self.endpoint = ["--socket", sock], sock
            with open(log, "w") as f:
                self.proc = subprocess.Popen([hiserved, *listen, *args],
                                             stdout=f, stderr=subprocess.STDOUT)
            if self._wait_listening():
                return
            if not tcp:
                self.close()
                raise AssertionError("daemon exited:\n" + self.log_text())
        raise AssertionError("no free TCP port:\n" + self.log_text())

    def _wait_listening(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if "listening on" in self.log_text():
                return True
            if self.proc.poll() is not None:
                return False
            time.sleep(0.01)
        self.kill()
        raise AssertionError("daemon never listened:\n" + self.log_text())

    def log_text(self):
        with open(self.log) as f:
            return f.read()

    def kill(self):
        self.proc.kill()
        self.proc.wait()

    def drain(self, timeout=10.0):
        """SIGTERM; the daemon must exit within `timeout` seconds."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise AssertionError("daemon failed to drain:\n" +
                                 self.log_text())
        print(self.log_text())

    def close(self):
        if self.proc.poll() is None:
            self.kill()
        if self.sockdir:
            shutil.rmtree(self.sockdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
