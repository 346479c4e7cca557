"""The CLI under hash seeds 1 and 2, every ambient source armed to raise.

Each of two concurrent subprocesses imports every ``repro`` module, arms
:func:`tests.traps.arm_for_good`, then runs :data:`RUNS`. Ambient
randomness or a clock read outside ``repro.telemetry`` fails the run;
output in hash-seeded order (a set of strings) differs between the two.
One side by hand, from the repository root with ``src`` on
``PYTHONPATH``: ``python -m tests.test_determinism_guard OUT_DIR``.
"""

import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from contextlib import redirect_stdout

import repro
from repro import cli

from . import traps

REPO = pathlib.Path(__file__).resolve().parent.parent

RUNS = (
    ("run", "all", "--scale", "test", "--json", "{out}/run"),
    ("scenario", "run", "edge_flap", "--json", "{out}/scenario"),
    ("serve", "--events", "200", "--checkpoint-every", "100",
     "--checkpoint-out", "{out}/first.ckpt.json"),
    ("serve", "--events", "100", "--restore-from", "{out}/first.ckpt.json",
     "--checkpoint-every", "100", "--checkpoint-out", "{out}/second.ckpt.json"),
    ("serve", "--events", "2000", "--batch-max", "64", "--checkpoint-every", "1000",
     "--checkpoint-out", "{out}/batched.ckpt.json"),
    ("serve", "--events", "1000", "--restore-from", "{out}/batched.ckpt.json",
     "--checkpoint-every", "1000", "--checkpoint-out", "{out}/batched-restored.ckpt.json"),
)

#: the one wall-clock part of the output, a ``====`` header's ``(…, 1.2s)``.
_ELAPSED = re.compile(r"[.0-9]+s\) =")


def _guarded_run(out):
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    traps.arm_for_good(modules, who="the program")
    for i, argv in enumerate(RUNS):
        with open(out / f"stdout{i}.txt", "w", encoding="utf-8") as fh, redirect_stdout(fh):
            code = cli.main([arg.format(out=out) for arg in argv])
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")


def _outputs(out):
    return {
        path.relative_to(out).as_posix(): _ELAPSED.sub("", path.read_text("utf-8"))
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_cli_outputs_agree_across_hash_seeds(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]))
    procs = {}
    for seed in ("1", "2"):
        (tmp_path / seed).mkdir()
        procs[seed] = subprocess.Popen(
            [sys.executable, "-m", "tests.test_determinism_guard", str(tmp_path / seed)],
            cwd=REPO,
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
    try:
        for seed, proc in procs.items():
            _, err = proc.communicate(timeout=900)
            assert proc.returncode == 0, f"PYTHONHASHSEED={seed}:\n{err[-3000:]}"
    finally:
        for proc in procs.values():
            proc.kill()
    first, second = _outputs(tmp_path / "1"), _outputs(tmp_path / "2")
    assert len(first) == 22 and sorted(first) == sorted(second)
    differ = [name for name in first if first[name] != second[name]]
    assert not differ, f"differ between hash seeds 1 and 2: {differ}"


if __name__ == "__main__":
    _guarded_run(pathlib.Path(sys.argv[1]))
