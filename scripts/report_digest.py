#!/usr/bin/env python3
"""Print SHA-256 digests of what cplab reports, to compare two checkouts.

One line per run_selfcheck(seed), and for each example config under
scripts/configs one line for its report without the "meta" block, one per
CSV it writes and one for the exit code.  The CLI runs into a temporary
directory.  Run it in both checkouts and diff the outputs:

    PYTHONPATH=src python3 scripts/report_digest.py > digest.txt

It covers seeds 0..9 and every example config.
"""
import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from cplab.cli import main
from cplab.selfcheck import run_selfcheck

CONFIGS = pathlib.Path(__file__).parent / "configs"


def sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def config_digests(cfg_path: pathlib.Path) -> list[str]:
    """Digest lines of one CLI run of cfg_path: report, CSVs, exit code."""
    command = json.loads(cfg_path.read_text())["command"]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(cfg_path), "--out", out])
        lines = []
        for path in sorted(pathlib.Path(out).iterdir()):
            if path.suffix == ".json":
                report = json.loads(path.read_text())
                report.pop("meta", None)
                data = json.dumps(report, sort_keys=True)
            else:
                data = path.read_bytes()
            lines.append(f"{cfg_path.name} {path.name} {sha(data)}")
    return lines + [f"{cfg_path.name} exit {code}"]


def digests(seeds: int, configs: list[pathlib.Path]) -> list[str]:
    lines = [f"selfcheck seed {s} {sha(json.dumps(run_selfcheck(s), sort_keys=True))}"
             for s in range(seeds)]
    for cfg_path in configs:
        lines += config_digests(cfg_path)
    return lines


if __name__ == "__main__":
    print("\n".join(digests(10, sorted(CONFIGS.glob("*.json")))))
