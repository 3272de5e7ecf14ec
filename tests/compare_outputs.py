"""Compare what two source trees' command lines write, run by run.

    python tests/compare_outputs.py <src-a> <src-b>

Each tree's CLI (`python -m bentswimmer` with PYTHONPATH=<src>) runs, one
subprocess per run, the shipped scenarios and every benchmark case of the
track, stiff and sweep workloads at seeds 1, 2 and 1000003
(perfbench/cases.py, imported read-only). For each run it compares the exit
code, stderr, and stdout with the output directory masked; every CSV and
geometry snapshot byte for byte; and the summary apart from wall_time_s and
the output directory in its paths. It prints each difference and exits 1 if
there is one, else 0. Pytest does not collect this file. It runs two
subprocesses at a time and takes about a minute on two cores.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 1000003)
COMMANDS = {"closed_loop": "simulate", "open_loop": "simulate",
            "controllability": "check-controllability",
            "determinant_scan": "scan-determinant"}


def _perfbench_cases():
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_cases",
                                                  ROOT / "perfbench" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(workdir: Path) -> list[tuple[str, str, Path]]:
    """(label, command, scenario file) of every run; the benchmark cases'
    scenario files are written under workdir."""
    runs = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        mode = json.loads(path.read_text(encoding="utf-8"))["mode"]
        runs.append((path.stem, COMMANDS[mode], path))
    cases = _perfbench_cases()
    for workload in cases.WORKLOADS:
        for seed in SEEDS:
            case_list = cases.generate(workload, seed)
            paths = cases.write(case_list, workdir / "cases" / f"{workload}_{seed}")
            runs += [(f"{workload}_{seed}_{case['name']}", case["command"], path)
                     for case, path in zip(case_list, paths)]
    return runs


def _run(src: Path, command: str, scenario: Path, outdir: Path) -> dict:
    """The run's exit code, streams and output files, masked to compare."""
    proc = subprocess.run(
        [sys.executable, "-m", "bentswimmer", command, str(scenario), "--output-dir", str(outdir)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})

    def mask(text: str) -> str:
        return text.replace(str(outdir), "<outdir>").replace(str(src), "<src>")

    outputs = json.loads(scenario.read_text(encoding="utf-8")).get("outputs") or {}
    summary = outputs.get("summary", "summary.json")
    files = {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        name = str(path.relative_to(outdir))
        if name == summary:
            doc = json.loads(mask(path.read_text(encoding="utf-8")))
            doc.pop("wall_time_s", None)
            files[name] = json.dumps(doc, indent=2, sort_keys=True).encode()
        else:
            files[name] = path.read_bytes()
    return {"exit code": proc.returncode, "stdout": mask(proc.stdout),
            "stderr": mask(proc.stderr), "files": files}


def compare(src_a: Path, src_b: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        runs = _runs(workdir)
        jobs = [(src, command, scenario, workdir / tree / label)
                for label, command, scenario in runs
                for tree, src in (("a", src_a), ("b", src_b))]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda job: _run(*job), jobs))
    differences, n_files = [], 0
    for (label, _, _), a, b in zip(runs, results[::2], results[1::2]):
        for key in ("exit code", "stdout", "stderr"):
            if a[key] != b[key]:
                differences.append(f"{label}: {key}: {a[key]!r} != {b[key]!r}")
        for name in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(name) != b["files"].get(name):
                state = ("differs" if name in a["files"] and name in b["files"]
                         else "only in " + ("a" if name in a["files"] else "b"))
                differences.append(f"{label}: {name} {state}")
        n_files += len(a["files"])
    for line in differences:
        print(line)
    print(f"{len(runs)} runs, {n_files} output files: "
          f"{len(differences) or 'no'} difference{'' if len(differences) == 1 else 's'}")
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/compare_outputs.py <src-a> <src-b>")
    sys.exit(compare(*(Path(p).resolve() for p in sys.argv[1:])))
