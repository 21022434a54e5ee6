"""Tests of the benchmark itself: tiny runs print every metric, and each
correctness gate fires on a deliberately corrupted output.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ingest  # noqa: E402
import monitor  # noqa: E402
import run as bench_run  # noqa: E402
import search  # noqa: E402
from common import GateError  # noqa: E402
from repro.storage.repository import VideoRepository  # noqa: E402
from repro.utils.intervals import IntervalSet  # noqa: E402

#: Input scale of the tiny runs (share of the benchmark's own sizes).
TINY = 0.1
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(ROOT)


def run_cli(capsys: pytest.CaptureFixture[str], *args: str) -> tuple[int, list[str]]:
    code = bench_run.main(list(args))
    return code, capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize(
    ("workload", "seconds", "scale", "named"),
    [
        ("ingest", "1", TINY, ("ingest_clips_per_s", "model_ms_per_clip",
                         "failed_share", "setup_s", "peak_rss_mb")),
        ("search", "1", TINY, ("open_ms", "query_p50_ms", "query_p99_ms",
                         "queries_per_s", "failed_share", "setup_s")),
        ("monitor", "1", 0.25, ("capacity_clips_per_s", "model_ms_per_clip",
                          "emit_p50_ms", "emit_p99_ms", "sequence_f1",
                          "failed_share", "setup_s", "peak_rss_mb")),
    ],
)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(
    capsys: pytest.CaptureFixture[str], workload: str, seconds: str,
    scale: float, named: tuple[str, ...], trace: str,
) -> None:
    code, lines = run_cli(
        capsys, "--workload", workload, "--seed", "3", "--seconds", seconds,
        "--trace", trace, "--scale", str(scale),
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead"]["value"] > 0
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    printed = {line.split()[1]: line.split()[3:] for line in lines[:-1]}
    for name in named:
        assert name in printed and printed[name], name


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- gates --------------------------------------------------------------------


def test_ingest_gate_fires_on_a_dropped_sequence(tmp_path: Path) -> None:
    corpus = ingest.build_corpus(5, ingest.SCALE * TINY)
    videos = [video for _, group in corpus for video in group][:3]
    repo, _, failed, *_ = ingest.ingest_pass(videos, 5, tmp_path / "good")
    assert failed == 0
    ingest.check(repo, tmp_path / "good", videos, 5)

    victim = next(
        (video_id, label)
        for video_id in repo.video_ids
        for label in repo.ingest_of(video_id).labels
        if len(repo.ingest_of(video_id).sequences_for(label)) > 0
    )
    corrupted = VideoRepository()
    for video_id in repo.video_ids:
        item = repo.ingest_of(video_id)
        if video_id == victim[0]:
            kept = list(item.sequences_for(victim[1]))[1:]
            field = ("object_sequences" if victim[1] in item.object_sequences
                     else "action_sequences")
            changed = dict(getattr(item, field))
            changed[victim[1]] = IntervalSet(kept)
            item = dataclasses.replace(item, **{field: changed})
        corrupted.add(item)
    corrupted.save(tmp_path / "bad", format=3)
    with pytest.raises(GateError, match="sequences differ"):
        ingest.check(repo, tmp_path / "bad", videos, 5)


def test_search_gate_fires_on_a_swapped_row(tmp_path: Path) -> None:
    corpus, _ = search.build_repository(5, search.SCALE * TINY, tmp_path / "r")
    repo = VideoRepository.load(tmp_path / "r")
    from repro.core.rvaq import RVAQ

    for query, _ in corpus:
        exact = search.exact_scores(repo, query)
        ranked = sorted(set(exact.values()), reverse=True)
        if len(ranked) >= 2:
            break
    else:
        pytest.skip("no query with two distinct sequence scores")
    k = 1
    rows = search.ranked_rows(RVAQ(repo).top_k(query, k))
    search.check_ranking(exact, k, rows, "clean")
    outsider = next(key for key, score in exact.items() if score < ranked[0])
    swapped = [(outsider[0], outsider[1], exact[outsider], exact[outsider])]
    with pytest.raises(GateError):
        search.check_ranking(exact, k, swapped, "swapped")


def test_monitor_gate_fires_on_a_lost_event() -> None:
    setup = monitor.build(5, 0.25)
    asyncio.run(monitor.drive(setup, None))
    monitor.check(setup, 5)
    key = next(k for k, pushed in setup.recorder.pushed.items() if pushed)
    setup.recorder.pushed[key].pop()
    with pytest.raises(GateError, match="pushed sequences differ"):
        monitor.check(setup, 5)
