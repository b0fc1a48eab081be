"""Tests of the benchmark itself: catalogue artifacts match the CLI, spans add up.

Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from capwaves import cli  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def test_catalogue_cell_matches_cli_artifacts(tmp_path, capsys):
    kmax, epsilon = 100, 1e-3
    wl = workloads.Catalogue(seed=1, out_dir=tmp_path / "bench")
    out = wl.run_cell(kmax, epsilon, NullTracer())

    cli_dir = tmp_path / "cli"
    args = ["--sigma", repr(wl.sigma), "--kmax", str(kmax), "--epsilon", repr(epsilon),
            "--out", str(cli_dir)]
    assert cli.main(["search", *args]) == 0
    assert cli.main(["cluster", *args]) == 0

    assert (wl.out_dir / "triads.txt").read_bytes() == (cli_dir / "triads.txt").read_bytes()
    assert out.clusters_json.encode() == (cli_dir / "clusters.json").read_bytes()
    dot_files = sorted(cli_dir.glob("cluster_*.dot"))
    assert len(dot_files) == len(out.dots) > 0
    for path, text in zip(dot_files, out.dots):
        assert text.encode() == path.read_bytes(), path.name


def test_catalogue_cell_passes_its_gates():
    wl = workloads.Catalogue(seed=3, out_dir=Path("unused"))
    out = workloads.render_cluster_cell(wl.sigma, 100, 1e-3, NullTracer())
    assert workloads.structure_digest(out.payload) == wl.digests["100:0.001"]
    assert workloads.published_table_misses(1e-3, out.clusters, out.build_s) == []


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
        with tr.span("inner"):
            pass
    (_, s0, e0, p0), (_, s1, e1, p1), (_, s2, e2, p2), (_, s3, e3, p3) = tr.spans
    assert (p0, p1, p2, p3) == (-1, 0, 1, 0)
    own = tr.self_times()
    assert abs(own["outer"] - ((e0 - s0) - (e1 - s1) - (e3 - s3))) < 1e-12
    assert abs(own["inner"] - ((e1 - s1) - (e2 - s2) + (e3 - s3))) < 1e-12
    assert abs(sum(own.values()) - (e0 - s0)) < 1e-12


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "oracle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_drift_outside_the_known_band_makes_the_run_incorrect():
    inflated = workloads.PassResult()
    workloads.record_flow(inflated, 12, 5, 5, 1e-3)
    assert not inflated.correct and inflated.failed == 1

    above_band = workloads.PassResult()
    workloads.record_flow(above_band, 33, 5, 5, 2.5e-8)
    assert not above_band.correct and above_band.failed == 1

    known = workloads.PassResult()
    workloads.record_flow(known, 12, 5, 5, 1.2e-8)
    workloads.record_flow(known, 33, 5, 5, 1.06e-8)
    workloads.record_flow(known, 12, 5, 5, 1e-9)
    assert known.correct and (known.attempted, known.failed) == (3, 2)

    wrong_laws = workloads.PassResult()
    workloads.record_flow(wrong_laws, 12, 4, 5, 1e-9)
    assert not wrong_laws.correct


def test_over_connected_error_counts_as_known_only_on_the_giant_clusters():
    def summary_error(kmax, epsilon, size):
        res = workloads.PassResult()
        try:
            raise ValueError("over-connected cluster: 2N - n = -1 < 1")
        except ValueError as exc:
            workloads.record_summary_error(res, kmax, epsilon, size, exc)
        return res

    assert summary_error(100, 1e-2, 1687).correct
    assert summary_error(100, 1e-2, 1601).correct
    assert not summary_error(100, 1e-2, 50).correct
    assert not summary_error(500, 1e-4, 1687).correct
    assert not summary_error(100, 1e-3, 1601).correct


def test_host_sampler_leaves_kernel_time_out_of_the_work():
    import time

    import hostspeed

    with hostspeed.HostSampler(interval_s=0.05) as host:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
    assert len(host.segments) >= 3
    assert abs(host.work_s - 0.3) < 0.05
    assert host.kernel_total_s > 0
    assert host.reference_s() == host.work_s * hostspeed.REF_KERNEL_S / host.kernel_mean_s()
