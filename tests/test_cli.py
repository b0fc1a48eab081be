import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

import capwaves.acceptance
import capwaves.cli
import capwaves.clustering
from capwaves import (
    FluidParams,
    build_clusters,
    build_system,
    enumerate_triads,
    min_resonant_vorticity,
)
from capwaves.acceptance import CheckResult
from capwaves.cli import RunConfig, main, parse_config, serialize_config
from capwaves.dynamics import IntegrationError


class TestConfig:
    def test_roundtrip_defaults(self):
        config = RunConfig()
        assert parse_config(serialize_config(config)) == config

    def test_roundtrip_with_initial_section(self):
        config = RunConfig(
            sigma=1.0,
            kmax=16,
            epsilon=1e-6,
            t_end=12.5,
            tol=1e-11,
            samples=256,
            out="somewhere",
            initial=((1, 1.0, 0.0), (2, 0.8, -0.25), (3, 0.5, 1.5707963267948966)),
        )
        text = serialize_config(config)
        assert parse_config(text) == config
        # a second round trip is byte-stable
        assert serialize_config(parse_config(text)) == text

    def test_comments_and_blank_lines_ignored(self):
        text = "sigma = 1.0  # unit fluid\n\n# comment line\nkmax = 5\n"
        config = parse_config(text)
        assert config.sigma == 1.0
        assert config.kmax == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("nonsense = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            parse_config("[other]\n1 2 3\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(sigma=-1.0)

    def test_parsed_scalars_have_their_annotated_types(self):
        # the parser takes each scalar's type from the field's default
        config = parse_config(serialize_config(RunConfig()))
        for f in fields(RunConfig):
            if f.name != "initial":
                assert type(getattr(config, f.name)).__name__ == f.type, f.name


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma", "nan"],
            ["--sigma", "inf"],
            ["--epsilon", "1.5"],
            ["--epsilon", "1.0"],
            ["--epsilon", "nan"],
            ["--t-end", "inf"],
            ["--tol", "nan"],
        ],
    )
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, flags):
        code = main(["cluster", "--kmax", "5", "--out", str(tmp_path / "run"), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert not (tmp_path / "run").exists()


class TestSearch:
    def test_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["search", "--kmax", "30", "--sigma", "1.0", "--out", str(out)])
        assert code == 0
        table = (out / "triads.txt").read_text().splitlines()
        rows = [line for line in table if not line.startswith("#")]
        assert len(rows) == 30 * 31 // 2
        first = rows[0].split()
        assert first[:3] == ["1", "1", "2"]
        assert float(first[3]) == pytest.approx(min_resonant_vorticity(FluidParams(1.0)))
        omegas = [float(r.split()[3]) for r in rows]
        assert omegas == sorted(omegas)
        payload = json.loads((out / "triads.json").read_text())
        assert payload["kmax"] == 30
        assert len(payload["triads"]) == len(rows)

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["search", "--kmax", "20", "--sigma", "1.0", "--out", str(out1)])
        main(["search", "--kmax", "20", "--sigma", "1.0", "--out", str(out2)])
        assert (out1 / "triads.txt").read_bytes() == (out2 / "triads.txt").read_bytes()
        assert (out1 / "triads.json").read_bytes() == (out2 / "triads.json").read_bytes()


def _search_payload_reference(sigma: float, kmax: int) -> tuple[str, str]:
    """triads.txt and triads.json as formatted from Triad records with json.dumps."""
    triads = enumerate_triads(kmax, FluidParams(sigma))
    lines = [f"# capwaves triad table: sigma = {sigma}, kmax = {kmax}", "# k1 k2 k3 omega_gen z"]
    lines += [f"{t.k1} {t.k2} {t.k3} {t.omega_gen!r} {t.z!r}" for t in triads]
    payload = {
        "sigma": sigma,
        "kmax": kmax,
        "triads": [
            {"k1": t.k1, "k2": t.k2, "k3": t.k3, "omega_gen": t.omega_gen, "z": t.z}
            for t in triads
        ],
    }
    return "\n".join(lines) + "\n", json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestSearchWriter:
    @pytest.mark.parametrize("kmax", [1, 7, 100])
    @pytest.mark.parametrize("sigma", [7.23e-5, 0.0123, 1.0])
    def test_matches_json_dumps(self, tmp_path, capsys, sigma, kmax):
        out = tmp_path / "run"
        assert main(["search", "--kmax", str(kmax), "--sigma", repr(sigma), "--out", str(out)]) == 0
        text, payload = _search_payload_reference(sigma, kmax)
        assert (out / "triads.txt").read_text() == text
        assert (out / "triads.json").read_text() == payload

    @pytest.mark.parametrize("command", ["search", "cluster", "simulate"])
    @pytest.mark.parametrize("sigma, kmax", [(1e-320, 12), (5e-324, 12), (1e300, 800)])
    def test_non_finite_columns_exit_two(self, tmp_path, capsys, command, sigma, kmax):
        # a subnormal sigma overflows the coupling, a huge one at large kmax
        # makes it NaN: one error line, and nothing is written
        out = tmp_path / "run"
        code = main([command, "--kmax", str(kmax), "--sigma", repr(sigma), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "sigma" in line and f"kmax = {kmax}" in line
        assert not out.exists()


# sha256 of the artifacts of `capwaves search` and `capwaves cluster` at kmax
# 100 and the default sigma, recorded from the window union-find clustering
# and the json.dumps triad writer (numpy 2.4, x86-64 Linux); the DOT digest
# runs over "<file name>\0<bytes>" of every diagram in name order
GOLDEN_SEARCH = {
    "triads.txt": "b265fad5cf188099b38450a70707f62494365128856c38186c008152276dcebf",
    "triads.json": "e68525f8b69c41df8efc79960e4c9977254d814d7fd5140704187968d8eb389e",
}
GOLDEN_CLUSTER = {
    "1e-4": ("9cdc8fbef8dc66ddd18571f958b0e34c1f6b45833beab4251cc768dcf0f1e0b3",
             4, "e9fac92e9dc04bf570d1c0123670733aca824ad2cbd01e20e24623bc0f032b77"),
    "1e-3": ("b6492184531c66d6a21e2b6a7f5dd9daf54e4cdb00246f1f73e14be0d6048c28",
             159, "824d0a03567de28da58b8eb0184f03326eeaf4bbe2b1852ad5839c071d218150"),
    # recorded from clusters_to_json and export_nr_diagram before the law
    # count was exact, when `capwaves cluster` still refused this cell
    "1e-2": ("b738fa18e30799ece3f2193b864c8581992848d242b6710ca330a7ed064a31da",
             110, "8c2b84c49fa8913402c849dd9faf035f194d01eec8ff96a2f983646358236b11"),
}
# `capwaves simulate` at kmax 100, epsilon 1e-3, cluster 0 (5 triads on the
# modes 84..92 and 176, 88 doubled) from the [initial] rows below, recorded
# from the per-sample CSV writer; stdout is hashed with the output directory
# replaced by "OUT"
SIMULATE_INITIAL = """\
84 0.9 0.1
85 0.7 -1.3
86 1.1 2.2
87 0.5 0.4
88 0.8 -0.6
89 0.6 1.7
90 1.0 -2.5
91 0.4 0.9
92 1.2 -0.2
176 0.75 3.0
"""
GOLDEN_SIMULATE = {
    "trajectory.csv": "8facb01a52d467415f86a94077610be08b6fe3992a4a37a42fe6db74f02485e2",
    "stdout": "6d61d52e5262b4f4aa104f4da5ede65bff95f85439ebfa7c6d3d894d09ba27cf",
}


class TestGoldenArtifacts:
    def test_search(self, tmp_path, capsys):
        assert main(["search", "--kmax", "100", "--out", str(tmp_path)]) == 0
        for name, digest in GOLDEN_SEARCH.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("epsilon", sorted(GOLDEN_CLUSTER))
    def test_cluster(self, tmp_path, capsys, epsilon):
        assert main(["cluster", "--kmax", "100", "--epsilon", epsilon, "--out", str(tmp_path)]) == 0
        clusters_digest, n_dots, dots_digest = GOLDEN_CLUSTER[epsilon]
        clusters_json = (tmp_path / "clusters.json").read_bytes()
        assert hashlib.sha256(clusters_json).hexdigest() == clusters_digest
        dots = sorted(tmp_path.glob("cluster_*.dot"))
        assert len(dots) == n_dots
        h = hashlib.sha256()
        for path in dots:
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        assert h.hexdigest() == dots_digest

    def test_simulate(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("kmax = 100\nepsilon = 1e-3\ncluster_id = 0\n\n[initial]\n"
                          + SIMULATE_INITIAL)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT").encode()
        csv = (out / "trajectory.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == GOLDEN_SIMULATE["trajectory.csv"]
        assert hashlib.sha256(stdout).hexdigest() == GOLDEN_SIMULATE["stdout"]


class TestCluster:
    def test_published_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["cluster", "--kmax", "100", "--epsilon", "1e-4", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "4 multi-triad clusters" in stdout
        payload = json.loads((out / "clusters.json").read_text())
        assert payload["epsilon"] == 1e-4
        multi = [c for c in payload["clusters"] if len(c["triads"]) > 1]
        assert len(multi) == 4
        dots = sorted(out.glob("cluster_*.dot"))
        assert len(dots) == 4
        assert all("AP" in d.read_text() for d in dots)

    def test_giant_clusters_are_summarised(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["cluster", "--kmax", "100", "--epsilon", "1e-2", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 111
        assert lines[0].startswith("cluster 0: N=1687 n=71967 laws=1 ")
        assert lines[1].startswith("cluster 1: N=1601 n=100724 laws=2 ")
        assert lines[-1] == "110 multi-triad clusters, 845 isolated triads"

    def test_summary_failure_writes_nothing(self, tmp_path, capsys, monkeypatch):
        count = capwaves.cli.conservation_count
        seen = []

        def refuse_third(cluster):
            seen.append(cluster)
            if len(seen) == 3:
                raise ValueError("over-connected cluster")
            return count(cluster)

        monkeypatch.setattr(capwaves.cli, "conservation_count", refuse_third)
        out = tmp_path / "run"
        assert main(["cluster", "--kmax", "20", "--epsilon", "1e-2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: over-connected cluster"]
        assert not (out / "clusters.json").exists()
        assert not list(tmp_path.rglob("*.dot"))

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["cluster", "--kmax", "60", "--epsilon", "1e-3", "--out", str(out)])
        assert (out1 / "clusters.json").read_bytes() == (out2 / "clusters.json").read_bytes()


def _isolated_cluster_id(kmax: int, sigma: float, epsilon: float, triple) -> int:
    clusters = build_clusters(enumerate_triads(kmax, FluidParams(sigma)), epsilon)
    for i, cluster in enumerate(clusters):
        if cluster.triads[0].wavenumbers == triple:
            return i
    raise LookupError(triple)


class TestSimulate:
    def _config(self, tmp_path, initial_lines, triple=(1, 2, 3), scalars=""):
        cid = _isolated_cluster_id(8, 1.0, 1e-8, triple)
        text = (
            scalars + "sigma = 1.0\nkmax = 8\nepsilon = 1e-08\nt_end = 8.0\n"
            f"tol = 1e-10\nsamples = 200\ncluster_id = {cid}\n"
            f"out = {tmp_path / 'run'}\n\n[initial]\n" + "\n".join(initial_lines) + "\n"
        )
        path = tmp_path / "config.txt"
        path.write_text(text)
        return path

    def test_fixed_point_constant_columns(self, tmp_path, capsys):
        config = self._config(tmp_path, ["1 0.9 0.0", "2 0.0 0.0", "3 0.0 0.0"])
        assert main(["simulate", "--config", str(config)]) == 0
        rows = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[0] == "t"
        assert "re_k1" in header and "abs2_k3" in header and "H" in header
        cols = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        re_k1 = cols[:, header.index("re_k1")]
        abs2_k3 = cols[:, header.index("abs2_k3")]
        assert np.all(re_k1 == 0.9)
        assert np.all(abs2_k3 == 0.0)

    def test_zero_phase_stays_locked(self, tmp_path, capsys):
        config = self._config(tmp_path, ["1 1.0 0.0", "2 0.8 0.0", "3 0.5 0.0"])
        assert main(["simulate", "--config", str(config)]) == 0
        stdout = capsys.readouterr().out
        lock = float(stdout.split("phase lock residual")[1].split(",")[0])
        assert lock < 1e-6
        assert "max invariant drift" in stdout
        drift = float(stdout.split("max invariant drift")[1].split(",")[0])
        assert drift < 1e-8

    def test_missing_modes_listed(self, tmp_path, capsys):
        config = self._config(tmp_path, ["1 1.0 0.0"])
        assert main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "missing initial conditions" in err
        assert "2" in err and "3" in err

    def test_unknown_modes_rejected(self, tmp_path, capsys):
        config = self._config(
            tmp_path, ["1 1.0 0.0", "2 0.8 0.0", "3 0.5 0.0", "7 1.0 0.0"]
        )
        assert main(["simulate", "--config", str(config)]) == 2
        assert "not in cluster" in capsys.readouterr().err

    def test_cluster_id_out_of_range(self, tmp_path, capsys):
        config = self._config(tmp_path, ["1 1.0 0.0", "2 0.8 0.0", "3 0.5 0.0"])
        assert main(["simulate", "--config", str(config), "--cluster-id", "99999"]) == 2

    @pytest.mark.parametrize(
        "initial, flags, scalars, error",
        [
            (["1 1.0 0.0", "2 0.8 0.0", "3 0.5 0.0"], ["--cluster-id", "99999"], "",
             "cluster_id 99999 out of range"),
            (["1 1.0 0.0", "2 0.8 0.0"], [], "", "missing initial conditions"),
            (["1 1.0 0.0", "2 0.8 0.0", "3 0.5 0.0", "7 1.0 0.0"], [], "", "not in cluster"),
            (["1 1.0 0.0", "2 0.8 0.0", "3 0.5 0.0"], ["--tol", "1e-16"], "", "tol must be"),
            (["1 1.0 0.0", "2 0.5 0.0", "2 0.9 0.1", "3 0.5 0.0"], [], "",
             "duplicated wavenumber 2"),
            (["1 1.0 0.0", "2 0.8 0.0", "3 0.5 0.0"], [], "kmax = 12\n",
             "line 3: duplicated key 'kmax'"),
            (["1 nan 0.0", "2 0.8 0.0", "3 0.5 0.0"], [], "",
             "line 11: amplitude and phase must be finite"),
        ],
        ids=["cluster-id", "missing", "unknown", "tol-floor", "duplicate", "duplicate-key",
             "non-finite"],
    )
    def test_usage_error_writes_nothing(self, tmp_path, capsys, initial, flags, scalars, error):
        config = self._config(tmp_path, initial, scalars=scalars)
        assert main(["simulate", "--config", str(config), *flags]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and error in line
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cluster_id, n_modes", [(0, 127), (1, 151)])
    def test_giants_simulate(self, tmp_path, capsys, cluster_id, n_modes):
        # the kmax 100, eps 1e-2 giants share doubled values, each on one slot
        clusters = build_clusters(enumerate_triads(100, FluidParams(1.0)), 1e-2)
        modes = build_system(clusters[cluster_id]).modes
        assert len(modes) == n_modes
        rng = np.random.default_rng(20100423)
        initial = [f"{k} {amp!r} {theta!r}" for k, amp, theta in zip(
            modes, rng.uniform(0.4, 1.2, n_modes).tolist(),
            rng.uniform(-np.pi, np.pi, n_modes).tolist())]
        config = tmp_path / "config.txt"
        config.write_text(
            f"sigma = 1.0\nkmax = 100\nepsilon = 0.01\nt_end = 2.0\nsamples = 200\n"
            f"cluster_id = {cluster_id}\nout = {tmp_path / 'run'}\n\n[initial]\n"
            + "\n".join(initial) + "\n"
        )
        assert main(["simulate", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        drifts = captured.out.split("max invariant drift ")[1].split("\n")[0]
        quadratic, hamiltonian = drifts.split(", Hamiltonian drift ")
        assert float(quadratic) < 1e-8 and float(hamiltonian) < 1e-8

    def test_integration_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        message = "integration failed at t=0.25: Required step size is less than spacing"

        def fail(system, initial, t_end, tol, samples):
            raise IntegrationError(message, 0.25, initial)

        monkeypatch.setattr(capwaves.cli, "integrate", fail)
        config = self._config(tmp_path, ["1 1.0 0.0", "2 0.8 0.3", "3 0.5 -0.2"])
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("amplitude", ["1e150", "1e154", "1e160"])
    def test_overflowing_amplitudes_give_one_error_line(self, tmp_path, capsys, amplitude):
        # the triple products overflow at the initial state (at 1e160 the
        # right-hand side too): the run fails without a numpy warning
        config = self._config(tmp_path, [f"{k} {amplitude} 0.0" for k in (1, 2, 3)])
        assert main(["simulate", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: integration failed at t=0.0")
        assert not (tmp_path / "run").exists()

    def test_basis_eliminated_once_per_run(self, tmp_path, capsys, monkeypatch):
        law_pass, calls = capwaves.clustering._law_pass, []

        def counted(*args):
            calls.append(1)
            return law_pass(*args)

        monkeypatch.setattr(capwaves.clustering, "_law_pass", counted)
        config = self._config(tmp_path, ["1 1.0 0.0", "2 0.8 0.3", "3 0.5 -0.2"])
        assert main(["simulate", "--config", str(config)]) == 0
        assert len(calls) == 1

    def test_deterministic_bytes(self, tmp_path, capsys):
        config = self._config(tmp_path, ["1 1.0 0.0", "2 0.8 0.3", "3 0.5 -0.2"])
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "r1")])
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "trajectory.csv").read_bytes() == (
            tmp_path / "r2" / "trajectory.csv"
        ).read_bytes()


class TestValidateWiring:
    def test_all_passing_exits_zero(self, monkeypatch, capsys):
        fake = [
            lambda: CheckResult("stub-a", True, "1", "1"),
            lambda: CheckResult("stub-b", True, "2", "2"),
        ]
        monkeypatch.setattr(capwaves.acceptance, "ALL_CHECKS", fake)
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] stub-a" in out and "2/2 checks passed" in out

    def test_failure_exits_one(self, monkeypatch, capsys):
        fake = [
            lambda: CheckResult("stub-a", True, "1", "1"),
            lambda: CheckResult("stub-b", False, "3", "2"),
        ]
        monkeypatch.setattr(capwaves.acceptance, "ALL_CHECKS", fake)
        assert main(["validate"]) == 1
        assert "[FAIL] stub-b" in capsys.readouterr().out

    def test_crashing_check_is_a_fail_line(self, monkeypatch, capsys):
        def crashing_check():
            raise RuntimeError("boom")

        fake = [crashing_check, lambda: CheckResult("stub-b", True, "2", "2")]
        monkeypatch.setattr(capwaves.acceptance, "ALL_CHECKS", fake)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert (
            "[FAIL] crashing_check: measured RuntimeError('boom'); expected no exception" in out
        )
        assert "[PASS] stub-b" in out and "1/2 checks passed" in out
