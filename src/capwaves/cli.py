"""Command-line front end: search, cluster, simulate and validate subcommands.

Runs are reproducible: a flat key-value config file (with an [initial]
section holding per-wavenumber amplitude/phase rows) fixes every knob, flags
override individual values, and all artifacts are written with deterministic
formatting so identical configs produce byte-identical outputs.  The
effective configuration is echoed next to the artifacts for provenance.

Exit codes: 0 success, 1 validation or runtime failure (such as an
integration that fails, reported with its last time), 2 usage error (also
for inputs the library rejects with a ValueError, such as a sigma that makes
the couplings non-finite).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import acceptance
from .clustering import (
    build_clusters,
    clusters_to_json,
    conservation_count,
    coupling_ratio_hints,
    export_nr_diagram,
)
from .dispersion import SIGMA_WATER_25C, FluidParams
from .dynamics import (
    IntegrationError,
    build_system,
    characteristic_time,
    conserved_quadratics,
    drift_report,
    integrate,
    measure_period,
    mode_labels,
    phase_lock_residual,
)
from .resonance_search import enumerate_triads, triad_columns

__all__ = ["RunConfig", "parse_config", "serialize_config", "main"]

USAGE_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; defaults match the reference spectral domain."""

    sigma: float = SIGMA_WATER_25C
    kmax: int = 100
    epsilon: float = 1e-3
    t_end: float = 50.0  # in multiples of the characteristic time 1/(|Z| max C)
    tol: float = 1e-10
    samples: int = 1000
    cluster_id: int = 0
    out: str = "out"
    initial: tuple[tuple[int, float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        reals = (self.sigma, self.epsilon, self.t_end, self.tol)
        if not all(math.isfinite(x) and x > 0 for x in reals):
            raise ValueError("sigma, epsilon, t_end and tol must be positive and finite")
        if not self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.kmax < 1 or self.samples < 2 or self.cluster_id < 0:
            raise ValueError("kmax, samples and cluster_id out of range")


_SCALAR_FIELDS = {
    "sigma": float,
    "kmax": int,
    "epsilon": float,
    "t_end": float,
    "tol": float,
    "samples": int,
    "cluster_id": int,
    "out": str,
}


def parse_config(text: str) -> RunConfig:
    """Parse the flat key-value format with an optional [initial] section."""
    values: dict = {}
    initial: list[tuple[int, float, float]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != "initial":
                raise ValueError(f"line {lineno}: unknown section [{section}]")
            continue
        if section == "initial":
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'wavenumber amplitude phase'")
            initial.append((int(parts[0]), float(parts[1]), float(parts[2])))
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCALAR_FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = _SCALAR_FIELDS[key](value.strip())
    return RunConfig(initial=tuple(initial), **values)


def serialize_config(config: RunConfig) -> str:
    """Inverse of parse_config; parse(serialize(c)) == c."""
    lines = []
    for name in _SCALAR_FIELDS:
        value = getattr(config, name)
        lines.append(f"{name} = {value}")
    if config.initial:
        lines.append("")
        lines.append("[initial]")
        for k, amp, theta in config.initial:
            lines.append(f"{k} {amp!r} {theta!r}")
    return "\n".join(lines) + "\n"


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        config = parse_config(Path(args.config).read_text())
    overrides = {}
    for name in _SCALAR_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            overrides[name] = flag
    if overrides:
        config = replace(config, **overrides)
    return config


def _prepare_out(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(serialize_config(config))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


# one triads.json entry, laid out as json.dumps(indent=2, sort_keys=True) does
_JSON_ROW = """    {
      "k1": %d,
      "k2": %d,
      "k3": %d,
      "omega_gen": %s,
      "z": %s
    }"""


def cmd_search(config: RunConfig) -> int:
    k1, k2, k3, omega, z = triad_columns(config.kmax, FluidParams(config.sigma))
    out = _prepare_out(config)
    rows = list(
        zip(k1.tolist(), k2.tolist(), k3.tolist(),
            map(repr, omega.tolist()), map(repr, z.tolist()))
    )
    header = (
        f"# capwaves triad table: sigma = {config.sigma}, kmax = {config.kmax}\n"
        "# k1 k2 k3 omega_gen z\n"
    )
    (out / "triads.txt").write_text(header + "".join("%d %d %d %s %s\n" % r for r in rows))
    entries = ",\n".join(_JSON_ROW % row for row in rows)
    (out / "triads.json").write_text(
        f'{{\n  "kmax": {json.dumps(config.kmax)},\n  "sigma": {json.dumps(config.sigma)},\n'
        f'  "triads": [\n{entries}\n  ]\n}}\n'
    )
    print(f"{len(rows)} triads written to {out}/triads.txt and triads.json")
    return 0


def cmd_cluster(config: RunConfig) -> int:
    params = FluidParams(config.sigma)
    triads = enumerate_triads(config.kmax, params)
    clusters = build_clusters(triads, config.epsilon)
    multi = [c for c in clusters if c.size > 1]
    # every summary line first: a cluster the summary rejects leaves no artifacts
    lines = [_cluster_summary(i, cluster, config.epsilon) for i, cluster in enumerate(multi)]
    out = _prepare_out(config)
    payload = clusters_to_json(clusters, config.epsilon, params, config.kmax)
    (out / "clusters.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for i, cluster in enumerate(multi):
        (out / f"cluster_{i:04d}.dot").write_text(export_nr_diagram(cluster))
    for line in lines:
        print(line)
    print(f"{len(multi)} multi-triad clusters, {len(clusters) - len(multi)} isolated triads")
    return 0


def _cluster_summary(i: int, cluster, epsilon: float) -> str:
    """The stdout line of multi-triad cluster i; raises what ``conservation_count`` raises."""
    kinds = cluster.kind_counts
    hist = ",".join(f"{k}:{v}" for k, v in sorted(kinds.items()))
    laws = conservation_count(cluster)
    flag = "  [spread exceeds epsilon]" if cluster.spread > epsilon else ""
    hints = coupling_ratio_hints(cluster)
    targets: dict[float, int] = {}
    for _, target in hints:
        targets[target] = targets.get(target, 0) + 1
    hint_text = (
        "  [integrable-ratio candidates: "
        + ",".join(f"Z~{t:g}x{c}" for t, c in sorted(targets.items()))
        + "]"
        if hints
        else ""
    )
    return (
        f"cluster {i}: N={cluster.size} n={sum(kinds.values())} laws={laws} "
        f"spread={cluster.spread:.3e} kinds={hist}{flag}{hint_text}"
    )


def cmd_simulate(config: RunConfig) -> int:
    params = FluidParams(config.sigma)
    triads = enumerate_triads(config.kmax, params)
    clusters = build_clusters(triads, config.epsilon)
    if config.cluster_id >= len(clusters):
        print(f"error: cluster_id {config.cluster_id} out of range", file=sys.stderr)
        return USAGE_ERROR
    system = build_system(clusters[config.cluster_id])
    given = {k: (amp, theta) for k, amp, theta in config.initial}
    missing = sorted({v for v in system.modes if v not in given})
    if missing:
        print(
            "error: missing initial conditions for wavenumbers: "
            + " ".join(str(v) for v in missing),
            file=sys.stderr,
        )
        return USAGE_ERROR
    unknown = sorted(set(given) - set(system.modes))
    if unknown:
        print(
            "error: initial-condition wavenumbers not in cluster: "
            + " ".join(str(v) for v in unknown),
            file=sys.stderr,
        )
        return USAGE_ERROR
    out = _prepare_out(config)
    state0 = np.array(
        [given[v][0] * np.exp(1j * given[v][1]) for v in system.modes], dtype=complex
    )
    t_char = characteristic_time(system, state0)
    t_end = config.t_end * t_char
    samples = integrate(system, state0, t_end, tol=config.tol, samples=config.samples)
    labels = mode_labels(system)
    basis = conserved_quadratics(system)
    n_inv = len(basis)
    header = ["t"]
    for label in labels:
        header += [f"re_{label}", f"im_{label}", f"abs2_{label}"]
    header.append("H")
    header += [f"inv_{i}" for i in range(n_inv)]
    header += [f"phi_{j}" for j in range(system.n_triads)]
    rows = [",".join(header)]
    for s in samples:
        cols = [_fmt(s.t)]
        for m in range(system.n_modes):
            b = s.state[m]
            cols += [_fmt(b.real), _fmt(b.imag), _fmt(abs(b) ** 2)]
        cols.append(_fmt(s.hamiltonian))
        cols += [_fmt(q) for q in s.invariants]
        cols += [_fmt(p) for p in s.phases]
        rows.append(",".join(cols))
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")

    drift = drift_report(system, basis, state0, samples)
    lock = phase_lock_residual([s.phases for s in samples])
    try:
        period = measure_period(system, state0, t_end, tol=min(config.tol, 1e-11))
        period_text = f"{period:.9g}"
    except ValueError:
        period_text = "n/a"
    print(f"trajectory written to {out}/trajectory.csv ({config.samples} samples)")
    print(f"characteristic time {t_char:.6g}, t_end {t_end:.6g}")
    print(
        f"max invariant drift {drift.quadratic:.3e}, Hamiltonian drift {drift.hamiltonian:.3e}"
    )
    print(f"phase lock residual {lock:.3e}, detected period {period_text}")
    return 0


def cmd_validate() -> int:
    results = acceptance.run_all(report=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capwaves",
        description="Resonant triads, clusters and three-wave dynamics of "
        "rotational capillary waves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="configuration file")
        p.add_argument("--sigma", type=float, help="surface tension / density (m^3/s^2)")
        p.add_argument("--kmax", type=int, help="spectral domain bound")
        p.add_argument("--epsilon", type=float, help="vorticity accuracy for clustering")
        p.add_argument("--t-end", dest="t_end", type=float,
                       help="integration span in characteristic times")
        p.add_argument("--tol", type=float, help="integrator tolerance")
        p.add_argument("--samples", type=int, help="trajectory samples")
        p.add_argument("--cluster-id", dest="cluster_id", type=int, help="cluster index")
        p.add_argument("--out", help="output directory")

    add_common(sub.add_parser("search", help="enumerate exact triads"))
    add_common(sub.add_parser("cluster", help="build resonance clusters"))
    add_common(sub.add_parser("simulate", help="integrate a cluster"))
    sub.add_parser("validate", help="run the validation suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate()
    try:
        config = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        if args.command == "search":
            return cmd_search(config)
        if args.command == "cluster":
            return cmd_cluster(config)
        if args.command == "simulate":
            return cmd_simulate(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
