"""Experiment orchestration: seeded ensembles, enhancement metrics, reports.

The whole pipeline is a reproducibility instrument: every instance seed is a
pure function of (master seed, instance index), records are merged in task
order regardless of worker count, and emitted files embed the configuration
hash.  Timing capture is opt-in so that default runs are byte-identical
across invocations.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .errors import ParameterError, SingularGaugeError
from .gauge import Ansatz, _nc1_alpha, cd_coefficients
from .problem import (
    STATEVECTOR_CAP,
    generate_instance,
    ground_state,
    instance_seed,
)
from .schedule import Schedule
from .simulator import (
    DrivenHamiltonian,
    sample_shots,
    success_probability,
    trotter_evolve,
)
from .spectrum import GAP_SAMPLES, cd_norm, gap_curve

#: Baseline ratios with a smaller denominator than this are left out of the
#: enhancement mean (single instances would dominate it) but kept in the
#: enhanced-fraction count.
ZERO_BASELINE_FLOOR = 1e-12

#: Histogram binning for success-probability distributions.
HISTOGRAM_BINS = 50

#: Regenerated instances per (size, drive) that the cost report averages.
COST_SAMPLES = 5

_CSV_HEADER = (
    "instance_id,n,seed,degenerate,excluded,ansatz,P_s,wall_ms,"
    "entangling_count,delta_min"
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Per-field type checks; values read from a config file arrive unconverted.
_FIELD_TYPES = {
    "master_seed": _is_int,
    "n_values": lambda v: isinstance(v, (tuple, list)) and all(map(_is_int, v)),
    "instances_per_n": _is_int,
    "total_time": lambda v: _is_int(v) or isinstance(v, float),
    "trotter_steps": _is_int,
    "ansatz": lambda v: isinstance(v, (tuple, list)) and all(isinstance(t, str) for t in v),
    "shots": lambda v: v is None or _is_int(v),
    "output_dir": lambda v: isinstance(v, str),
    "jobs": _is_int,
    "compute_gaps": lambda v: isinstance(v, bool),
    "gap_samples": _is_int,
    "record_timings": lambda v: isinstance(v, bool),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Ensemble sweep parameters; round-trips losslessly through JSON."""

    master_seed: int = 20220301
    n_values: tuple[int, ...] = (4, 6, 8, 10, 12)
    instances_per_n: int = 200
    total_time: float = 1.0
    trotter_steps: int = 20
    ansatz: tuple[str, ...] = ("none", "local-y", "nc1")
    shots: int | None = None
    output_dir: str = "runs"
    jobs: int = 1
    compute_gaps: bool = False
    gap_samples: int = GAP_SAMPLES
    record_timings: bool = False

    def __post_init__(self):
        wrong = [name for name, ok in _FIELD_TYPES.items() if not ok(getattr(self, name))]
        if wrong:
            raise ParameterError(f"wrongly typed config fields {wrong}")
        if self.master_seed < 0:
            raise ParameterError("master_seed must be >= 0")
        if self.instances_per_n < 1:
            raise ParameterError("instances_per_n must be >= 1")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ParameterError("n_values must be non-empty positive integers")
        if any(n > STATEVECTOR_CAP for n in self.n_values):
            raise ParameterError(
                f"n_values exceed the state-vector cap {STATEVECTOR_CAP}"
            )
        Schedule(self.total_time, self.trotter_steps)
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")
        if self.shots is not None and self.shots < 1:
            raise ParameterError("shots must be >= 1 when set")
        if self.gap_samples < 2:
            raise ParameterError("gap_samples must be >= 2")
        for tag in self.ansatz:
            Ansatz.parse(tag)
        for name in ("n_values", "ansatz"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ParameterError(f"{name} repeats a value: {list(values)}")

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["n_values"] = list(self.n_values)
        payload["ansatz"] = list(self.ansatz)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ParameterError(f"unknown config fields {sorted(unknown)}")
        kwargs = dict(payload)
        for name in ("n_values", "ansatz"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(payload, dict):
            raise ParameterError(f"{path}: expected a JSON object")
        return cls.from_dict(payload)

    def to_file(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")


#: Fields that define the experimental protocol; execution details such as
#: worker count or output location do not change what gets measured, so they
#: stay out of the provenance hash.
_PROTOCOL_FIELDS = (
    "master_seed",
    "n_values",
    "instances_per_n",
    "total_time",
    "trotter_steps",
    "ansatz",
    "shots",
    "compute_gaps",
    "gap_samples",
)


def config_hash(cfg: ExperimentConfig) -> str:
    fields = cfg.to_dict()
    payload = {name: fields[name] for name in _PROTOCOL_FIELDS}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """Per-instance results across every configured ansatz."""

    instance_id: int
    n: int
    seed: int
    degenerate: bool
    excluded: bool
    ps: dict[str, float | None]
    wall_ms: dict[str, float]
    entangling: dict[str, int]
    delta_min: dict[str, float | None]
    #: Why each excluded drive was excluded: (site, lam, step) of its
    #: ``SingularGaugeError``.  A diagnostic kept out of every emitted file.
    exclusions: dict[str, tuple] = field(default_factory=dict, compare=False)


@dataclass
class EnsembleSummary:
    """Aggregated metrics per system size, plus histogram data."""

    baseline: str
    per_n: dict[int, dict]
    histogram_edges: tuple[float, ...]
    histograms: dict[int, dict[str, tuple[int, ...]]]


def _run_task(args: tuple[ExperimentConfig, int, int, int]) -> RunRecord:
    cfg, record_id, n, index = args
    seed = instance_seed(cfg.master_seed, index)
    inst = generate_instance(n, seed)
    truth = ground_state(inst)
    sched = Schedule(cfg.total_time, cfg.trotter_steps)
    ps: dict[str, float | None] = {}
    wall: dict[str, float] = {}
    entangling: dict[str, int] = {}
    delta: dict[str, float | None] = {}
    exclusions: dict[str, tuple] = {}
    for a_index, tag in enumerate(cfg.ansatz):
        ansatz = Ansatz.parse(tag)
        started = time.perf_counter()
        try:
            report = trotter_evolve(inst, sched, ansatz)
        except SingularGaugeError as exc:
            exclusions[tag] = (exc.site, exc.lam, exc.step)
            ps[tag] = None
            wall[tag] = 0.0
            entangling[tag] = 0
            continue
        elapsed = time.perf_counter() - started
        if cfg.shots is not None:
            counts = sample_shots(
                report.final_state, cfg.shots, instance_seed(seed, a_index)
            )
            ps[tag] = sum(counts.get(s, 0) for s in truth.states) / cfg.shots
        else:
            ps[tag] = success_probability(report.final_state, truth)
        wall[tag] = elapsed * 1e3 if cfg.record_timings else 0.0
        entangling[tag] = report.entangling_total
        if cfg.compute_gaps:
            delta[tag] = gap_curve(inst, sched, ansatz, cfg.gap_samples).delta_min
    return RunRecord(
        instance_id=record_id,
        n=n,
        seed=seed,
        degenerate=truth.degenerate,
        excluded=bool(exclusions),
        ps=ps,
        wall_ms=wall,
        entangling=entangling,
        delta_min=delta,
        exclusions=exclusions,
    )


def check_sweep_budget(cfg: ExperimentConfig) -> None:
    """Refuse, before anything evolves, a sweep whose operator rows break the budget.

    The cost report and the gap curves form each drive's operator rows, and
    ``DrivenHamiltonian.check_rows_budget`` refuses rows above
    ``MEMORY_BUDGET``.  The rows and the step plan depend only on the drive's
    strings, which every generated instance of one size shares, so each
    (size, drive) is checked once, on the sweep's first instance of that size.
    """
    for n in cfg.n_values:
        inst = generate_instance(n, instance_seed(cfg.master_seed, 0))
        for tag in cfg.ansatz:
            DrivenHamiltonian(inst, Ansatz.parse(tag)).check_rows_budget()


def run_ensemble(
    cfg: ExperimentConfig,
    *,
    progress: Callable[[RunRecord], None] | None = None,
) -> list[RunRecord]:
    """Generate, solve, and evolve every configured instance.

    Deterministic for a fixed config regardless of ``jobs``: per-instance
    seeds depend only on (master seed, instance index) and records merge in
    task order.  Gauge singularities mark the record excluded instead of
    aborting the sweep.
    """
    tasks = []
    record_id = 0
    for n in cfg.n_values:
        for index in range(cfg.instances_per_n):
            tasks.append((cfg, record_id, n, index))
            record_id += 1
    records: list[RunRecord] = []
    if cfg.jobs == 1:
        for task in tasks:
            record = _run_task(task)
            if progress is not None:
                progress(record)
            records.append(record)
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for record in pool.map(_run_task, tasks, chunksize=4):
                if progress is not None:
                    progress(record)
                records.append(record)
    return records


def enhancement_metrics(records: Iterable[RunRecord]) -> EnsembleSummary:
    """Per-size averages, enhancement ratios, and success histograms.

    The enhanced fraction counts strict improvement over ``none`` (ties do
    not count).  Ratio means skip records whose baseline probability is
    below ``ZERO_BASELINE_FLOOR``; those skips are tallied separately.
    Excluded records are omitted throughout.
    """
    baseline = "none"
    by_n: dict[int, list[RunRecord]] = {}
    for record in records:
        by_n.setdefault(record.n, []).append(record)

    edges = tuple(float(e) for e in np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1))
    per_n: dict[int, dict] = {}
    histograms: dict[int, dict[str, tuple[int, ...]]] = {}
    for n in sorted(by_n):
        group = [r for r in by_n[n] if not r.excluded]
        tags = list(dict.fromkeys(tag for r in group for tag in r.ps))
        avg_ps = {}
        hist_n = {}
        for tag in tags:
            values = [r.ps[tag] for r in group if r.ps.get(tag) is not None]
            avg_ps[tag] = float(np.mean(values)) if values else None
            counts, _ = np.histogram(values, bins=np.asarray(edges))
            hist_n[tag] = tuple(int(c) for c in counts)
        p_enh_avg: dict[str, float | None] = {}
        r_enh: dict[str, float | None] = {}
        zero_baseline: dict[str, int] = {}
        gap_fraction: dict[str, float | None] = {}
        for tag in tags:
            if tag == baseline:
                continue
            paired = [
                (r.ps[tag], r.ps[baseline])
                for r in group
                if r.ps.get(tag) is not None and r.ps.get(baseline) is not None
            ]
            if paired:
                r_enh[tag] = sum(1 for cd, ad in paired if cd > ad) / len(paired)
                ratios = [cd / ad for cd, ad in paired if ad >= ZERO_BASELINE_FLOOR]
                zero_baseline[tag] = len(paired) - len(ratios)
                p_enh_avg[tag] = float(np.mean(ratios)) if ratios else None
            else:
                r_enh[tag] = None
                p_enh_avg[tag] = None
                zero_baseline[tag] = 0
            gap_pairs = [
                (r.delta_min[tag], r.delta_min[baseline])
                for r in group
                if r.delta_min.get(tag) is not None
                and r.delta_min.get(baseline) is not None
            ]
            gap_fraction[tag] = (
                sum(1 for cd, ad in gap_pairs if cd > ad) / len(gap_pairs)
                if gap_pairs
                else None
            )
        per_n[n] = {
            "records": len(by_n[n]),
            "excluded": sum(1 for r in by_n[n] if r.excluded),
            "avg_ps": avg_ps,
            "p_enh_avg": p_enh_avg,
            "r_enh": r_enh,
            "zero_baseline": zero_baseline,
            "gap_increase_fraction": gap_fraction,
        }
        histograms[n] = hist_n
    return EnsembleSummary(
        baseline=baseline,
        per_n=per_n,
        histogram_edges=edges,
        histograms=histograms,
    )


@dataclass(frozen=True)
class CostRow:
    """Cost accounting for one (system size, ansatz) combination."""

    n: int
    ansatz: str
    entangling_per_step: int
    entangling_total: int
    cd_cost: float | None


def cd_cost(hamiltonian: DrivenHamiltonian, sched: Schedule) -> float:
    """Time-integrated CD norm sum_k dt ||lam_dot_k A(lam_k)|| on the Trotter grid.

    The cost of counterdiabatic protocols in Zheng et al., PRA 94, 042132
    (2016) and Campbell & Deffner, PRL 118, 100601 (2017), taken at the grid
    points the Trotter steps use.  Each drive's structure sets the work:
    local-y is a sum of commuting Y terms on distinct sites, whose norm is
    sum |beta_i|; nc1 is -2 lam_dot alpha(lam) times one fixed operator,
    whose norm is solved once; two-local takes one norm solve per point.
    """
    ansatz, gauge = hamiltonian.ansatz, hamiltonian.gauge
    if not len(gauge.x_masks):
        return 0.0
    _, lams, rates = np.array(sched.grid).T
    if ansatz is Ansatz.NC1:
        live = np.flatnonzero(rates)
        alphas = _nc1_alpha(gauge.nc1_sums, lams[live])
        norms = np.zeros(len(lams))
        norms[live] = np.abs(2.0 * rates[live] * alphas) * cd_norm(hamiltonian, gauge.sources)
    else:
        # One coefficient table per grid, solved in the chunks an evolution
        # uses, so that a long grid's stacked two-local solve stays small.
        chunk = hamiltonian.chunk_steps
        table = np.concatenate(
            [
                cd_coefficients(gauge, ansatz, lams[k : k + chunk], rates[k : k + chunk])
                for k in range(0, len(lams), chunk)
            ]
        )
        if ansatz is Ansatz.LOCAL_Y:
            norms = [float(np.abs(values).sum()) for values in table]
        else:
            norms = [cd_norm(hamiltonian, values) for values in table]
    return sched.dt * float(np.sum(norms))


def cost_report(records: Iterable[RunRecord], cfg: ExperimentConfig) -> list[CostRow]:
    """Entangling-exponential counts and the time-integrated CD cost.

    The CD cost is ``cd_cost`` averaged over up to ``COST_SAMPLES``
    regenerated instances on which the drive was not excluded.
    """
    sched = Schedule(cfg.total_time, cfg.trotter_steps)
    by_key: dict[tuple[int, str], list[RunRecord]] = {}
    for record in records:
        for tag in record.ps:
            by_key.setdefault((record.n, tag), []).append(record)
    regenerate = functools.cache(generate_instance)  # once per sampled (n, seed)
    rows = []
    for (n, tag), group in sorted(by_key.items()):
        ansatz = Ansatz.parse(tag)
        totals = [r.entangling[tag] for r in group if not r.excluded]
        total = int(max(totals)) if totals else 0
        per_step = total // cfg.trotter_steps if total else 0
        # A drive excluded on an instance is singular somewhere on this grid.
        kept = [r for r in group if r.ps[tag] is not None][:COST_SAMPLES]
        costs = [cd_cost(DrivenHamiltonian(regenerate(n, r.seed), ansatz), sched) for r in kept]
        rows.append(CostRow(n, tag, per_step, total, float(np.mean(costs)) if costs else None))
    return rows


def _format_float(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def records_to_csv(records: Iterable[RunRecord], cfg_hash: str) -> str:
    lines = [f"# config_hash={cfg_hash}", _CSV_HEADER]
    for record in records:
        for tag in record.ps:
            lines.append(
                ",".join(
                    (
                        str(record.instance_id),
                        str(record.n),
                        str(record.seed),
                        "true" if record.degenerate else "false",
                        "true" if record.excluded else "false",
                        tag,
                        _format_float(record.ps.get(tag)),
                        _format_float(record.wall_ms.get(tag, 0.0)),
                        str(record.entangling.get(tag, 0)),
                        _format_float(record.delta_min.get(tag)),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def records_from_csv(text: str) -> tuple[list[RunRecord], str | None]:
    """Parse the records CSV back into RunRecord objects.

    Returns the records plus the embedded config hash, if any.  A row that
    repeats an (instance_id, ansatz) pair, or whose n, seed, degenerate or
    excluded field disagrees with its instance's first row, raises
    ``ParameterError`` naming its line.
    """
    cfg_hash: str | None = None
    by_id: dict[int, RunRecord] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "config_hash=" in line:
                cfg_hash = line.split("config_hash=", 1)[1].strip()
            continue
        if not header_seen:
            if line != _CSV_HEADER:
                raise ParameterError(f"line {lineno}: unexpected header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ParameterError(f"line {lineno}: expected 10 fields, got {len(parts)}")
        (
            rid,
            n,
            seed,
            degenerate,
            excluded,
            tag,
            ps,
            wall,
            entangling,
            delta,
        ) = parts
        try:
            rid, n, seed, entangling = int(rid), int(n), int(seed), int(entangling)
            degenerate, excluded = _parse_bool(degenerate), _parse_bool(excluded)
            ps = float(ps) if ps else None
            wall = float(wall) if wall else 0.0
            delta = float(delta) if delta else None
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: malformed field ({exc})")
        instance = (n, seed, degenerate, excluded)
        if rid not in by_id:
            by_id[rid] = RunRecord(rid, *instance, ps={}, wall_ms={}, entangling={}, delta_min={})
        record = by_id[rid]
        if instance != (record.n, record.seed, record.degenerate, record.excluded):
            raise ParameterError(
                f"line {lineno}: instance {rid} disagrees with its first row "
                "on n, seed, degenerate or excluded"
            )
        if tag in record.ps:
            raise ParameterError(f"line {lineno}: instance {rid} repeats ansatz {tag!r}")
        record.ps[tag] = ps
        record.wall_ms[tag] = wall
        record.entangling[tag] = entangling
        if delta is not None:
            record.delta_min[tag] = delta
    return [by_id[k] for k in sorted(by_id)], cfg_hash


def summary_to_dict(summary: EnsembleSummary, cfg_hash: str) -> dict:
    return {
        "config_hash": cfg_hash,
        "tool_version": __version__,
        "baseline": summary.baseline,
        "per_n": {str(n): data for n, data in summary.per_n.items()},
        "histogram_edges": list(summary.histogram_edges),
        "histograms": {
            str(n): {tag: list(counts) for tag, counts in hist.items()}
            for n, hist in summary.histograms.items()
        },
    }


def emit_report(
    summary: EnsembleSummary,
    records: list[RunRecord],
    cfg: ExperimentConfig,
    out_dir: str | Path,
) -> dict[str, Path]:
    """Write records CSV, summary JSON, and plot-ready figure data files.

    Every emitted file embeds the config hash (CSV comment line or JSON
    field).  Returns the written paths keyed by artifact name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_hash = config_hash(cfg)
    paths: dict[str, Path] = {}

    paths["records"] = out / "records.csv"
    paths["records"].write_text(records_to_csv(records, cfg_hash))

    paths["summary"] = out / "summary.json"
    paths["summary"].write_text(
        json.dumps(summary_to_dict(summary, cfg_hash), indent=1, sort_keys=True) + "\n"
    )

    header = f"# config_hash={cfg_hash}\n"

    lines = [header + "n,ansatz,avg_ps"]
    for n, data in sorted(summary.per_n.items()):
        for tag, value in data["avg_ps"].items():
            lines.append(f"{n},{tag},{_format_float(value)}")
    paths["fig_avg_ps_vs_n"] = out / "fig_avg_ps_vs_n.csv"
    paths["fig_avg_ps_vs_n"].write_text("\n".join(lines) + "\n")

    lines = [header + "n,ansatz,bin_lo,bin_hi,count"]
    edges = summary.histogram_edges
    for n, hist in sorted(summary.histograms.items()):
        for tag, counts in hist.items():
            for b, count in enumerate(counts):
                lines.append(f"{n},{tag},{edges[b]!r},{edges[b + 1]!r},{count}")
    paths["fig_ps_histogram"] = out / "fig_ps_histogram.csv"
    paths["fig_ps_histogram"].write_text("\n".join(lines) + "\n")

    lines = [header + "n,ansatz,p_enh_avg,r_enh"]
    for n, data in sorted(summary.per_n.items()):
        for tag in data["r_enh"]:
            lines.append(
                f"{n},{tag},{_format_float(data['p_enh_avg'][tag])},"
                f"{_format_float(data['r_enh'][tag])}"
            )
    paths["fig_enhancement_vs_n"] = out / "fig_enhancement_vs_n.csv"
    paths["fig_enhancement_vs_n"].write_text("\n".join(lines) + "\n")

    lines = [header + "n,instance_id,ansatz,delta_min"]
    for record in records:
        for tag, value in record.delta_min.items():
            if value is not None:
                lines.append(f"{record.n},{record.instance_id},{tag},{value!r}")
    paths["fig_min_gap"] = out / "fig_min_gap.csv"
    paths["fig_min_gap"].write_text("\n".join(lines) + "\n")

    return paths
