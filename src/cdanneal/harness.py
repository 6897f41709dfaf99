"""Experiment orchestration: seeded ensembles, enhancement metrics, reports.

The whole pipeline is a reproducibility instrument: every instance seed is a
pure function of (master seed, instance index), records are merged in task
order regardless of worker count, and emitted files embed the configuration
hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
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

#: The cost report averages each drive's CD cost over the first this many
#: records of a size on which that drive was not excluded.
COST_SAMPLES = 5

_CSV_HEADER = (
    "instance_id,n,seed,degenerate,excluded,ansatz,P_s,wall_ms,"
    "entangling_count,delta_min"
)


def _format_float(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _hashed_csv(cfg_hash: str, header: str, rows: Iterable[str]) -> str:
    """Every CSV a sweep writes: its config hash line, its header, one line per row."""
    return "\n".join([f"# config_hash={cfg_hash}", header, *rows]) + "\n"


def _sorted_json(payload) -> str:
    """Every JSON file the tool writes with sorted keys, one space of indent."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


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

    def __post_init__(self):
        wrong = [name for name, ok in _FIELD_TYPES.items() if not ok(getattr(self, name))]
        if wrong:
            raise ParameterError(f"wrongly typed config fields {wrong}")
        # An int would reach config_hash as 1, not 1.0: one protocol, two hashes.
        object.__setattr__(self, "total_time", float(self.total_time))
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
        kwargs = dict(payload)
        # Config files written before timing capture was removed carry this
        # key, always false on a byte-reproducible run; true stays unknown.
        if kwargs.get("record_timings") is False:
            del kwargs["record_timings"]
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ParameterError(f"unknown config fields {sorted(unknown)}")
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
        Path(path).write_text(_sorted_json(self.to_dict()))


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
    entangling: dict[str, int] = {}
    delta: dict[str, float | None] = {}
    exclusions: dict[str, tuple] = {}
    for a_index, tag in enumerate(cfg.ansatz):
        ansatz = Ansatz.parse(tag)
        try:
            report = trotter_evolve(inst, sched, ansatz)
        except SingularGaugeError as exc:
            exclusions[tag] = (exc.site, exc.lam, exc.step)
            ps[tag] = None
            entangling[tag] = 0
            continue
        if cfg.shots is not None:
            counts = sample_shots(
                report.final_state, cfg.shots, instance_seed(seed, a_index)
            )
            ps[tag] = sum(counts.get(s, 0) for s in truth.states) / cfg.shots
        else:
            ps[tag] = success_probability(report.final_state, truth)
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


def _map_in_order(fn: Callable, tasks: list, jobs: int) -> Iterable:
    """``map(fn, tasks)`` on at most ``jobs`` workers, but no more than tasks or usable CPUs."""
    # A fork pool starts all its workers at the first submit.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # Only a pool needs the process machinery, so only a pool imports it.
    from concurrent.futures import ProcessPoolExecutor

    # Up to four tasks a chunk, and four chunks or more a worker, so that a
    # handful of long tasks still spreads across the workers.
    chunksize = min(4, max(1, len(tasks) // (4 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks, chunksize=chunksize)


def run_ensemble(
    cfg: ExperimentConfig,
    *,
    progress: Callable[[RunRecord], None] | None = None,
) -> list[RunRecord]:
    """Generate, solve, and evolve every configured instance.

    Deterministic for a fixed config regardless of ``jobs``: per-instance
    seeds depend only on (master seed, instance index) and records merge in
    task order.  ``jobs`` is an upper bound: no more workers start than there
    are tasks or CPUs this process may run on, and one runs serially.  Gauge
    singularities mark the record excluded instead of aborting the sweep.
    """
    tasks = []
    record_id = 0
    for n in cfg.n_values:
        for index in range(cfg.instances_per_n):
            tasks.append((cfg, record_id, n, index))
            record_id += 1
    records: list[RunRecord] = []
    for record in _map_in_order(_run_task, tasks, cfg.jobs):
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


def _cost_task(args: tuple[ExperimentConfig, int, int, list[str]]) -> tuple[int, int, dict]:
    cfg, n, seed, tags = args
    inst = generate_instance(n, seed)
    sched = Schedule(cfg.total_time, cfg.trotter_steps)
    costs = {tag: cd_cost(DrivenHamiltonian(inst, Ansatz.parse(tag)), sched) for tag in tags}
    return n, seed, costs


def cost_report(
    records: Iterable[RunRecord],
    cfg: ExperimentConfig,
    *,
    progress: Callable[[int, int, int, int], None] | None = None,
) -> list[CostRow]:
    """Entangling-exponential counts and the time-integrated CD cost.

    The CD cost is ``cd_cost`` averaged over the first ``COST_SAMPLES``
    records of each (size, drive) on which the drive was not excluded.  Each
    sampled instance is one task on the sweep's workers, in record order:
    it is regenerated once for all of its sampled drives.
    ``progress(n, seed, k, K)`` follows the k-th of K finished tasks.
    """
    records = list(records)
    by_key: dict[tuple[int, str], list[RunRecord]] = {}
    for record in records:
        for tag in record.ps:
            by_key.setdefault((record.n, tag), []).append(record)
    # A drive excluded on an instance is singular somewhere on this grid.
    kept = {
        (n, tag): [r.seed for r in group if r.ps[tag] is not None][:COST_SAMPLES]
        for (n, tag), group in by_key.items()
    }
    tasks = [(cfg, r.n, r.seed, [t for t in r.ps if r.seed in kept[r.n, t]]) for r in records]
    tasks = [task for task in tasks if task[3]]
    costs = {}
    for k, (n, seed, result) in enumerate(_map_in_order(_cost_task, tasks, cfg.jobs), 1):
        costs[n, seed] = result
        if progress is not None:
            progress(n, seed, k, len(tasks))
    rows = []
    for (n, tag), group in sorted(by_key.items()):
        totals = [r.entangling[tag] for r in group if not r.excluded]
        total = int(max(totals)) if totals else 0
        per_step = total // cfg.trotter_steps if total else 0
        sampled = [costs[n, seed][tag] for seed in kept[n, tag]]
        rows.append(CostRow(n, tag, per_step, total, float(np.mean(sampled)) if sampled else None))
    return rows


def records_to_csv(records: Iterable[RunRecord], cfg_hash: str) -> str:
    rows = (
        f"{r.instance_id},{r.n},{r.seed},{str(r.degenerate).lower()},{str(r.excluded).lower()},"
        f"{tag},{_format_float(r.ps.get(tag))},0.0,{r.entangling.get(tag, 0)},"
        f"{_format_float(r.delta_min.get(tag))}"
        for r in records
        for tag in r.ps
    )
    return _hashed_csv(cfg_hash, _CSV_HEADER, rows)


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def records_from_csv(text: str) -> tuple[list[RunRecord], str | None]:
    """Parse the records CSV back into RunRecord objects.

    Returns the records plus the embedded config hash, if any.  A row with
    an unknown drive, a value no run writes (n outside [1, ``STATEVECTOR_CAP``],
    a negative instance_id, seed or count, P_s outside [0, 1 + 1e-9], the
    slack of the unitarity bound, an empty P_s on an instance not excluded,
    a negative or infinite delta_min, a NaN), a repeated (instance_id,
    ansatz) pair, or an n, seed, degenerate or excluded field
    that disagrees with its instance's first row raises ``ParameterError``
    naming its line.  wall_ms, always 0.0 since timing capture was removed,
    is parsed and dropped.
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
            Ansatz(tag)
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: malformed field ({exc})")
        # A NaN fails every comparison, so each range check refuses it.
        for ok, what in (
            (1 <= n <= STATEVECTOR_CAP, f"n={n} outside [1, {STATEVECTOR_CAP}]"),
            (
                rid >= 0 and seed >= 0 and entangling >= 0,
                "negative instance_id, seed or entangling_count",
            ),
            (ps is None or 0.0 <= ps <= 1.0 + 1e-9, f"P_s={ps} outside [0, 1]"),
            # Only a drive excluded on a singular gauge leaves P_s empty.
            (ps is not None or excluded, "empty P_s on an instance not excluded"),
            (delta is None or 0.0 <= delta < np.inf, f"delta_min={delta} negative or not finite"),
            (np.isfinite(wall), f"wall_ms={wall} not finite"),
        ):
            if not ok:
                raise ParameterError(f"line {lineno}: {what}")
        instance = (n, seed, degenerate, excluded)
        if rid not in by_id:
            by_id[rid] = RunRecord(rid, *instance, ps={}, entangling={}, delta_min={})
        record = by_id[rid]
        if instance != (record.n, record.seed, record.degenerate, record.excluded):
            raise ParameterError(
                f"line {lineno}: instance {rid} disagrees with its first row "
                "on n, seed, degenerate or excluded"
            )
        if tag in record.ps:
            raise ParameterError(f"line {lineno}: instance {rid} repeats ansatz {tag!r}")
        record.ps[tag] = ps
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
    paths = {"records": out / "records.csv", "summary": out / "summary.json"}
    paths["records"].write_text(records_to_csv(records, cfg_hash))
    paths["summary"].write_text(_sorted_json(summary_to_dict(summary, cfg_hash)))
    per_n, edges = sorted(summary.per_n.items()), summary.histogram_edges
    figures = {
        "fig_avg_ps_vs_n": (
            "n,ansatz,avg_ps",
            (
                f"{n},{tag},{_format_float(value)}"
                for n, data in per_n
                for tag, value in data["avg_ps"].items()
            ),
        ),
        "fig_ps_histogram": (
            "n,ansatz,bin_lo,bin_hi,count",
            (
                f"{n},{tag},{edges[b]!r},{edges[b + 1]!r},{count}"
                for n, hist in sorted(summary.histograms.items())
                for tag, counts in hist.items()
                for b, count in enumerate(counts)
            ),
        ),
        "fig_enhancement_vs_n": (
            "n,ansatz,p_enh_avg,r_enh",
            (
                f"{n},{tag},{_format_float(data['p_enh_avg'][tag])},{_format_float(value)}"
                for n, data in per_n
                for tag, value in data["r_enh"].items()
            ),
        ),
        "fig_min_gap": (
            "n,instance_id,ansatz,delta_min",
            (
                f"{r.n},{r.instance_id},{tag},{value!r}"
                for r in records
                for tag, value in r.delta_min.items()
                if value is not None
            ),
        ),
    }
    for name, (header, rows) in figures.items():
        paths[name] = out / f"{name}.csv"
        paths[name].write_text(_hashed_csv(cfg_hash, header, rows))
    return paths


def emit_sweep(
    summary: EnsembleSummary,
    records: list[RunRecord],
    cfg: ExperimentConfig,
    out_dir: str | Path,
    *,
    progress: Callable[[int, int, int, int], None] | None = None,
) -> dict[str, Path]:
    """Write every file of a sweep: ``emit_report``'s, ``config.json`` and ``cost_report.csv``.

    ``progress`` follows the cost report's tasks, as in ``cost_report``.
    Returns the written paths keyed by file stem.
    """
    paths = emit_report(summary, records, cfg, out_dir)
    paths["config"] = Path(out_dir) / "config.json"
    cfg.to_file(paths["config"])
    header = "n,ansatz,entangling_per_step,entangling_total,cd_cost"
    rows = (
        f"{row.n},{row.ansatz},{row.entangling_per_step},{row.entangling_total},"
        f"{_format_float(row.cd_cost)}"
        for row in cost_report(records, cfg, progress=progress)
    )
    paths["cost_report"] = Path(out_dir) / "cost_report.csv"
    paths["cost_report"].write_text(_hashed_csv(config_hash(cfg), header, rows))
    return paths
