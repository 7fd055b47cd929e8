"""Experiment grids: paired attacked/reference runs, summary metrics, a
byte-stable CSV format, and a small self-contained SVG line chart.

Every attacked cell is paired with a reference run whose config differs only
in the attack field, so accuracy drops always compare like with like. The
two compute the same bits until the attack starts, so train_many forks the
attacked run from its reference there rather than train those rounds twice,
and it steps the runs that share their data (a data group: the cells of one
seed, fraction and defense at every cut) as one stack, in lockstep. The
process pool is imported only when a sweep uses more than one process, so a
single run never loads it.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config_text
from .protocol import RoundRecord, Run, data_group, fork_round, train

CSV_HEADER = "mode,model,cut,defense,attack,frac_malicious,seed,acc,acc_attack,acc_drop,gamma_last"

# sweep axis name -> config field it sets
SWEEP_AXES = {
    "cut": "cut",
    "defense": "defense",
    "attack": "attack",
    "frac": "malicious_fraction",
    "seed": "seed",
}

# plot axis name -> the row value a chart groups by
PLOT_AXES = {
    "cut": lambda r: r.cut or "(fl)",
    "frac": lambda r: r.frac_malicious,
    "defense": lambda r: r.defense,
}

FINAL_WINDOW = 10  # evaluation points averaged into the final accuracy


def accuracy_drop(acc: float, acc_attack: float) -> float:
    """Attack efficacy in accuracy points; both inputs are percentages."""
    for name, v in (("acc", acc), ("acc_attack", acc_attack)):
        if not 0.0 <= v <= 100.0:
            raise ValueError(f"{name} must be a percentage in [0, 100], got {v}")
    return acc - acc_attack


def final_accuracy(records: list[RoundRecord]) -> float | None:
    """Mean test accuracy (percent) over the last FINAL_WINDOW evaluations."""
    if not records:
        return None
    tail = records[-FINAL_WINDOW:]
    return 100.0 * float(np.mean([r.test_accuracy for r in tail]))


def last_gamma(records: list[RoundRecord]) -> float | None:
    for r in reversed(records):
        if r.gamma is not None:
            return r.gamma
    return None


@dataclass
class SweepRow:
    mode: str
    model: str
    cut: str           # "" in fl mode
    defense: str
    attack: str
    frac_malicious: float
    seed: int
    acc: float         # reference final accuracy, percent
    acc_attack: float  # attacked final accuracy, percent
    acc_drop: float
    gamma_last: float | None


@dataclass
class SweepResult:
    rows: list[SweepRow]
    skipped: list[tuple[str, str]]  # (cell description, reason)


def _cell_configs(base: ExperimentConfig, axes: dict[str, list]):
    """Expand axes into configs, deterministic product order. Each value is set
    as the config line `field = value`, as --set values are, so text works.
    An axis that would train the same runs twice is a ConfigError: one that
    repeats a value after parsing, or a cut axis in fl mode, which has no cut."""
    for name in axes:
        if name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {name!r}, expected one of {sorted(SWEEP_AXES)}")
    if "cut" in axes and base.mode == "fl":
        raise ConfigError("sweep axis 'cut' has no effect in mode = fl")
    cells = [base]
    for name, values in axes.items():
        field = SWEEP_AXES[name]
        parsed = [getattr(parse_config_text(f"{field} = {v}", base), field)
                  for v in values]
        for i, v in enumerate(parsed):
            if v in parsed[:i]:
                raise ConfigError(f"sweep axis {name!r} repeats the value {v!r}")
        cells = [dataclasses.replace(c, **{field: v}) for c in cells for v in parsed]
    return cells


def _family_rounds(family: tuple[ExperimentConfig, ...]) -> int:
    """The member-rounds a family trains: its root's, and each fork's from
    its fork round on."""
    return family[0].rounds + sum(c.rounds - fork_round(c) for c in family[1:])


def _stack_rounds(stack: list[tuple[ExperimentConfig, ...]]) -> int:
    return sum(map(_family_rounds, stack))


def _train_task(stack: list[tuple[ExperimentConfig, ...]]) -> dict[tuple, list[RoundRecord]]:
    """Train a stack's families in lockstep, each run in its own train() call:
    each family's root is its own Run, its attacked runs fork from it at
    their fork rounds, and the first root's train() steps them all. Returns
    each run's records by its config tuple."""
    roots = [Run(family[0]) for family in stack]
    lead = roots[0]
    lead.join(roots[1:])
    lead.fork_plan = [(root, c) for root, family in zip(roots, stack) for c in family[1:]]
    records = [train(lead)] + [train(run) for run in lead.stack[1:]]
    return {dataclasses.astuple(run.config): r for run, r in zip(lead.stack, records)}


def train_many(configs: list[ExperimentConfig], n_jobs: int = 1) -> list[list[RoundRecord]]:
    """[train(c) for c in configs], each distinct config trained once, on up to
    n_jobs processes. A family is a run and, when it is an attack = none
    reference, every attacked config here that differs from it only in the
    attack: they fork from it at their fork rounds. The families of one data
    group (protocol.data_group: equal but for the cut and the attack) train
    as one stack, in lockstep, every run in its own train() call. Each
    record's wall_ms is the wall time of its stack's round, and a fork's
    records before its fork round are its root's. While there are fewer
    stacks than min(n_jobs, families), the costliest stack of two or more
    families is split by families into two of near-equal member-rounds.
    Stacks are handed out longest first."""
    unique = {dataclasses.astuple(c): c for c in configs}
    families: dict[tuple, list] = {}   # root key -> [root, *forks]
    for key, cfg in unique.items():
        ref = dataclasses.astuple(dataclasses.replace(cfg, attack="none"))
        if cfg.attack != "none" and ref in unique:
            families.setdefault(ref, [unique[ref]]).append(cfg)
        else:
            families.setdefault(key, [cfg])
    groups: dict[tuple, list] = {}
    for family in families.values():
        groups.setdefault(data_group(family[0]), []).append(tuple(family))
    stacks = list(groups.values())
    while len(stacks) < min(n_jobs, len(families)):
        big = max((s for s in stacks if len(s) > 1), key=_stack_rounds)
        stacks.remove(big)
        halves = ([], [])
        for family in sorted(big, key=_family_rounds, reverse=True):
            min(halves, key=lambda h: (_stack_rounds(h), len(h))).append(family)
        stacks += halves
    todo = sorted(stacks, key=_stack_rounds, reverse=True)
    if n_jobs > 1 and len(todo) > 1:
        # imported here: a single run skips loading multiprocessing (~25 ms)
        from concurrent.futures import ProcessPoolExecutor
        # the fork start method launches every worker up front
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(todo))) as pool:
            done = list(pool.map(_train_task, todo))
    else:
        done = map(_train_task, todo)
    history = {key: records for part in done for key, records in part.items()}
    return [history[dataclasses.astuple(c)] for c in configs]


def run_sweep(base: ExperimentConfig, axes: dict[str, list],
              n_jobs: int = 1) -> SweepResult:
    """Run every cell of the grid with its paired no-attack reference.

    The cells and references are trained by train_many on n_jobs processes:
    identical configs once (an attack=none cell is its own reference), and
    each attacked run forked from its reference where their rounds agree.
    """
    cells = _cell_configs(base, axes)
    skipped: list[tuple[str, str]] = []
    pairs = []  # (cell config, reference config)
    for cfg in cells:
        desc = (f"mode={cfg.mode} cut={cfg.cut} defense={cfg.defense} "
                f"attack={cfg.attack} frac={cfg.malicious_fraction} seed={cfg.seed}")
        try:
            cfg.validate()
        except ConfigError as e:
            skipped.append((desc, str(e)))
            continue
        pairs.append((cfg, dataclasses.replace(cfg, attack="none")))
    histories = train_many([c for pair in pairs for c in pair], n_jobs)
    rows = []
    for (cfg, _), hist, ref_hist in zip(pairs, histories[::2], histories[1::2]):
        acc = final_accuracy(ref_hist)
        acc_attack = final_accuracy(hist)
        if acc is None or acc_attack is None:
            continue  # zero-round runs produce no summary row
        rows.append(SweepRow(
            mode=cfg.mode, model=cfg.model,
            cut=cfg.cut if cfg.mode == "splitfed" else "",
            defense=cfg.defense, attack=cfg.attack,
            frac_malicious=cfg.malicious_fraction, seed=cfg.seed,
            acc=acc, acc_attack=acc_attack,
            acc_drop=accuracy_drop(acc, acc_attack),
            gamma_last=last_gamma(hist)))
    return SweepResult(rows, skipped)


def _row_key(r: SweepRow):
    return (r.mode, r.cut, r.defense, r.frac_malicious, r.seed, r.model, r.attack)


def write_results(result: SweepResult, path: str) -> None:
    """Byte-stable CSV: fixed header, 4-decimal floats, sorted rows, \\n ends."""
    lines = [CSV_HEADER]
    for r in sorted(result.rows, key=_row_key):
        gamma = "" if r.gamma_last is None else f"{r.gamma_last:.4f}"
        lines.append(",".join([
            r.mode, r.model, r.cut, r.defense, r.attack,
            f"{r.frac_malicious:.4f}", str(r.seed),
            f"{r.acc:.4f}", f"{r.acc_attack:.4f}", f"{r.acc_drop:.4f}", gamma,
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_results(path: str) -> list[SweepRow]:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} is not a results CSV (bad header)")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 11:
            raise ValueError(f"{path}: bad row {ln!r}")
        rows.append(SweepRow(
            mode=parts[0], model=parts[1], cut=parts[2], defense=parts[3],
            attack=parts[4], frac_malicious=float(parts[5]), seed=int(parts[6]),
            acc=float(parts[7]), acc_attack=float(parts[8]),
            acc_drop=float(parts[9]),
            gamma_last=float(parts[10]) if parts[10] else None))
    return rows


# ---------------------------------------------------------------------------
# plotting (plain SVG, no external dependencies)

def choose_sweep_axis(rows: list[SweepRow]) -> str:
    """First of the PLOT_AXES that actually varies across the rows."""
    for axis, get in PLOT_AXES.items():
        if len({get(r) for r in rows}) > 1:
            return axis
    return "cut"


def plot_drop_curve(rows: list[SweepRow], axis: str, out_path: str) -> None:
    """Mean acc_drop (over seeds/other fields) against one sweep axis, as a
    self-contained SVG line chart. The y axis starts at 0, or below the
    lowest mean when a mean is negative (an attacked run beat its reference),
    with a dashed line at 0."""
    if not rows:
        raise ValueError("no rows to plot")
    if axis not in PLOT_AXES:
        raise ValueError(f"unknown plot axis {axis!r}")
    groups: dict[object, list[float]] = {}
    for r in rows:
        groups.setdefault(PLOT_AXES[axis](r), []).append(r.acc_drop)
    xs = sorted(groups)
    ys = [float(np.mean(groups[x])) for x in xs]
    w, h, ml, mr, mt, mb = 640, 420, 60, 20, 40, 50
    pw, ph = w - ml - mr, h - mt - mb
    ymax = max(5.0, max(ys) * 1.15)
    ymin = min(0.0, min(ys) * 1.15)
    def px(i): return ml + (pw * i / max(1, len(xs) - 1))
    def py(v): return mt + ph * (1 - (v - ymin) / (ymax - ymin))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" font-size="15">accuracy drop</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
    ]
    if ymin < 0:
        parts.append(f'<line x1="{ml}" y1="{py(0):.1f}" x2="{ml + pw}" y2="{py(0):.1f}" '
                     f'stroke="#888" stroke-dasharray="4 3"/>')
    for t in range(5):
        v = ymin + (ymax - ymin) * t / 4
        parts.append(f'<line x1="{ml - 4}" y1="{py(v):.1f}" x2="{ml}" y2="{py(v):.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(v) + 4:.1f}" '
                     f'text-anchor="end">{v:.1f}</text>')
    for i, x in enumerate(xs):
        label = f"{x:.2f}" if isinstance(x, float) else str(x)
        parts.append(f'<text x="{px(i):.1f}" y="{mt + ph + 18}" '
                     f'text-anchor="middle">{label}</text>')
    pts = " ".join(f"{px(i):.1f},{py(y):.1f}" for i, y in enumerate(ys))
    if len(xs) > 1:
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#0a6" '
                     f'stroke-width="2"/>')
    for i, y in enumerate(ys):
        parts.append(f'<circle cx="{px(i):.1f}" cy="{py(y):.1f}" r="4" fill="#0a6"/>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{h - 12}" '
                 f'text-anchor="middle">{axis}</text>')
    parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {mt + ph / 2:.1f})">accuracy drop (points)</text>')
    parts.append('</svg>')
    with open(out_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
