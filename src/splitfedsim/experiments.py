"""Experiment grids: paired attacked/reference runs, summary metrics, a
byte-stable CSV format, and a small self-contained SVG line chart.

Every attacked cell is paired with a reference run whose config differs only
in the attack field, so accuracy drops always compare like with like.
"""
from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig
from .protocol import RoundRecord, train

CSV_HEADER = "mode,model,cut,defense,attack,frac_malicious,seed,acc,acc_attack,acc_drop,gamma_last"

# sweep axis name -> config field it sets
SWEEP_AXES = {
    "cut": "cut",
    "defense": "defense",
    "attack": "attack",
    "frac": "malicious_fraction",
    "seed": "seed",
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
    """Expand axes into configs, deterministic product order."""
    for name in axes:
        if name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {name!r}, expected one of {sorted(SWEEP_AXES)}")
    cells = [base]
    for name, values in axes.items():
        field = SWEEP_AXES[name]
        cells = [dataclasses.replace(c, **{field: v}) for c in cells for v in values]
    return cells


def run_sweep(base: ExperimentConfig, axes: dict[str, list],
              n_jobs: int = 1) -> SweepResult:
    """Run every cell of the grid with its paired no-attack reference.

    Identical configs are run once and shared (an attack=none cell is its own
    reference). n_jobs > 1 distributes the unique runs over processes; results
    are merged in a fixed order either way.
    """
    cells = _cell_configs(base, axes)
    skipped: list[tuple[str, str]] = []
    pairs = []  # (cell config, reference config)
    unique: dict[tuple, ExperimentConfig] = {}
    for cfg in cells:
        desc = (f"mode={cfg.mode} cut={cfg.cut} defense={cfg.defense} "
                f"attack={cfg.attack} frac={cfg.malicious_fraction} seed={cfg.seed}")
        try:
            cfg.validate()
        except ConfigError as e:
            skipped.append((desc, str(e)))
            continue
        ref = dataclasses.replace(cfg, attack="none")
        pairs.append((cfg, ref))
        unique.setdefault(dataclasses.astuple(cfg), cfg)
        unique.setdefault(dataclasses.astuple(ref), ref)
    keys = sorted(unique)
    configs = [unique[k] for k in keys]
    if n_jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            histories = list(pool.map(train, configs))
    else:
        histories = [train(c) for c in configs]
    by_key = dict(zip(keys, histories))
    rows = []
    for cfg, ref in pairs:
        hist = by_key[dataclasses.astuple(cfg)]
        ref_hist = by_key[dataclasses.astuple(ref)]
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
    """First of cut/frac/defense that actually varies across the rows."""
    for axis, get in (("cut", lambda r: r.cut),
                      ("frac", lambda r: r.frac_malicious),
                      ("defense", lambda r: r.defense)):
        if len({get(r) for r in rows}) > 1:
            return axis
    return "cut"


def plot_drop_curve(rows: list[SweepRow], axis: str, out_path: str,
                    title: str = "accuracy drop") -> None:
    """Mean acc_drop (over seeds/other fields) against one sweep axis, as a
    self-contained SVG line chart."""
    if not rows:
        raise ValueError("no rows to plot")
    getters = {"cut": lambda r: r.cut or "(fl)",
               "frac": lambda r: r.frac_malicious,
               "defense": lambda r: r.defense}
    if axis not in getters:
        raise ValueError(f"unknown plot axis {axis!r}")
    get = getters[axis]
    groups: dict[object, list[float]] = {}
    for r in rows:
        groups.setdefault(get(r), []).append(r.acc_drop)
    xs = sorted(groups)
    ys = [float(np.mean(groups[x])) for x in xs]
    w, h, ml, mr, mt, mb = 640, 420, 60, 20, 40, 50
    pw, ph = w - ml - mr, h - mt - mb
    ymax = max(5.0, max(ys) * 1.15)
    def px(i): return ml + (pw * i / max(1, len(xs) - 1))
    def py(v): return mt + ph * (1 - v / ymax)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
    ]
    for t in range(5):
        v = ymax * t / 4
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
