"""Sweep the cut layer and watch the attack surface grow.

The federated server only aggregates - and the attacker only corrupts - the
client-side portion of the model. Moving the cut deeper hands the attacker
more parameters: 288 of 1940 at v1, 1344 at v2, 1872 at v3. This sweep runs
the same poisoned experiment at each cut, on two worker processes, writes the
standard results CSV, and draws the accuracy-drop curve as an SVG.
"""
from splitfedsim.config import ExperimentConfig
from splitfedsim.experiments import plot_drop_curve, read_results, run_sweep, write_results

CSV_PATH = "cut_sweep.csv"
SVG_PATH = "cut_sweep.svg"


def main():
    base = ExperimentConfig(defense="trmean", attack="agropt").validate()
    print("sweeping cut in {v1, v2, v3}, trmean defense, 20% malicious, seed 42")
    result = run_sweep(base, {"cut": ["v1", "v2", "v3"]}, n_jobs=2)
    for desc, reason in result.skipped:
        print(f"  skipped {desc}: {reason}")

    write_results(result, CSV_PATH)
    rows = read_results(CSV_PATH)
    print(f"wrote {CSV_PATH} ({len(rows)} rows)")
    print()
    print("  cut   clean    attacked   drop")
    for row in rows:
        print(f"  {row.cut:<4}  {row.acc:>6.2f}   {row.acc_attack:>7.2f}  "
              f"{row.acc_drop:>6.2f}")

    plot_drop_curve(rows, "cut", SVG_PATH)
    print()
    print(f"drew {SVG_PATH} - open it in a browser")
    print("the deeper the cut, the more of the model the crafted rows own;")
    print("v1 barely moves while v2/v3 lose double digits (their ordering")
    print("wobbles seed to seed - average a few seeds before reading tea leaves)")


if __name__ == "__main__":
    main()
