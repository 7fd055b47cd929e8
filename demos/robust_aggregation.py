"""Poke at the aggregation rules with a crafted update.

One attacker who can read everyone's updates submits mean + gamma * p for a
perturbation direction p and a magnitude gamma of their choosing. Against a
plain average the damage grows linearly with gamma forever. Trimming and the
median cap it: past some gamma the crafted rows become the extremes that get
discarded, and the deviation flattens onto a plateau. The halving search
rides that plateau and reports the largest gamma that still works.
"""
import numpy as np

from splitfedsim.aggregation import AggregationRule, aggregate
from splitfedsim.attacks import BenignColumns, agr_deviation, gamma_search


def main():
    rng = np.random.default_rng(11)
    benign = rng.normal(size=(8, 4))  # 8 honest clients, 4 dimensions
    m = 2                             # attacker controls 2 extra rows

    print(f"{benign.shape[0]} honest updates, {m} crafted rows, "
          f"perturbation = -std per dimension")
    cols = BenignColumns(benign)
    print(f"benign mean:      {np.array_str(cols.mean, precision=3)}")
    print(f"perturbation p:   {np.array_str(cols.perturbation('std'), precision=3)}")
    print()

    rules = {
        "fedavg": AggregationRule("fedavg"),
        "trmean": AggregationRule("trmean", trim_count=m),
        "median": AggregationRule("median"),
    }
    for name, rule in rules.items():
        print(f"{name}: clean aggregate "
              f"{np.array_str(aggregate(rule, benign), precision=3)}")
    print()

    print("deviation of the attacked aggregate from the benign mean:")
    gammas = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    header = "  gamma   " + "".join(f"{g:>8.1f}" for g in gammas)
    print(header)
    for name, rule in rules.items():
        devs = [agr_deviation(benign, m, "std", g, rule) for g in gammas]
        print(f"  {name:<8}" + "".join(f"{d:>8.3f}" for d in devs))
    print()
    print("fedavg grows without bound; the robust rules hit a plateau once")
    print("every crafted row is the trimmed / out-voted extreme")
    print()

    for name in ("trmean", "median"):
        res = gamma_search(benign, m, "std", rules[name], gamma_init=10.0, tau=1e-5)
        print(f"halving search vs {name}: gamma {res.gamma:.4f}, "
              f"deviation {res.deviation:.4f} ({res.evaluations} evaluations)")


if __name__ == "__main__":
    main()
