"""One federated experiment, strategy by strategy.

Each source domain is a client; the server owns the parameters, collects
one gradient-shaped update per client per round, aggregates with the
configured strategy, and applies a single SGD step.  Everything is keyed
off the run seed, so rerunning any line of this script reproduces it
bit for bit.
"""

from fedalign import (
    FedConfig,
    LrDecay,
    ModelSpec,
    SyntheticSpec,
    generate,
    run_experiment,
)

suite = generate(SyntheticSpec(samples_per_domain=200, seed=0))
model = ModelSpec(input_dim=2, hidden_dim=8, num_classes=2, activation="relu")
schedule = dict(rounds=150, batch_size=2, lr=0.2, lr_decay=LrDecay(100, 10.0), seed=0)

print(f"target domain: dom3 (train on dom0..dom2)\n")
print(f"{'strategy':>8}  {'target acc':>10}  {'target loss':>11}  {'conflict rounds':>15}")
for strategy in ("deepall", "fedavg", "fedprox", "aligned"):
    cfg = FedConfig(strategy=strategy, **schedule)
    result = run_experiment(suite, "dom3", model, cfg)
    s = result.summary()
    print(f"{strategy:>8}  {s['final_target_accuracy']:>10.4f}  "
          f"{s['final_target_loss']:>11.4f}  {s['conflict_round_fraction']:>14.0%}")

# Peek inside a single aligned run: the per-round record keeps the round's
# original gradients and the pair loop's decisions, so trajectories are
# inspectable after the fact; the spread and the pairs' inner products
# below are computed as they are read.
result = run_experiment(suite, "dom3", model, FedConfig(strategy="aligned", **schedule))
r = result.records[10]
print(f"\nround {r.round}: lr={r.lr}, conflicts={r.aggregation.num_conflicts}, "
      f"gradient spread {r.aggregation.variance_before:.3f} -> "
      f"{r.aggregation.variance_after:.3f}")
agg = r.aggregation
ids = agg.client_ids
first = zip(agg.tested_pairs[:3].tolist(), agg.pair_dots[:3].tolist())
print(f"tested pairs: {[(ids[i], ids[j], round(v, 3)) for (i, j), v in first]} ...")
print(f"replay digest: {result.params_digest()[:16]}… (stable across reruns)")
