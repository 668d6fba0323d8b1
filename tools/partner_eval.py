"""Episode outcomes of the Robotic Partner of acceptance criterion 6.

Trains criterion 6's two partner models (5 demonstrations, seed 0, whose
scripts use episode seeds 0-4) and runs closed-loop episodes:

* the 306 episodes of the peg-episodes benchmark workload: workload seeds
  0-99, 207 and 303, three episodes k each, seeded as run-peg seeds them:
  pegsim.episode_seed(workload seed, k);
* episode seeds 5-104, whose scripts are disjoint from the demonstrations';
* criterion 6's window, episode seeds 0-19, and the next one, 20-39.

An episode is clean when it completes with a handover error within the
grasp radius.  The script prints the training counts of both models, the
misses of the 306 episodes as (workload seed, k, phase), the clean counts
of the other sets, and one SHA-256 over every episode trace, in the order
the episodes ran.  It takes about 2 minutes on one core.  Changes that
move the partner's models are judged by this output, before and after,
instead of by byte identity of the models; a change meant to keep the
partner bit for bit is judged by the digest line alone.

    python3 tools/partner_eval.py
"""
import hashlib
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from it2pf import identify, pegsim  # noqa: E402

RP = pegsim.PegRunConfig()  # criterion 6's world, demonstrations and recipe
WORKLOAD_SEEDS = list(range(100)) + [207, 303]
DISJOINT = range(5, 105)
WINDOWS = (range(0, 20), range(20, 40))


def main():
    t0 = time.perf_counter()
    world = RP.world
    mt, ga = pegsim.record_demonstrations(world, RP.n_demos, seed=0)
    config = RP.train_config(identify.TrainConfig())
    models = []
    for name, data in (("motion", mt), ("gripper", ga)):
        model, rep = identify.train(data, config)
        models.append(model)
        print(f"{name}: {model.p} rules ({rep.dropped_rules} dropped), "
              f"IRLS iterations {sum(rep.rule_iterations)}, "
              f"capped {sum(rep.irls_capped)}, SVD steps "
              f"{sum(rep.svd_steps)}")
    controller = pegsim.RPController(*models, tau=RP.tau)
    outcomes = {}
    digest = hashlib.sha256()

    def episode(seed):
        if seed not in outcomes:
            left, _ = pegsim.build_scripts(world, seed=seed)
            rep = pegsim.run_episode(world, left, controller, seed=seed)
            for key in sorted(rep.trace):
                digest.update(key.encode())
                digest.update(np.ascontiguousarray(rep.trace[key]).tobytes())
            clean = rep.completed and rep.handover_error <= world.grasp_radius
            outcomes[seed] = (clean, rep.phase, rep.completion_time)
        return outcomes[seed]

    workload = [(s, k, episode(pegsim.episode_seed(s, k)))
                for s in WORKLOAD_SEEDS for k in range(3)]
    misses = [(s, k, phase) for s, k, (clean, phase, _) in workload
              if not clean]
    print(f"workload episodes: {3 * len(WORKLOAD_SEEDS) - len(misses)}/"
          f"{3 * len(WORKLOAD_SEEDS)} clean; misses (seed, k, phase): "
          + (", ".join(f"({s},{k},{ph})" for s, k, ph in misses) or "none"))
    for label, seeds in [("disjoint scripts", DISJOINT)] + [
            ("criterion-6 window", w) for w in WINDOWS]:
        clean = [episode(s)[2] for s in seeds if episode(s)[0]]
        missed = [f"{s} ({episode(s)[1]})" for s in seeds
                  if not episode(s)[0]]
        mean = f"{np.mean(clean):.2f} s" if clean else "-"
        print(f"{label} {seeds.start}-{seeds.stop - 1}: "
              f"{len(clean)}/{len(seeds)} clean, mean completion {mean}; "
              f"misses: {', '.join(missed) or 'none'}")
    print(f"trace sha256 over {len(outcomes)} episodes: "
          f"{digest.hexdigest()}")
    print(f"elapsed {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()
