"""One CLI run in a fresh interpreter, as the benchmark spawns it.

    python3 child.py --ready FILE [--trace FILE] [--morozov-sample N --seed S
                     --config CFG --data DATA] [--setup-only] -- <nfem arguments>

Writes the monotonic time at which ``nfem.cli`` is imported and ready to
dispatch to the ``--ready`` file, then runs ``nfem.cli.main`` on the given
arguments and exits with its code.  With ``--trace`` the public functions
listed in ``tracer.TARGETS`` are wrapped before the run, and the spans, the
peak resident set and the Morozov sample are written to the trace file when
the run ends.
"""

import argparse
import json
import resource
import sys
import time


def morozov_flagged(config_path, data_path, n_points, seed):
    """Flagged share of the public morozov_alpha on a seeded sample of active
    lattice points of the reconstruct run; returns (flagged, sampled)."""
    import numpy as np
    from nfem.config import load_config
    from nfem.lsm import build_sampling_grid, morozov_alpha, rhs_vector, svd_factorize
    from nfem.measurement import read_nearfield

    cfg = load_config(config_path)
    matrix, k = read_nearfield(data_path)
    lattice = build_sampling_grid(np.asarray(cfg.box).reshape(3, 2), cfg.spacing,
                                  cfg.mask_radius)
    active = np.nonzero(lattice.active)[0]
    rng = np.random.default_rng(seed)
    picked = rng.choice(active, size=min(n_points, active.size), replace=False)
    svd = svd_factorize(matrix, k=k)
    pol = np.asarray(cfg.polarization)
    flagged = 0
    for z in lattice.points[np.sort(picked)]:
        b = rhs_vector(z, pol, matrix.grid, k)
        flagged += morozov_alpha(svd, b, matrix.noise_level)[1]
    return int(flagged), int(picked.size)


def main(argv):
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--morozov-sample", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config")
    parser.add_argument("--data")
    opts = parser.parse_args(argv[:split])

    recorder = None
    if opts.trace:
        import tracer

        recorder = tracer.Recorder()
    import_start = time.monotonic()
    import nfem.cli

    ready = time.monotonic()
    with open(opts.ready, "w") as f:
        json.dump({"import_start": import_start, "ready": ready}, f)
    if opts.setup_only:
        return 0
    if recorder is None:
        return nfem.cli.main(argv[split + 1:])

    recorder.add("cli.import", import_start, ready)
    recorder.install()
    extra = {}
    try:
        return nfem.cli.main(argv[split + 1:])
    finally:
        recorder.enabled = False
        extra["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if opts.morozov_sample:
            try:
                extra["morozov"] = morozov_flagged(
                    opts.config, opts.data, opts.morozov_sample, opts.seed)
            except (ImportError, AttributeError, TypeError) as exc:
                extra["morozov_error"] = repr(exc)
        recorder.dump(opts.trace, **extra)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
