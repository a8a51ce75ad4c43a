#!/usr/bin/env python3
"""Survey the bundled germs: fiber topology, link evidence, certificates.

Prints one block per germ. Useful as a smoke test after touching the
clustering or certification code, and as a worked example of the API.
"""

import pathlib
import sys
import time

from tubeplan import (
    brieskorn_germ,
    certify_sec,
    certify_tc,
    hopf_germ,
    power_germ,
    product_germ,
    regularity_probe,
    sample_fiber,
    sample_link,
    tube_fibration,
)

SEED = 42
N_SEEDS = 1500


def fmt_range(cert):
    s = f"[{cert.lower}, {cert.upper}]"
    if cert.exact is not None:
        s += f" = {cert.exact}"
    return s


def survey_germ(germ):
    wm = tube_fibration(germ)
    t0 = time.perf_counter()
    fiber = sample_fiber(germ, n_seeds=N_SEEDS, seed=SEED)
    link = sample_link(germ, n_seeds=500, seed=SEED)
    probe = regularity_probe(germ, n_samples=1000, seed=SEED)
    tc = certify_tc(germ)
    sec = certify_sec(germ, fiber_components=fiber.n_components)
    dt = time.perf_counter() - t0

    print(f"== {germ.name}  (C^{germ.ncx} -> C, weights {germ.weights}, degree {germ.degree})")
    print(f"   tube radius eta = {wm.eta:.6g}")
    print(f"   fiber: {fiber.n_components} component(s) from {fiber.n_converged}/{N_SEEDS} seeds,"
          f" merge radius {fiber.radius:.3g}")
    print(f"   link evidence: {link.evidence} ({link.points.shape[0]} points)")
    print(f"   regularity probe: {probe.verdict} (min |df| on S_eps"
          f" {probe.min_boundary_gradient:.3g}, bound {probe.transversality_bound:.3g})")
    print(f"   TC(f|): {fmt_range(tc)}  [{tc.tags[-1]}]")
    print(f"   sections: {fmt_range(sec)}, section exists: {sec.section_exists}")
    print(f"   ({dt:.1f}s)")
    print()


def survey_hopf():
    hopf = hopf_germ()
    tc = certify_tc(hopf)
    print(f"== {hopf.name}  (S^3 tube -> R^3)")
    print(f"   TC: {fmt_range(tc)}  [{tc.tags[-1]}]")
    print()


if __name__ == "__main__":
    germ_dir = pathlib.Path(__file__).resolve().parent.parent / "germs"
    germs = [power_germ(d) for d in (1, 2, 3)]
    germs.append(brieskorn_germ(2, 3))
    germs.append(product_germ())
    print(f"germ gallery, seed {SEED}, {N_SEEDS} fiber seeds each")
    print(f"(JSON copies of some of these live in {germ_dir})")
    print()
    for germ in germs:
        survey_germ(germ)
    survey_hopf()
    sys.exit(0)
