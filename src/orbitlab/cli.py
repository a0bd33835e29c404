"""Command-line front end: build artifacts, run verifier suites, dump orbits.

    orbitlab build  --config cfg --out dir
    orbitlab verify --build dir --suite name [--seed N]
    orbitlab orbit  --build dir --x SPEC --targets SPEC --steps N [--out csv]

``build`` assembles the schedule's whole truncation [0, xi_end]; ``verify``
and ``orbit`` re-assemble the same range from the build's schedule.cfg.
Vector specs are frame-prefixed sparse coordinate lists: ``f:0=1,3=-2`` or
``e:1=1``; targets are semicolon-separated specs.  Reports are deterministic
for a fixed config and seed, up to the runtime columns.  orbitlab reads no
environment variables.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

from . import basis as basis_mod
from . import operators as ops
from . import reflexivity as refl
from . import suites
from .errors import ConfigError, OrbitLabError
from .schedule import load_config, save_config

SUITES = (*suites.SUITES, "all")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _assemble_from_config(path):
    return basis_mod.assemble(*load_config(path))


def cmd_build(args) -> int:
    b = _assemble_from_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    echo = os.path.join(args.out, "schedule.cfg")
    save_config(echo, b.schedule, b.families)
    files = {"schedule.cfg": echo}
    for name, mat in (("F_in_E", b.F_csc), ("E_in_F", b.E_csc),
                      ("T_f", ops.conjugated_power(b))):
        path = os.path.join(args.out, f"{name}.mtx")
        basis_mod.export_matrix_market(path, mat)
        files[f"{name}.mtx"] = path
    if refl.zero_constant_profile(b):
        path = os.path.join(args.out, "A_f.mtx")
        basis_mod.export_matrix_market(path, refl.build_A(b))
        files["A_f.mtx"] = path
    manifest = {
        "mode": b.mode,
        "scalar_field": b.schedule.scalar_field,
        "n_trunc": b.n_trunc,
        "gammas": [repr(g) for g in b.gammas],
        "frame_constants": {str(n): C for n, C in sorted(b.frame_constants.items())},
        "nnz": {"F_in_E": int(b.F_csc.nnz), "E_in_F": int(b.E_csc.nnz)},
        "hashes": {name: _sha256(p) for name, p in sorted(files.items())},
    }
    mpath = os.path.join(args.out, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"built truncation [0, {b.n_trunc}] -> {args.out}")
    for name in sorted(files):
        print(f"  {name}  sha256={manifest['hashes'][name][:16]}...")
    return 0


def cmd_verify(args) -> int:
    b = _assemble_from_config(os.path.join(args.build, "schedule.cfg"))
    rep, cert = suites.run_suite(b, args.suite, args.seed)
    if cert is not None:
        with open(os.path.join(args.build, "certificate_stage1.json"),
                  "w") as fh:
            json.dump(cert.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    rep.to_csv(os.path.join(args.build, f"report_{args.suite}.csv"))
    rep.to_json(os.path.join(args.build, f"report_{args.suite}.json"))
    for line in rep.summary_lines():
        print(line)
    return 0 if rep.ok else 1


def parse_vector_spec(spec: str, b) -> dict:
    try:
        frame, body = spec.split(":", 1)
        coords: dict[int, complex] = {}
        if body.strip():
            for item in body.split(","):
                idx, val = item.split("=")
                v = complex(val)
                coords[int(idx)] = v if v.imag else v.real
    except ValueError as exc:
        raise ConfigError(f"cannot parse vector spec {spec!r}: {exc}") from exc
    for i in coords:
        if not 0 <= i <= b.n_trunc:
            raise ConfigError(f"index {i} in {spec!r} outside [0, {b.n_trunc}]")
    if frame == "f":
        return coords
    if frame == "e":
        return b.e_to_f(coords)
    raise ConfigError(f"unknown frame {frame!r} in {spec!r}")


def cmd_orbit(args) -> int:
    if args.steps < 0:
        raise ConfigError(f"--steps {args.steps} is negative")
    b = _assemble_from_config(os.path.join(args.build, "schedule.cfg"))
    x = parse_vector_spec(args.x, b)
    targets = [parse_vector_spec(t, b) for t in args.targets.split(";")]
    rows = ops.orbit_distances(b, x, targets, args.steps)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["m"] + [f"dist_target_{i}" for i in range(len(targets))])
        for m, row in enumerate(rows):
            w.writerow([m] + [repr(v) for v in row])
    finally:
        if args.out:
            out.close()
    return 0


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{seed} is negative")
    return seed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="orbitlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble basis and operator files")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(fn=cmd_build)

    p_verify = sub.add_parser("verify", help="run a verifier suite on a build")
    p_verify.add_argument("--build", required=True)
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--seed", type=_seed, default=20250810)
    p_verify.set_defaults(fn=cmd_verify)

    p_orbit = sub.add_parser("orbit", help="distances from orbit points to targets")
    p_orbit.add_argument("--build", required=True)
    p_orbit.add_argument("--x", required=True)
    p_orbit.add_argument("--targets", required=True)
    p_orbit.add_argument("--steps", type=int, required=True)
    p_orbit.add_argument("--out", default=None)
    p_orbit.set_defaults(fn=cmd_orbit)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OrbitLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
