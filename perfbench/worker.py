"""Child process of the qmodver benchmark: one fresh interpreter per use.

    python perfbench/worker.py identities N [--trace FILE --request K]
    python perfbench/worker.py digests N
    python perfbench/worker.py sweep SEED SECONDS [--trace FILE]
    python perfbench/worker.py oracle SEED COUNT
    python perfbench/worker.py cli --trace FILE [--request K] -- ARGS...

Every mode but `cli` prints one JSON object as its last line.  `cli` runs
`qmodver.cli.main(ARGS)` with the tracer installed, so its standard output is
the CLI's own.  With --trace the spans and aggregates are written to FILE
when the process ends.  The program under test is imported from `src/`
through PYTHONPATH, which run.py sets.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import random
import resource
import sys
import time
from array import array
from fractions import Fraction

from tracer import Tracer

NUMERIC_ORDER = 60     # the seed suites' default numeric order
QK_ORDER = 400         # the qk suite's default numeric order
TAU_RE = (-1.0, 1.0)   # spans the seed suites' default points 2i, 3i, 1+2i, i
TAU_IM = (1.0, 3.0)
DIGEST_SERIES = ("character-(0,1)", "character-(1,1)", "character-(1,0)",
                 "partition_gf", "dedekind_eta", "eisenstein-4")


def emit(doc: dict):
    print(json.dumps(doc))


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verdict(report) -> str:
    return report.summary_line().split()[0]


def start_tracer(path, request=0):
    if path is None:
        return None
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    return tracer


# -- exact-deep -------------------------------------------------------------

def cmd_identities(args):
    from qmodver import verify
    tracer = start_tracer(args.trace, args.request)
    t0 = time.perf_counter()
    reports, status = verify.run_suite("identities", exact_order=args.order)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.write(args.trace)
    emit({"seconds": seconds, "status": status, "maxrss_mib": maxrss_mib(),
          "reports": [[verdict(r), r.name, str(r.order_used)] for r in reports]})


def digest(series) -> str:
    text = json.dumps(series.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cmd_digests(args):
    from qmodver import lattice, specfun
    from qmodver.modgroup import SectorPair
    n = Fraction(args.order)
    built = {
        "character-(0,1)": lattice.character(SectorPair(2, 0, 1), n).series,
        "character-(1,1)": lattice.character(SectorPair(2, 1, 1), n).series,
        "character-(1,0)": lattice.character(SectorPair(2, 1, 0), n).series,
        "partition_gf": specfun.partition_gf(n),
        "dedekind_eta": specfun.dedekind_eta(n),
        "eisenstein-4": specfun.eisenstein(4, n),
    }
    p100 = specfun.partition_gf(101).coefficient_at(100)
    emit({"digests": {k: digest(built[k]) for k in DIGEST_SERIES},
          "p100": str(p100)})


# -- numeric-sweep ----------------------------------------------------------

def build_laws():
    """The eight modular laws: (name, f, g, gamma, weight, multiplier, tol)."""
    from qmodver import lattice, specfun
    from qmodver.modgroup import S, T, ModularMatrix, SectorPair
    eta = specfun.dedekind_eta(NUMERIC_ORDER).to_complex()
    e4 = specfun.eisenstein(4, NUMERIC_ORDER).to_complex()
    e6 = specfun.eisenstein(6, NUMERIC_ORDER).to_complex()

    def char(i, j):
        return lattice.character(SectorPair(2, i, j), NUMERIC_ORDER).series.to_complex()

    c01, c11, c10 = char(0, 1), char(1, 1), char(1, 0)
    q2_real = specfun.q_twisted(2, specfun.TwistParams(1, 2, 0, 1), QK_ORDER).to_complex()
    q2_cplx = specfun.q_twisted(2, specfun.TwistParams(0, 1, 1, 3), QK_ORDER).to_complex()
    return [
        ("eta-T", eta, eta, T, Fraction(0), cmath.exp(1j * math.pi / 12), 1e-10),
        ("eta-S", eta, eta, S, Fraction(1, 2), cmath.exp(-1j * math.pi / 4), 1e-10),
        ("E4-S", e4, e4, S, Fraction(4), 1 + 0j, 1e-8),
        ("E6-S", e6, e6, S, Fraction(6), 1 + 0j, 1e-8),
        ("S-closure-(0,1)->(1,0)", c01, c10, S, Fraction(0), 1 + 0j, 1e-8),
        ("S-closure-(1,1)->(1,1)", c11, c11, S, Fraction(0), 1 + 0j, 1e-8),
        ("Q2-(1,2,0,1)-gamma(1,0,2,1)", q2_real, q2_real,
         ModularMatrix(1, 0, 2, 1), Fraction(2), 1 + 0j, 1e-6),
        ("Q2-(0,1,1,3)-gamma(1,0,3,1)", q2_cplx, q2_cplx,
         ModularMatrix(1, 0, 3, 1), Fraction(2), 1 + 0j, 1e-6),
    ]


def tau_stream(seed: int):
    rng = random.Random(seed)
    while True:
        yield complex(rng.uniform(*TAU_RE), rng.uniform(*TAU_IM))


def sweep_phase(laws, taus, seconds, verify, tracer, first_request):
    """Check every law at one tau per point until `seconds` have elapsed."""
    perf = time.perf_counter
    # compact sample buffers, so the peak RSS stays the program's own
    point_s, law_s, failures = array("d"), {law[0]: array("d") for law in laws}, []
    deadline = perf() + seconds
    while perf() < deadline or not point_s:
        tau = next(taus)
        if tracer is not None:
            tracer.request = first_request + len(point_s)
        p0 = perf()
        for name, f, g, gamma, weight, mult, tol in laws:
            t0 = perf()
            spec = verify.TransformSpec(gamma, weight, mult, (tau,), tol)
            try:
                rep = verify.check_transform_numeric(name, f, g, spec)
            except Exception as exc:  # an exception is a failed operation
                failures.append({"law": name, "tau": [tau.real, tau.imag], "error": repr(exc)})
                continue
            law_s[name].append(perf() - t0)
            if tracer is not None:
                tracer.count_verdicts([rep])
            if not rep.passed:
                failures.append({"law": name, "tau": [tau.real, tau.imag],
                                 "residual": rep.max_residual, "tail": rep.tail_estimate})
        point_s.append(perf() - p0)
    return point_s, law_s, failures


def cmd_sweep(args):
    from qmodver import verify
    t0 = time.perf_counter()
    laws = build_laws()
    build_s = time.perf_counter() - t0
    taus = tau_stream(args.seed)
    if args.trace is None:
        point_s, law_s, failures = sweep_phase(laws, taus, args.seconds, verify, None, 0)
        rss = maxrss_mib()
        emit({"build_s": build_s, "point_s": point_s.tolist(),
              "law_s": {k: v.tolist() for k, v in law_s.items()},
              "failures": failures, "laws": len(laws), "maxrss_mib": rss})
        return
    # half the time untraced, then the same stream continued with tracing on
    plain, _, fail_a = sweep_phase(laws, taus, args.seconds / 2, verify, None, 0)
    tracer = start_tracer(args.trace, len(plain))
    traced_s, _, fail_b = sweep_phase(laws, taus, args.seconds / 2, verify,
                                      tracer, len(plain))
    tracer.write(args.trace)
    emit({"build_s": build_s, "point_s": plain.tolist(), "traced_point_s": traced_s.tolist(),
          "failures": fail_a + fail_b, "laws": len(laws), "maxrss_mib": maxrss_mib()})


def cmd_oracle(args):
    """Compare `evaluate` of eta and theta_2..4 with mpmath on the first
    COUNT points of the sweep's tau stream and at their S-images."""
    import mpmath
    from qmodver import specfun
    mpmath.mp.dps = 30
    eta = specfun.dedekind_eta(NUMERIC_ORDER).to_complex()
    thetas = {k: specfun.jacobi_theta(k, NUMERIC_ORDER).to_complex() for k in (2, 3, 4)}
    taus = tau_stream(args.seed)
    checked, misses, worst = 0, [], 0.0
    for _ in range(args.count):
        tau = next(taus)
        for point in (tau, -1 / tau):
            t = mpmath.mpc(point.real, point.imag)
            refs = [("eta", eta, mpmath.exp(2j * mpmath.pi * t / 24)
                     * mpmath.qp(mpmath.exp(2j * mpmath.pi * t)))]
            nome = mpmath.exp(1j * mpmath.pi * t)
            refs += [(f"theta{k}", s, mpmath.jtheta(k, 0, nome)) for k, s in thetas.items()]
            for name, series, ref in refs:
                ref = complex(ref)
                got = series.evaluate(point)
                err = abs(got.value - ref)
                allowed = got.tail_estimate + 1e-12 * abs(ref)
                checked += 1
                worst = max(worst, err / allowed)
                if err > allowed:
                    misses.append({"series": name, "tau": [point.real, point.imag],
                                   "error": err, "allowed": allowed})
    emit({"checked": checked, "misses": misses, "worst_error_over_allowed": worst})


# -- traced CLI ---------------------------------------------------------------

def cmd_cli(args):
    tracer = start_tracer(args.trace, args.request)
    import qmodver.cli
    try:
        code = qmodver.cli.main(args.argv)
    finally:
        sys.stdout.flush()
        tracer.write(args.trace)
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("identities")
    p.add_argument("order", type=int)
    p.add_argument("--trace")
    p.add_argument("--request", type=int, default=0)
    p.set_defaults(func=cmd_identities)
    p = sub.add_parser("digests")
    p.add_argument("order", type=int)
    p.set_defaults(func=cmd_digests)
    p = sub.add_parser("sweep")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser("oracle")
    p.add_argument("seed", type=int)
    p.add_argument("count", type=int)
    p.set_defaults(func=cmd_oracle)
    p = sub.add_parser("cli")
    p.add_argument("--trace", required=True)
    p.add_argument("--request", type=int, default=0)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    args.func(args)


if __name__ == "__main__":
    main()
