"""Time the pure-Python and compiled kernels on representative workloads.

Run as ``python3 benchmarks/bench_kernels.py``.  Reports the best of a few
repetitions per case and the compiled speedup when both backends are
importable; with the extension absent it simply times the fallback.
"""

import argparse
import random
from time import perf_counter

from lefschetz import exactla, family, kernels
from lefschetz.polyring import monomial_basis, slice_rows
from lefschetz.quotient import GradedQuotient, fixed_candidate


def family_slice_rows(params_tuple, degree):
    """Integer live rows of the ideal slice, exactly as rref_int receives
    them: multiples of monomial generators are dead columns and never reach
    the kernel."""
    ideal = family.build_ideal(family.validate(*params_tuple))
    _, rows = slice_rows(ideal, degree)
    int_rows = [exactla._integer_row(r) for r in rows]
    return int_rows, len(monomial_basis(3, degree))


def bench(fn, reps):
    best = None
    for _ in range(reps):
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()

    backends = kernels.available_backends()
    print(f"backends: {', '.join(backends)} (active: {kernels.BACKEND})")

    cases = []

    rows_mid, ncols_mid = family_slice_rows((8, 7, 6, 3, 2), 10)
    cases.append(
        (
            f"slice rref {len(rows_mid)}x{ncols_mid} sparse",
            lambda mod: mod.rref_int([dict(r) for r in rows_mid], ncols_mid),
        )
    )

    rows_top, ncols_top = family_slice_rows((9, 8, 7, 2, 3), 14)
    cases.append(
        (
            f"slice rref {len(rows_top)}x{ncols_top} sparse",
            lambda mod: mod.rref_int([dict(r) for r in rows_top], ncols_top),
        )
    )

    rng = random.Random(1)
    dense_rows = [
        {j: rng.randint(-99, 99) for j in range(60)} for _ in range(60)
    ]
    cases.append(
        (
            "dense rref 60x60",
            lambda mod: mod.rref_int([dict(r) for r in dense_rows], 60),
        )
    )

    det_input = [[rng.randint(-9, 9) for _ in range(45)] for _ in range(45)]
    cases.append(
        (
            "bareiss det 45x45",
            lambda mod: mod.det_bareiss([row[:] for row in det_input]),
        )
    )

    results = {}
    width = max(len(name) for name, _ in cases)
    header = f"{'case':<{width}}" + "".join(
        f"  {name:>12}" for name in backends
    )
    print(header)
    for name, call in cases:
        times = {}
        for bname, mod in backends.items():
            times[bname] = bench(lambda: call(mod), args.reps)
        results[name] = times
        line = f"{name:<{width}}" + "".join(
            f"  {times[bname] * 1000:>10.2f}ms" for bname in backends
        )
        print(line)

    if "python" in backends and "cython" in backends:
        print()
        for name, times in results.items():
            ratio = times["python"] / times["cython"]
            print(f"{name:<{width}}  compiled speedup x{ratio:.2f}")

    # whole-verdict comparison, using the import-time selected backend only
    def full_verdict():
        q = GradedQuotient(
            family.build_ideal(family.validate(8, 7, 6, 3, 2)), degree_cap=21
        )
        q.hilbert_data()
        q.certify(fixed_candidate(3))

    print()
    print(
        f"end-to-end verdict (8,7,6,3,2) on '{kernels.BACKEND}': "
        f"{bench(full_verdict, args.reps) * 1000:.1f}ms"
    )


if __name__ == "__main__":
    main()
