#!/usr/bin/env python3
"""Checks that the pinned hot functions start on 64-byte boundaries.

ESLAM_HOT_ALIGN (src/core/hot_align.h) pins the functions listed below, so
an edit elsewhere in link order cannot move them to a new offset within a
cache line.  This script reads a binary's symbols with `nm -C` and fails,
naming the function, when a listed one is missing or starts off a 64-byte
boundary.  Out-of-line `.cold` parts are not entry points and are skipped;
other compiler clones (`.isra`, `.constprop`) are the emitted function.

    python3 bench/check_hot_align.py .bench_build/slambench/slambench

Adding ESLAM_HOT_ALIGN to a function means adding it here too.
"""
import re
import subprocess
import sys

ANON = "(anonymous namespace)"

# Demangled names, without parameters.
PINNED = [
    # Pose estimation.
    "eslam::solve_pnp",
    "eslam::solve_p3p",
    "eslam::solve_p3p_with_check",
    "eslam::ransac_pnp_into",
    # The projection gate and the matching tiers.
    "eslam::build_candidate_set_into",
    f"eslam::{ANON}::match_rows_into",
    "eslam::match_candidates_into",
    # The recognition index: the query and the merge behind every insert.
    "eslam::backend::KeyframeIndex::query",
    "eslam::backend::KeyframeIndex::merge",
    # Scalar kernels.
    "eslam::simd::best_two_block_scalar",
    "eslam::simd::best_two_windows_scalar",
    "eslam::simd::best_two_rows_scalar",
    "eslam::simd::project_batch_scalar",
    "eslam::simd::reprojection_inliers_scalar",
    f"eslam::simd::{ANON}::reprojection_inliers_from",
    "eslam::simd::normal_equations_scalar",
    f"eslam::simd::{ANON}::normal_equations_from",
    # AVX2 kernels.
    f"eslam::simd::{ANON}::best_two_block_avx2_q<1>",
    f"eslam::simd::{ANON}::best_two_block_avx2_q<2>",
    f"eslam::simd::{ANON}::best_two_block_avx2",
    f"eslam::simd::{ANON}::best_two_windows_avx2",
    f"eslam::simd::{ANON}::best_two_rows_avx2",
    f"eslam::simd::{ANON}::project_batch_avx2",
    f"eslam::simd::{ANON}::reprojection_inliers_avx2",
    f"eslam::simd::{ANON}::normal_equations_avx2",
    # AVX-512 kernels.
    f"eslam::simd::{ANON}::best_two_block_avx512_q<1>",
    f"eslam::simd::{ANON}::best_two_block_avx512_q<4>",
    f"eslam::simd::{ANON}::best_two_block_avx512",
    f"eslam::simd::{ANON}::best_two_windows_avx512",
    f"eslam::simd::{ANON}::best_two_rows_avx512",
    f"eslam::simd::{ANON}::normal_equations_avx512",
    # Dispatch entry points.
    "eslam::simd::best_two_block",
    "eslam::simd::best_two_windows",
    "eslam::simd::best_two_rows",
    "eslam::simd::project_batch",
    "eslam::simd::reprojection_inliers",
    "eslam::simd::normal_equations",
]

ALIGN = 64
LINE = re.compile(r"^([0-9a-fA-F]+) [tTwW] (.*)$")


def function_name(symbol):
    """The qualified name of a demangled function symbol, or None."""
    text = symbol.replace(ANON, "\0")
    if "(" not in text:
        return None
    head = text[: text.index("(")].split(" ")[-1]  # drops a return type
    return head.replace("\0", ANON)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = subprocess.run(["nm", "-C", sys.argv[1]], capture_output=True,
                         text=True, check=True).stdout
    starts = {}
    for line in out.splitlines():
        m = LINE.match(line)
        if not m or "[clone .cold]" in m.group(2):
            continue
        name = function_name(m.group(2))
        if name in PINNED:
            starts.setdefault(name, []).append(int(m.group(1), 16))
    failures = 0
    for name in PINNED:
        if name not in starts:
            print(f"FAIL {name}: not found in the binary")
            failures += 1
            continue
        for addr in starts[name]:
            if addr % ALIGN:
                print(f"FAIL {name}: starts at {addr:#x}, "
                      f"{addr % ALIGN} bytes past a {ALIGN}-byte boundary")
                failures += 1
    if failures:
        print(f"{failures} pinned function(s) off their {ALIGN}-byte "
              "boundary or missing; see src/core/hot_align.h")
        return 1
    print(f"all {len(PINNED)} pinned functions start on {ALIGN}-byte "
          "boundaries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
