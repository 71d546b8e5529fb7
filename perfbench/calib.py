"""A fixed reference workload that measures how fast the host runs Python now.

Usage: calib.py

It does the same pure-Python work every time (big-int bit operations,
dict, set and tuple churn and string building, the kind of work the gcl
commands do) and prints one checksum line.  The runner starts it in its
own child between the gcl commands and divides each command's CPU time by
the calibration's, so a host that slows down or speeds up between runs
moves both alike.  The runner reads its output against `checksum()`
computed in its own process.  It imports only the standard library, so no change to
gcl can change its cost.
"""

import sys

ROUNDS = 3
WIDTH = 12


def one_round(salt: int) -> int:
    # Subsets of a 12-bit universe as ints: a closure-like sweep.
    table: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    acc = salt
    full = (1 << WIDTH) - 1
    for mask in range(1 << WIDTH):
        up = mask
        for j in range(WIDTH):
            if not mask >> j & 1 and (mask * 2654435761 + j + salt) % 7 == 0:
                up |= 1 << j
        table[mask] = up & full
        seen.add((bin(up).count("1"), up & 0xFF))
        acc = (acc * 31 + up) & 0xFFFFFFFF
    names = [f"x{m}" for m in sorted(seen)]
    text = " | ".join("(" + " & ".join(names[i : i + 5]) + ")" for i in range(0, len(names), 5))
    return (acc ^ len(text) ^ len(table)) & 0xFFFFFFFF


def checksum() -> int:
    total = 0
    for salt in range(ROUNDS):
        total = (total * 1000003 + one_round(salt)) & 0xFFFFFFFF
    return total


def main() -> int:
    # what a command's start-up imports besides site
    import argparse, dataclasses, functools, json, typing  # noqa: F401, E401

    print(f"calib {checksum():08x}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
