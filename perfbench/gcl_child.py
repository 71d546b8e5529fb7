"""Run one gcl command and record the peak memory of this process alone.

Usage: gcl_child.py PEAK_FILE GCL_ARGS...

On Linux a child's ru_maxrss, as wait4 reports it, is never below the
parent's peak resident set, because the peak of the address space the
child had before exec is carried over.  VmHWM in /proc/self/status is the
peak of the address space exec gave this process, so it is the command's
own.  It is written to PEAK_FILE, in KiB, when the command returns or
raises; on a system without /proc nothing is written.
"""

import sys


def _peak_kib() -> "int | None":
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(peak_file: str, argv: list[str]) -> int:
    from gcl.cli import main as gcl_main

    try:
        return gcl_main(argv)
    finally:
        peak = _peak_kib()
        if peak is not None:
            with open(peak_file, "w") as fh:
                fh.write(f"{peak}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
