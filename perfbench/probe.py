"""Speed probe: times one fixed piece of pure-Python work, over and over.

    python3 perfbench/probe.py OUT_FILE

run.py pins this process to the CPU that lodprobe runs on. Every
INTERVAL_S it times `work()` once and appends a line "end duration" to
OUT_FILE, both in seconds of time.monotonic(), until its standard input
closes. It prints "ready" when it starts sampling. One sample takes about
a millisecond, so it costs lodprobe about 2% of that CPU, the same in
every run.

On a shared host the CPU's speed swings up to 2x within seconds. The
probe's time tracks lodprobe's on the same CPU far better than on the
other CPU (correlation 0.93 against 0.57 per sort operation), so run.py
divides lodprobe's times by the probe's.
"""

import select
import sys
import time

INTERVAL_S = 0.05
LINES = [f"<http://d{i % 37}.example.org/r/{i}> <http://xmlns.com/foaf/0.1/name> "
         f"\"name {i}\"@en .".encode() for i in range(64)]


def work() -> int:
    """Parse-like string and dict work, the kind lodprobe spends its time on."""
    seen: dict = {}
    for _ in range(12):
        for line in LINES:
            subject, predicate, rest = line.split(b" ", 2)
            host = subject[8:].split(b"/", 1)[0].decode("ascii")
            seen[host] = seen.get(host, 0) + hash(predicate) % 7 + len(rest.strip())
    return len(seen)


def main(path: str) -> None:
    print("ready", flush=True)
    with open(path, "w", encoding="ascii") as out:
        while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            start = time.monotonic()
            work()
            end = time.monotonic()
            out.write(f"{end} {end - start}\n")


if __name__ == "__main__":
    main(sys.argv[1])
