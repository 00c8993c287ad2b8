"""A fixed pure-Python load that measures how fast the host runs Python now.

``run.py`` times this script as a child process before and after every
command it measures.  The load does not touch the package, so only the host
changes its time: tuples, dict updates, frozenset hashing and integer
arithmetic, the kinds of work the package does.
"""

ITERATIONS = 110_000


def load() -> int:
    seen: dict = {}
    total = 0
    for i in range(ITERATIONS):
        key = (i % 81, (i * 7) % 243, (i * 13) % 729)
        seen[key] = seen.get(key, 0) + 1
        total += hash(frozenset(key)) & 7
    return total + len(seen)


if __name__ == "__main__":
    load()
