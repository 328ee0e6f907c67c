import re
from collections import Counter
from pathlib import Path

from bzcalc.segments import CuspidalLine, Multisegment, Segment

UNR = CuspidalLine("unr")


def seg(start, length, line=UNR, coset="c0"):
    return Segment(line, coset, start, length)


def ms(*pairs, line=UNR, coset="c0"):
    """Multisegment from (start, length) pairs on one line and coset."""
    return Multisegment([Segment(line, coset, s, l) for s, l in pairs])


def multisegments_with_support(m, mu, line=UNR, coset="c0"):
    """All multisegments whose support is {0, ..., m-1} with multiplicity mu.

    Recursion anchor: some segment must start at the minimal remaining point.
    """
    results = set()
    bag = Counter({p: mu for p in range(m)})

    def rec(acc):
        live = [p for p, c in bag.items() if c > 0]
        if not live:
            results.add(Multisegment(acc))
            return
        p0 = min(live)
        length = 0
        while bag[p0 + length] > 0 if p0 + length < m else False:
            length += 1
            for p in range(p0, p0 + length):
                bag[p] -= 1
            acc.append(Segment(line, coset, p0, length))
            rec(acc)
            acc.pop()
            for p in range(p0, p0 + length):
                bag[p] += 1

    rec([])
    return results


def interval_decompositions(n, line=UNR, coset="c0"):
    """Multisegments with multiplicity-one support {0, ..., n-1}."""
    return multisegments_with_support(n, 1, line=line, coset=coset)


def readme_scenario():
    """The scenario document of the README's "Scenario documents" section,
    as JSON text."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Scenario documents"):]
    return re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
