"""The strand walker: the plain-Python reference for the diagram product.

compose_strands traces the composite strands of one stacked pair, point by
point; reference_product turns its output into the normal-form product.
The library's multiply_all composes every skeleton pair by array gathers
instead, and the tests compare the two.
"""

from cycbrauer.diagrams import Diagram


def compose_strands(n, x_items, y_items):
    """Stack x on top of y and trace every composite strand.

    Points: x's top row is 1..n, the middle row n+1..2n is x's bottom and
    y's top, and y's bottom row is 2n+1..3n.  ``x_items``/``y_items`` are
    the ((p, q), label) arcs of the two factors, p < q in the factor's own
    numbering.  The one sign rule: traversed p -> q an arc counts +label,
    except an arc in its factor's bottom row (p > n), which counts -label;
    the reverse traversal counts the negation.  Labels only need ``+`` and
    unary ``-``: integers give the product of two diagrams, and vectors of
    coefficients give each output label as a signed linear form in the
    input labels (never updated in place, so array labels may be shared).

    Returns (arcs, loops), all labels before reduction mod m: the output
    arcs as ((p, q), label) in the 1..2n numbering of the product, and the
    closed-loop labels.  A strand from the top row counts from its smaller
    endpoint, one between bottom points stores the label of its
    right-to-left traversal, and a loop starts at its smallest middle point
    and enters y first.
    """
    x, y = {}, {}  # per factor: point -> (next point, signed label)
    for step, items, off in ((x, x_items, 0), (y, y_items, n)):
        for (p, q), lab in items:
            fwd, back = (-lab, lab) if p > n else (lab, -lab)
            step[p + off] = (q + off, fwd)
            step[q + off] = (p + off, back)
    last = 2 * n  # the middle row is n + 1..last
    seen = set()

    def walk(start, step, other):
        """Follow the strand leaving ``start`` through the factor whose map
        is ``step`` until it leaves the middle row or closes: (end, label)."""
        p, acc = step[start]
        seen.add(start)
        seen.add(p)
        while n < p <= last and p != start:
            step, other = other, step
            p, lab = step[p]
            acc = acc + lab
            seen.add(p)
        return p, acc

    arcs = []
    for start in range(1, n + 1):
        if start not in seen:
            end, acc = walk(start, x, y)
            arcs.append(((start, end if end <= n else end - n), acc))
    for start in range(last + 1, last + n + 1):
        if start not in seen:
            end, acc = walk(start, y, x)
            arcs.append(((start - n, end - n), -acc))
    loops = [walk(start, y, x)[1] for start in range(n + 1, last + 1)
             if start not in seen]
    return arcs, loops


def reference_product(x, y):
    """x * y by the walker: (normal-form diagram, sorted loop labels)."""
    if (x.m, x.n) != (y.m, y.n):
        raise ValueError("mismatched (m, n)")
    m = x.m
    arcs, loops = compose_strands(x.n, x.arc_items(), y.arc_items())
    # compose_strands emits each arc once as (p, q), p < q, in increasing p:
    # already the normal form
    return (Diagram(m, x.n, tuple(pq for pq, _ in arcs),
                    tuple(lab % m for _, lab in arcs)),
            tuple(sorted(acc % m for acc in loops)))
