"""Tree pseudo-LRU victim selection (the hardware-buildable LRU stand-in).

A W-way set (W a power of two) keeps W-1 direction bits arranged as a
binary tree: node 0 is the root, node ``i`` has children ``2i+1`` (left)
and ``2i+2`` (right), and the leaves map left-to-right onto ways
``0..W-1``.  Each bit points toward the subtree holding the next victim
(0 = left, 1 = right).  Touching a way flips every bit on its root path
to point *away* from it; selecting a victim walks the bits from the
root.  The walk takes a candidate mask (one bit per way) so callers can
restrict selection to invalid frames (fill into empty ways first) or to
valid ones (the compressed L2 evicts among live lines only) — when the
indicated subtree holds no candidate, the walk diverts to the sibling.

The per-set bit vectors are packed into a single int each and stored by
the caches in plain lists.  The differential oracle
(:mod:`repro.verify.oracle`) reimplements the policy independently, per
its no-shared-cache-code rule.
"""

from __future__ import annotations


def plru_touch(bits: int, way: int, ways: int) -> int:
    """Return the tree bits after an access to ``way``.

    Every node on the root->leaf path is set to point at the *other*
    subtree, protecting the touched way.  ``ways`` must be the (power of
    two) way count the bit vector was built for; ``ways == 1`` has no
    tree and returns ``bits`` unchanged.
    """
    node = 0
    lo = 0
    size = ways
    while size > 1:
        half = size >> 1
        if way < lo + half:
            bits |= 1 << node  # point right, away from the touched way
            node = 2 * node + 1
        else:
            bits &= ~(1 << node)  # point left
            node = 2 * node + 2
            lo += half
        size = half
    return bits


def plru_victim(bits: int, ways: int, mask: int) -> int:
    """Walk the tree bits to the victim way among ``mask`` candidates.

    ``mask`` has bit ``w`` set for each candidate way and must be
    non-zero.  When a direction bit points into a subtree with no
    candidate, the walk diverts to the sibling subtree (hardware gates
    the direction bits with the way-valid vector the same way).
    """
    node = 0
    lo = 0
    size = ways
    while size > 1:
        half = size >> 1
        left = ((1 << half) - 1) << lo
        go_right = (bits >> node) & 1
        if go_right:
            if not (mask & (left << half)):
                go_right = 0
        elif not (mask & left):
            go_right = 1
        if go_right:
            node = 2 * node + 2
            lo += half
        else:
            node = 2 * node + 1
        size = half
    return lo
