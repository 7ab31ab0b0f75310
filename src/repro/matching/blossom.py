"""Maximum-weight matching in general graphs (Edmonds' blossom algorithm).

The paper reduces optimal 2-sized bundling to maximum-weight graph matching
and solves it with the Edmonds algorithm via the LEMON C++ library
(Section 5.1).  This module is the pure-Python equivalent: an O(n³)
primal-dual implementation following Galil's exposition ("Efficient
algorithms for finding maximal matchings in graphs", ACM Computing Surveys
1986) in the style popularized by Joris van Rantwijk's reference
implementation.

The entry points are :func:`solve_matching` (the bundling reduction's call:
edges in, matched pairs out) and :func:`max_weight_matching`, which returns
the matching as a ``mate`` list.  Weights may be any finite numbers and are
taken as float64; only matchings with non-negative total weight are of
interest to the bundling reduction (positive-gain edges), but the algorithm
itself is fully general and optionally maximizes cardinality.

The inner loops run on numpy arrays:

* **Scans.**  Edge endpoints and doubled weights ``2·w`` are arrays, and
  the duals of vertices and blossoms are one float64 array.  Only a dual
  step changes the duals, so at the start of a stage and after each dual
  step one expression computes every edge's slack ``dual[i] + dual[j] −
  2w`` — the same float operations as a per-edge ``slack()`` call, so the
  same bits — and marks the edges that are tight or already allowed.  Each
  vertex holds its incident remote endpoints and edge ids as arrays; a scan
  gathers its edges' marks, and Python walks only the marked edges, in
  neighbour order.
* **Dual steps.**  No per-vertex or per-blossom least-slack edge is kept.
  Each dual step labels every edge end with its top-level blossom's label
  and finds δ2 (least slack over S–free edges) and δ3 (least slack / 2
  over S–S edges between different blossoms) in one vectorized pass over
  all edges; δ1 and δ4 read the dual array.  Masked adds then apply the
  step.  A dual step costs O(m) array work plus O(n) to gather labels,
  instead of Python loops over every vertex and blossom.

Tie rule: among edges of equal least slack, the lowest edge id wins.  The
optimum's weight never depends on it, but among equal-weight optima the
matching returned can differ from that of van Rantwijk's per-blossom
best-edge bookkeeping, which this module used before.

Correctness is guarded by cross-checks against networkx and brute force in
the test-suite.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

INF = float("inf")


def solve_matching(edges: list[tuple[int, int, float]]) -> set[tuple[int, int]]:
    """Maximum-weight matching over weighted edges, as ``(u, v)`` pairs, ``u < v``.

    Maximizes total weight *without* a cardinality constraint: vertices
    stay unmatched when no edge improves the objective, which is exactly
    how singleton bundles survive the 2-sized bundling reduction.
    """
    if not edges:
        return set()
    return matching_pairs(max_weight_matching(edges))


def max_weight_matching(edges, maxcardinality: bool = False) -> list[int]:
    """Compute a maximum-weight matching.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v, weight)`` with ``u != v`` non-negative vertex
        ids.  Duplicate edges are not allowed.
    maxcardinality:
        When True, only maximum-cardinality matchings are considered (the
        classic variant); the bundling reduction uses False, letting
        vertices stay single when no positive-gain edge helps.

    Returns
    -------
    list[int]
        ``mate`` list: ``mate[v]`` is the vertex matched to ``v`` or ``-1``.
    """
    edges = list(edges)
    if not edges:
        return []
    heads, tails, weights = zip(*edges)
    head = np.array(heads, dtype=np.int64)
    tail = np.array(tails, dtype=np.int64)
    loops = np.flatnonzero(head == tail)
    if loops.size:
        raise ValidationError(f"self-loop edge {edges[loops[0]][:2]} is not allowed")
    if min(head.min(), tail.min()) < 0:
        raise ValidationError("vertex ids must be non-negative")

    nvertex = 1 + int(max(head.max(), tail.max()))
    weight = np.array(weights, dtype=np.float64)
    weight2 = 2 * weight

    # endpoint[p] is the vertex at endpoint p; edge k has endpoints 2k, 2k+1.
    endpoints = np.column_stack((head, tail)).ravel()
    endpoint = endpoints.tolist()

    # Per vertex, in edge order: the remote endpoints of its incident edges
    # (neighbend) and their edge ids.
    owner = np.column_stack((tail, head)).ravel()
    order = np.argsort(owner, kind="stable")
    bounds = np.cumsum(np.bincount(owner, minlength=nvertex)).tolist()
    spans = list(zip([0] + bounds[:-1], bounds))
    edge = order >> 1
    neighbend = [order[start:stop] for (start, stop) in spans]
    neighbedge = [edge[start:stop] for (start, stop) in spans]

    # mate[v] is the remote endpoint of v's matched edge, or -1.
    mate = [-1] * nvertex

    # label[b]: 0 free, 1 S-vertex/blossom, 2 T-vertex/blossom.
    label = [0] * (2 * nvertex)

    # labelend[b] is the endpoint through which b received its label.
    labelend = [-1] * (2 * nvertex)

    # inblossom[v] is the top-level blossom containing vertex v.
    inblossom = list(range(nvertex))

    # blossomparent[b] is the immediate parent blossom of b, or -1.
    blossomparent = [-1] * (2 * nvertex)

    # blossomchilds[b] lists b's sub-blossoms, starting at the base.
    blossomchilds: list[list[int] | None] = [None] * (2 * nvertex)

    # blossombase[b] is b's base vertex.
    blossombase = list(range(nvertex)) + [-1] * nvertex

    # blossomendps[b] lists the endpoints on b's connecting edges.
    blossomendps: list[list[int] | None] = [None] * (2 * nvertex)

    unusedblossoms = list(range(nvertex, 2 * nvertex))

    # Dual variables: u(v) for vertices, then z(b) for blossoms.
    dual = np.zeros(2 * nvertex)
    dual[:nvertex] = max(0.0, weight.max())

    # allowedge[k] is True when edge k has zero slack (usable in the tree).
    allowedge = np.zeros(len(edges), dtype=bool)

    def usable_edges() -> np.ndarray:
        """Edges a scan may walk under the current duals: allowed or tight."""
        return allowedge | (dual[head] + dual[tail] - weight2 <= 0)

    queue: list[int] = []

    def blossom_leaves(b: int):
        if b < nvertex:
            yield b
        else:
            childs = blossomchilds[b]
            assert childs is not None
            for t in childs:
                if t < nvertex:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        if t == 1:
            queue.extend(blossom_leaves(b))
        elif t == 2:
            base = blossombase[b]
            assert mate[base] >= 0
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w to find a common ancestor or augmenting path."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                assert label[b] == 2
                assert labelend[b] >= 0
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        v, w = endpoint[2 * k], endpoint[2 * k + 1]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path: list[int] = []
        endps: list[int] = []
        blossomchilds[b] = path
        blossomendps[b] = endps
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            assert label[bv] == 2 or (label[bv] == 1 and labelend[bv] == mate[blossombase[bv]])
            assert labelend[bv] >= 0
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            assert label[bw] == 2 or (label[bw] == 1 and labelend[bw] == mate[blossombase[bw]])
            assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labelend[b] = labelend[bb]
        dual[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                queue.append(leaf)
            inblossom[leaf] = b

    def expand_blossom(b: int, endstage: bool) -> None:
        childs = blossomchilds[b]
        endps = blossomendps[b]
        assert childs is not None and endps is not None
        for s in childs:
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dual[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            assert labelend[b] >= 0
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = childs.index(entrychild)
            if j & 1:
                j -= len(childs)
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[endps[j - endptrick] ^ endptrick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[endps[j - endptrick] // 2] = True
                j += jstep
                p = endps[j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            bv = childs[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            j += jstep
            while childs[j] != entrychild:
                bv = childs[j]
                if label[bv] == 1:
                    j += jstep
                    continue
                for v in blossom_leaves(bv):
                    if label[v] != 0:
                        break
                else:
                    v = -1
                if v != -1:
                    assert label[v] == 2
                    assert inblossom[v] == bv
                    label[v] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(v, 2, labelend[v])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        childs = blossomchilds[b]
        endps = blossomendps[b]
        assert childs is not None and endps is not None
        i = j = childs.index(t)
        if i & 1:
            j -= len(childs)
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = childs[j]
            p = endps[j - endptrick] ^ endptrick
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = childs[j]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        childs[:] = childs[i:] + childs[:i]
        endps[:] = endps[i:] + endps[:i]
        blossombase[b] = blossombase[childs[0]]
        assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        for (s, p) in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == 2
                assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                assert blossombase[bt] == t
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    # Main loop: one stage per augmentation.
    for _t in range(nvertex):
        label[:] = [0] * (2 * nvertex)
        allowedge.fill(False)
        usable = usable_edges()
        queue.clear()

        for v in range(nvertex):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for p in neighbend[v][usable[neighbedge[v]]].tolist():
                    k = p >> 1
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    allowedge[k] = True
                    if label[inblossom[w]] == 0:
                        assign_label(w, 2, p ^ 1)
                    elif label[inblossom[w]] == 1:
                        base = scan_blossom(v, w)
                        if base >= 0:
                            add_blossom(base, k)
                        else:
                            augment_matching(k)
                            augmented = True
                            break
                    elif label[w] == 0:
                        assert label[inblossom[w]] == 2
                        label[w] = 2
                        labelend[w] = p ^ 1

            if augmented:
                break

            # No augmenting path under the current duals: adjust them.
            deltatype = -1
            delta = deltaedge = deltablossom = None
            if not maxcardinality:
                deltatype = 1
                delta = dual[:nvertex].min()
            top = np.array(inblossom)
            labels = np.array(label)
            vertexlabel = labels[top]
            headlabel = vertexlabel[head]
            taillabel = vertexlabel[tail]
            slack = dual[head] + dual[tail] - weight2
            # delta2: least slack on an edge between an S-vertex and a free vertex.
            candidates = np.where(headlabel + taillabel == 1, slack, INF)
            k = int(candidates.argmin())
            if candidates[k] < INF and (deltatype == -1 or candidates[k] < delta):
                delta = candidates[k]
                deltatype = 2
                deltaedge = k
            # delta3: half the least slack on an edge between two S-blossoms.
            crossing = (headlabel * taillabel == 1) & (top[head] != top[tail])
            candidates = np.where(crossing, slack, INF)
            k = int(candidates.argmin())
            if candidates[k] < INF and (deltatype == -1 or candidates[k] / 2 < delta):
                delta = candidates[k] / 2
                deltatype = 3
                deltaedge = k
            # delta4: least dual of a top-level T-blossom.
            istop = np.zeros(2 * nvertex, dtype=bool)
            istop[top] = True
            blossomlabel = np.where(istop[nvertex:], labels[nvertex:], 0)
            candidates = np.where(blossomlabel == 2, dual[nvertex:], INF)
            b = int(candidates.argmin())
            if candidates[b] < INF and (deltatype == -1 or candidates[b] < delta):
                delta = candidates[b]
                deltatype = 4
                deltablossom = nvertex + b
            if deltatype == -1:
                # No further progress possible (maxcardinality path).
                deltatype = 1
                delta = max(0, dual[:nvertex].min())

            vertexdual = dual[:nvertex]
            vertexdual[vertexlabel == 1] -= delta
            vertexdual[vertexlabel == 2] += delta
            blossomdual = dual[nvertex:]
            blossomdual[blossomlabel == 1] += delta
            blossomdual[blossomlabel == 2] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                allowedge[deltaedge] = True
                i, j = endpoint[2 * deltaedge], endpoint[2 * deltaedge + 1]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                i = endpoint[2 * deltaedge]
                assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 4:
                expand_blossom(deltablossom, False)
            usable = usable_edges()

        if not augmented:
            break

        for b in range(nvertex, 2 * nvertex):
            if blossomparent[b] == -1 and blossombase[b] >= 0 and label[b] == 1 and dual[b] == 0:
                expand_blossom(b, True)

    for v in range(nvertex):
        if mate[v] >= 0:
            mate[v] = endpoint[mate[v]]
    for v in range(nvertex):
        assert mate[v] == -1 or mate[mate[v]] == v

    return mate


def matching_weight(edges, mate: list[int]) -> float:
    """Total weight of the matching encoded by a ``mate`` list."""
    total = 0.0
    for (i, j, wt) in edges:
        if 0 <= i < len(mate) and mate[i] == j:
            total += wt
    return total


def matching_pairs(mate: list[int]) -> set[tuple[int, int]]:
    """The matching as a set of ``(u, v)`` pairs with ``u < v``."""
    return {(v, mate[v]) for v in range(len(mate)) if 0 <= mate[v] and v < mate[v]}
