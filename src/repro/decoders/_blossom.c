/* Maximum-weight perfect matching (Edmonds' blossom algorithm in
 * Galil's primal-dual form) over a batch of MWPM patterns.
 *
 * The native twin of matching._nx_match (matching.py), which stays the
 * reference: for each pattern this builds the graph _nx_match builds and
 * runs networkx's max_weight_matching(G, maxcardinality=True) on it step
 * for step, so the matching is the same set of pairs, not merely one of
 * the same weight.  What that takes, mirrored one for one:
 *
 *  - the graph: vertices in the order networkx first saw them, (e, i)
 *    and (b, i) interleaved as _nx_match adds them, each adjacency list
 *    in edge-insertion order, boundary copies joined at weight 0.0 and
 *    no edge for an infinite pair distance;
 *  - every iteration order the reference's choices depend on: vertices
 *    in that order, G.neighbors, blossom leaves (a stack walk), the
 *    insertion-ordered dicts -- `blossomparent` is the vertices then the
 *    live blossoms by creation, `blossomdual` the live blossoms by
 *    creation, `bestedgeto` its keys by first insertion, all with
 *    deletions -- and the LIFO `queue.pop()`;
 *  - strict `<` in every least-slack and delta choice, `<= 0` for an
 *    allowable edge;
 *  - the float path (`allinteger` is false for these weights): the same
 *    slack `(u + v) - 2 w`, `delta / 2.0` and dual updates, in the same
 *    order.  `2 w` and `/ 2.0` are exact, so a contracted multiply-add
 *    rounds like the separate operations; no fast-math flag.
 *
 * networkx's trampolined recursions (expandBlossom, augmentBlossom) run
 * each yielded call to completion before the caller resumes, which is
 * plain recursion here; the depth is bounded by the blossom nesting.
 * The final "deltatype == -1" dual update only makes the optimum
 * verifiable and moves no pair, so it is skipped.
 *
 * The decoder reads the correction parity, which _nx_match XORs over
 * the pairs of the set networkx returns; each pair is oriented as
 * matching_dict_to_set orients it -- the endpoint that entered `mate`
 * first comes first -- because a parity table need not be symmetric.
 *
 * Patterns of at most 16 defects take repro_dp_match instead (at the
 * end of this file): matching._dp_match's bitmask recursion, the exact
 * rule the decoder applies to them.
 *
 * Built by repro/_clib.py with `cc -O2 -shared -fPIC`; C99, libc only.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, NO_MEMORY = 2, BAD_INPUT = 3 };

/* Vertices are 0..n-1 in networkx's node order; blossom slot s is the
 * id cap + s, so every per-id table is 2 * cap long. */
typedef struct {
    int64_t cap, n;
    int oom;
    /* The graph. */
    int64_t *deg, *adj;         /* adj[v * cap + i], insertion order */
    double *wt;                 /* wt[v * cap + w] */
    int64_t *code;              /* 2 i for (e, i), 2 i + 1 for (b, i) */
    int64_t *where;             /* code -> vertex, -1 before insertion */
    /* Per vertex. */
    int64_t *mate, *inblossom, *mate_seq, *mate_order, num_mated;
    double *dual;
    /* Per id: label (0 = none, 1 = S, 2 = T, 5 = S with breadcrumb),
     * labeledge and bestedge as (v, w) with v = -1 for None, parent
     * (-1 = top level) and base vertex. */
    int64_t *label, *le_v, *le_w, *be_v, *be_w, *parent, *base;
    /* Per blossom slot. */
    double *bdual;
    int64_t *nchild, *childs, *edges;   /* childs[s * cap + i] */
    int64_t *nbest, *best;              /* mybestedges; nbest < 0: None */
    int64_t *next, *prev, head, tail;   /* live blossoms, creation order */
    int64_t *free_slots, num_free;
    uint8_t *allow;                     /* allowedge, allow[v * cap + w] */
    int64_t *queue, qlen, qcap;
    /* Scratch: leaves() and its stack, addBlossom's bestedgeto, the
     * end-of-stage snapshot, and scanBlossom's path or a rotation. */
    int64_t *leaf, *stack, *bto_v, *bto_w, *bto_keys, *snap, *tmp;
} ws_t;

#define IS_BLOSSOM(x) ((x) >= ws->cap)
#define SLOT(b) ((b) - ws->cap)
#define CHILDS(b) (ws->childs + SLOT(b) * ws->cap)
#define EDGES(b) (ws->edges + 2 * SLOT(b) * ws->cap)
#define NCHILD(b) (ws->nchild[SLOT(b)])

/* Python's seq[j] for -len <= j < len. */
static int64_t wrap(int64_t j, int64_t len)
{
    return j < 0 ? j + len : j;
}

static double slack(const ws_t *ws, int64_t v, int64_t w)
{
    return ws->dual[v] + ws->dual[w] - 2.0 * ws->wt[v * ws->cap + w];
}

static void set_mate(ws_t *ws, int64_t v, int64_t w)
{
    if (ws->mate[v] < 0) {
        ws->mate_seq[v] = ws->num_mated;
        ws->mate_order[ws->num_mated++] = v;
    }
    ws->mate[v] = w;
}

static void push(ws_t *ws, int64_t v)
{
    if (ws->qlen == ws->qcap) {
        int64_t *grown = realloc(ws->queue,
                                 sizeof(int64_t) * (size_t)(2 * ws->qcap));
        if (grown == NULL) {
            ws->oom = 1;
            return;
        }
        ws->queue = grown;
        ws->qcap *= 2;
    }
    ws->queue[ws->qlen++] = v;
}

/* The leaf vertices of id b into ws->leaf, in Blossom.leaves() order (a
 * vertex is its own one leaf). */
static int64_t leaves(ws_t *ws, int64_t b)
{
    if (!IS_BLOSSOM(b)) {
        ws->leaf[0] = b;
        return 1;
    }
    int64_t top = 0, count = 0;
    for (int64_t i = 0; i < NCHILD(b); i++)
        ws->stack[top++] = CHILDS(b)[i];
    while (top) {
        const int64_t t = ws->stack[--top];
        if (IS_BLOSSOM(t)) {
            for (int64_t i = 0; i < NCHILD(t); i++)
                ws->stack[top++] = CHILDS(t)[i];
        } else {
            ws->leaf[count++] = t;
        }
    }
    return count;
}

static int64_t index_of(const ws_t *ws, int64_t b, int64_t child)
{
    int64_t j = 0;
    while (CHILDS(b)[j] != child)
        j++;
    return j;
}

static void assign_label(ws_t *ws, int64_t w, int64_t t, int64_t v)
{
    for (;;) {
        const int64_t b = ws->inblossom[w];
        ws->label[w] = ws->label[b] = t;
        ws->le_v[w] = ws->le_v[b] = v;
        ws->le_w[w] = ws->le_w[b] = v < 0 ? -1 : w;
        ws->be_v[w] = ws->be_v[b] = -1;
        if (t == 1) {
            const int64_t count = leaves(ws, b);
            for (int64_t i = 0; i < count; i++)
                push(ws, ws->leaf[i]);
            return;
        }
        /* A T-blossom: its base's mate becomes S. */
        v = ws->base[b];
        w = ws->mate[v];
        t = 1;
    }
}

/* Base vertex of the new blossom, or -1 for an augmenting path. */
static int64_t scan_blossom(ws_t *ws, int64_t v, int64_t w)
{
    int64_t *path = ws->tmp, len = 0, base = -1;
    while (v >= 0) {
        int64_t b = ws->inblossom[v];
        if (ws->label[b] & 4) {
            base = ws->base[b];
            break;
        }
        path[len++] = b;
        ws->label[b] = 5;
        if (ws->le_v[b] < 0) {
            v = -1;
        } else {
            v = ws->le_v[b];
            b = ws->inblossom[v];
            v = ws->le_v[b];
        }
        if (w >= 0) {
            const int64_t t = v;
            v = w;
            w = t;
        }
    }
    for (int64_t i = 0; i < len; i++)
        ws->label[path[i]] = 1;
    return base;
}

static int64_t new_blossom(ws_t *ws)
{
    const int64_t b = ws->cap + ws->free_slots[--ws->num_free];
    ws->prev[SLOT(b)] = ws->tail;
    ws->next[SLOT(b)] = -1;
    if (ws->tail >= 0)
        ws->next[SLOT(ws->tail)] = b;
    else
        ws->head = b;
    ws->tail = b;
    ws->label[b] = 0;
    ws->le_v[b] = ws->le_w[b] = ws->be_v[b] = ws->be_w[b] = -1;
    NCHILD(b) = 0;
    ws->nbest[SLOT(b)] = -1;
    return b;
}

/* The id after b in `blossomparent` order: the vertices, then the live
 * blossoms by creation; -1 at the end. */
static int64_t next_id(const ws_t *ws, int64_t b)
{
    if (IS_BLOSSOM(b))
        return ws->next[SLOT(b)];
    return b + 1 < ws->n ? b + 1 : ws->head;
}

static void free_blossom(ws_t *ws, int64_t b)
{
    const int64_t p = ws->prev[SLOT(b)], q = ws->next[SLOT(b)];
    if (p >= 0)
        ws->next[SLOT(p)] = q;
    else
        ws->head = q;
    if (q >= 0)
        ws->prev[SLOT(q)] = p;
    else
        ws->tail = p;
    ws->label[b] = 0;
    ws->le_v[b] = ws->le_w[b] = ws->be_v[b] = ws->be_w[b] = -1;
    ws->free_slots[ws->num_free++] = SLOT(b);
}

/* One candidate k = (i, j) of addBlossom's least-slack edge scan. */
static int64_t best_edge_to(ws_t *ws, int64_t b, int64_t i, int64_t j,
                            int64_t num_keys)
{
    const int64_t ki = i, kj = j;
    if (ws->inblossom[j] == b) {
        j = ki;
        i = kj;
    }
    const int64_t bj = ws->inblossom[j];
    if (bj != b && ws->label[bj] == 1
            && (ws->bto_v[bj] < 0
                || slack(ws, i, j) < slack(ws, ws->bto_v[bj], ws->bto_w[bj]))) {
        if (ws->bto_v[bj] < 0)
            ws->bto_keys[num_keys++] = bj;
        ws->bto_v[bj] = ki;
        ws->bto_w[bj] = kj;
    }
    return num_keys;
}

static void add_blossom(ws_t *ws, int64_t base, int64_t v, int64_t w)
{
    const int64_t bb = ws->inblossom[base];
    int64_t bv = ws->inblossom[v], bw = ws->inblossom[w];
    const int64_t b = new_blossom(ws);
    int64_t *path = CHILDS(b), *edg = EDGES(b), len = 0;
    ws->base[b] = base;
    ws->parent[b] = -1;
    ws->parent[bb] = b;
    edg[0] = v;
    edg[1] = w;
    int64_t elen = 1;
    while (bv != bb) {
        ws->parent[bv] = b;
        path[len++] = bv;
        edg[2 * elen] = ws->le_v[bv];
        edg[2 * elen + 1] = ws->le_w[bv];
        elen++;
        v = ws->le_v[bv];
        bv = ws->inblossom[v];
    }
    path[len++] = bb;
    for (int64_t i = 0, j = len - 1; i < j; i++, j--) {
        const int64_t t = path[i];
        path[i] = path[j];
        path[j] = t;
    }
    for (int64_t i = 0, j = elen - 1; i < j; i++, j--) {
        for (int c = 0; c < 2; c++) {
            const int64_t t = edg[2 * i + c];
            edg[2 * i + c] = edg[2 * j + c];
            edg[2 * j + c] = t;
        }
    }
    while (bw != bb) {
        ws->parent[bw] = b;
        path[len++] = bw;
        edg[2 * elen] = ws->le_w[bw];
        edg[2 * elen + 1] = ws->le_v[bw];
        elen++;
        w = ws->le_v[bw];
        bw = ws->inblossom[w];
    }
    NCHILD(b) = len;
    ws->label[b] = 1;
    ws->le_v[b] = ws->le_v[bb];
    ws->le_w[b] = ws->le_w[bb];
    ws->bdual[SLOT(b)] = 0.0;
    /* Relabel: T-vertices turn S and join the queue. */
    int64_t count = leaves(ws, b);
    for (int64_t i = 0; i < count; i++) {
        const int64_t x = ws->leaf[i];
        if (ws->label[ws->inblossom[x]] == 2)
            push(ws, x);
        ws->inblossom[x] = b;
    }
    /* b.mybestedges from the sub-blossoms' lists or their vertices. */
    int64_t num_keys = 0;
    for (int64_t c = 0; c < len; c++) {
        const int64_t sub = path[c];
        if (IS_BLOSSOM(sub) && ws->nbest[SLOT(sub)] >= 0) {
            const int64_t *list = ws->best + 2 * SLOT(sub) * ws->cap;
            const int64_t m = ws->nbest[SLOT(sub)];
            ws->nbest[SLOT(sub)] = -1;
            for (int64_t k = 0; k < m; k++)
                num_keys = best_edge_to(ws, b, list[2 * k], list[2 * k + 1],
                                        num_keys);
        } else {
            count = leaves(ws, sub);
            for (int64_t i = 0; i < count; i++) {
                const int64_t x = ws->leaf[i];
                for (int64_t k = 0; k < ws->deg[x]; k++)
                    num_keys = best_edge_to(ws, b, x,
                                            ws->adj[x * ws->cap + k],
                                            num_keys);
            }
        }
        ws->be_v[sub] = ws->be_w[sub] = -1;
    }
    int64_t *list = ws->best + 2 * SLOT(b) * ws->cap;
    double least = 0.0;
    for (int64_t k = 0; k < num_keys; k++) {
        const int64_t key = ws->bto_keys[k];
        list[2 * k] = ws->bto_v[key];
        list[2 * k + 1] = ws->bto_w[key];
        ws->bto_v[key] = ws->bto_w[key] = -1;
        const double s = slack(ws, list[2 * k], list[2 * k + 1]);
        if (k == 0 || s < least) {
            ws->be_v[b] = list[2 * k];
            ws->be_w[b] = list[2 * k + 1];
            least = s;
        }
    }
    ws->nbest[SLOT(b)] = num_keys;
}

static void expand_blossom(ws_t *ws, int64_t b, int endstage)
{
    const int64_t len = NCHILD(b);
    const int64_t *childs = CHILDS(b), *edg = EDGES(b);
    for (int64_t c = 0; c < len; c++) {
        const int64_t s = childs[c];
        ws->parent[s] = -1;
        if (IS_BLOSSOM(s)) {
            if (endstage && ws->bdual[SLOT(s)] == 0.0) {
                expand_blossom(ws, s, endstage);
            } else {
                const int64_t count = leaves(ws, s);
                for (int64_t i = 0; i < count; i++)
                    ws->inblossom[ws->leaf[i]] = s;
            }
        } else {
            ws->inblossom[s] = s;
        }
    }
    if (!endstage && ws->label[b] == 2) {
        /* Relabel from the sub-blossom the label entered through, round
         * the blossom to its base. */
        const int64_t entry = ws->inblossom[ws->le_w[b]];
        int64_t j = index_of(ws, b, entry), jstep;
        if (j & 1) {
            j -= len;
            jstep = 1;
        } else {
            jstep = -1;
        }
        int64_t v = ws->le_v[b], w = ws->le_w[b], p, q;
        while (j != 0) {
            if (jstep == 1) {
                p = edg[2 * wrap(j, len)];
                q = edg[2 * wrap(j, len) + 1];
            } else {
                q = edg[2 * wrap(j - 1, len)];
                p = edg[2 * wrap(j - 1, len) + 1];
            }
            ws->label[w] = 0;
            ws->label[q] = 0;
            assign_label(ws, w, 2, v);
            ws->allow[p * ws->cap + q] = ws->allow[q * ws->cap + p] = 1;
            j += jstep;
            if (jstep == 1) {
                v = edg[2 * wrap(j, len)];
                w = edg[2 * wrap(j, len) + 1];
            } else {
                w = edg[2 * wrap(j - 1, len)];
                v = edg[2 * wrap(j - 1, len) + 1];
            }
            ws->allow[v * ws->cap + w] = ws->allow[w * ws->cap + v] = 1;
            j += jstep;
        }
        const int64_t bw = childs[wrap(j, len)];
        ws->label[w] = ws->label[bw] = 2;
        ws->le_v[w] = ws->le_v[bw] = v;
        ws->le_w[w] = ws->le_w[bw] = w;
        ws->be_v[bw] = ws->be_w[bw] = -1;
        j += jstep;
        while (childs[wrap(j, len)] != entry) {
            const int64_t bv = childs[wrap(j, len)];
            if (ws->label[bv] == 1) {
                j += jstep;
                continue;
            }
            int64_t x = bv;
            if (IS_BLOSSOM(bv)) {
                const int64_t count = leaves(ws, bv);
                for (int64_t i = 0; i < count; i++) {
                    x = ws->leaf[i];
                    if (ws->label[x])
                        break;
                }
            }
            if (ws->label[x]) {
                ws->label[x] = 0;
                ws->label[ws->mate[ws->base[bv]]] = 0;
                assign_label(ws, x, 2, ws->le_v[x]);
            }
            j += jstep;
        }
    }
    free_blossom(ws, b);
}

static void augment_blossom(ws_t *ws, int64_t b, int64_t v)
{
    int64_t t = v;
    while (ws->parent[t] != b)
        t = ws->parent[t];
    if (IS_BLOSSOM(t))
        augment_blossom(ws, t, v);
    int64_t *childs = CHILDS(b), *edg = EDGES(b);
    const int64_t len = NCHILD(b), i = index_of(ws, b, t);
    int64_t j = i, jstep;
    if (i & 1) {
        j -= len;
        jstep = 1;
    } else {
        jstep = -1;
    }
    while (j != 0) {
        int64_t w, x;
        j += jstep;
        t = childs[wrap(j, len)];
        if (jstep == 1) {
            w = edg[2 * wrap(j, len)];
            x = edg[2 * wrap(j, len) + 1];
        } else {
            x = edg[2 * wrap(j - 1, len)];
            w = edg[2 * wrap(j - 1, len) + 1];
        }
        if (IS_BLOSSOM(t))
            augment_blossom(ws, t, w);
        j += jstep;
        t = childs[wrap(j, len)];
        if (IS_BLOSSOM(t))
            augment_blossom(ws, t, x);
        set_mate(ws, w, x);
        set_mate(ws, x, w);
    }
    /* Rotate the new base to the front. */
    int64_t *tmp = ws->tmp;
    for (int64_t c = 0; c < len; c++)
        tmp[c] = childs[(c + i) % len];
    memcpy(childs, tmp, sizeof(int64_t) * (size_t)len);
    for (int64_t c = 0; c < len; c++) {
        tmp[2 * c] = edg[2 * ((c + i) % len)];
        tmp[2 * c + 1] = edg[2 * ((c + i) % len) + 1];
    }
    memcpy(edg, tmp, sizeof(int64_t) * (size_t)(2 * len));
    ws->base[b] = ws->base[childs[0]];
}

static void augment_matching(ws_t *ws, int64_t v, int64_t w)
{
    for (int side = 0; side < 2; side++) {
        int64_t s = side ? w : v, j = side ? v : w;
        for (;;) {
            const int64_t bs = ws->inblossom[s];
            if (IS_BLOSSOM(bs))
                augment_blossom(ws, bs, s);
            set_mate(ws, s, j);
            if (ws->le_v[bs] < 0)
                break;
            const int64_t t = ws->le_v[bs], bt = ws->inblossom[t];
            s = ws->le_v[bt];
            j = ws->le_w[bt];
            if (IS_BLOSSOM(bt))
                augment_blossom(ws, bt, j);
            set_mate(ws, j, s);
        }
    }
}

/* networkx's max_weight_matching(G, maxcardinality=True) main loop on
 * the graph in ws; leaves the matching in ws->mate. */
static void match(ws_t *ws)
{
    const int64_t n = ws->n, cap = ws->cap;
    double maxweight = 0.0;
    for (int64_t v = 0; v < n; v++)
        for (int64_t k = 0; k < ws->deg[v]; k++)
            if (ws->wt[v * cap + ws->adj[v * cap + k]] > maxweight)
                maxweight = ws->wt[v * cap + ws->adj[v * cap + k]];
    for (int64_t v = 0; v < n; v++) {
        ws->mate[v] = -1;
        ws->dual[v] = maxweight;
        ws->inblossom[v] = v;
        ws->parent[v] = -1;
        ws->base[v] = v;
    }
    ws->num_mated = 0;
    ws->head = ws->tail = -1;
    ws->num_free = cap;
    for (int64_t s = 0; s < cap; s++)
        ws->free_slots[s] = cap - 1 - s;

    for (;;) {
        /* A stage: forget labels, least-slack edges, allowable edges. */
        for (int64_t v = 0; v < n; v++) {
            ws->label[v] = 0;
            ws->le_v[v] = ws->le_w[v] = ws->be_v[v] = ws->be_w[v] = -1;
            memset(ws->allow + v * cap, 0, (size_t)n);
        }
        for (int64_t b = ws->head; b >= 0; b = ws->next[SLOT(b)]) {
            ws->label[b] = 0;
            ws->le_v[b] = ws->le_w[b] = ws->be_v[b] = ws->be_w[b] = -1;
            ws->nbest[SLOT(b)] = -1;
        }
        ws->qlen = 0;
        for (int64_t v = 0; v < n; v++)
            if (ws->mate[v] < 0 && ws->label[ws->inblossom[v]] == 0)
                assign_label(ws, v, 1, -1);

        int augmented = 0;
        for (;;) {
            /* A substage: label until an augmenting path turns up. */
            while (ws->qlen && !augmented && !ws->oom) {
                const int64_t v = ws->queue[--ws->qlen];
                for (int64_t k = 0; k < ws->deg[v]; k++) {
                    const int64_t w = ws->adj[v * cap + k];
                    const int64_t bv = ws->inblossom[v], bw = ws->inblossom[w];
                    if (bv == bw)
                        continue;
                    double kslack = 0.0;
                    if (!ws->allow[v * cap + w]) {
                        kslack = slack(ws, v, w);
                        if (kslack <= 0)
                            ws->allow[v * cap + w] = ws->allow[w * cap + v] = 1;
                    }
                    if (ws->allow[v * cap + w]) {
                        if (ws->label[bw] == 0) {
                            assign_label(ws, w, 2, v);
                        } else if (ws->label[bw] == 1) {
                            const int64_t base = scan_blossom(ws, v, w);
                            if (base >= 0) {
                                add_blossom(ws, base, v, w);
                            } else {
                                augment_matching(ws, v, w);
                                augmented = 1;
                                break;
                            }
                        } else if (ws->label[w] == 0) {
                            ws->label[w] = 2;
                            ws->le_v[w] = v;
                            ws->le_w[w] = w;
                        }
                    } else if (ws->label[bw] == 1) {
                        if (ws->be_v[bv] < 0
                                || kslack < slack(ws, ws->be_v[bv], ws->be_w[bv])) {
                            ws->be_v[bv] = v;
                            ws->be_w[bv] = w;
                        }
                    } else if (ws->label[w] == 0) {
                        if (ws->be_v[w] < 0
                                || kslack < slack(ws, ws->be_v[w], ws->be_w[w])) {
                            ws->be_v[w] = v;
                            ws->be_w[w] = w;
                        }
                    }
                }
            }
            if (augmented || ws->oom)
                break;

            /* Least delta: delta2 over free vertices, delta3 over the
             * top-level S-blossoms (vertices, then blossoms by
             * creation), delta4 over the top-level T-blossoms. */
            int deltatype = -1;
            double delta = 0.0;
            int64_t dv = -1, dw = -1, dblossom = -1;
            for (int64_t v = 0; v < n; v++) {
                if (ws->label[ws->inblossom[v]] == 0 && ws->be_v[v] >= 0) {
                    const double d = slack(ws, ws->be_v[v], ws->be_w[v]);
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 2;
                        dv = ws->be_v[v];
                        dw = ws->be_w[v];
                    }
                }
            }
            for (int64_t b = 0; b >= 0; b = next_id(ws, b)) {
                if (ws->parent[b] < 0 && ws->label[b] == 1
                        && ws->be_v[b] >= 0) {
                    const double d = slack(ws, ws->be_v[b], ws->be_w[b]) / 2.0;
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 3;
                        dv = ws->be_v[b];
                        dw = ws->be_w[b];
                    }
                }
            }
            for (int64_t b = ws->head; b >= 0; b = ws->next[SLOT(b)]) {
                if (ws->parent[b] < 0 && ws->label[b] == 2
                        && (deltatype == -1 || ws->bdual[SLOT(b)] < delta)) {
                    delta = ws->bdual[SLOT(b)];
                    deltatype = 4;
                    dblossom = b;
                }
            }
            if (deltatype == -1)
                break;      /* max-cardinality optimum */

            for (int64_t v = 0; v < n; v++) {
                const int64_t label = ws->label[ws->inblossom[v]];
                if (label == 1)
                    ws->dual[v] -= delta;
                else if (label == 2)
                    ws->dual[v] += delta;
            }
            for (int64_t b = ws->head; b >= 0; b = ws->next[SLOT(b)]) {
                if (ws->parent[b] < 0) {
                    if (ws->label[b] == 1)
                        ws->bdual[SLOT(b)] += delta;
                    else if (ws->label[b] == 2)
                        ws->bdual[SLOT(b)] -= delta;
                }
            }
            if (deltatype == 4) {
                expand_blossom(ws, dblossom, 0);
            } else {
                ws->allow[dv * cap + dw] = ws->allow[dw * cap + dv] = 1;
                push(ws, dv);
            }
        }
        if (!augmented || ws->oom)
            return;

        /* End of a stage: expand the top-level S-blossoms of zero dual,
         * over a snapshot.  One expansion may take nested ones with it;
         * a freed slot has label 0 and no blossom is created meanwhile,
         * so those fail the label test as `b not in blossomdual` does. */
        int64_t count = 0;
        for (int64_t b = ws->head; b >= 0; b = ws->next[SLOT(b)])
            ws->snap[count++] = b;
        for (int64_t i = 0; i < count; i++) {
            const int64_t b = ws->snap[i];
            if (ws->parent[b] < 0 && ws->label[b] == 1
                    && ws->bdual[SLOT(b)] == 0.0)
                expand_blossom(ws, b, 1);
        }
    }
}

/* _nx_match's graph: add_node / add_edge in its order. */
static int64_t vertex(ws_t *ws, int64_t code)
{
    if (ws->where[code] < 0) {
        ws->where[code] = ws->n;
        ws->code[ws->n] = code;
        ws->deg[ws->n] = 0;
        ws->n++;
    }
    return ws->where[code];
}

static void add_edge(ws_t *ws, int64_t a, int64_t b, double weight)
{
    const int64_t u = vertex(ws, a), v = vertex(ws, b), cap = ws->cap;
    ws->adj[u * cap + ws->deg[u]++] = v;
    ws->adj[v * cap + ws->deg[v]++] = u;
    ws->wt[u * cap + v] = ws->wt[v * cap + u] = weight;
}

/* Match every pattern.  Pattern p's events (detector nodes, ascending)
 * are events[event_ptr[p] .. event_ptr[p + 1]]; dist and parity are the
 * graph's (rows, stride) shortest-path tables with the boundary in
 * column bcol.  mates[2 e .. 2 e + 2 k) (e = event_ptr[p]) receives, for
 * each node code c (2 i for (e, i), 2 i + 1 for (b, i)), its mate's
 * code; out[p] the correction parity. */
int64_t repro_blossom_match(int64_t num_patterns, const int64_t *event_ptr,
                            const int64_t *events, int64_t stride,
                            int64_t bcol, const double *dist,
                            const uint8_t *parity, double bias,
                            int64_t *mates, uint8_t *out)
{
    int64_t widest = 0;
    for (int64_t p = 0; p < num_patterns; p++)
        if (event_ptr[p + 1] - event_ptr[p] > widest)
            widest = event_ptr[p + 1] - event_ptr[p];
    if (widest == 0) {
        for (int64_t p = 0; p < num_patterns; p++)
            out[p] = 0;
        return OK;
    }
    /* n <= cap vertices and at most n / 2 live blossoms (each holds
     * three or more sub-blossoms), so cap slots; a blossom has at most
     * cap children and cap least-slack edges. */
    const int64_t cap = 2 * widest, ids = 2 * cap;
    ws_t state = {0};
    ws_t *ws = &state;
    ws->cap = cap;
    ws->qcap = 4 * cap;
    int64_t *ints = malloc(sizeof(int64_t)
                           * (size_t)(6 * cap * cap + 15 * cap + 12 * ids));
    double *doubles = malloc(sizeof(double) * (size_t)(cap * cap + 2 * cap));
    uint8_t *bytes = malloc((size_t)(cap * cap));
    ws->queue = malloc(sizeof(int64_t) * (size_t)ws->qcap);
    int64_t status = OK;
    if (ints == NULL || doubles == NULL || bytes == NULL
            || ws->queue == NULL) {
        status = NO_MEMORY;
        goto done;
    }
    int64_t *at = ints;
#define TAKE(field, count) do { ws->field = at; at += (count); } while (0)
    TAKE(adj, cap * cap);
    TAKE(childs, cap * cap);
    TAKE(edges, 2 * cap * cap);
    TAKE(best, 2 * cap * cap);
    TAKE(deg, cap);
    TAKE(code, cap);
    TAKE(where, cap);
    TAKE(mate, cap);
    TAKE(inblossom, cap);
    TAKE(mate_seq, cap);
    TAKE(mate_order, cap);
    TAKE(nchild, cap);
    TAKE(nbest, cap);
    TAKE(next, cap);
    TAKE(prev, cap);
    TAKE(free_slots, cap);
    TAKE(snap, cap);
    TAKE(tmp, 2 * cap);
    TAKE(label, ids);
    TAKE(le_v, ids);
    TAKE(le_w, ids);
    TAKE(be_v, ids);
    TAKE(be_w, ids);
    TAKE(parent, ids);
    TAKE(base, ids);
    TAKE(leaf, ids);
    TAKE(stack, ids);
    TAKE(bto_v, ids);
    TAKE(bto_w, ids);
    TAKE(bto_keys, ids);
#undef TAKE
    ws->wt = doubles;
    ws->dual = doubles + cap * cap;
    ws->bdual = ws->dual + cap;
    ws->allow = bytes;
    for (int64_t i = 0; i < ids; i++)
        ws->bto_v[i] = ws->bto_w[i] = -1;

    for (int64_t p = 0; p < num_patterns && status == OK; p++) {
        const int64_t *ev = events + event_ptr[p];
        const int64_t k = event_ptr[p + 1] - event_ptr[p];
        int64_t *mate_out = mates + 2 * event_ptr[p];
        ws->n = 0;
        for (int64_t c = 0; c < 2 * k; c++)
            ws->where[c] = -1;
        for (int64_t i = 0; i < k; i++) {
            vertex(ws, 2 * i);
            vertex(ws, 2 * i + 1);
            add_edge(ws, 2 * i, 2 * i + 1,
                     -dist[ev[i] * stride + bcol] - bias);
            for (int64_t j = i + 1; j < k; j++) {
                const double d = dist[ev[i] * stride + ev[j]];
                if (isfinite(d))
                    add_edge(ws, 2 * i, 2 * j, -d);
                add_edge(ws, 2 * i + 1, 2 * j + 1, 0.0);
            }
        }
        match(ws);
        if (ws->oom) {
            status = NO_MEMORY;
            break;
        }
        uint8_t corr = 0;
        for (int64_t c = 0; c < 2 * k; c++)
            mate_out[c] = -1;
        for (int64_t s = 0; s < ws->num_mated; s++) {
            const int64_t u = ws->mate_order[s], m = ws->mate[u];
            const int64_t cu = ws->code[u], cm = ws->code[m];
            mate_out[cu] = cm;
            if (ws->mate_seq[m] < s || (cu & 1 && cm & 1))
                continue;
            if (!(cu & 1) && !(cm & 1))
                corr ^= parity[ev[cu / 2] * stride + ev[cm / 2]];
            else
                corr ^= parity[ev[(cu & 1 ? cm : cu) / 2] * stride + bcol];
        }
        out[p] = corr;
    }
done:
    free(ints);
    free(doubles);
    free(bytes);
    free(ws->queue);
    return status;
}

/* ---- Patterns of at most DP_LIMIT defects: the bitmask DP ----------
 *
 * matching._dp_match, option for option.  A state is the mask of the
 * pattern's still-unmatched events; its lowest event i goes to the
 * boundary -- (d[e_i, bcol] + bias) + rest -- or to a partner j > i in
 * ascending order -- d[e_i, e_j] + rest, skipped when d is not finite --
 * and a candidate replaces the best only when strictly cheaper, so the
 * first minimum wins.  Only the states the recursion reaches are
 * solved; each is memoised in a 1 << k table whose entries count only
 * when stamped with the current pattern's number, so nothing is
 * cleared between patterns.  The DP only adds, so there is no multiply
 * to contract and the sums are the recursion's bit for bit. */

#define DP_LIMIT 16

/* Lowest set bit of a nonzero mask. */
static int64_t lowest(uint32_t mask)
{
#if defined(__GNUC__)
    return __builtin_ctz(mask);
#else
    int64_t i = 0;
    while (!(mask >> i & 1))
        i++;
    return i;
#endif
}

typedef struct {
    double cost;
    uint32_t stamp;                     /* == dp_t.stamp: solved */
    uint8_t flip;
} memo_t;

/* One pattern's k events: the boundary option's cost (d + bias, the
 * recursion's first add) and parity per event, each pair's distance
 * and parity, and per event the mask of partners at a finite distance. */
typedef struct {
    double bcost[DP_LIMIT], pcost[DP_LIMIT][DP_LIMIT];
    uint8_t bflip[DP_LIMIT], pflip[DP_LIMIT][DP_LIMIT];
    uint32_t finite[DP_LIMIT], stamp;
    memo_t *memo;
} dp_t;

static void dp_solve(dp_t *dp, uint32_t mask)
{
    const int64_t i = lowest(mask);
    const uint32_t rem = mask & (mask - 1);
    memo_t *const memo = dp->memo;
    if (memo[rem].stamp != dp->stamp)
        dp_solve(dp, rem);
    double best = dp->bcost[i] + memo[rem].cost;
    uint8_t flip = dp->bflip[i] ^ memo[rem].flip;
    for (uint32_t mm = rem & dp->finite[i]; mm; mm &= mm - 1) {
        const int64_t j = lowest(mm);
        const uint32_t rest = rem & ~((uint32_t)1 << j);
        if (memo[rest].stamp != dp->stamp)
            dp_solve(dp, rest);
        const double cand = dp->pcost[i][j] + memo[rest].cost;
        if (cand < best) {
            best = cand;
            flip = dp->pflip[i][j] ^ memo[rest].flip;
        }
    }
    memo[mask].cost = best;
    memo[mask].flip = flip;
    memo[mask].stamp = dp->stamp;
}

/* Match every pattern of at most DP_LIMIT events.  The inputs are
 * repro_blossom_match's, plus the tables' row count; costs[p] receives
 * the matching's weight and out[p] its correction parity.  BAD_INPUT,
 * before anything is written, for a pattern of more than DP_LIMIT
 * events or an event or bcol outside the tables. */
int64_t repro_dp_match(int64_t num_patterns, const int64_t *event_ptr,
                       const int64_t *events, int64_t rows, int64_t stride,
                       int64_t bcol, const double *dist,
                       const uint8_t *parity, double bias, double *costs,
                       uint8_t *out)
{
    int64_t widest = 0;
    if (bcol < 0 || bcol >= stride || event_ptr[0] != 0)
        return BAD_INPUT;
    for (int64_t p = 0; p < num_patterns; p++) {
        const int64_t k = event_ptr[p + 1] - event_ptr[p];
        if (k < 0 || k > DP_LIMIT)
            return BAD_INPUT;
        for (int64_t e = event_ptr[p]; e < event_ptr[p + 1]; e++)
            if (events[e] < 0 || events[e] >= rows || events[e] >= stride)
                return BAD_INPUT;
        if (k > widest)
            widest = k;
    }
    memo_t *memo = calloc((size_t)1 << widest, sizeof(memo_t));
    if (memo == NULL)
        return NO_MEMORY;
    dp_t state;
    dp_t *dp = &state;
    dp->memo = memo;
    for (int64_t p = 0; p < num_patterns; p++) {
        const int64_t *ev = events + event_ptr[p];
        const int64_t k = event_ptr[p + 1] - event_ptr[p];
        for (int64_t i = 0; i < k; i++) {
            const double *drow = dist + ev[i] * stride;
            const uint8_t *prow = parity + ev[i] * stride;
            dp->bcost[i] = drow[bcol] + bias;
            dp->bflip[i] = prow[bcol];
            dp->finite[i] = 0;
            for (int64_t j = i + 1; j < k; j++) {
                dp->pcost[i][j] = drow[ev[j]];
                dp->pflip[i][j] = prow[ev[j]];
                if (isfinite(drow[ev[j]]))
                    dp->finite[i] |= (uint32_t)1 << j;
            }
        }
        /* Stamp 0 is calloc's "never solved"; mask 0 is always solved. */
        dp->stamp = (uint32_t)p + 1;
        memo[0].cost = 0.0;
        memo[0].flip = 0;
        memo[0].stamp = dp->stamp;
        const uint32_t full = (uint32_t)(((uint32_t)1 << k) - 1);
        if (k > 0)
            dp_solve(dp, full);
        costs[p] = memo[full].cost;
        out[p] = memo[full].flip;
    }
    free(memo);
    return OK;
}
