/* Union-find cluster growth and peeling over a batch of patterns.
 *
 * Its oracle is tests/oracles/decoders.py's uf_decode_pattern, the
 * decoder run one pattern at a time in Python; every parity equals the
 * oracle's.  Nodes are the graph's detectors 0..n-1 plus the boundary
 * as node n; edge e joins u[e] and v[e] and carries flip[e].
 *
 * repro_uf_grow replays the oracle's growth for each pattern and
 * writes the edges in the order the oracle adds them to its `grown`
 * set: the erased edges, then per synchronized step the completed bulk
 * edges and the accepted boundary edges, each in index order.  The
 * disjoint sets mirror the oracle's _DSU (union by rank, path
 * halving, the boundary one node), and the float growth repeats its
 * operations one for one: `growth += step`, the smallest residual,
 * `max(step, eps)`, the `target / 2` hold.  There is no multiply-add
 * for the compiler to contract, and no fast-math flag.
 *
 * The oracle peels in the iteration order of that Python set, which
 * only CPython can define: the caller rebuilds each set from the
 * sequence and hands its order to repro_uf_peel, which builds the
 * adjacency, seeds and DFS as the oracle does and peels in reverse.
 *
 * Built by repro/_clib.py with `cc -O2 -shared -fPIC`; C99, libc only.
 */

#include <stdint.h>
#include <stdlib.h>

enum { OK = 0, NO_CONVERGENCE = 1, NO_MEMORY = 2, NO_ROOM = 3 };

/* grown.add(e), within the caller's buffer. */
#define EMIT(e) do {                                \
        if (count == capacity) {                    \
            status = NO_ROOM;                       \
            goto done;                              \
        }                                           \
        grown[count++] = (e);                       \
    } while (0)

/* unionfind._GROWTH_EPS */
static const double GROWTH_EPS = 1e-9;

typedef struct {
    int64_t *parent, *rank;
    uint8_t *parity, *boundary;
} dsu_t;

static int64_t find(dsu_t *s, int64_t a)
{
    while (s->parent[a] != a) {
        s->parent[a] = s->parent[s->parent[a]];
        a = s->parent[a];
    }
    return a;
}

static void unite(dsu_t *s, int64_t a, int64_t b)
{
    int64_t ra = find(s, a), rb = find(s, b);
    if (ra == rb)
        return;
    if (s->rank[ra] < s->rank[rb]) {
        int64_t t = ra;
        ra = rb;
        rb = t;
    }
    s->parent[rb] = ra;
    if (s->rank[ra] == s->rank[rb])
        s->rank[ra]++;
    s->parity[ra] ^= s->parity[rb];
    s->boundary[ra] |= s->boundary[rb];
}

/* Grow every pattern's clusters.  Pattern p's defects are
 * defects[defect_ptr[p] .. defect_ptr[p + 1]]; its grown edges go to
 * grown[grown_ptr[p] .. grown_ptr[p + 1]] (capacity: `capacity`
 * entries). */
int64_t repro_uf_grow(int64_t n, int64_t num_edges, const int64_t *u,
                      const int64_t *v, const double *target,
                      const int64_t *erased, int64_t num_erased,
                      int64_t weighted, int64_t guard_limit,
                      int64_t num_patterns, const int64_t *defect_ptr,
                      const int64_t *defects, int64_t capacity,
                      int64_t *grown_ptr, int64_t *grown)
{
    const int64_t bnode = n, E = num_edges;
    int64_t status = OK, count = 0, stamp = 0;
    int64_t *ints = malloc(sizeof(int64_t) * (size_t)(3 * (n + 1) + 2 * E));
    uint8_t *bytes = malloc((size_t)(2 * (n + 1)));
    double *growth = malloc(sizeof(double) * (size_t)(E + 1));
    if (ints == NULL || bytes == NULL || growth == NULL) {
        status = NO_MEMORY;
        goto done;
    }
    dsu_t s = {ints, ints + (n + 1), bytes, bytes + (n + 1)};
    /* mark[r] == stamp: r is an odd, boundary-free root this step. */
    int64_t *mark = ints + 2 * (n + 1);
    int64_t *to_grow = ints + 3 * (n + 1);
    int64_t *completed = to_grow + E;
    for (int64_t i = 0; i <= n; i++)
        mark[i] = 0;

    grown_ptr[0] = 0;
    for (int64_t p = 0; p < num_patterns; p++) {
        const int64_t lo = defect_ptr[p], hi = defect_ptr[p + 1];
        if (lo == hi) {             /* no defects: no growth at all */
            grown_ptr[p + 1] = count;
            continue;
        }
        for (int64_t i = 0; i <= n; i++) {
            s.parent[i] = i;
            s.rank[i] = 0;
            s.parity[i] = 0;
            s.boundary[i] = 0;
        }
        s.boundary[bnode] = 1;
        for (int64_t k = lo; k < hi; k++)
            s.parity[defects[k]] = 1;
        for (int64_t e = 0; e < E; e++)
            growth[e] = 0.0;

        /* Erasure pre-growth. */
        for (int64_t k = 0; k < num_erased; k++) {
            const int64_t e = erased[k];
            growth[e] = target[e];
            EMIT(e);
            unite(&s, u[e], v[e]);
        }

        int64_t guard = 0;
        for (;;) {
            int odd = 0;
            stamp++;
            for (int64_t k = lo; k < hi; k++) {
                const int64_t r = find(&s, defects[k]);
                if (s.parity[r] && !s.boundary[r]) {
                    mark[r] = stamp;
                    odd = 1;
                }
            }
            if (!odd)
                break;
            if (++guard > guard_limit) {
                status = NO_CONVERGENCE;
                goto done;
            }
            /* Every edge incident to an odd cluster grows one step. */
            int64_t num_grow = 0;
            for (int64_t e = 0; e < E; e++) {
                if (growth[e] >= target[e] - GROWTH_EPS)
                    continue;
                if (mark[find(&s, u[e])] == stamp
                        || mark[find(&s, v[e])] == stamp)
                    to_grow[num_grow++] = e;
            }
            double step = 0.5;
            if (weighted && num_grow) {
                double least = target[to_grow[0]] - growth[to_grow[0]];
                for (int64_t k = 1; k < num_grow; k++) {
                    const double r = target[to_grow[k]] - growth[to_grow[k]];
                    if (r < least)
                        least = r;
                }
                if (least < step)
                    step = least;
                if (GROWTH_EPS > step)
                    step = GROWTH_EPS;
            }
            int64_t num_done = 0;
            for (int64_t k = 0; k < num_grow; k++) {
                const int64_t e = to_grow[k];
                growth[e] += step;
                if (growth[e] >= target[e] - GROWTH_EPS)
                    completed[num_done++] = e;
            }
            /* Defect clusters merge before the boundary absorbs any. */
            for (int64_t k = 0; k < num_done; k++) {
                const int64_t e = completed[k];
                if (u[e] != bnode && v[e] != bnode) {
                    EMIT(e);
                    unite(&s, u[e], v[e]);
                }
            }
            for (int64_t k = 0; k < num_done; k++) {
                const int64_t e = completed[k];
                if (u[e] != bnode && v[e] != bnode)
                    continue;
                const int64_t r = find(&s, v[e] == bnode ? u[e] : v[e]);
                if (s.parity[r] && !s.boundary[r]) {
                    EMIT(e);
                    unite(&s, u[e], v[e]);
                } else {
                    growth[e] = target[e] / 2.0;
                }
            }
        }
        grown_ptr[p + 1] = count;
    }
done:
    free(ints);
    free(bytes);
    free(growth);
    return status;
}

/* Peel every pattern's grown forest.  Pattern p's edges, in the order
 * its `grown` set iterates, are order[order_ptr[p] .. order_ptr[p + 1]];
 * out[p] is its correction parity. */
int64_t repro_uf_peel(int64_t n, const int64_t *u, const int64_t *v,
                      const uint8_t *flip, int64_t num_patterns,
                      const int64_t *defect_ptr, const int64_t *defects,
                      const int64_t *order_ptr, const int64_t *order,
                      uint8_t *out)
{
    const int64_t bnode = n;
    int64_t widest = 0;
    for (int64_t p = 0; p < num_patterns; p++)
        if (order_ptr[p + 1] - order_ptr[p] > widest)
            widest = order_ptr[p + 1] - order_ptr[p];
    /* Per node: adjacency start, fill and degree; the nodes in order of
     * first appearance; the DFS stack and visit order as (node, parent
     * edge, parent node) triples; per adjacency entry (node, edge). */
    int64_t *ints = malloc(sizeof(int64_t)
                           * (size_t)(10 * (n + 1) + 4 * widest));
    uint8_t *bytes = malloc((size_t)(2 * (n + 1)));
    if (ints == NULL || bytes == NULL) {
        free(ints);
        free(bytes);
        return NO_MEMORY;
    }
    int64_t *start = ints, *fill = start + (n + 1), *degree = fill + (n + 1);
    int64_t *seen = degree + (n + 1);
    int64_t *stack = seen + (n + 1), *visit = stack + 3 * (n + 1);
    int64_t *adj = visit + 3 * (n + 1);
    uint8_t *visited = bytes, *flag = bytes + (n + 1);
    for (int64_t i = 0; i <= n; i++) {
        degree[i] = 0;
        visited[i] = 0;
        flag[i] = 0;
    }

    for (int64_t p = 0; p < num_patterns; p++) {
        const int64_t *edges = order + order_ptr[p];
        const int64_t m = order_ptr[p + 1] - order_ptr[p];
        int64_t num_seen = 0;
        /* adj.setdefault(u, []).append((v, e)), then the same for v. */
        for (int64_t k = 0; k < m; k++) {
            const int64_t ends[2] = {u[edges[k]], v[edges[k]]};
            for (int j = 0; j < 2; j++)
                if (degree[ends[j]]++ == 0)
                    seen[num_seen++] = ends[j];
        }
        int64_t at = 0;
        for (int64_t i = 0; i < num_seen; i++) {
            start[seen[i]] = at;
            fill[seen[i]] = at;
            at += degree[seen[i]];
        }
        for (int64_t k = 0; k < m; k++) {
            const int64_t e = edges[k], a = u[e], b = v[e];
            adj[2 * fill[a]] = b;
            adj[2 * fill[a]++ + 1] = e;
            adj[2 * fill[b]] = a;
            adj[2 * fill[b]++ + 1] = e;
        }

        /* Spanning forest: the boundary first, then the nodes in the
         * order they entered the adjacency. */
        int64_t num_visit = 0;
        for (int64_t i = -1; i < num_seen; i++) {
            const int64_t seed = i < 0 ? bnode : seen[i];
            if ((i >= 0 && seed == bnode) || degree[seed] == 0
                    || visited[seed])
                continue;
            visited[seed] = 1;
            stack[0] = seed;
            stack[1] = -1;              /* a root: no parent edge */
            stack[2] = -1;
            int64_t top = 1;
            while (top) {
                top--;
                const int64_t x = stack[3 * top];
                visit[3 * num_visit] = x;
                visit[3 * num_visit + 1] = stack[3 * top + 1];
                visit[3 * num_visit + 2] = stack[3 * top + 2];
                num_visit++;
                for (int64_t j = start[x]; j < start[x] + degree[x]; j++) {
                    const int64_t y = adj[2 * j];
                    if (!visited[y]) {
                        visited[y] = 1;
                        stack[3 * top] = y;
                        stack[3 * top + 1] = adj[2 * j + 1];
                        stack[3 * top + 2] = x;
                        top++;
                    }
                }
            }
        }

        /* Reverse DFS order: a leaf holding a defect takes its parent
         * edge and hands the defect up (the boundary swallows it). */
        for (int64_t k = defect_ptr[p]; k < defect_ptr[p + 1]; k++)
            flag[defects[k]] = 1;
        uint8_t corr = 0;
        for (int64_t k = num_visit - 1; k >= 0; k--) {
            const int64_t x = visit[3 * k], e = visit[3 * k + 1];
            const int64_t parent = visit[3 * k + 2];
            if (e < 0 || !flag[x])
                continue;
            corr ^= flip[e];
            flag[x] = 0;
            if (parent != bnode)
                flag[parent] ^= 1;
        }
        out[p] = corr;

        for (int64_t k = defect_ptr[p]; k < defect_ptr[p + 1]; k++)
            flag[defects[k]] = 0;
        for (int64_t i = 0; i < num_seen; i++) {
            degree[seen[i]] = 0;
            visited[seen[i]] = 0;
            flag[seen[i]] = 0;
        }
    }
    free(ints);
    free(bytes);
    return OK;
}
