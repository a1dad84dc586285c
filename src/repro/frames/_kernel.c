/* Native loops of the frames backend: three entry points.
 *
 * repro_frames_run executes ops [first, stop) of a program (the int64
 * stream of repro.frames.program.encode_ops past its header, plus the
 * binding's probability vector and, on a tilted binding, its
 * log-likelihood ratios) in place on the simulator's x, z and record
 * words and its per-shot log-weights.  Opcodes are the OP_* numbers of
 * program.py; every operand was range-checked when the stream was
 * encoded and the bounds held against the arrays before the call, so
 * nothing is checked here.  A scalar op's operands are laid out as a
 * one-wide layer's, so each kind has one case.
 *
 * Its oracle is tests/oracles/frames.py's exec_numpy, one numpy handler
 * per op.  Randomness is numpy's: lane l draws through the bitgen_t its
 * generator publishes, with the calls — next_raw where the oracle calls
 * random_raw, next_double where it calls Generator.random — and in the
 * order the oracle makes them: op by op, and inside an op lane by lane,
 * each lane all of its rows.
 *
 * Weights keep the oracle's float order: a scalar site adds
 * its ratio to each shot's log-weight (nothing when both ratios are
 * 0), a layer sums its rows' ratios from its first row on and adds the
 * sum once.
 *
 * repro_frames_reference is frame compilation's reference pass: the
 * REF_* stream of repro.frames.program (gates, circuit resets,
 * measurements and Z-determinacy queries; depolarize and flip sites
 * are skipped) run once on a bit-packed Aaronson-Gottesman tableau, the
 * one repro.stabilizer.tableau.Tableau keeps — the same rows, the same
 * rowsum with its exact phase sum mod 4, the same pivot — so every
 * answer and every draw is that of tests/oracles/frames.py's
 * replay_reference.  A random branch (measurement or reset) draws
 * next_uint32 >> 31 from the caller's generator: what
 * Generator.integers(0, 2) returns and consumes (bounded Lemire on
 * range 2 keeps the top bit and never rejects).
 *
 * repro_tableau_run is the tableau executor (run_batch_noisy's
 * "tableau" backend): B shots of the same REF_* stream in lockstep on
 * batched CHP tableaus laid out as the numpy ones of its oracle
 * (tests/oracles/tableau.py's numpy_walk), noise entries included, so
 * that each noise entry is the site of its rank.  It draws what the
 * oracle draws, in its order: B next_double per site
 * (Generator.random(B)), none at a certain reset site whose table does
 * not draw there, and ceil(k / 4) next_uint32 per measurement with k
 * random-branch shots, shot j's outcome bit 7 of byte j % 4 of word
 * j / 4 (Generator.integers(0, 2, size=k, dtype=uint8)).
 *
 * Built by frames/_native.py with `cc -O2 -shared -fPIC`; C99, libc only.
 */

#define _POSIX_C_SOURCE 199309L     /* clock_gettime */

#include <stdint.h>
#include <stdlib.h>
#include <time.h>

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum {
    OP_H, OP_S, OP_CX, OP_CZ, OP_SWAP, OP_MEASURE, OP_RESET, OP_DEPOLARIZE,
    OP_RESET_NOISE, OP_FLIP, OP_H_LAYER, OP_S_LAYER, OP_CX_LAYER,
    OP_CZ_LAYER, OP_SWAP_LAYER, OP_MEASURE_LAYER, OP_RESET_LAYER,
    OP_DEPOLARIZE_LAYER, NUM_OPS
};

/* Operand words of a scalar op, or per entry of a layer. */
static const int64_t ARITY[NUM_OPS] = {
    [OP_H] = 1, [OP_S] = 1, [OP_CX] = 2, [OP_CZ] = 2, [OP_SWAP] = 2,
    [OP_MEASURE] = 3, [OP_RESET] = 1, [OP_DEPOLARIZE] = 2,
    [OP_RESET_NOISE] = 3, [OP_FLIP] = 3, [OP_H_LAYER] = 1, [OP_S_LAYER] = 1,
    [OP_CX_LAYER] = 2, [OP_CZ_LAYER] = 2, [OP_SWAP_LAYER] = 2,
    [OP_MEASURE_LAYER] = 3, [OP_RESET_LAYER] = 1, [OP_DEPOLARIZE_LAYER] = 2,
};

enum { OK = 0, NO_MEMORY = 1, BAD_OP = 2 };

/* out[]: depolarize rows, hits. */
enum { OUT_ROWS, OUT_HITS };

/* reset_noise x_value operand: 0, 1, or reference Z-indefinite (twirl). */
enum { X_TWIRL = 2 };

typedef struct { int64_t shots, lo, hi; } lane_t;

typedef struct {
    uint64_t *x, *z, *rec;
    int64_t W;                  /* words per row */
    int64_t num_lanes;
    const lane_t *lanes;
    bitgen_t *const *gens;
    const double *prob;
    /* Tilted bindings: llr_hit per site, then llr_miss per site, and
     * the per-shot log-weights; lw is NULL on a plain one. */
    const double *llr;
    int64_t num_sites;
    double *lw;
    double *layer_lw;           /* scratch: a layer's per-shot sum */
    uint64_t *mask;             /* scratch: the widest lane's words */
    int64_t *out;
} sim_t;

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static void xor_row(uint64_t *into, const uint64_t *from, int64_t W)
{
    for (int64_t w = 0; w < W; w++)
        into[w] ^= from[w];
}

static void swap_rows(uint64_t *a, uint64_t *b, int64_t W)
{
    for (int64_t w = 0; w < W; w++) {
        uint64_t t = a[w];
        a[w] = b[w];
        b[w] = t;
    }
}

static void h(const sim_t *s, int64_t a)
{
    swap_rows(s->x + a * s->W, s->z + a * s->W, s->W);
}

static void cx(const sim_t *s, int64_t c, int64_t t)
{
    xor_row(s->x + t * s->W, s->x + c * s->W, s->W);
    xor_row(s->z + c * s->W, s->z + t * s->W, s->W);
}

static void cz(const sim_t *s, int64_t a, int64_t b)
{
    xor_row(s->z + a * s->W, s->x + b * s->W, s->W);
    xor_row(s->z + b * s->W, s->x + a * s->W, s->W);
}

static void swap(const sim_t *s, int64_t a, int64_t b)
{
    swap_rows(s->x + a * s->W, s->x + b * s->W, s->W);
    swap_rows(s->z + a * s->W, s->z + b * s->W, s->W);
}

/* record[cbit] = x[a] ^ reference: reads only, the draw comes after. */
static void read_out(const sim_t *s, int64_t a, int64_t cbit, int64_t ref)
{
    const uint64_t *x = s->x + a * s->W, flip = ref ? ~(uint64_t)0 : 0;
    uint64_t *rec = s->rec + cbit * s->W;
    for (int64_t w = 0; w < s->W; w++)
        rec[w] = x[w] ^ flip;
}

/* Fresh Z words for qubits qs[0..k): lane by lane, one k * W_lane-word
 * draw each (FrameSimulator._random_rows); XORed in after a measure,
 * stored after a reset. */
static void random_z(const sim_t *s, const int64_t *qs, int64_t k, int store)
{
    for (int64_t l = 0; l < s->num_lanes; l++) {
        const lane_t *lane = &s->lanes[l];
        const bitgen_t *g = s->gens[l];
        for (int64_t i = 0; i < k; i++) {
            uint64_t *z = s->z + qs[i] * s->W;
            for (int64_t w = lane->lo; w < lane->hi; w++) {
                uint64_t r = g->next_raw(g->state);
                z[w] = store ? r : z[w] ^ r;
            }
        }
    }
}

static void clear_x(const sim_t *s, int64_t a)
{
    uint64_t *x = s->x + a * s->W;
    for (int64_t w = 0; w < s->W; w++)
        x[w] = 0;
}

/* The oracle's reset_noise: per lane a Bernoulli(p) mask
 * (packing.bernoulli_words: no draw at p <= 0 or p >= 1), nothing more
 * when it is empty, else the optional X words, then the Z words. */
static void reset_noise(const sim_t *s, int64_t a, double p, int64_t x_value)
{
    uint64_t *m = s->mask;
    for (int64_t l = 0; l < s->num_lanes; l++) {
        const lane_t *lane = &s->lanes[l];
        const bitgen_t *g = s->gens[l];
        int64_t words = lane->hi - lane->lo;
        uint64_t any = 0;
        if (p >= 1.0) {
            int64_t tail = lane->shots % 64;
            for (int64_t w = 0; w < words; w++)
                m[w] = ~(uint64_t)0;
            if (tail)
                m[words - 1] = ((uint64_t)1 << tail) - 1;
            any = 1;
        } else if (p <= 0.0) {
            continue;
        } else {
            for (int64_t w = 0, left = lane->shots; w < words;
                 w++, left -= 64) {
                int64_t bits = left < 64 ? left : 64;
                uint64_t word = 0;
                for (int64_t b = 0; b < bits; b++)
                    word |= (uint64_t)(g->next_double(g->state) < p) << b;
                m[w] = word;
                any |= word;
            }
        }
        if (!any)
            continue;
        uint64_t *x = s->x + a * s->W + lane->lo;
        uint64_t *z = s->z + a * s->W + lane->lo;
        if (x_value == X_TWIRL) {
            for (int64_t w = 0; w < words; w++)
                x[w] ^= (x[w] ^ g->next_raw(g->state)) & m[w];
        } else if (x_value) {
            for (int64_t w = 0; w < words; w++)
                x[w] |= m[w];
        } else {
            for (int64_t w = 0; w < words; w++)
                x[w] &= ~m[w];
        }
        for (int64_t w = 0; w < words; w++)
            z[w] ^= (z[w] ^ g->next_raw(g->state)) & m[w];
    }
}

/* The oracle's _depolarize: per lane, each site's row of one uniform
 * per shot; u < p fires, X iff u < 2p/3, Z iff u >= p/3.  A weighted
 * shot banks llr_hit where its site fired, llr_miss elsewhere: a
 * scalar site's at once, a layer's summed over its rows first. */
static void depolarize(const sim_t *s, const int64_t *qs,
                       const int64_t *sites, int64_t k, int layer)
{
    int64_t hits = 0;
    for (int64_t l = 0; l < s->num_lanes; l++) {
        const lane_t *lane = &s->lanes[l];
        const bitgen_t *g = s->gens[l];
        double *lw = s->lw ? s->lw + 64 * lane->lo : NULL;
        double *sum = lw && layer ? s->layer_lw + 64 * lane->lo : lw;
        for (int64_t i = 0; i < k; i++) {
            double p = s->prob[sites[i]], third = p / 3.0;
            double two_thirds = 2 * third, hit = 0.0, miss = 0.0;
            int weigh = 0;
            if (lw) {
                hit = s->llr[sites[i]];
                miss = s->llr[s->num_sites + sites[i]];
                weigh = layer || hit != 0.0 || miss != 0.0;
            }
            uint64_t *x = s->x + qs[i] * s->W + lane->lo;
            uint64_t *z = s->z + qs[i] * s->W + lane->lo;
            for (int64_t w = 0, left = lane->shots; left > 0;
                 w++, left -= 64) {
                int64_t bits = left < 64 ? left : 64;
                uint64_t xm = 0, zm = 0;
                for (int64_t b = 0; b < bits; b++) {
                    double u = g->next_double(g->state);
                    int fired = u < p;
                    if (fired) {
                        hits++;
                        xm |= (uint64_t)(u < two_thirds) << b;
                        zm |= (uint64_t)(u >= third) << b;
                    }
                    if (weigh) {
                        double v = fired ? hit : miss;
                        if (layer && i == 0)
                            sum[64 * w + b] = v;
                        else
                            sum[64 * w + b] += v;
                    }
                }
                x[w] ^= xm;
                z[w] ^= zm;
            }
        }
        if (lw && layer)
            for (int64_t shot = 0; shot < lane->shots; shot++)
                lw[shot] += sum[shot];
    }
    s->out[OUT_ROWS] += k * s->num_lanes;
    s->out[OUT_HITS] += hits;
}

/* The oracle's flip: per lane one uniform per shot, u < p toggles the
 * shot's bit of qubit a's x (or z) row. */
static void flip(const sim_t *s, uint64_t *row, double p)
{
    for (int64_t l = 0; l < s->num_lanes; l++) {
        const lane_t *lane = &s->lanes[l];
        const bitgen_t *g = s->gens[l];
        for (int64_t w = lane->lo, left = lane->shots; left > 0;
             w++, left -= 64) {
            int64_t bits = left < 64 ? left : 64;
            uint64_t word = 0;
            for (int64_t b = 0; b < bits; b++)
                word |= (uint64_t)(g->next_double(g->state) < p) << b;
            row[w] ^= word;
        }
    }
}

/* prof: NULL, or 3 * NUM_OPS doubles — per opcode seconds, calls and
 * fused width beyond the call — clocked where the opcode changes. */
int64_t repro_frames_run(const int64_t *code, int64_t code_len,
                         int64_t first, int64_t stop,
                         const double *prob, const double *llr,
                         int64_t num_sites, double *lw,
                         uint64_t *x, uint64_t *z, uint64_t *rec, int64_t W,
                         int64_t num_lanes, const int64_t *lanes,
                         bitgen_t *const *gens, int64_t *out, double *prof)
{
    sim_t sim = {x, z, rec, W, num_lanes, (const lane_t *)lanes, gens, prob,
                 llr, num_sites, lw, NULL, NULL, out};
    const int64_t *pc = code, *end = code + code_len;
    int64_t status = OK, run_code = -1;
    double t_run = 0.0;
    int64_t widest = 0, shots = 0;

    for (int64_t l = 0; l < num_lanes; l++) {
        int64_t words = sim.lanes[l].hi - sim.lanes[l].lo;
        if (words > widest)
            widest = words;
        shots = 64 * sim.lanes[l].lo + sim.lanes[l].shots;
    }
    sim.mask = malloc((size_t)(widest ? widest : 1) * sizeof(uint64_t));
    if (lw)
        sim.layer_lw = malloc((size_t)(shots ? shots : 1) * sizeof(double));
    if (!sim.mask || (lw && !sim.layer_lw)) {
        free(sim.mask);
        free(sim.layer_lw);
        return NO_MEMORY;
    }
    out[OUT_ROWS] = out[OUT_HITS] = 0;

    for (int64_t i = 0; i < stop && pc < end; i++) {
        int64_t op = *pc++;
        if (op < 0 || op >= NUM_OPS) {  /* unreachable: encode_ops checked */
            status = BAD_OP;
            break;
        }
        /* A layer: width k, then its operand arrays at a. */
        int64_t scalar = op < OP_H_LAYER, k = scalar ? 1 : pc[0];
        const int64_t *a = scalar ? pc : pc + 1;
        pc = a + k * ARITY[op];
        if (i < first)
            continue;
        if (prof) {
            if (op != run_code) {
                double t = now();
                if (run_code >= 0)
                    prof[run_code] += t - t_run;
                t_run = t;
                run_code = op;
            }
            prof[NUM_OPS + op] += 1;
            prof[2 * NUM_OPS + op] += (double)(k - 1);
        }
        switch (op) {
        case OP_H:
        case OP_H_LAYER:
            for (int64_t j = 0; j < k; j++)
                h(&sim, a[j]);
            break;
        case OP_S:
        case OP_S_LAYER:
            for (int64_t j = 0; j < k; j++)
                xor_row(z + a[j] * W, x + a[j] * W, W);
            break;
        case OP_CX:                 /* controls, targets */
        case OP_CX_LAYER:
            for (int64_t j = 0; j < k; j++)
                cx(&sim, a[j], a[k + j]);
            break;
        case OP_CZ:
        case OP_CZ_LAYER:
            for (int64_t j = 0; j < k; j++)
                cz(&sim, a[j], a[k + j]);
            break;
        case OP_SWAP:
        case OP_SWAP_LAYER:
            for (int64_t j = 0; j < k; j++)
                swap(&sim, a[j], a[k + j]);
            break;
        case OP_MEASURE:            /* qubits, cbits, reference bits */
        case OP_MEASURE_LAYER:
            for (int64_t j = 0; j < k; j++)
                read_out(&sim, a[j], a[k + j], a[2 * k + j]);
            random_z(&sim, a, k, 0);
            break;
        case OP_RESET:
        case OP_RESET_LAYER:
            for (int64_t j = 0; j < k; j++)
                clear_x(&sim, a[j]);
            random_z(&sim, a, k, 1);
            break;
        case OP_RESET_NOISE:        /* qubit, site, x_value */
            reset_noise(&sim, a[0], prob[a[1]], a[2]);
            break;
        case OP_DEPOLARIZE:         /* qubits, sites */
        case OP_DEPOLARIZE_LAYER:
            depolarize(&sim, a, a + k, k, !scalar);
            break;
        case OP_FLIP:               /* qubit, site, 0 for X or 1 for Z */
            flip(&sim, (a[2] ? z : x) + a[0] * W, prob[a[1]]);
            break;
        }
    }
    if (prof && run_code >= 0)
        prof[run_code] += now() - t_run;
    free(sim.mask);
    free(sim.layer_lw);
    return status;
}


/* ------------------------------------------------------------------ */
/* The reference pass.                                                */

/* REF_* opcodes of program.py. */
enum {
    REF_X, REF_Y, REF_Z, REF_H, REF_S, REF_SDG, REF_CX, REF_CZ, REF_SWAP,
    REF_RESET, REF_MEASURE, REF_QUERY, REF_DEPOLARIZE, REF_FLIP_X,
    REF_FLIP_Z, NUM_REFS
};

/* Query answer: a measurement there would take the random branch. */
enum { INDEFINITE = 2 };

/* 2n generator rows (destabilizers, then stabilizers) plus one scratch
 * row, W words each; a qubit is a bit column. */
typedef struct {
    int64_t n, W;
    uint64_t *x, *z;
    uint8_t *r;
} tableau_t;

static int64_t popcount(uint64_t v)
{
    v -= (v >> 1) & 0x5555555555555555ULL;
    v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
    v = (v + (v >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int64_t)((v * 0x0101010101010101ULL) >> 56);
}

/* Tableau._rowsum: row h <- row i * row h, the sign from the exponent
 * sum of the AG phase function g over every column. */
static void rowsum(const tableau_t *t, int64_t h, int64_t i)
{
    uint64_t *xh = t->x + h * t->W, *zh = t->z + h * t->W;
    const uint64_t *xi = t->x + i * t->W, *zi = t->z + i * t->W;
    int64_t total = 2 * (int64_t)t->r[h] + 2 * (int64_t)t->r[i];
    for (int64_t w = 0; w < t->W; w++) {
        uint64_t a = xi[w], b = zi[w], c = xh[w], d = zh[w];
        /* g = +1 / -1 per column, by the Pauli of row i (Y, X, Z). */
        uint64_t plus = (a & b & d & ~c) | (a & ~b & c & d)
                        | (~a & b & c & ~d);
        uint64_t minus = (a & b & c & ~d) | (a & ~b & ~c & d)
                         | (~a & b & c & d);
        total += popcount(plus) - popcount(minus);
        xh[w] = c ^ a;
        zh[w] = d ^ b;
    }
    t->r[h] = (uint8_t)((total & 3) >> 1);
}

/* Tableau's column gates, row by row over the 2n generators. */
static void gate(const tableau_t *t, int64_t op, int64_t a, int64_t b)
{
    int64_t wa = a >> 6, wb = b >> 6;
    uint64_t ma = (uint64_t)1 << (a & 63), mb = (uint64_t)1 << (b & 63);
    for (int64_t row = 0; row < 2 * t->n; row++) {
        uint64_t *x = t->x + row * t->W, *z = t->z + row * t->W;
        int xa = (x[wa] & ma) != 0, za = (z[wa] & ma) != 0;
        int xb = (x[wb] & mb) != 0, zb = (z[wb] & mb) != 0;
        uint8_t *r = t->r + row;
        switch (op) {
        case REF_X:
            *r ^= za;
            break;
        case REF_Y:
            *r ^= xa ^ za;
            break;
        case REF_Z:
            *r ^= xa;
            break;
        case REF_H:
            *r ^= xa & za;
            if (xa != za) {
                x[wa] ^= ma;
                z[wa] ^= ma;
            }
            break;
        case REF_S:
            *r ^= xa & za;
            if (xa)
                z[wa] ^= ma;
            break;
        case REF_SDG:
            *r ^= xa & !za;
            if (xa)
                z[wa] ^= ma;
            break;
        case REF_CX:                /* control a, target b */
            *r ^= xa & zb & !(xb ^ za);
            if (xa)
                x[wb] ^= mb;
            if (zb)
                z[wa] ^= ma;
            break;
        case REF_SWAP:
            if (xa != xb) {
                x[wa] ^= ma;
                x[wb] ^= mb;
            }
            if (za != zb) {
                z[wa] ^= ma;
                z[wb] ^= mb;
            }
            break;
        }
    }
}

static int xbit(const tableau_t *t, int64_t row, int64_t a)
{
    return (t->x[row * t->W + (a >> 6)] >> (a & 63)) & 1;
}

/* The first stabilizer row with an X on qubit a, or -1 when the qubit
 * is Z-determinate. */
static int64_t pivot(const tableau_t *t, int64_t a)
{
    for (int64_t p = t->n; p < 2 * t->n; p++)
        if (xbit(t, p, a))
            return p;
    return -1;
}

/* Tableau.measure's deterministic branch: the stabilizer rows paired
 * with the destabilizers holding X on a, multiplied into the scratch
 * row; its sign is the outcome.  Leaves the generators untouched. */
static int64_t determinate(const tableau_t *t, int64_t a)
{
    int64_t s = 2 * t->n;
    for (int64_t w = 0; w < t->W; w++)
        t->x[s * t->W + w] = t->z[s * t->W + w] = 0;
    t->r[s] = 0;
    for (int64_t i = 0; i < t->n; i++)
        if (xbit(t, i, a))
            rowsum(t, s, i + t->n);
    return t->r[s];
}

/* Tableau.measure: the outcome, drawing at a random branch. */
static int64_t measure(const tableau_t *t, int64_t a, int64_t p,
                       bitgen_t *gen)
{
    if (p < 0)
        return determinate(t, a);
    for (int64_t h = 0; h < 2 * t->n; h++)
        if (h != p && xbit(t, h, a))
            rowsum(t, h, p);
    int64_t d = p - t->n, W = t->W;
    for (int64_t w = 0; w < W; w++) {
        t->x[d * W + w] = t->x[p * W + w];
        t->z[d * W + w] = t->z[p * W + w];
        t->x[p * W + w] = t->z[p * W + w] = 0;
    }
    t->r[d] = t->r[p];
    int64_t outcome = gen->next_uint32(gen->state) >> 31;
    t->z[p * W + (a >> 6)] = (uint64_t)1 << (a & 63);
    t->r[p] = (uint8_t)outcome;
    return outcome;
}

/* One pass of the stream (len words) from |0..0> on n qubits.  Per
 * REF_MEASURE and REF_QUERY, in stream order, results[] gets: for a
 * measurement its outcome plus 2 if it took the random branch, for a
 * query the qubit's Z value or INDEFINITE; every entry is at least two
 * words, so len / 2 slots always suffice.  out[] gets the number of
 * results and whether any measurement or reset drew from gen.  The
 * caller holds gen's lock. */
int64_t repro_frames_reference(const int64_t *stream, int64_t len,
                               int64_t n, bitgen_t *gen, int64_t *results,
                               int64_t *out)
{
    int64_t *first = results, drew = 0;
    tableau_t t = {n, (n + 63) / 64, NULL, NULL, NULL};
    size_t words = (size_t)(2 * n + 1) * (size_t)t.W;
    int64_t status = OK;
    t.x = calloc(words, sizeof(uint64_t));
    t.z = calloc(words, sizeof(uint64_t));
    t.r = calloc((size_t)(2 * n + 1), 1);
    if (!t.x || !t.z || !t.r) {
        free(t.x);
        free(t.z);
        free(t.r);
        return NO_MEMORY;
    }
    for (int64_t q = 0; q < n; q++) {   /* destabilizer X_q, stabilizer Z_q */
        t.x[q * t.W + (q >> 6)] = (uint64_t)1 << (q & 63);
        t.z[(n + q) * t.W + (q >> 6)] = (uint64_t)1 << (q & 63);
    }
    for (int64_t i = 0; i < len;) {
        int64_t op = stream[i], two = op == REF_CX || op == REF_CZ
                                      || op == REF_SWAP;
        if (op < 0 || op >= NUM_REFS || i + 1 + two >= len) {
            status = BAD_OP;
            break;
        }
        int64_t a = stream[i + 1], b = two ? stream[i + 2] : a;
        if (a < 0 || a >= n || b < 0 || b >= n) {
            status = BAD_OP;
            break;
        }
        i += 2 + two;
        int64_t p;
        switch (op) {
        case REF_CZ:                /* Tableau.cz: H(b) CX(a, b) H(b) */
            gate(&t, REF_H, b, b);
            gate(&t, REF_CX, a, b);
            gate(&t, REF_H, b, b);
            break;
        case REF_RESET:             /* measure, then X if it read 1 */
            p = pivot(&t, a);
            drew |= p >= 0;
            if (measure(&t, a, p, gen))
                gate(&t, REF_X, a, a);
            break;
        case REF_MEASURE:
            p = pivot(&t, a);
            drew |= p >= 0;
            *results++ = measure(&t, a, p, gen) + (p >= 0 ? 2 : 0);
            break;
        case REF_QUERY:
            *results++ = pivot(&t, a) >= 0 ? INDEFINITE : determinate(&t, a);
            break;
        case REF_DEPOLARIZE:        /* a noise site: the reference is noiseless */
        case REF_FLIP_X:
        case REF_FLIP_Z:
            break;
        default:
            gate(&t, op, a, b);
        }
    }
    out[0] = results - first;
    out[1] = drew;
    free(t.x);
    free(t.z);
    free(t.r);
    return status;
}


/* ------------------------------------------------------------------ */
/* The tableau executor.                                              */

/* prof[] buckets: the four tableau.* stages of run_batch_noisy. */
enum { T_GATES, T_MEASURE_DET, T_MEASURE_RAND, T_NOISE, T_STAGES };

/* B tableaus in lockstep, laid out as the oracle's
 * (n, 2, W, B) x and z and (2, W, B) r: qubit q's column is 2 W rows of
 * B words (destabilizer half, then stabilizer half; row w of a half
 * holds tableau rows 64 w .. 64 w + 63 of every shot, shot innermost),
 * and r is laid out as one column.  A row is padded to P words, one
 * cache line past B, so that one shot's words in successive rows fall
 * in different cache sets. */
typedef struct {
    int64_t n, W, B, P, C;      /* C = 2 W P: one column */
    uint64_t *x, *z, *r;
    bitgen_t *gen;
    double *prof;
    /* scratch */
    uint8_t *outcome, *in;      /* B each */
    int64_t *shots;             /* B */
    double *u;                  /* B */
    uint64_t *tgt, *phase, *acc;    /* 2 W each */
} batch_t;

/* An unmasked Clifford on every shot: the oracle's h, s,
 * sdg, x_gate, y_gate, z_gate, cx and swap (cz composes them). */
static void batch_gate(const batch_t *t, int64_t op, int64_t a, int64_t b)
{
    if (op == REF_CZ) {
        batch_gate(t, REF_H, b, b);
        batch_gate(t, REF_CX, a, b);
        batch_gate(t, REF_H, b, b);
        return;
    }
    for (int64_t row = 0; row < 2 * t->W; row++) {
        uint64_t *xa = t->x + a * t->C + row * t->P;
        uint64_t *za = t->z + a * t->C + row * t->P;
        uint64_t *xb = t->x + b * t->C + row * t->P;
        uint64_t *zb = t->z + b * t->C + row * t->P;
        uint64_t *r = t->r + row * t->P;
        int64_t B = t->B;
        switch (op) {
        case REF_X:
            for (int64_t s = 0; s < B; s++)
                r[s] ^= za[s];
            break;
        case REF_Y:
            for (int64_t s = 0; s < B; s++)
                r[s] ^= xa[s] ^ za[s];
            break;
        case REF_Z:
            for (int64_t s = 0; s < B; s++)
                r[s] ^= xa[s];
            break;
        case REF_H:
            for (int64_t s = 0; s < B; s++) {
                uint64_t xv = xa[s], zv = za[s];
                r[s] ^= xv & zv;
                xa[s] = zv;
                za[s] = xv;
            }
            break;
        case REF_S:
            for (int64_t s = 0; s < B; s++) {
                r[s] ^= xa[s] & za[s];
                za[s] ^= xa[s];
            }
            break;
        case REF_SDG:
            for (int64_t s = 0; s < B; s++) {
                r[s] ^= xa[s] & ~za[s];
                za[s] ^= xa[s];
            }
            break;
        case REF_CX:                /* control a, target b */
            for (int64_t s = 0; s < B; s++) {
                r[s] ^= xa[s] & zb[s] & ~(xb[s] ^ za[s]);
                xb[s] ^= xa[s];
                za[s] ^= zb[s];
            }
            break;
        case REF_SWAP:
            for (int64_t s = 0; s < B; s++) {
                uint64_t xv = xa[s], zv = za[s];
                xa[s] = xb[s];
                xb[s] = xv;
                za[s] = zb[s];
                zb[s] = zv;
            }
            break;
        }
    }
}

/* Shot s's sign flips by the Pauli with x part fx and z part fz on
 * qubit a (each 0 or 1): X flips the rows holding Z_a, Z those holding
 * X_a. */
static void batch_pauli(const batch_t *t, int64_t a, int64_t s, int fx,
                        int fz)
{
    const uint64_t *xa = t->x + a * t->C + s, *za = t->z + a * t->C + s;
    uint64_t mx = fz ? ~(uint64_t)0 : 0, mz = fx ? ~(uint64_t)0 : 0;
    for (int64_t i = 0; i < t->C; i += t->P)
        t->r[i + s] ^= (za[i] & mz) ^ (xa[i] & mx);
}

/* _measure_det for shot s: the sign of the ordered product of the
 * stabilizer rows paired with the destabilizers holding X_a, its phase
 * exponent sum(x & z) + 2 sum(r) + 2 sum_q sum_j x_j (xor_{i<j} z_i)
 * taken bit-sliced over the rows of each column. */
static int batch_determinate(const batch_t *t, int64_t a, int64_t s)
{
    int64_t W = t->W, P = t->P;
    const uint64_t *picked = t->x + a * t->C + s;      /* destabilizer half */
    uint64_t flips = 0, ones = 0, twos = 0;
    for (int64_t w = 0; w < W; w++)
        flips ^= t->r[(W + w) * P + s] & picked[w * P];
    for (int64_t q = 0; q < t->n; q++) {
        const uint64_t *xq = t->x + q * t->C + W * P + s;
        const uint64_t *zq = t->z + q * t->C + W * P + s;
        uint64_t carry = 0;     /* parity of the column's earlier words */
        for (int64_t w = 0; w < W; w++) {
            uint64_t xs = xq[w * P] & picked[w * P];
            if (!xs && w == W - 1)  /* adds nothing, carries nowhere */
                continue;
            uint64_t zs = zq[w * P] & picked[w * P], scan = zs;
            scan ^= scan << 1;      /* inclusive prefix XOR over rows */
            scan ^= scan << 2;
            scan ^= scan << 4;
            scan ^= scan << 8;
            scan ^= scan << 16;
            scan ^= scan << 32;
            flips ^= xs & ((scan << 1) ^ carry);
            carry ^= (uint64_t)0 - (scan >> 63);
            uint64_t y = xs & zs;   /* count the Ys mod 4 bit-sliced */
            twos ^= ones & y;
            ones ^= y;
        }
    }
    int64_t ys = popcount(ones) + 2 * popcount(twos);
    return (int)(((ys >> 1) + popcount(flips)) & 1);
}

/* _measure_rand for shot s with its drawn outcome: every row holding
 * X_a but the pivot (the first stabilizer row holding it) absorbs the
 * pivot row, the destabilizer slot receives the old pivot row, and the
 * pivot becomes +/- Z_a.  One pass over the columns: the pivot row is
 * not a target, so its bits stay put while the others absorb them. */
static void batch_collapse(const batch_t *t, int64_t a, int64_t s,
                           int outcome)
{
    int64_t W = t->W, P = t->P, C = t->C, pw = 0;
    const uint64_t *stab = t->x + a * C + W * P + s;
    while (!stab[pw * P])
        pw++;
    uint64_t pm = stab[pw * P] & (~stab[pw * P] + 1);
    int64_t d = pw * P, p = (W + pw) * P;   /* the pivot's rows */
    uint64_t *r = t->r + s;
    uint64_t rp = r[p] & pm ? ~(uint64_t)0 : 0;
    for (int64_t h = 0; h < 2 * W; h++) {
        t->tgt[h] = t->x[a * C + h * P + s];
        t->phase[h] = t->acc[h] = 0;
    }
    t->tgt[W + pw] &= ~pm;
    for (int64_t q = 0; q < t->n; q++) {
        uint64_t *xq = t->x + q * C + s, *zq = t->z + q * C + s;
        uint64_t xp = xq[p] & pm ? ~(uint64_t)0 : 0;
        uint64_t zp = zq[p] & pm ? ~(uint64_t)0 : 0;
        if (xp || zp)
            /* The rowsum phase mod 4 from the old bits: g != 0 where
             * the Paulis anticommute, -1 on neg; bit 1 of the sum is
             * the carry of the anti count XOR the parity of neg. */
            for (int64_t h = 0; h < 2 * W; h++) {
                uint64_t xv = xq[h * P], zv = zq[h * P];
                uint64_t anti = (xv & zp) ^ (zv & xp);
                uint64_t neg = (xv ^ zv ^ (xp ^ zp) ^ (xp & zv)) & anti;
                t->phase[h] ^= (anti & t->acc[h]) ^ neg;
                t->acc[h] ^= anti;
                xq[h * P] = xv ^ (xp & t->tgt[h]);
                zq[h * P] = zv ^ (zp & t->tgt[h]);
            }
        xq[d] = (xq[d] & ~pm) | (xp & pm);
        zq[d] = (zq[d] & ~pm) | (zp & pm);
        xq[p] &= ~pm;
        zq[p] &= ~pm;
    }
    for (int64_t h = 0; h < 2 * W; h++)
        r[h * P] ^= (t->phase[h] ^ rp) & t->tgt[h];
    r[d] = (r[d] & ~pm) | (rp & pm);
    r[p] = (r[p] & ~pm) | (outcome ? pm : 0);
    t->z[a * C + p + s] |= pm;
}

/* The oracle's measure: the Z outcome of qubit a on the shots
 * of in[] (every shot when NULL) into outcome[] (0 elsewhere) —
 * deterministic shots first, then the random-branch ones in ascending
 * order, drawing one uint8 each as Generator.integers(0, 2, size=k,
 * dtype=uint8) does. */
static void batch_measure(const batch_t *t, int64_t a, const uint8_t *in)
{
    int64_t W = t->W, P = t->P, k = 0;
    const uint64_t *stab = t->x + a * t->C + W * P;
    double t0 = t->prof ? now() : 0.0;
    for (int64_t s = 0; s < t->B; s++) {
        t->outcome[s] = 0;
        if (in && !in[s])
            continue;
        uint64_t held = 0;
        for (int64_t w = 0; w < W; w++)
            held |= stab[w * P + s];
        if (held)
            t->shots[k++] = s;
        else
            t->outcome[s] = (uint8_t)batch_determinate(t, a, s);
    }
    double t1 = t->prof ? now() : 0.0;
    uint32_t word = 0;
    for (int64_t j = 0; j < k; j++) {
        if (j % 4 == 0)
            word = t->gen->next_uint32(t->gen->state);
        int outcome = (word >> (8 * (j % 4) + 7)) & 1;
        t->outcome[t->shots[j]] = (uint8_t)outcome;
        batch_collapse(t, a, t->shots[j], outcome);
    }
    if (t->prof) {
        double t2 = now();
        t->prof[T_MEASURE_DET] += t1 - t0;
        t->prof[T_MEASURE_RAND] += t2 - t1;
    }
}

/* The oracle's reset: measure, then X where it read 1. */
static void batch_reset(const batch_t *t, int64_t a, const uint8_t *in)
{
    batch_measure(t, a, in);
    for (int64_t s = 0; s < t->B; s++)
        if (t->outcome[s])
            batch_pauli(t, a, s, 1, 0);
}

/* One uniform per shot: Generator.random(B). */
static void batch_uniforms(const batch_t *t)
{
    for (int64_t s = 0; s < t->B; s++)
        t->u[s] = t->gen->next_double(t->gen->state);
}

/* A depolarize site, as the oracle applies it: u < p / 3 is X, below
 * 2 p / 3 Y, below p Z; a tilted site banks llr_hit where it fired and
 * llr_miss elsewhere, unless both are 0. */
static void batch_depolarize(const batch_t *t, int64_t a, double p,
                             const double *hit_miss, double *lw)
{
    double third = p / 3.0, two_thirds = 2 * third;
    batch_uniforms(t);
    if (lw && (hit_miss[0] != 0.0 || hit_miss[1] != 0.0))
        for (int64_t s = 0; s < t->B; s++)
            lw[s] += t->u[s] < p ? hit_miss[0] : hit_miss[1];
    for (int64_t s = 0; s < t->B; s++) {
        double u = t->u[s];
        int fx = u < third, fy = u >= third && u < two_thirds;
        int fz = u >= two_thirds && u < p;
        if (fx || fy || fz)
            batch_pauli(t, a, s, fx || fy, fy || fz);
    }
}

/* One pass of the stream (len words) from |0..0> on B shots of n
 * qubits.  The k-th noise entry (REF_QUERY and on) is site k of
 * prob[] (and of llr[]: hit per site, then miss per site, NULL on an
 * untilted run) and draw_certain[]; the m-th REF_MEASURE writes its
 * outcomes to column cbits[m] of the (B, num_cbits) record.  lw is
 * the per-shot log-weights, NULL on an untilted run; prof NULL or the
 * T_STAGES bucket seconds.  The caller holds gen's lock. */
int64_t repro_tableau_run(const int64_t *stream, int64_t len, int64_t n,
                          int64_t B, const int64_t *cbits,
                          int64_t num_measures, int64_t num_cbits,
                          const double *prob, const uint8_t *draw_certain,
                          const double *llr, int64_t num_sites, double *lw,
                          uint8_t *record, bitgen_t *gen, double *prof)
{
    int64_t W = (n + 63) / 64, P = (B + 7) / 8 * 8 + 8;
    batch_t t = {n, W, B, P, 2 * W * P, NULL, NULL, NULL, gen, prof,
                 NULL, NULL, NULL, NULL, NULL, NULL, NULL};
    int64_t status = OK, m = 0, k = 0;
    t.x = calloc((size_t)(n * t.C), sizeof(uint64_t));
    t.z = calloc((size_t)(n * t.C), sizeof(uint64_t));
    t.r = calloc((size_t)t.C, sizeof(uint64_t));
    t.outcome = malloc((size_t)B);
    t.in = malloc((size_t)B);
    t.shots = malloc((size_t)B * sizeof(int64_t));
    t.u = malloc((size_t)B * sizeof(double));
    t.tgt = malloc((size_t)(6 * W) * sizeof(uint64_t));
    if (!t.x || !t.z || !t.r || !t.outcome || !t.in || !t.shots || !t.u
        || !t.tgt) {
        status = NO_MEMORY;
        goto done;
    }
    t.phase = t.tgt + 2 * W;
    t.acc = t.phase + 2 * W;
    for (int64_t q = 0; q < n; q++) {   /* destabilizer X_q, stabilizer Z_q */
        uint64_t bit = (uint64_t)1 << (q & 63);
        for (int64_t s = 0; s < B; s++) {
            t.x[q * t.C + (q >> 6) * P + s] = bit;
            t.z[q * t.C + (W + (q >> 6)) * P + s] = bit;
        }
    }
    for (int64_t i = 0; i < len;) {
        int64_t op = stream[i], two = op == REF_CX || op == REF_CZ
                                      || op == REF_SWAP;
        if (op < 0 || op >= NUM_REFS || i + 1 + two >= len) {
            status = BAD_OP;
            break;
        }
        int64_t a = stream[i + 1], b = two ? stream[i + 2] : a;
        if (a < 0 || a >= n || b < 0 || b >= n) {
            status = BAD_OP;
            break;
        }
        i += 2 + two;
        int noise = op >= REF_QUERY;
        if ((noise && k >= num_sites) || (op == REF_MEASURE
            && (m >= num_measures || cbits[m] < 0 || cbits[m] >= num_cbits))) {
            status = BAD_OP;
            break;
        }
        double t0 = 0.0, m0 = 0.0;
        if (prof) {
            t0 = now();
            m0 = prof[T_MEASURE_DET] + prof[T_MEASURE_RAND];
        }
        switch (op) {
        case REF_DEPOLARIZE:
            batch_depolarize(&t, a, prob[k], llr ? (double[2]){
                llr[k], llr[num_sites + k]} : NULL, llr ? lw : NULL);
            k++;
            break;
        case REF_QUERY:             /* a fault-reset site */
            if (prob[k] >= 1.0 && !draw_certain[k]) {
                batch_reset(&t, a, NULL);
            } else {
                int any = 0;
                batch_uniforms(&t);
                for (int64_t s = 0; s < B; s++)
                    any |= t.in[s] = t.u[s] < prob[k];
                if (any)
                    batch_reset(&t, a, t.in);
            }
            k++;
            break;
        case REF_FLIP_X:            /* a flip site: u < p is the Pauli */
        case REF_FLIP_Z:
            batch_uniforms(&t);
            for (int64_t s = 0; s < B; s++)
                if (t.u[s] < prob[k])
                    batch_pauli(&t, a, s, op == REF_FLIP_X, op == REF_FLIP_Z);
            k++;
            break;
        case REF_MEASURE:
            batch_measure(&t, a, NULL);
            for (int64_t s = 0; s < B; s++)
                record[s * num_cbits + cbits[m]] = t.outcome[s];
            m++;
            break;
        case REF_RESET:
            batch_reset(&t, a, NULL);
            break;
        default:
            batch_gate(&t, op, a, b);
        }
        if (prof)
            prof[noise ? T_NOISE : T_GATES] += now() - t0
                - (prof[T_MEASURE_DET] + prof[T_MEASURE_RAND] - m0);
    }
    if (status == OK && (m != num_measures || k != num_sites))
        status = BAD_OP;
done:
    free(t.x);
    free(t.z);
    free(t.r);
    free(t.outcome);
    free(t.in);
    free(t.shots);
    free(t.u);
    free(t.tgt);
    return status;
}
