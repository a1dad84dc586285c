/* Native op loop for bound frame programs.
 *
 * One call executes a whole program (the int64 stream of
 * repro.frames.program.encode_ops past its header, plus the binding's
 * probability vector) in place on the simulator's x, z and record
 * words.  Opcodes are the OP_* numbers of program.py; every operand
 * was range-checked when the stream was encoded and the bounds held
 * against the arrays before the call, so nothing is checked here.
 *
 * Randomness is numpy's: lane l draws through the bitgen_t its
 * generator publishes, with the calls — next_raw where the numpy
 * executor calls random_raw, next_double where it calls
 * Generator.random — and in the order a lone block of that lane's
 * size makes.  The one reordering is the depolarize draw/apply split,
 * collapsed here: OP_DEPOLARIZE_DRAW only opens the run and each site
 * draws its rows as it applies them.  A lane's stream is unchanged
 * because nothing else draws inside a run; a site that is not the
 * next row of the open run is refused (CUT_RUN), as the numpy executor
 * refuses a site whose draw it has not seen.
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
    OP_RESET_NOISE, OP_H_LAYER, OP_S_LAYER, OP_CX_LAYER, OP_CZ_LAYER,
    OP_SWAP_LAYER, OP_MEASURE_LAYER, OP_RESET_LAYER, OP_DEPOLARIZE_LAYER,
    OP_DEPOLARIZE_DRAW, NUM_OPS
};

enum { OK = 0, CUT_RUN = 1, NO_MEMORY = 2, BAD_OP = 3 };

/* out[]: depolarize rows, hits, dense rows; then the refused site's run
 * and the run that was open. */
enum { OUT_ROWS, OUT_HITS, OUT_DENSE, OUT_SITE_RUN, OUT_OPEN_RUN };

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
    /* A row expecting more than dense_hits hits in dense_shots shots
     * is counted dense (simulator.DENSE_HITS_PER_ROW). */
    double dense_shots, dense_hits;
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

/* FrameSimulator.reset_noise: per lane a Bernoulli(p) mask
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

/* One depolarize row, drawn and applied: per lane one uniform per
 * shot; u < p fires, X iff u < 2p/3, Z iff u >= p/3
 * (FrameSimulator._apply_row — its dense masks and single-bit flips
 * make these same comparisons). */
static void depolarize_row(const sim_t *s, int64_t a, double p)
{
    double third = p / 3.0, two_thirds = 2 * third;
    int64_t hits = 0;
    for (int64_t l = 0; l < s->num_lanes; l++) {
        const lane_t *lane = &s->lanes[l];
        const bitgen_t *g = s->gens[l];
        uint64_t *x = s->x + a * s->W + lane->lo;
        uint64_t *z = s->z + a * s->W + lane->lo;
        for (int64_t w = 0, left = lane->shots; left > 0; w++, left -= 64) {
            int64_t bits = left < 64 ? left : 64;
            uint64_t xm = 0, zm = 0;
            for (int64_t b = 0; b < bits; b++) {
                double u = g->next_double(g->state);
                if (u < p) {
                    hits++;
                    xm |= (uint64_t)(u < two_thirds) << b;
                    zm |= (uint64_t)(u >= third) << b;
                }
            }
            x[w] ^= xm;
            z[w] ^= zm;
        }
    }
    s->out[OUT_HITS] += hits;
}

/* What FrameSimulator.depolarize_draw counts for rows of these sites. */
static void count_rows(const sim_t *s, const int64_t *sites, int64_t k)
{
    int64_t dense = 0;
    for (int64_t i = 0; i < k; i++)
        dense += s->prob[sites[i]] * s->dense_shots > s->dense_hits;
    s->out[OUT_ROWS] += k * s->num_lanes;
    s->out[OUT_DENSE] += dense * s->num_lanes;
}

/* prof: NULL, or 3 * NUM_OPS doubles — per opcode seconds, calls and
 * fused width beyond the call — clocked where the opcode changes, as
 * FrameSimulator.exec_ops clocks its sampled blocks. */
int64_t repro_frames_run(const int64_t *code, int64_t code_len,
                         const double *prob,
                         uint64_t *x, uint64_t *z, uint64_t *rec, int64_t W,
                         int64_t num_lanes, const int64_t *lanes,
                         bitgen_t *const *gens,
                         int64_t dense_shots, int64_t dense_hits,
                         int64_t *out, double *prof)
{
    sim_t sim = {x, z, rec, W, num_lanes, (const lane_t *)lanes, gens, prob,
                 (double)dense_shots, (double)dense_hits, NULL, out};
    const sim_t *s = &sim;
    const int64_t *pc = code, *end = code + code_len;
    int64_t open_run = -1, next_row = 0, run_rows = 0;
    int64_t status = OK, run_code = -1;
    double t_run = 0.0;
    int64_t widest = 0;

    for (int64_t l = 0; l < num_lanes; l++) {
        int64_t words = sim.lanes[l].hi - sim.lanes[l].lo;
        if (words > widest)
            widest = words;
    }
    sim.mask = malloc((size_t)(widest ? widest : 1) * sizeof(uint64_t));
    if (!sim.mask)
        return NO_MEMORY;
    out[OUT_ROWS] = out[OUT_HITS] = out[OUT_DENSE] = 0;

    while (pc < end) {
        int64_t op = *pc++, k = 1;
        if (op < 0 || op >= NUM_OPS) {  /* unreachable: encode_ops checked */
            status = BAD_OP;
            break;
        }
        if (prof) {
            if (op != run_code) {
                double t = now();
                if (run_code >= 0)
                    prof[run_code] += t - t_run;
                t_run = t;
                run_code = op;
            }
            prof[NUM_OPS + op] += 1;
        }
        switch (op) {
        case OP_H:
            h(s, pc[0]);
            pc += 1;
            break;
        case OP_S:
            xor_row(z + pc[0] * W, x + pc[0] * W, W);
            pc += 1;
            break;
        case OP_CX:
            cx(s, pc[0], pc[1]);
            pc += 2;
            break;
        case OP_CZ:
            cz(s, pc[0], pc[1]);
            pc += 2;
            break;
        case OP_SWAP:
            swap(s, pc[0], pc[1]);
            pc += 2;
            break;
        case OP_MEASURE:            /* qubit, cbit, reference bit */
            read_out(s, pc[0], pc[1], pc[2]);
            random_z(s, pc, 1, 0);
            pc += 3;
            break;
        case OP_RESET:
            clear_x(s, pc[0]);
            random_z(s, pc, 1, 1);
            pc += 1;
            break;
        case OP_RESET_NOISE:        /* qubit, site, x_value */
            reset_noise(s, pc[0], prob[pc[1]], pc[2]);
            pc += 3;
            break;
        case OP_H_LAYER:            /* k, qubits */
            k = *pc++;
            for (int64_t i = 0; i < k; i++)
                h(s, pc[i]);
            pc += k;
            break;
        case OP_S_LAYER:
            k = *pc++;
            for (int64_t i = 0; i < k; i++)
                xor_row(z + pc[i] * W, x + pc[i] * W, W);
            pc += k;
            break;
        case OP_CX_LAYER:           /* k, controls, targets */
            k = *pc++;
            for (int64_t i = 0; i < k; i++)
                cx(s, pc[i], pc[k + i]);
            pc += 2 * k;
            break;
        case OP_CZ_LAYER:
            k = *pc++;
            for (int64_t i = 0; i < k; i++)
                cz(s, pc[i], pc[k + i]);
            pc += 2 * k;
            break;
        case OP_SWAP_LAYER:
            k = *pc++;
            for (int64_t i = 0; i < k; i++)
                swap(s, pc[i], pc[k + i]);
            pc += 2 * k;
            break;
        case OP_MEASURE_LAYER:      /* k, qubits, cbits, reference bits */
            k = *pc++;
            for (int64_t i = 0; i < k; i++)
                read_out(s, pc[i], pc[k + i], pc[2 * k + i]);
            random_z(s, pc, k, 0);
            pc += 3 * k;
            break;
        case OP_RESET_LAYER:
            k = *pc++;
            for (int64_t i = 0; i < k; i++)
                clear_x(s, pc[i]);
            random_z(s, pc, k, 1);
            pc += k;
            break;
        case OP_DEPOLARIZE_DRAW:    /* k, run, sites */
            k = *pc++;
            open_run = *pc++;
            next_row = 0;
            run_rows = k;
            count_rows(s, pc, k);
            pc += k;
            break;
        case OP_DEPOLARIZE:         /* qubit, site, run, row */
        case OP_DEPOLARIZE_LAYER: { /* k, run, row, qubits, sites */
            const int64_t *qs, *sites;
            int64_t run, row;
            if (op == OP_DEPOLARIZE) {
                k = 1;
                qs = pc;
                sites = pc + 1;
                run = pc[2];
                row = pc[3];
                pc += 4;
            } else {
                k = pc[0];
                run = pc[1];
                row = pc[2];
                qs = pc + 3;
                sites = qs + k;
                pc = sites + k;
            }
            if (run < 0) {          /* bare site: its own draw */
                count_rows(s, sites, k);
            } else if (run != open_run || row != next_row
                       || row + k > run_rows) {
                out[OUT_SITE_RUN] = run;
                out[OUT_OPEN_RUN] = open_run;
                status = CUT_RUN;
                goto done;
            } else {
                next_row += k;
            }
            for (int64_t i = 0; i < k; i++)
                depolarize_row(s, qs[i], prob[sites[i]]);
            break;
        }
        }
        if (prof)
            prof[2 * NUM_OPS + op] += (double)(k - 1);
    }
done:
    if (prof && run_code >= 0)
        prof[run_code] += now() - t_run;
    free(sim.mask);
    return status;
}
