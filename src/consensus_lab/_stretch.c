/* Euler steps of one member's kernel, for the laws whose arithmetic here is
   numpy's arithmetic in protocols._kernel, with the checks the simulator
   makes after each step, and the "%.17g" rows of the CSV writers; see
   _stretch.py. Every operation of a step is the one numpy does, in the
   same order: the gathered differences, the weight and gain products, the
   per-destination sums of np.bincount (in arc order, from +0.0), x + dt*u,
   metrics.isce_accumulate's S + (u*u)*dt, np.sqrt and the pairwise sum of
   np.sum. Built with -ffp-contract=off, so no multiply and add fuse into
   one rounding, and with -funswitch-loops, which hoists the tests of w, of
   a kept control and of S out of the loops. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

enum { LINEAR, SIGN, POWER_HALF, FIXED_TIME }; /* law; FIXED_TIME has p = 1/2, q = 3/2 */
enum { PER_EDGE, AGGREGATED }; /* where f and the gain apply */

static double sign(double v) /* np.sign: +0.0 for either zero, NaN stays NaN */
{
    return v > 0 ? 1.0 : v < 0 ? -1.0 : v == 0 ? 0.0 : v;
}

/* the node function with its gains k and k2 */
static double f(int law, double k, double k2, double v)
{
    double a = fabs(v), r;
    if (law == LINEAR)
        return k * v;
    if (law == SIGN)
        return k * sign(v);
    r = sqrt(a); /* numpy's |v| ** 0.5 is sqrt */
    if (law == POWER_HALF)
        return k * copysign(r, v);
    return k * copysign(r, v) + k2 * copysign(a * r, v);
}

/* The sum of the n values at a in the order of numpy's pairwise summation,
   which np.sum takes along a contiguous row: in turn from 0.0 below eight
   values; up to 128 values, in eight accumulators seeded with the first
   eight and joined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
   then the rest in turn; above 128, the sums of two halves split at a
   multiple of eight. */
static double pairwise(const double *a, int64_t n)
{
    double r[8], res;
    int64_t i, j;
    if (n < 8) {
        for (res = 0.0, i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i = n / 2 - n / 2 % 8;
    return pairwise(a, i) + pairwise(a + i, n - i);
}

/* One stretch's loops for a law and mode known at compile time: stretch
   inlines a copy per pair, so no test of either runs per arc. */
static inline __attribute__((always_inline)) int64_t
steps_of(int law, int mode, int64_t n, int64_t m, const int64_t *src,
         const int64_t *dst, const double *w, double k, double k2, double dt,
         int64_t every, double *acc, double eps, double limit, int64_t sticky,
         int64_t steps, double *x, double *y, int64_t keep, double *states,
         double *U, double *V, double *S, double *E_i, double *E_tot,
         int64_t *below, double *peak)
{
    double *cur = x, p = 0.0;
    int64_t s, run = *below;
    for (s = 0; s < steps; s++) {
        double *next = cur == x ? y : x, *u_row = NULL, hi = -INFINITY, lo = INFINITY;
        /* the square roots of S, in E_i's row or, once read, in acc */
        double *roots = E_i ? E_i + s * n : acc;
        if (s == keep) {
            memcpy(states, cur, n * sizeof *cur);
            u_row = U;
            states += n;
            U += n;
            keep += every;
        }
        for (int64_t i = 0; i < n; i++)
            acc[i] = 0.0;
        for (int64_t a = 0; a < m; a++) {
            double d = cur[src[a]] - cur[dst[a]], v;
            if (mode == AGGREGATED)
                v = w ? w[a] * d : d;
            else if (law == SIGN) /* bare signs: the weights drop out */
                v = sign(d);
            else {
                v = f(law, k, k2, d);
                if (w)
                    v = w[a] * v;
            }
            acc[dst[a]] += v;
        }
        for (int64_t i = 0; i < n; i++) {
            double u = acc[i], z;
            if (mode == AGGREGATED)
                u = f(law, k, k2, u);
            else if (law == SIGN) /* per-edge sign: the gain after the sum */
                u = k * u;
            if (u_row)
                u_row[i] = u;
            if (S) {
                S[i] = S[i] + u * u * dt;
                roots[i] = sqrt(S[i]);
            }
            z = next[i] = cur[i] + dt * u;
            /* a NaN, once met, stays in hi and lo, as in numpy's reductions */
            hi = hi >= z || hi != hi ? hi : z;
            lo = lo <= z || lo != lo ? lo : z;
        }
        if (S)
            E_tot[s] = pairwise(roots, n);
        V[s] = hi - lo;
        p = hi >= -lo || hi != hi ? hi : -lo;
        if (!(p <= limit)) { /* the guard trips: the run ends before this state */
            if (next == x) /* which goes to y, and the state before it to x */
                for (int64_t i = 0; i < n; i++) {
                    double t = x[i];
                    x[i] = y[i];
                    y[i] = t;
                }
            cur = x;
            s++;
            break;
        }
        cur = next;
        run = V[s] <= eps ? run + 1 : 0;
        if (run >= sticky) { /* the sticky stop: the run ends on this state */
            s++;
            break;
        }
    }
    if (cur != x)
        memcpy(x, cur, n * sizeof *x);
    *below = run;
    *peak = p;
    return s;
}

/* Runs Euler steps x -> x + dt*u(x) from the state x until the run ends or
   steps steps are done; the number of steps done. The state swaps between
   x and the n doubles of y; on return x holds the last state that passed
   the guard, and y the state that failed it, if one did. Each step writes
   the spread max - min of its state into V. Before the step keep, keep +
   every, ... it writes the state into the next row of states and the
   step's control into the next row of U. Unless S is NULL, each step
   also advances the n squared-effort integrals S in place by u*u*dt and
   writes the sum of their square roots into E_tot, and, unless E_i is
   NULL, the roots into the rows of E_i.

   A run ends on the first state whose largest magnitude, written into
   peak, is not at or below limit (the guard), or on the sticky-th
   consecutive spread at or below eps, counted on from below, where the
   count is written back (the sticky stop; a NaN eps never stops). The
   m arcs run from src to dst with weights w, NULL for unit weights. k is
   the law's gain, k2 the second gain of FIXED_TIME. acc holds n doubles. */
int64_t stretch(int law, int mode, int64_t n, int64_t m, const int64_t *src,
                const int64_t *dst, const double *w, double k, double k2, double dt,
                int64_t every, double *acc, double eps, double limit, int64_t sticky,
                int64_t steps, double *x, double *y, int64_t keep, double *states,
                double *U, double *V, double *S, double *E_i, double *E_tot,
                int64_t *below, double *peak)
{
#define STEPS(LAW, MODE)                                                              \
    return steps_of(LAW, MODE, n, m, src, dst, w, k, k2, dt, every, acc, eps, limit, \
                    sticky, steps, x, y, keep, states, U, V, S, E_i, E_tot, below, peak)
    if (mode == PER_EDGE)
        switch (law) {
        case LINEAR: STEPS(LINEAR, PER_EDGE);
        case SIGN: STEPS(SIGN, PER_EDGE);
        case POWER_HALF: STEPS(POWER_HALF, PER_EDGE);
        default: STEPS(FIXED_TIME, PER_EDGE);
        }
    switch (law) {
    case LINEAR: STEPS(LINEAR, AGGREGATED);
    case SIGN: STEPS(SIGN, AGGREGATED);
    case POWER_HALF: STEPS(POWER_HALF, AGGREGATED);
    default: STEPS(FIXED_TIME, AGGREGATED);
    }
}

/* The rows of the CSV writers. glibc's snprintf("%.17g") gives Python's
   bytes for every value but a NaN with its sign bit set, which it prints
   as -nan. The exact path gives the same bytes for the normal values with
   1e-16 <= |v| < 2^53, without snprintf's big-number arithmetic: v = m / 2^k
   with an integer m < 2^53, so its 17 significant digits are
   m * 10^s / 2^k = m * 5^s / 2^(k - s) rounded half to even, for
   s = 16 - e10 and e10 = floor(log10 |v|), and m * 5^s fits in 128 bits
   for s <= 32 (the narrow-range case of Adams, "Ryu revisited: printf
   floating point conversion", OOPSLA 2019). It rounds without a branch
   and copies its digits in fixed sizes, which may write past the end of
   the value's text, but not past the 25 bytes of room each value has.
   Where the compiler has no 128-bit integers, every value goes through
   snprintf. */

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define P27 7450580596923828125u
static const u128 POW5[33] = { /* 5^s for s <= 32; 2^53 * 5^32 < 2^128 */
    1u, 5u, 25u, 125u, 625u, 3125u, 15625u, 78125u, 390625u, 1953125u, 9765625u,
    48828125u, 244140625u, 1220703125u, 6103515625u, 30517578125u, 152587890625u,
    762939453125u, 3814697265625u, 19073486328125u, 95367431640625u,
    476837158203125u, 2384185791015625u, 11920928955078125u, 59604644775390625u,
    298023223876953125u, 1490116119384765625u, P27, (u128)P27 * 5, (u128)P27 * 25,
    (u128)P27 * 125, (u128)P27 * 625, (u128)P27 * 3125,
};
#define E16 10000000000000000u
#define E17 100000000000000000u

static const char PAIRS[] = /* "00" to "99" */
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* the 17 decimal digits of 10^16 <= q < 10^17 into d, two at a time */
static void digits17(char *d, uint64_t q)
{
    uint32_t hi = (uint32_t)(q / 100000000), lo = (uint32_t)(q % 100000000);
    for (int i = 15; i > 7; i -= 2, lo /= 100)
        memcpy(d + i, PAIRS + 2 * (lo % 100), 2);
    for (int i = 7; i > 0; i -= 2, hi /= 100)
        memcpy(d + i, PAIRS + 2 * (hi % 100), 2);
    d[0] = (char)('0' + hi);
}

/* floor(m * 5^s / 2^(k - s)), the 17 digits of m / 2^k at s = 16 - e10 */
static uint64_t scaled(uint64_t m, int k, int s, u128 *N)
{
    *N = (u128)m * POW5[s];
    return k > s ? (uint64_t)(*N >> (k - s)) : (uint64_t)(*N << (s - k));
}

/* the exact path for a normal v with 1e-16 <= |v| < 2^53; NULL if |v| is
   below 1e-16 after all */
static char *g17_exact(char *p, double v)
{
    uint64_t bits, m, I;
    int e2, k, e10, s, last;
    u128 N, r, half;
    char d[34]; /* the 17 digits, and room to move them one place on */

    memcpy(&bits, &v, sizeof bits);
    e2 = (int)(bits >> 52 & 0x7ff) - 1023; /* 2^e2 <= |v| < 2^(e2 + 1) */
    m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
    k = 52 - e2; /* |v| = m / 2^k, with 0 <= k <= 106 */
    e10 = e2 * 78913 >> 18; /* floor(e2 log10 2): floor(log10 |v|) or one less */
    if (e10 < -16) /* 2^-54 <= |v| < 2^-53: only 1e-16 <= |v| comes here */
        e10 = -16;
    s = 16 - e10;
    I = scaled(m, k, s, &N);
    if (I >= E17) { /* e10 was one short */
        e10++;
        s--;
        I = scaled(m, k, s, &N);
    }
    if (I < E16) /* |v| < 1e-16 */
        return NULL;
    if (k > s) { /* round the remainder half to even */
        r = N & (((u128)1 << (k - s)) - 1);
        half = (u128)1 << (k - s - 1);
        I += (r > half) | ((r == half) & (I & 1));
    }
    if (I == E17) { /* the rounding carried into a digit more */
        I = E16;
        e10++;
    }
    digits17(d, I);
    for (last = 16; d[last] == '0'; last--) /* trailing zeros go */
        ;
    *p = '-';
    p += bits >> 63;
    if (e10 < -4) { /* d.ddde-XX, 23 bytes at most */
        p[0] = d[0];
        p[1] = '.';
        memcpy(p + 2, d + 1, 16);
        p += last > 0 ? last + 2 : 1;
        memcpy(p, "e-", 2);
        memcpy(p + 2, PAIRS + 2 * -e10, 2);
        return p + 4;
    }
    if (e10 < 0) { /* 0.000ddd, 23 bytes at most */
        memcpy(p, "0.0000", 6);
        p += 1 - e10;
        memcpy(p, d, 17);
        return p + last + 1;
    }
    /* ddd.ddd, 19 bytes at most; e10 <= 15 here. The digits after the
       point move one place on in d, since a 16-byte copy of them straight
       into p could end 34 bytes past the value's start */
    memmove(d + e10 + 2, d + e10 + 1, 16);
    d[e10 + 1] = '.';
    memcpy(p, d, 18);
    return p + (last > e10 ? last + 2 : e10 + 1);
}
#endif

/* "%.17g" of v into p, as Python's % operator prints it: at most 24 bytes,
   with no terminating NUL; the end of the text */
static char *g17(char *p, double v)
{
    double a = fabs(v);
#ifdef __SIZEOF_INT128__
    if (a >= 1e-16 && a < 0x1p53) {
        char *end = g17_exact(p, v);
        if (end)
            return end;
    }
#endif
    if (a != a) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    return p + snprintf(p, 25, "%.17g", v);
}

/* Writes the rows x cols values, row after row, as "%.17g" text into out,
   the values of a row joined by ',' and each row ended by '\n'; out holds
   25 bytes per value. The number of bytes written. */
int64_t format_rows(const double *values, int64_t rows, int64_t cols, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < rows; r++)
        for (int64_t c = 0; c < cols; c++) {
            p = g17(p, *values++);
            *p++ = c + 1 < cols ? ',' : '\n';
        }
    return p - out;
}
