/* Euler steps of one member's kernel, for the laws whose arithmetic here is
   numpy's arithmetic in protocols._kernel; see _stretch.py. Every
   operation is the one numpy does, in the same order: the gathered
   differences, the weight and gain products, the per-destination sums of
   np.bincount (in arc order, from +0.0) and x + dt*u. Built with
   -ffp-contract=off, so no multiply and add fuse into one rounding, and
   with -funswitch-loops, which hoists the tests of w and U out of the
   loops. */
#include <math.h>
#include <stdint.h>

enum { LINEAR, SIGN, POWER_HALF, FIXED_TIME }; /* law; FIXED_TIME has p = 1/2, q = 3/2 */
enum { PER_EDGE, PER_EDGE_SIGN, AGGREGATED }; /* where f and the gain apply */

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

/* One stretch's loops for a law and mode known at compile time: stretch
   inlines a copy per pair, so no test of either runs per arc. */
static inline __attribute__((always_inline)) void
steps_of(int law, int mode, int64_t n, int64_t m, const int64_t *src,
         const int64_t *dst, const double *w, double k, double k2,
         double dt, double *acc, int64_t steps,
         const double *x, double *X, double *U)
{
    for (int64_t s = 0; s < steps; s++) {
        double *next = X + s * n;
        for (int64_t i = 0; i < n; i++)
            acc[i] = 0.0;
        for (int64_t a = 0; a < m; a++) {
            double d = x[src[a]] - x[dst[a]], v;
            if (mode == AGGREGATED)
                v = w ? w[a] * d : d;
            else if (mode == PER_EDGE_SIGN)
                v = sign(d);
            else {
                v = f(law, k, k2, d);
                if (w)
                    v = w[a] * v;
            }
            acc[dst[a]] += v;
        }
        for (int64_t i = 0; i < n; i++) {
            double u = acc[i];
            if (mode == AGGREGATED)
                u = f(law, k, k2, u);
            else if (mode == PER_EDGE_SIGN)
                u = k * u;
            if (U)
                U[s * n + i] = u;
            next[i] = x[i] + dt * u;
        }
        x = next;
    }
}

/* Runs steps Euler steps x -> x + dt*u(x) from the state x, writing the
   state after each step into the rows of X and, unless U is NULL, the
   control of each step into the rows of U. The m arcs run from src to dst
   with weights w, NULL for unit weights. k is the law's gain, k2 the
   second gain of FIXED_TIME. acc holds n doubles. */
void stretch(int law, int mode, int64_t n, int64_t m, const int64_t *src,
             const int64_t *dst, const double *w, double k, double k2,
             double dt, double *acc, int64_t steps,
             const double *x, double *X, double *U)
{
#define STEPS(LAW, MODE) steps_of(LAW, MODE, n, m, src, dst, w, k, k2, dt, acc, steps, x, X, U)
    if (mode == PER_EDGE_SIGN)
        STEPS(SIGN, PER_EDGE_SIGN);
    else if (mode == PER_EDGE)
        switch (law) {
        case LINEAR: STEPS(LINEAR, PER_EDGE); break;
        case SIGN: STEPS(SIGN, PER_EDGE); break;
        case POWER_HALF: STEPS(POWER_HALF, PER_EDGE); break;
        default: STEPS(FIXED_TIME, PER_EDGE);
        }
    else
        switch (law) {
        case LINEAR: STEPS(LINEAR, AGGREGATED); break;
        case SIGN: STEPS(SIGN, AGGREGATED); break;
        case POWER_HALF: STEPS(POWER_HALF, AGGREGATED); break;
        default: STEPS(FIXED_TIME, AGGREGATED);
        }
}
