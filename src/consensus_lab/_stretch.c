/* Euler steps of one member's kernel, for the laws whose arithmetic here is
   numpy's arithmetic in protocols._kernel; see _stretch.py. Every
   operation is the one numpy does, in the same order: the gathered
   differences, the weight and gain products, the per-destination sums of
   np.bincount (in arc order, from +0.0) and x + dt*u. Built with
   -ffp-contract=off, so no multiply and add fuse into one rounding. */
#include <math.h>
#include <stdint.h>

enum { LINEAR, SIGN, POWER_HALF };        /* law */
enum { PER_EDGE, PER_EDGE_SIGN, AGGREGATED }; /* where f and the gain apply */

static double f(int law, double v)
{
    if (law == LINEAR)
        return v;
    if (law == SIGN) /* np.sign: +0.0 for either zero, NaN stays NaN */
        return v > 0 ? 1.0 : v < 0 ? -1.0 : v == 0 ? 0.0 : v;
    return copysign(sqrt(fabs(v)), v); /* numpy's |v| ** 0.5 is sqrt */
}

/* Runs steps Euler steps x -> x + dt*u(x) from the state x, writing the
   state after each step into the rows of X and, unless U is NULL, the
   control of each step into the rows of U. The m arcs run from src to dst
   with weights w, NULL for unit weights. k holds one gain (k_step 0) or one
   per arc or node (k_step 1). acc holds n doubles. */
void stretch(int law, int mode, int64_t n, int64_t m, const int64_t *src,
             const int64_t *dst, const double *w, const double *k,
             int64_t k_step, double dt, double *acc, int64_t steps,
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
                v = f(SIGN, d);
            else {
                v = k[a * k_step] * f(law, d);
                if (w)
                    v = w[a] * v;
            }
            acc[dst[a]] += v;
        }
        for (int64_t i = 0; i < n; i++) {
            double u = acc[i];
            if (mode == AGGREGATED)
                u = k[i * k_step] * f(law, u);
            else if (mode == PER_EDGE_SIGN)
                u = k[i * k_step] * u;
            if (U)
                U[s * n + i] = u;
            next[i] = x[i] + dt * u;
        }
        x = next;
    }
}
