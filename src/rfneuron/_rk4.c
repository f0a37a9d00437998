/* The integrator's hot kernel: one classical RK4 step of the resonator and a
 * runner that takes quiet grid steps until the first stop that needs Python.
 *
 * The arithmetic is core.rhs's, in the same operation order, up to
 * `* (1/C)` in place of `/ C`, so a step equals the Python expression
 * evaluated in float64.  That holds only when the compiler neither contracts
 * a*b+c into a fused multiply-add nor applies fast-math rewrites: build with
 * -ffp-contract=off and no -ffast-math.  exp() is the C library's, which is
 * the one Python's math.exp calls.
 *
 * rfneuron.integrator compiles this file with gcc at import and loads it
 * through ctypes.
 */

#include <math.h>
#include <stdint.h>

/* Constants of one constant-drive span; the order of integrator._span_params. */
enum { A, IN0A, IN0B, I_U, I_IV, G, INV_C1, INV_C2, UREF, VREF, VMIN, VMAX };

static inline double guard(const double *p, double x)
{
    return x < p[VMIN] ? p[VMIN] : (x > p[VMAX] ? p[VMAX] : x);
}

/* dU/dt and dV/dt at (u, v): the exponentials see the guarded voltages. */
static inline void deriv(const double *p, double u, double v, double *du, double *dv)
{
    double x = guard(p, u), y = guard(p, v);
    *du = (p[I_U] - p[IN0B] * exp(p[A] * y) - p[G] * (u - p[UREF])) * p[INV_C1];
    *dv = (p[IN0A] * exp(p[A] * x) - p[I_IV] - p[G] * (v - p[VREF])) * p[INV_C2];
}

static inline void rk4(const double *p, double h, double *u, double *v)
{
    double half = 0.5 * h, du1, dv1, du2, dv2, du3, dv3, du4, dv4;
    deriv(p, *u, *v, &du1, &dv1);
    deriv(p, *u + half * du1, *v + half * dv1, &du2, &dv2);
    deriv(p, *u + half * du2, *v + half * dv2, &du3, &dv3);
    deriv(p, *u + h * du3, *v + h * dv3, &du4, &dv4);
    *u = *u + h * (du1 + 2.0 * (du2 + du3) + du4) / 6.0;
    *v = *v + h * (dv1 + 2.0 * (dv2 + dv3) + dv4) / 6.0;
}

/* One RK4 step of length h from uv = {u, v}, in place. */
void rf_step(const double *p, double *uv, double h)
{
    rk4(p, h, &uv[0], &uv[1]);
}

/* Take grid stops k, k+1, ... from tuv = {t, u, v}, with kn = {k, n}.
 *
 * Stop k is k*dt, and stop `last` is t_end.  Every stop k with k % stride == 0,
 * and stop `last`, is written as row n of the column-major buffer `rows`
 * (columns t, U, V, I_in, each `cap` long).  The runner returns, with tuv and
 * kn at the last stop taken, before the first stop that it must not take:
 * one past `last`, one later than `extra`, one whose sample finds the buffer
 * full, one whose step midpoint leaves [seg_lo, seg_hi), or one whose step
 * carries V across v_th from below.
 */
void rf_run(const double *p, double *tuv, int64_t *kn, int64_t last, int64_t stride,
            double dt, double t_end, double extra, double seg_lo, double seg_hi,
            double v_th, double i_in, double *rows, int64_t cap)
{
    double t = tuv[0], u = tuv[1], v = tuv[2];
    int64_t k = kn[0], n = kn[1];

    for (; k <= last; k++) {
        double t_next = k < last ? (double)k * dt : t_end;
        int sample = k % stride == 0 || k == last;
        if (extra < t_next || (sample && n == cap))
            break;
        double h = t_next - t;
        double mid = t + 0.5 * h;
        if (!(seg_lo <= mid && mid < seg_hi))
            break;
        double u_new = u, v_new = v;
        rk4(p, h, &u_new, &v_new);
        if (v < v_th && v_th <= v_new)
            break;
        t = t_next;
        u = u_new;
        v = v_new;
        if (sample) {
            rows[n] = t;
            rows[cap + n] = u;
            rows[2 * cap + n] = v;
            rows[3 * cap + n] = i_in;
            n++;
        }
    }
    tuv[0] = t;
    tuv[1] = u;
    tuv[2] = v;
    kn[0] = k;
    kn[1] = n;
}
