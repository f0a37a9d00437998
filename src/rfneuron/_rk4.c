/* The integrator's hot kernel: classical RK4 steps of the resonator, and the
 * runner that takes every stop of a free-running span and resolves its
 * threshold crossing.
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

/* Constants of one constant-drive segment; the order of integrator._span_params. */
enum { A, IN0A, IN0B, I_U, I_IV, G, INV_C1, INV_C2, UREF, VREF, VMIN, VMAX, NPRM };

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

/* Take the stops after tuv = {t, u, v}, with ks = {k, e, n, s}, up to the
 * first threshold crossing or to t_end.
 *
 * Grid stop k is k*dt and stop `last` is t_end; the next stop is grid stop k,
 * or the off-grid stop extras[e] when that is earlier (extras ends in inf).
 * A step uses segment s, advanced while the step midpoint is at or past
 * seg_end[s]; segment s has the kernel constants prm[12 s ...] and the input
 * current i_in[s].  Every grid stop k with k % stride == 0, and stop `last`,
 * is written as row n of the column-major buffer `rows` (columns t, U, V,
 * I_in, each `cap` long), which the caller sizes for every row left.
 *
 * A step that carries V across v_th from below is bisected on re-integrated
 * partial steps until the bracket is at most tol wide; the runner then
 * returns 1 with tuv[0] at its upper end, the crossing time, and tuv[1],
 * tuv[2] left at the start of the crossing step: the handshake clamps the
 * state at the crossing, so nothing steps it there.  At t_end it returns 0.
 */
int rf_run(const double *prm, const double *seg_end, const double *i_in, const double *extras,
           double *tuv, int64_t *ks, int64_t last, int64_t stride, double dt, double t_end,
           double v_th, double tol, double *rows, int64_t cap)
{
    double t = tuv[0], u = tuv[1], v = tuv[2];
    int64_t k = ks[0], e = ks[1], n = ks[2], s = ks[3];
    int crossed = 0;

    while (k <= last) {
        double t_next = k < last ? (double)k * dt : t_end;
        int sample = 0;
        if (extras[e] < t_next) {
            t_next = extras[e++];
        } else {
            sample = k % stride == 0 || k == last;
            k++;
        }
        double h = t_next - t;
        double mid = t + 0.5 * h;
        while (mid >= seg_end[s])
            s++;
        const double *p = prm + NPRM * s;
        double u_new = u, v_new = v;
        rk4(p, h, &u_new, &v_new);
        if (v < v_th && v_th <= v_new) {
            double lo = t, hi = t_next;
            while (hi - lo > tol) {
                double m = 0.5 * (lo + hi), um = u, vm = v;
                rk4(p, m - t, &um, &vm);
                if (vm >= v_th)
                    hi = m;
                else
                    lo = m;
            }
            t = hi;
            crossed = 1;
            break;
        }
        t = t_next;
        u = u_new;
        v = v_new;
        if (sample) {
            rows[n] = t;
            rows[cap + n] = u;
            rows[2 * cap + n] = v;
            rows[3 * cap + n] = i_in[s];
            n++;
        }
    }
    tuv[0] = t;
    tuv[1] = u;
    tuv[2] = v;
    ks[0] = k;
    ks[1] = e;
    ks[2] = n;
    ks[3] = s;
    return crossed;
}
