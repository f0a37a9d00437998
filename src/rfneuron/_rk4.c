/* The integrator's hot kernel: classical RK4 steps of the resonator, and the
 * runner that takes every stop of a free-running span and resolves its
 * threshold crossing.
 *
 * deriv() is core.rhs's derivative, up to `* (1/C)` in place of `/ C`, and
 * rk4() is the classical RK4 step built from it.  Over the orbit (U and V in
 * 0.6-0.9 V, steps up to 20 us) a step matches the RK4 built from core.rhs to
 * a relative 1e-15 in U and V, the bound tests/test_integrator.py pins.
 *
 * The step calls the C library's exp() (the one Python's math.exp calls) once
 * per channel, at the start state x0.  A later stage at x = x0 + dx reuses it
 * as exp(a*x0) * exp(a*dx), with exp(a*dx) a degree-5 Taylor polynomial, when
 * x0 and x both lie inside the guard window and |a*dx| <= 2^-8; there the
 * truncation is below (a*dx)^6/720 < 5e-18 relative.  Any other stage calls
 * exp(a*guard(x)).  dx is the stage's increment itself, so the polynomial
 * waits on neither the add nor the guard.
 *
 * Build with -ffp-contract=off and no -ffast-math: the source then fixes every
 * rounding, and a rerun, on a fresh build too, is byte-identical.
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

static inline int inside(const double *p, double x)
{
    return x >= p[VMIN] && x <= p[VMAX];
}

/* exp(a * guard(x0 + dx)), given e0 = exp(a * guard(x0)). */
static inline double exp_near(const double *p, double e0, double x0, double dx)
{
    double x = x0 + dx, d = p[A] * dx, d2 = d * d;
    double poly = (1.0 + d) + d2 * ((0.5 + d * (1.0 / 6.0))
                                     + d2 * (1.0 / 24.0 + d * (1.0 / 120.0)));
    if (inside(p, x0) && inside(p, x) && fabs(d) <= 0x1p-8)
        return e0 * poly;
    return exp(p[A] * guard(p, x));
}

/* dU/dt and dV/dt at (u, v), given eu = exp(a * guard(u)) and ev = exp(a * guard(v)). */
static inline void deriv(const double *p, double u, double v, double eu, double ev,
                         double *du, double *dv)
{
    *du = (p[I_U] - p[IN0B] * ev - p[G] * (u - p[UREF])) * p[INV_C1];
    *dv = (p[IN0A] * eu - p[I_IV] - p[G] * (v - p[VREF])) * p[INV_C2];
}

/* The derivative at the stage (u0 + du_s, v0 + dv_s) of a step from (u0, v0). */
static inline void stage(const double *p, double u0, double v0, double eu, double ev,
                         double du_s, double dv_s, double *du, double *dv)
{
    deriv(p, u0 + du_s, v0 + dv_s, exp_near(p, eu, u0, du_s), exp_near(p, ev, v0, dv_s), du, dv);
}

static inline void rk4(const double *p, double h, double *u, double *v)
{
    double half = 0.5 * h, u0 = *u, v0 = *v, du1, dv1, du2, dv2, du3, dv3, du4, dv4;
    double eu = exp(p[A] * guard(p, u0)), ev = exp(p[A] * guard(p, v0));
    deriv(p, u0, v0, eu, ev, &du1, &dv1);
    stage(p, u0, v0, eu, ev, half * du1, half * dv1, &du2, &dv2);
    stage(p, u0, v0, eu, ev, half * du2, half * dv2, &du3, &dv3);
    stage(p, u0, v0, eu, ev, h * du3, h * dv3, &du4, &dv4);
    *u = u0 + h * (du1 + 2.0 * (du2 + du3) + du4) / 6.0;
    *v = v0 + h * (dv1 + 2.0 * (dv2 + dv3) + dv4) / 6.0;
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
