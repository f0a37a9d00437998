/* The integrator's hot kernel: classical RK4 steps of the resonator, and the
 * runner that takes every stop of a free-running span and resolves its
 * threshold crossing.
 *
 * balance() is core.rhs's derivative times C: each channel's current balance,
 * b_u = C1 dU/dt and b_v = C2 dV/dt.  rk4() is the classical RK4 step built
 * from it, and each stage carries its balances, not its derivatives.  The stage
 * at x0 + dx, with dx = (c h / C) b for the previous stage's balance b and
 * c = 1/2, 1/2, 1, needs b only through products with coefficients that depend
 * on h alone.  So 1/C enters those coefficients and the update
 * u0 + (h / 6C) ((b1 + b4) + 2 (b2 + b3)), off the chain of dependent
 * operations from one stage to the next, and the step divides nothing.  Over
 * the orbit (U and V in 0.6-0.9 V, steps up to 20 us) and over the bias sweep
 * a step matches the RK4 built from core.rhs to a relative 1e-15 in U and V,
 * the bound tests/test_integrator.py pins.
 *
 * The step calls the C library's exp() (the one Python's math.exp calls) once
 * per channel, at the start state x0, and forms the branch current
 * B exp(a x0) there once.  A later stage at x = x0 + dx takes its branch
 * current as (B exp(a x0)) P(d), with d = (a c h / C) b (a dx up to its
 * rounding) and P the degree-5 Taylor polynomial of exp in Estrin form, when
 * x0 and x both lie inside the guard window and |d| <= 2^-8; there the
 * truncation is below d^6/720 < 5e-18 relative, and tests/test_integrator.py
 * holds the evaluated P(d) within 2 ulps of exp(d).  Any other stage calls
 * exp(a*guard(x)).  d is one multiply of the previous balance, so the chain
 * from one stage's balance to the next is that multiply, P's four levels, the
 * product with B exp(a x0) and a subtraction; the add, the guard and the leak
 * G dx wait off it.
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

/* A step's start (u0, v0), the parts of each balance fixed over the step,
 * ku = I_U - G (u0 - U_ref) and kv = I_IV + G (v0 - V_ref), and the branch
 * currents iu = IN0A exp(a guard(u0)) and iv = IN0B exp(a guard(v0)). */
struct start {
    double u0, v0, ku, kv, iu, iv;
};

/* A branch current B exp(a guard(x0 + dx)) at a later stage, given
 * Bx0 = B exp(a guard(x0)) and d = a dx. */
static inline double branch(const double *p, double B, double Bx0, double x0, double dx, double d)
{
    double d2 = d * d, d4 = d2 * d2;
    double poly = ((1.0 + d) + d2 * (0.5 + d * (1.0 / 6.0)))
                  + d4 * (1.0 / 24.0 + d * (1.0 / 120.0));
    if (inside(p, x0) && inside(p, x0 + dx) && fabs(d) <= 0x1p-8)
        return Bx0 * poly;
    return B * exp(p[A] * guard(p, x0 + dx));
}

/* The balances C1 dU/dt and C2 dV/dt at the stage (u0 + dxu, v0 + dxv), given
 * its branch currents iu = IN0A exp(a guard(u)) and iv = IN0B exp(a guard(v)). */
static inline void balance(const double *p, const struct start *s, double dxu, double dxv,
                           double iu, double iv, double *bu, double *bv)
{
    *bu = (s->ku - p[G] * dxu) - iv;
    *bv = iu - (s->kv + p[G] * dxv);
}

/* The balances (bu, bv) at the stage (u0 + cu b0u, v0 + cv b0v), where
 * (b0u, b0v) are the previous stage's; cu = c h / C1 and cv = c h / C2. */
static inline void stage(const double *p, const struct start *s, double cu, double cv,
                         double b0u, double b0v, double *bu, double *bv)
{
    double dxu = cu * b0u, dxv = cv * b0v;
    double iu = branch(p, p[IN0A], s->iu, s->u0, dxu, (p[A] * cu) * b0u);
    double iv = branch(p, p[IN0B], s->iv, s->v0, dxv, (p[A] * cv) * b0v);
    balance(p, s, dxu, dxv, iu, iv, bu, bv);
}

static inline void rk4(const double *p, double h, double *u, double *v)
{
    double u0 = *u, v0 = *v, hu = h * p[INV_C1], hv = h * p[INV_C2];
    double bu1, bv1, bu2, bv2, bu3, bv3, bu4, bv4;
    const struct start s = {
        u0, v0, p[I_U] - p[G] * (u0 - p[UREF]), p[I_IV] + p[G] * (v0 - p[VREF]),
        p[IN0A] * exp(p[A] * guard(p, u0)), p[IN0B] * exp(p[A] * guard(p, v0)),
    };
    balance(p, &s, 0.0, 0.0, s.iu, s.iv, &bu1, &bv1);
    stage(p, &s, 0.5 * hu, 0.5 * hv, bu1, bv1, &bu2, &bv2);
    stage(p, &s, 0.5 * hu, 0.5 * hv, bu2, bv2, &bu3, &bv3);
    stage(p, &s, hu, hv, bu3, bv3, &bu4, &bv4);
    *u = u0 + (hu * (1.0 / 6.0)) * ((bu1 + bu4) + 2.0 * (bu2 + bu3));
    *v = v0 + (hv * (1.0 / 6.0)) * ((bv1 + bv4) + 2.0 * (bv2 + bv3));
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
