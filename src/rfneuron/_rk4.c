/* The integrator's hot kernel: classical RK4 steps of the resonator, and the
 * runner that takes every stop of a free-running span and resolves its
 * threshold crossing.
 *
 * balance() is core.rhs's derivative times C, each channel's current balance
 * b_u = C1 dU/dt and b_v = C2 dV/dt, times a scale that the stage passes in.
 * rk4() is the classical RK4 step built from it.  The stage at x0 + dx, with
 * dx = (c h / C) b for the previous stage's balance b and c = 1/2, 1/2, 1,
 * needs b only through d = a dx = (a c h / C) b, its exp argument, so each
 * stage carries each channel's d, not its balance: balance() at scale
 * s = a c h / C returns the next stage's d, and dx = d (1/a), with 1/a the
 * step's one division.  The update is
 * u0 + ((h / 6C) b1 + (h / 6C) b4) + (1 / 3a) (2 d3 + d4), with (h / 6C) b1
 * and (h / 6C) b4 from balance() at scale h / 6C.  So 1/C enters only the
 * scales, which depend on h alone.  Over the orbit (U and V in 0.6-0.9 V,
 * steps up to 20 us), over the bias sweep and over dies with unequal channels,
 * a step matches the RK4 built from core.rhs to a relative 1e-15 in U and V,
 * the bound tests/test_integrator.py pins.
 *
 * The step calls the C library's exp() (the one Python's math.exp calls) once
 * per channel, at the start state x0.  Inside the guard window it calls
 * exp(a x0), which equals exp(a guard(x0)) there, so the guard is not on the
 * way to exp(); outside, it calls exp(a guard(x0)).  A later stage at
 * x = x0 + dx takes its scaled branch current s B exp(a guard(x)) as K P(d),
 * with K = s B exp(a x0) and P the degree-5 Taylor polynomial of exp in
 * Estrin form, when x0 and x both lie inside the guard window and
 * |d| <= 2^-8; there the truncation is below d^6/720 < 5e-18 relative, and
 * tests/test_integrator.py holds the evaluated K P(d) within 2 ulps of
 * K exp(d).  Any other stage calls exp(a guard(x)).  fold() multiplies K into
 * P's coefficients once per step and scale, from the start exponential.  The
 * next stage's d is then L - K P(d) (or K P(d) - L for V), where the leak part
 * L = s (k - G dx) waits only on d, so the chain from one stage's d to the
 * next is P's Estrin levels and one subtraction; the window test and the
 * guard wait off it.
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

/* The parts of each balance fixed over a step from (u0, v0),
 * ku = I_U - G (u0 - U_ref) and kv = I_IV + G (v0 - V_ref). */
struct start {
    double ku, kv;
};

/* K P(d) with K folded into P's coefficients: k1 = K, then K/2, K/6, K/24,
 * K/120; K = sB exp(a guard(x0)) for a branch's bias B times a stage's scale s,
 * and sB is kept for the branch's exp() fallback. */
struct fold {
    double sB, k1, k2, k3, k4, k5;
};

static inline struct fold fold(double sB, double e0)
{
    double K = sB * e0;
    struct fold f = {sB, K, 0.5 * K, K * (1.0 / 6.0), K * (1.0 / 24.0), K * (1.0 / 120.0)};
    return f;
}

/* A scaled branch current s B exp(a guard(x0 + dx)) at a later stage, given
 * f = fold(s B, exp(a guard(x0))) and d = a dx. */
static inline double branch(const double *p, const struct fold *f, double x0, double dx, double d)
{
    double d2 = d * d, d4 = d2 * d2;
    double poly = ((f->k1 + f->k1 * d) + d2 * (f->k2 + d * f->k3)) + d4 * (f->k4 + d * f->k5);
    if (inside(p, x0) && inside(p, x0 + dx) && fabs(d) <= 0x1p-8)
        return poly;
    return f->sB * exp(p[A] * guard(p, x0 + dx));
}

/* The balances C1 dU/dt and C2 dV/dt at the stage (u0 + dxu, v0 + dxv), scaled
 * by su and sv, given its branch currents iu = sv IN0A exp(a guard(u)) and
 * iv = su IN0B exp(a guard(v)), each scaled by the balance it enters. */
static inline void balance(const double *p, const struct start *s, double su, double sv,
                           double dxu, double dxv, double iu, double iv, double *bu, double *bv)
{
    *bu = su * (s->ku - p[G] * dxu) - iv;
    *bv = iu - sv * (s->kv + p[G] * dxv);
}

/* exp(a guard(x0)), with the guard off the way to exp() inside the window. */
static inline double start_exp(const double *p, double x0)
{
    return inside(p, x0) ? exp(p[A] * x0) : exp(p[A] * guard(p, x0));
}

static inline void rk4(const double *p, double h, double *u, double *v)
{
    double u0 = *u, v0 = *v, a = p[A], ia = 1.0 / a;
    double hu = h * p[INV_C1], hv = h * p[INV_C2];
    double eu = start_exp(p, u0), ev = start_exp(p, v0);
    const struct start s = {p[I_U] - p[G] * (u0 - p[UREF]), p[I_IV] + p[G] * (v0 - p[VREF])};
    /* each stage's scales: a c h / C for the arguments d of stages 2 and 3
     * (c = 1/2) and of stage 4 (c = 1), and h / 6C for the update's b1 and b4 */
    double su2 = a * (0.5 * hu), sv2 = a * (0.5 * hv), su4 = a * hu, sv4 = a * hv;
    double su6 = hu * (1.0 / 6.0), sv6 = hv * (1.0 / 6.0);
    /* U's branch enters the V balance and V's the U balance */
    const struct fold iu2 = fold(sv2 * p[IN0A], eu), iv2 = fold(su2 * p[IN0B], ev);
    const struct fold iu4 = fold(sv4 * p[IN0A], eu), iv4 = fold(su4 * p[IN0B], ev);
    const struct fold iu6 = fold(sv6 * p[IN0A], eu), iv6 = fold(su6 * p[IN0B], ev);
    double du2, dv2, du3, dv3, du4, dv4, ru1, rv1, ru4, rv4;
    balance(p, &s, su2, sv2, 0.0, 0.0, iu2.k1, iv2.k1, &du2, &dv2);
    balance(p, &s, su6, sv6, 0.0, 0.0, iu6.k1, iv6.k1, &ru1, &rv1);
    double xu = du2 * ia, xv = dv2 * ia;
    balance(p, &s, su2, sv2, xu, xv, branch(p, &iu2, u0, xu, du2), branch(p, &iv2, v0, xv, dv2),
            &du3, &dv3);
    xu = du3 * ia, xv = dv3 * ia;
    balance(p, &s, su4, sv4, xu, xv, branch(p, &iu4, u0, xu, du3), branch(p, &iv4, v0, xv, dv3),
            &du4, &dv4);
    xu = du4 * ia, xv = dv4 * ia;
    balance(p, &s, su6, sv6, xu, xv, branch(p, &iu6, u0, xu, du4), branch(p, &iv6, v0, xv, dv4),
            &ru4, &rv4);
    *u = u0 + (ru1 + ru4) + (ia * (1.0 / 3.0)) * (2.0 * du3 + du4);
    *v = v0 + (rv1 + rv4) + (ia * (1.0 / 3.0)) * (2.0 * dv3 + dv4);
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
