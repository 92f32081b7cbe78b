/* Newton device pass of repro.spice.plans.NonlinearPlan, compiled.
 *
 * Linearizes every MOSFET and diode of one system around the iterate x
 * and accumulates the stamps into the combined scratch buffer
 * [A (size*size) | scrapA | b (size) | scrapB] that already holds the
 * step base.  Every expression mirrors the array pass of plans.py (and
 * so mosfet.level1_curves / Diode.iv) operation for operation, the
 * transcendentals are the libm exp/log1p that Python's math module
 * calls, and the build flags forbid fused multiply-adds
 * (-ffp-contract=off), so every slot value is bitwise the array pass's.
 * Stamps land in the array pass's np.add.at order: device order, the
 * four conductance slots, then the four transconductance slots, then
 * the two rhs rows.  The A and b regions are disjoint, so accumulating
 * a device's rhs rows right after its matrix slots sums every slot in
 * the same sequence.
 *
 * MOS_EXP_CLAMP and DIODE_EXP_CLAMP come from the build flags (the
 * Python models' clamps), so the constants live in one place;
 * DEVKERNEL_KEY is the loader's cache key, embedded as a tag the loader
 * finds in the file before it loads it.
 */
#include <math.h>
#include <stdint.h>

__attribute__((used)) const char devkernel_tag[] =
    "repro-devkernel:" DEVKERNEL_KEY;

typedef struct {
    int64_t size;          /* MNA system size */
    int64_t n_dev;         /* nonlinear devices, in netlist order */
    const int64_t *dev;    /* n_dev x 4: kind (1 mosfet, 0 diode), terminals */
    const double *par;     /* n_dev x 5: pol, beta, nvt, vth, lam | isat, vt */
    const double *x;       /* Newton iterate (size) */
    double *flat;          /* [A | scrapA | b | scrapB] scratch */
} devkernel_args;

/* Flat index of (r, c), or the scrap slot when either is ground. */
static int64_t slot(int64_t r, int64_t c, int64_t size)
{
    return (r < 0 || c < 0) ? size * size : r * size + c;
}

static double volt(const double *x, int64_t i)
{
    return i >= 0 ? x[i] : 0.0;
}

static void mosfet(const devkernel_args *a, const int64_t *t, const double *p)
{
    int64_t size = a->size, d = t[1], g = t[2], s = t[3];
    int64_t boff = size * size + 1;
    double *flat = a->flat;
    double pol = p[0], be = p[1], nv = p[2], vt = p[3], la = p[4];
    double vd = volt(a->x, d), vg = volt(a->x, g), vs = volt(a->x, s);
    double vnd, vns, sgn, sp, sg, gm, gds, i_real, residual;
    int swap = pol * (vd - vs) < 0.0;
    if (swap) {
        vnd = vs;
        vns = vd;
        sgn = 1.0;
    } else {
        vnd = vd;
        vns = vs;
        sgn = -1.0;
    }
    double vgs = pol * (vg - vns);
    double vds = pol * (vnd - vns);
    double u = (vgs - vt) / nv;
    if (u > MOS_EXP_CLAMP) {
        sp = u;
        sg = 1.0;
    } else if (u < -MOS_EXP_CLAMP) {
        sp = 0.0;
        sg = 0.0;
    } else {
        sp = log1p(exp(u));
        sg = 1.0 / (1.0 + exp(-u));
    }
    double veff = nv * sp;
    double clm = 1.0 + la * vds;
    if (vds < veff) {  /* triode */
        gm = be * vds * clm * sg;
        gds = be * ((veff - vds) * clm + (veff - 0.5 * vds) * vds * la);
        i_real = pol * (be * (veff - 0.5 * vds) * vds * clm);
    } else {  /* saturation */
        double hb = 0.5 * be * veff * veff;
        gm = be * veff * clm * sg;
        gds = hb * la;
        i_real = pol * (hb * clm);
    }
    residual = i_real - gds * (vnd - vns) - gm * (vg - vns);
    int64_t dd = slot(d, d, size), ss = slot(s, s, size);
    int64_t ds = slot(d, s, size), sd = slot(s, d, size);
    flat[dd] += gds;
    flat[ss] += gds;
    flat[ds] += -gds;
    flat[sd] += -gds;
    if (swap) {
        flat[slot(s, g, size)] += gm;
        flat[sd] += -gm;
        flat[slot(d, g, size)] += -gm;
        flat[dd] += gm;
    } else {
        flat[slot(d, g, size)] += gm;
        flat[ds] += -gm;
        flat[slot(s, g, size)] += -gm;
        flat[ss] += gm;
    }
    flat[boff + (d < 0 ? size : d)] += sgn * residual;
    flat[boff + (s < 0 ? size : s)] += -sgn * residual;
}

static void diode(const devkernel_args *a, const int64_t *t, const double *p)
{
    int64_t size = a->size, an = t[1], ca = t[2];
    int64_t boff = size * size + 1;
    double *flat = a->flat;
    double isat = p[0], vt = p[1];
    double v = volt(a->x, an) - volt(a->x, ca);
    double arg = v / vt;
    if (arg > DIODE_EXP_CLAMP)
        arg = DIODE_EXP_CLAMP;
    double e = exp(arg);
    double i = isat * (e - 1.0);
    double gd = isat * e / vt;
    double ires = i - gd * v;
    flat[slot(an, an, size)] += gd;
    flat[slot(ca, ca, size)] += gd;
    flat[slot(an, ca, size)] += -gd;
    flat[slot(ca, an, size)] += -gd;
    flat[boff + (an < 0 ? size : an)] += -ires;
    flat[boff + (ca < 0 ? size : ca)] += ires;
}

void devkernel_apply(const devkernel_args *a)
{
    for (int64_t k = 0; k < a->n_dev; k++) {
        const int64_t *t = a->dev + 4 * k;
        const double *p = a->par + 5 * k;
        if (t[0])
            mosfet(a, t, p);
        else
            diode(a, t, p);
    }
}
