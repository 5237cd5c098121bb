/* One pass per optimizer step over a net's flat float64 vectors.

   Each loop performs rl_core's numpy operation sequence on one element
   at a time, every operation rounded on its own: built without FMA
   contraction (-ffp-contract=off) and without reassociation, it gives
   the numpy chain's results bit for bit. The caller passes distinct,
   equally long buffers. */
#include <math.h>
#include <stddef.h>

/* m = m*b1 + g*(1-b1);  v = v*b2 + g*(1-b2)*g;
   p = p - m/(sqrt(v) + eps_t)*lr_t */
void adam(double *restrict p, const double *restrict g, double *restrict m,
          double *restrict v, ptrdiff_t n, double b1, double b2,
          double lr_t, double eps_t)
{
    const double c1 = 1.0 - b1, c2 = 1.0 - b2;
    for (ptrdiff_t i = 0; i < n; i++) {
        const double mi = m[i] * b1 + g[i] * c1;
        const double vi = v[i] * b2 + g[i] * c2 * g[i];
        m[i] = mi;
        v[i] = vi;
        p[i] = p[i] - mi / (sqrt(vi) + eps_t) * lr_t;
    }
}

/* t = t*(1-eps) + o*eps */
void soft_update(double *restrict t, const double *restrict o, ptrdiff_t n,
                 double eps)
{
    const double keep = 1.0 - eps;
    for (ptrdiff_t i = 0; i < n; i++)
        t[i] = t[i] * keep + o[i] * eps;
}
