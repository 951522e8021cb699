/* Generated by psc from PS module `Table`. */
#include <stdlib.h>
#include <math.h>

/* Euclidean division, matching PS `div`/`mod`. */
static long ps_mod(long a, long b) { long r = a % b; return r < 0 ? r + (b < 0 ? -b : b) : r; }
static long ps_div(long a, long b) { return (a - ps_mod(a, b)) / b; }
static long ps_lmin(long a, long b) { return a < b ? a : b; }
static long ps_lmax(long a, long b) { return a > b ? a : b; }
static double ps_fmin(double a, double b) { return a < b ? a : b; }
static double ps_fmax(double a, double b) { return a > b ? a : b; }

void ps_Table(long n, double *corner) {
    const long t_lo0 = 1;
    const long t_e0 = (n) - (1) + 1;
    const long t_lo1 = 1;
    const long t_e1 = (n) - (1) + 1;
    #define PS_AT_t(i0, i1) t[(((i0) - t_lo0)) * t_e1 + ((i1) - t_lo1)]
    double *t = (double *)calloc((size_t)(t_e0 * t_e1), sizeof(double));

    /* DOALL i1 (concurrent) */
    #pragma omp parallel for
    for (long i1 = 1; i1 <= n; ++i1) {
        /* eq.1 */
        PS_AT_t(1, i1) = 1.0;
    }
    /* DOALL I (concurrent) */
    #pragma omp parallel for
    for (long I = 2; I <= n; ++I) {
        /* eq.2 */
        PS_AT_t(I, 1) = 1.0;
    }
    /* DO I (iterative) */
    for (long I = 2; I <= n; ++I) {
        /* DO J (iterative) */
        for (long J = 2; J <= n; ++J) {
            /* eq.3 */
            PS_AT_t(I, J) = ((PS_AT_t(I - 1, J) + PS_AT_t(I, J - 1)) / 2.0);
        }
    }
    /* eq.4 */
    *corner = PS_AT_t(n, n);

    free(t);
    #undef PS_AT_t
}

/* ---- transformed (hyperplane) version ---- */

/* Generated by psc from PS module `Table`. */
#include <stdlib.h>
#include <math.h>

/* Euclidean division, matching PS `div`/`mod`. */
static long ps_mod(long a, long b) { long r = a % b; return r < 0 ? r + (b < 0 ? -b : b) : r; }
static long ps_div(long a, long b) { return (a - ps_mod(a, b)) / b; }
static long ps_lmin(long a, long b) { return a < b ? a : b; }
static long ps_lmax(long a, long b) { return a > b ? a : b; }
static double ps_fmin(double a, double b) { return a < b ? a : b; }
static double ps_fmax(double a, double b) { return a > b ? a : b; }

void ps_Table(long n, double *corner) {
    const long t_lo0 = 1;
    const long t_e0 = (n) - (1) + 1;
    const long t_lo1 = 1;
    const long t_e1 = (n) - (1) + 1;
    #define PS_AT_t(i0, i1) t[(((i0) - t_lo0)) * t_e1 + ((i1) - t_lo1)]
    double *t = (double *)calloc((size_t)(t_e0 * t_e1), sizeof(double));
    const long t_p_lo0 = 2;
    const long t_p_e0 = ps_lmin(2, (2*n) - (2) + 1);
    const long t_p_lo1 = 1;
    const long t_p_e1 = (n) - (1) + 1;
    #define PS_AT_t_p(i0, i1) t_p[(ps_mod(((i0) - t_p_lo0), t_p_e0)) * t_p_e1 + ((i1) - t_p_lo1)]
    double *t_p = (double *)calloc((size_t)(t_p_e0 * t_p_e1), sizeof(double));

    /* DO I' (iterative) */
    for (long I_p = 2; I_p <= 2*n; ++I_p) {
        /* DOALL J' (concurrent) */
        #pragma omp parallel for
        for (long J_p = 1; J_p <= n; ++J_p) {
            /* eq.3 */
            PS_AT_t_p(I_p, J_p) = ((((I_p + (-J_p)) < 1) || ((I_p + (-J_p)) > n)) ? 0.0 : ((J_p == 1) ? 1.0 : (((J_p >= 2) && ((I_p + (-J_p)) == 1)) ? 1.0 : ((PS_AT_t_p(I_p - 1, J_p - 1) + PS_AT_t_p(I_p - 1, J_p)) / 2.0))));
        }
    }
    /* eq.4 */
    *corner = PS_AT_t_p(2*n, n);

    free(t);
    free(t_p);
    #undef PS_AT_t
    #undef PS_AT_t_p
}
