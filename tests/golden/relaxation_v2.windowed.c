/* Generated by psc from PS module `Relaxation2`. */
#include <stdlib.h>
#include <math.h>

/* Euclidean division, matching PS `div`/`mod`. */
static long ps_mod(long a, long b) { long r = a % b; return r < 0 ? r + (b < 0 ? -b : b) : r; }
static long ps_div(long a, long b) { return (a - ps_mod(a, b)) / b; }
static long ps_lmin(long a, long b) { return a < b ? a : b; }
static long ps_lmax(long a, long b) { return a > b ? a : b; }
static double ps_fmin(double a, double b) { return a < b ? a : b; }
static double ps_fmax(double a, double b) { return a > b ? a : b; }

void ps_Relaxation2(const double *InitialA, long M, long maxK, double *newA) {
    const long InitialA_lo0 = 0;
    const long InitialA_e0 = ((M + 1)) - (0) + 1;
    const long InitialA_lo1 = 0;
    const long InitialA_e1 = ((M + 1)) - (0) + 1;
    #define PS_AT_InitialA(i0, i1) InitialA[(((i0) - InitialA_lo0)) * InitialA_e1 + ((i1) - InitialA_lo1)]
    const long newA_lo0 = 0;
    const long newA_e0 = ((M + 1)) - (0) + 1;
    const long newA_lo1 = 0;
    const long newA_e1 = ((M + 1)) - (0) + 1;
    #define PS_AT_newA(i0, i1) newA[(((i0) - newA_lo0)) * newA_e1 + ((i1) - newA_lo1)]
    const long A_lo0 = 1;
    const long A_e0 = ps_lmin(2, (maxK) - (1) + 1);
    const long A_lo1 = 0;
    const long A_e1 = ((M + 1)) - (0) + 1;
    const long A_lo2 = 0;
    const long A_e2 = ((M + 1)) - (0) + 1;
    #define PS_AT_A(i0, i1, i2) A[((ps_mod(((i0) - A_lo0), A_e0)) * A_e1 + ((i1) - A_lo1)) * A_e2 + ((i2) - A_lo2)]
    double *A = (double *)calloc((size_t)(A_e0 * A_e1 * A_e2), sizeof(double));

    /* DOALL I (concurrent) */
    #pragma omp parallel for
    for (long I = 0; I <= (M + 1); ++I) {
        /* DOALL J (concurrent) */
        #pragma omp parallel for
        for (long J = 0; J <= (M + 1); ++J) {
            /* eq.1 */
            PS_AT_A(1, I, J) = PS_AT_InitialA(I, J);
        }
    }
    /* DO K (iterative) */
    for (long K = 2; K <= maxK; ++K) {
        /* DO I (iterative) */
        for (long I = 0; I <= (M + 1); ++I) {
            /* DO J (iterative) */
            for (long J = 0; J <= (M + 1); ++J) {
                /* eq.3 */
                PS_AT_A(K, I, J) = (((((I == 0) || (J == 0)) || (I == (M + 1))) || (J == (M + 1))) ? PS_AT_A(K - 1, I, J) : ((((PS_AT_A(K, I, J - 1) + PS_AT_A(K, I - 1, J)) + PS_AT_A(K - 1, I, J + 1)) + PS_AT_A(K - 1, I + 1, J)) / (double)(4)));
            }
        }
    }
    /* DOALL I (concurrent) */
    #pragma omp parallel for
    for (long I = 0; I <= (M + 1); ++I) {
        /* DOALL J (concurrent) */
        #pragma omp parallel for
        for (long J = 0; J <= (M + 1); ++J) {
            /* eq.2 */
            PS_AT_newA(I, J) = PS_AT_A(maxK, I, J);
        }
    }

    free(A);
    #undef PS_AT_InitialA
    #undef PS_AT_newA
    #undef PS_AT_A
}

/* ---- transformed (hyperplane) version ---- */

/* Generated by psc from PS module `Relaxation2`. */
#include <stdlib.h>
#include <math.h>

/* Euclidean division, matching PS `div`/`mod`. */
static long ps_mod(long a, long b) { long r = a % b; return r < 0 ? r + (b < 0 ? -b : b) : r; }
static long ps_div(long a, long b) { return (a - ps_mod(a, b)) / b; }
static long ps_lmin(long a, long b) { return a < b ? a : b; }
static long ps_lmax(long a, long b) { return a > b ? a : b; }
static double ps_fmin(double a, double b) { return a < b ? a : b; }
static double ps_fmax(double a, double b) { return a > b ? a : b; }

void ps_Relaxation2(const double *InitialA, long M, long maxK, double *newA) {
    const long InitialA_lo0 = 0;
    const long InitialA_e0 = ((M + 1)) - (0) + 1;
    const long InitialA_lo1 = 0;
    const long InitialA_e1 = ((M + 1)) - (0) + 1;
    #define PS_AT_InitialA(i0, i1) InitialA[(((i0) - InitialA_lo0)) * InitialA_e1 + ((i1) - InitialA_lo1)]
    const long newA_lo0 = 0;
    const long newA_e0 = ((M + 1)) - (0) + 1;
    const long newA_lo1 = 0;
    const long newA_e1 = ((M + 1)) - (0) + 1;
    #define PS_AT_newA(i0, i1) newA[(((i0) - newA_lo0)) * newA_e1 + ((i1) - newA_lo1)]
    const long A_lo0 = 1;
    const long A_e0 = (maxK) - (1) + 1;
    const long A_lo1 = 0;
    const long A_e1 = ((M + 1)) - (0) + 1;
    const long A_lo2 = 0;
    const long A_e2 = ((M + 1)) - (0) + 1;
    #define PS_AT_A(i0, i1, i2) A[((((i0) - A_lo0)) * A_e1 + ((i1) - A_lo1)) * A_e2 + ((i2) - A_lo2)]
    double *A = (double *)calloc((size_t)(A_e0 * A_e1 * A_e2), sizeof(double));
    const long A_p_lo0 = 2;
    const long A_p_e0 = ps_lmin(3, ((2*M + 2*maxK + 2)) - (2) + 1);
    const long A_p_lo1 = 1;
    const long A_p_e1 = (maxK) - (1) + 1;
    const long A_p_lo2 = 0;
    const long A_p_e2 = ((M + 1)) - (0) + 1;
    #define PS_AT_A_p(i0, i1, i2) A_p[((ps_mod(((i0) - A_p_lo0), A_p_e0)) * A_p_e1 + ((i1) - A_p_lo1)) * A_p_e2 + ((i2) - A_p_lo2)]
    double *A_p = (double *)calloc((size_t)(A_p_e0 * A_p_e1 * A_p_e2), sizeof(double));

    /* DO K' (iterative) */
    for (long K_p = 2; K_p <= (2*M + 2*maxK + 2); ++K_p) {
        /* DOALL I' (concurrent) */
        #pragma omp parallel for
        for (long I_p = 1; I_p <= maxK; ++I_p) {
            /* DOALL J' (concurrent) */
            #pragma omp parallel for
            for (long J_p = 0; J_p <= (M + 1); ++J_p) {
                /* eq.3 */
                PS_AT_A_p(K_p, I_p, J_p) = (((((K_p + (-2 * I_p)) + (-J_p)) < 0) || (((K_p + (-2 * I_p)) + (-J_p)) > (M + 1))) ? 0.0 : ((I_p == 1) ? PS_AT_InitialA(J_p, K_p - 2*I_p - 1*J_p) : (((((J_p == 0) || (((K_p + (-2 * I_p)) + (-J_p)) == 0)) || (J_p == (M + 1))) || (((K_p + (-2 * I_p)) + (-J_p)) == (M + 1))) ? PS_AT_A_p(K_p - 2, I_p - 1, J_p) : ((((PS_AT_A_p(K_p - 1, I_p, J_p) + PS_AT_A_p(K_p - 1, I_p, J_p - 1)) + PS_AT_A_p(K_p - 1, I_p - 1, J_p)) + PS_AT_A_p(K_p - 1, I_p - 1, J_p + 1)) / (double)(4)))));
            }
        }
        /* DOALL I (concurrent) */
        #pragma omp parallel for
        for (long I = ps_lmax(0, K_p + (-1*M - 2*maxK - 1)); I <= ps_lmin((M + 1), K_p - 2*maxK); ++I) {
            /* DOALL J (concurrent) */
            #pragma omp parallel for
            for (long J = ps_lmax(0, K_p - I - 2*maxK); J <= ps_lmin((M + 1), K_p - I - 2*maxK); ++J) {
                /* eq.2 */
                PS_AT_newA(I, J) = PS_AT_A_p(I + J + 2*maxK, maxK, I);
            }
        }
    }

    free(A);
    free(A_p);
    #undef PS_AT_InitialA
    #undef PS_AT_newA
    #undef PS_AT_A
    #undef PS_AT_A_p
}
