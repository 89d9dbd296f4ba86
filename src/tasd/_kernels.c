/* tasd's compiled kernels (see tasd/_kernels.py): the greedy order of each
   m-block's magnitudes, as block ranks or as the extraction of each
   block's n largest non-zeros, and the one loop of the pinned products.
   All arrays are C-contiguous, and every block is 1 to MAX_M wide, which
   tasd/_kernels.py checks before it passes a pointer. */

#include <math.h>
#include <stdint.h>

/* The greedy order ranks CHUNK blocks at once, so that its counts run
   across blocks and vectorize, with their magnitudes in a scratch of
   CHUNK * MAX_M doubles (32 KB) on the stack. The chunk width changes no
   result. */
#define CHUNK 64
#define MAX_M 64

/* mag[j * c + b] = |x| at slot j of block b, for the c blocks at x. */
static void gather(const double *restrict x, int64_t c, int64_t m, double *restrict mag)
{
    for (int64_t j = 0; j < m; j++)
        for (int64_t b = 0; b < c; b++)
            mag[j * c + b] = fabs(x[b * m + j]);
}

/* r[b] = the rank of slot j in block b: the number of slots that come
   before it in the greedy order, largest magnitude first, ties to the
   lowest column. A slot k < j comes first when its magnitude is >=, a
   slot k > j when it is >. */
static void rank_slot(const double *restrict mag, int64_t c, int64_t m, int64_t j,
                      int64_t *restrict r)
{
    const double *restrict v = mag + j * c;
    for (int64_t b = 0; b < c; b++)
        r[b] = 0;
    for (int64_t k = 0; k < j; k++)
        for (int64_t b = 0; b < c; b++)
            r[b] += mag[k * c + b] >= v[b];
    for (int64_t k = j + 1; k < m; k++)
        for (int64_t b = 0; b < c; b++)
            r[b] += mag[k * c + b] > v[b];
}

/* out = the rank of each of the blocks * m magnitudes at x. */
void tasd_ranks(int64_t blocks, int64_t m, const double *restrict x, uint8_t *restrict out)
{
    int64_t r[CHUNK];
    double mag[CHUNK * MAX_M];
    for (int64_t b0 = 0; b0 < blocks; b0 += CHUNK) {
        int64_t w = blocks - b0 < CHUNK ? blocks - b0 : CHUNK;
        gather(x + b0 * m, w, m, mag);
        for (int64_t j = 0; j < m; j++) {
            rank_slot(mag, w, m, j, r);
            for (int64_t b = 0; b < w; b++)
                out[(b0 + b) * m + j] = r[b];
        }
    }
}

/* Moves each block's slots ranked below n that hold a non-zero out of x
   (blocks * m values, zeroed there) into values and idx (blocks * n
   each), in ascending column order, and fills the rest of each block's
   n slots with 0.0 and -1. */
void tasd_extract(int64_t blocks, int64_t n, int64_t m, double *restrict x,
                  double *restrict values, int64_t *restrict idx)
{
    int64_t r[CHUNK], taken[CHUNK];
    double mag[CHUNK * MAX_M];
    for (int64_t b0 = 0; b0 < blocks; b0 += CHUNK) {
        int64_t w = blocks - b0 < CHUNK ? blocks - b0 : CHUNK;
        double *xc = x + b0 * m;
        gather(xc, w, m, mag);
        for (int64_t b = 0; b < w; b++)
            taken[b] = 0;
        for (int64_t j = 0; j < m; j++) {
            rank_slot(mag, w, m, j, r);
            /* without branches, which the data would mispredict: slot s
               is rewritten as it is unless the entry is kept, and a
               block stops at its last slot once it has kept n */
            for (int64_t b = 0; b < w; b++) {
                double *e = xc + b * m + j, v = *e;
                int64_t keep = (r[b] < n) & (v != 0.0);
                int64_t s = (b0 + b) * n + (taken[b] < n ? taken[b] : n - 1);
                values[s] = keep ? v : values[s];
                idx[s] = keep ? j : idx[s];
                *e = keep ? 0.0 : v;
                taken[b] += keep;
            }
        }
        for (int64_t b = 0; b < w; b++)
            for (int64_t s = (b0 + b) * n + taken[b]; s < (b0 + b + 1) * n; s++) {
                values[s] = 0.0;
                idx[s] = -1;
            }
    }
}

/* The pinned products. Row i of a holds `blocks` blocks of n slots. Each
   slot s, in ascending order, adds its value v times row k of b to row i
   of out, as o[j] = o[j] + v * r[j]: one rounding per multiply and per
   add, which needs -ffp-contract=off (GCC's default for GNU C fuses them
   into FMAs). A zero v is skipped. The dense product passes n = 1 and no
   indices, so k is the column. A packed term passes its indices:
   k = block * m + index, and an unused slot (index -1) is skipped. */
void tasd_products(int64_t rows, int64_t blocks, int64_t n, int64_t m,
                   int64_t cols, const double *restrict a,
                   const int64_t *restrict idx, const double *restrict b,
                   double *restrict out)
{
    for (int64_t i = 0; i < rows; i++) {
        double *restrict o = out + i * cols;
        for (int64_t blk = 0; blk < blocks; blk++) {
            for (int64_t t = 0; t < n; t++) {
                int64_t s = (i * blocks + blk) * n + t;
                double v = a[s];
                if (v == 0.0 || (idx && idx[s] < 0))
                    continue;
                const double *restrict r = b + (idx ? blk * m + idx[s] : blk) * cols;
                for (int64_t j = 0; j < cols; j++)
                    o[j] = o[j] + v * r[j];
            }
        }
    }
}
