/* The one loop of tasd's pinned products (see tasd/_kernels.py).

   Row i of a holds `blocks` blocks of n slots. Each slot s, in ascending
   order, adds its value v times row k of b to row i of out, as
   o[j] = o[j] + v * r[j]: one rounding per multiply and per add, which
   needs -ffp-contract=off (GCC's default for GNU C fuses them into FMAs).
   A zero v is skipped. The dense product passes n = 1 and no indices, so
   k is the column. A packed term passes its indices: k = block * m + index,
   and an unused slot (index -1) is skipped. All arrays are C-contiguous. */

#include <stdint.h>

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
