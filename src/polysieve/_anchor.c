/* Anchored decision search behind polysieve.search.dmax_table.

   Is there an avoiding set of size target in [1, X] that contains X? The
   search runs down from X - 1, taking n first and then skipping it, and
   prunes with the exact smaller entries D[1..X-1] (Russian-doll search).
   Sets are bitmasks of W 64-bit words. rows[n] marks the positions n - f >= 1
   that clash with n (bit 0 is never set); a level's forbidden mask is its
   parent's ORed with the row of the element it took. Returns 1 with the set
   in out, 0 if none exists, and -1 once tick (if given), asked every `every`
   nodes, returns nonzero. */
#include <stdint.h>
#include <string.h>

struct ctx {
    int W;
    const int *D;
    const uint64_t *rows;
    uint64_t *out;
    int (*tick)(void);
    long every, nodes;
};

static int dfs(struct ctx *c, int n, int need, uint64_t *forb)
{
    if (c->tick && ++c->nodes % c->every == 0 && c->tick())
        return -1;
    if (need == 0)
        return 1;
    /* move n down to the highest position not forbidden; bit 0 never is */
    uint64_t avail;
    while (!(avail = ~forb[n >> 6] & ~0ULL >> (63 - (n & 63))))
        n = (n | 63) - 64;
    n = (n & ~63) + 63 - __builtin_clzll(avail);
    if (n < need || c->D[n] < need)
        return 0;
    /* the levels below read positions under n only */
    uint64_t *next = forb + c->W;
    for (int i = 0; i <= (n - 1) >> 6; i++)
        next[i] = forb[i] | c->rows[(long)n * c->W + i];
    int r = dfs(c, n - 1, need - 1, next);
    if (r > 0)
        c->out[n >> 6] |= 1ULL << (n & 63);
    return r ? r : dfs(c, n - 1, need, forb);
}

/* masks holds target levels of W words; out holds W words. */
int anchor_decide(int X, int target, int W, const int *D, const uint64_t *rows,
                  uint64_t *masks, uint64_t *out, int (*tick)(void), long every)
{
    struct ctx c = {W, D, rows, out, tick, every, 0};
    memset(out, 0, W * sizeof *out);
    memcpy(masks, rows + (long)X * W, W * sizeof *masks);
    int r = dfs(&c, X - 1, target - 1, masks);
    if (r > 0)
        out[X >> 6] |= 1ULL << (X & 63);
    return r;
}
