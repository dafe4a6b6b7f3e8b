/* Anchored decision search behind polysieve.search.dmax_table.

   Is there an avoiding set of size target = D[X-1] + 1 in [1, X]? Such a
   set contains X, or it would fit in [1, X-1]; for X >= 2 it also contains
   1, or shifting it down by one would fit it in [1, X-1]. So the search
   takes both ends up front: it returns 0 at once when X - 1 is forbidden,
   and otherwise runs down from X - 1, taking n first and then skipping it,
   with 1 and every position 1 + f already excluded (Russian-doll search,
   anchored at both ends). A node is cut when the elements it still needs,
   plus 1, cannot fit below n: by position, by the exact smaller entry D[n],
   or by the count of free positions in [2, n]. Each cut removes only
   branches that hold no set, so the first set found is the one the search
   anchored at X alone finds.

   Sets are bitmasks of W 64-bit words. rows[n] marks the positions n - f >= 1
   that clash with n (bit 0 is never set); a level's forbidden mask is its
   parent's ORed with the row of the element it took. Returns 1 with the set
   in out, 0 if none exists, and -1 once tick (if given), asked every `every`
   nodes, returns nonzero. */
#include <stdint.h>
#include <string.h>

struct ctx {
    int W, low;  /* low: 1 when position 1 is taken up front */
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
    int least = need + c->low;
    if (n < least || c->D[n] < least)
        return 0;
    /* free positions in [0, n], less position 0; 1 is forbidden once taken */
    int free = __builtin_popcountll(avail) - 1;
    for (int i = 0; i < n >> 6; i++)
        free += __builtin_popcountll(~forb[i]);
    if (free < need)
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
    const uint64_t *top = rows + (long)X * W;
    int low = X >= 2;
    struct ctx c = {W, low, D, rows, out, tick, every, 0};
    memset(out, 0, W * sizeof *out);
    if (low && top[0] & 2)  /* X - 1 is forbidden: X and 1 clash */
        return 0;
    memcpy(masks, top, W * sizeof *masks);
    if (low) {
        /* take 1: forbid it and every position 1 + f, that is every n whose
           row marks position 1 */
        masks[0] |= 2;
        for (int n = 2; n < X; n++)
            masks[n >> 6] |= (c.rows[(long)n * W] >> 1 & 1) << (n & 63);
    }
    int r = dfs(&c, X - 1, target - 1 - low, masks);
    if (r > 0) {
        out[X >> 6] |= 1ULL << (X & 63);
        out[0] |= (uint64_t)low << 1;
    }
    return r;
}
