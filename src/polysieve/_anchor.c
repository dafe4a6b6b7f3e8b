/* The compiled kernel of polysieve.search: the anchored decision search
   behind dmax_table (anchor_decide) and the greedy scan behind
   greedy_avoiding (greedy_scan). exact_max_avoiding, the tables' oracle,
   shares no code with either: it seeds its branch and bound with the greedy
   set only after checking that set in Python integers.

   The anchored search (anchor_decide). Is there an avoiding set of size
   target = D[X-1] + 1 in [1, X]? Such a set contains X, or it would fit in
   [1, X-1]; for X >= 2 it also contains 1, or shifting it down by one would
   fit it in [1, X-1]. So the search takes both ends up front: it returns 0
   at once when X - 1 is forbidden, and otherwise runs down from X - 1,
   taking n first and then skipping it, with 1 and every position 1 + f
   already excluded (Russian-doll search, anchored at both ends). A node is
   cut when the elements it still needs, plus 1, cannot fit below n: by
   position, by the exact smaller entry D[n], or by the window bound below.
   Each cut removes only branches that hold no set, so the first set found is
   the one the search anchored at X alone finds.

   The window bound. Within a block of 16 positions the difference graph
   depends only on which of them are free, so T[p], the largest subset of a
   16-bit free pattern p with no difference in F, bounds the elements a block
   can hold. Walking down the blocks aligned at multiples of 16 from the one
   holding n, the sum of T over the blocks walked, plus D[16b - 1] less
   position 1 for the prefix below block b, bounds the elements left. T[p] is
   at most the popcount of p, so the bound implies a count of free positions.

   Sets are bitmasks of W 64-bit words. rows[n] marks the positions n - f >= 1
   that clash with n (bit 0 is never set); a level's forbidden mask is its
   parent's ORed with the row of the element it took. Returns 1 with the set
   in out, 0 if none exists, and -1 once tick (if given), asked every `every`
   nodes, returns nonzero. *nodes gets the number of nodes searched. */
#include <stdint.h>
#include <string.h>

struct ctx {
    int W, low;  /* low: 1 when position 1 is taken up front */
    const int *D;
    const uint64_t *rows;
    const uint8_t *T;  /* 2^16 entries */
    uint64_t *out;
    int (*tick)(void);
    long every, nodes;
};

/* The free positions 16b..16b+15 of forb; read by shifting the word, since
   a uint16_t view of it would break strict aliasing. */
static inline unsigned block(const uint64_t *forb, int b)
{
    return (unsigned)(~forb[b >> 2] >> ((b & 3) << 4)) & 0xFFFF;
}

/* The window bound: can the free positions in [1, n] hold `need` more
   elements? The blocks from n's down to block b hold at most cum of them,
   and [1, 16b - 1] at most D[16b - 1], one of which is position 1 when it
   was taken up front. Once cum reaches need no block below can cut. */
static int window_fits(const struct ctx *c, int n, int need, const uint64_t *forb)
{
    int b = n >> 4;
    unsigned p = block(forb, b) & (0xFFFFu >> (15 - (n & 15)));
    int cum = 0;
    for (;;) {
        if (b == 0)
            return cum + c->T[p & ~1u] >= need;
        cum += c->T[p];
        if (cum >= need)
            return 1;
        if (cum + c->D[16 * b - 1] - c->low < need)
            return 0;
        p = block(forb, --b);
    }
}

static int dfs(struct ctx *c, int n, int need, uint64_t *forb)
{
    c->nodes++;
    if (c->tick && c->nodes % c->every == 0 && c->tick())
        return -1;
    if (need == 0)
        return 1;
    /* move n down to the highest position not forbidden; bit 0 never is */
    uint64_t avail;
    while (!(avail = ~forb[n >> 6] & ~0ULL >> (63 - (n & 63))))
        n = (n | 63) - 64;
    n = (n & ~63) + 63 - __builtin_clzll(avail);
    int least = need + c->low;
    if (n < least || c->D[n] < least || !window_fits(c, n, need, forb))
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

/* masks holds target levels of W words; out holds W words; T is the window
   table of 2^16 entries. */
int anchor_decide(int X, int target, int W, const int *D, const uint64_t *rows, const uint8_t *T,
                  uint64_t *masks, uint64_t *out, int (*tick)(void), long every, long *nodes)
{
    const uint64_t *top = rows + (long)X * W;
    int low = X >= 2;
    struct ctx c = {W, low, D, rows, T, out, tick, every, 0};
    memset(out, 0, W * sizeof *out);
    *nodes = 0;
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
    *nodes = c.nodes;
    if (r > 0) {
        out[X >> 6] |= 1ULL << (X & 63);
        out[0] |= (uint64_t)low << 1;
    }
    return r;
}

/* The left-to-right greedy avoiding set in [1, X]: each n not blocked by an
   earlier member is taken and blocks every n + f <= X. F holds nF distinct
   differences in increasing order; blocked has X + 1 entries, 0 for a free
   position, and a member is left 0. Only members below n block n, so
   blocked[n] is final when the scan reaches it. */
void greedy_scan(int64_t X, int64_t nF, const int64_t *F, uint8_t *blocked)
{
    for (int64_t n = 1; n <= X; n++) {
        if (blocked[n])
            continue;
        for (int64_t i = 0; i < nF && n + F[i] <= X; i++)
            blocked[n + F[i]] = 1;
    }
}
