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

   Jobs on two threads. A prefix walk visits the search's nodes down to
   `depth` levels below the root, in the search's order and with its cuts,
   counting each. Every node it reaches at that depth, and every node that
   needs no more elements, becomes a job: the subtree the search would run
   there. The jobs are listed in the search's order (take before skip), and
   each keeps the prefix nodes counted before it. The caller and one thread
   made for the call take jobs in that order from an atomic index. A job
   that finds a set lowers the shared winner to its own index, and no job
   above the winner starts. The winner is the first job, in the search's
   order, that holds a set, so its set is the serial search's. The serial
   search stops there, so the decision's node count is the prefix nodes
   counted before the winner plus the nodes of every job up to it; a refuted
   decision counts every prefix node and every job. With depth 0 the root is
   the only job, and the caller runs a lone job without a thread. All
   buffers are allocated on the caller, so the thread never calls malloc,
   and it is joined before anchor_decide returns.

   Sets are bitmasks of W 64-bit words. rows[n] marks the positions n - f >= 1
   that clash with n (bit 0 is never set); a level's forbidden mask is its
   parent's ORed with the row of the element it took. Returns 1 with the set
   in out, 0 if none exists, -1 once tick (if given) returns nonzero, and -2
   if its buffers cannot be allocated. Each thread calls tick every `every`
   of its nodes, under a lock; once tick has fired, a thread stops at its
   next call without calling it again, so both threads stop within `every`
   nodes. *nodes gets the number of nodes searched. */
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

struct job {
    int n, need;
    long before, nodes;  /* prefix nodes counted before it; nodes it searched */
    uint64_t *forb, *out;  /* W words each; out starts as the positions taken above it */
};

struct shared {
    struct job *jobs;
    int njobs;
    atomic_int next, winner, stop;
    pthread_mutex_t lock;  /* held while tick runs */
};

/* One thread's search; aligned so that the two threads' node counts do not
   share a cache line. */
struct __attribute__((aligned(64))) ctx {
    int W, low;  /* low: 1 when position 1 is taken up front */
    const int *D;
    const uint64_t *rows;
    const uint8_t *T;  /* 2^16 entries */
    uint64_t *levels, *out;
    int (*tick)(void);
    long every, nodes;
    struct shared *s;
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

/* Move *n down to the highest position forb leaves free (bit 0 never is
   forbidden) and say whether a node there needing `need` more survives the
   cuts; if so, write the forbidden mask after taking *n to the next level. */
static inline int branch(const struct ctx *c, int *np, int need, uint64_t *forb)
{
    int n = *np;
    uint64_t avail;
    while (!(avail = ~forb[n >> 6] & ~0ULL >> (63 - (n & 63))))
        n = (n | 63) - 64;
    n = (n & ~63) + 63 - __builtin_clzll(avail);
    *np = n;
    int least = need + c->low;
    if (n < least || c->D[n] < least || !window_fits(c, n, need, forb))
        return 0;
    /* the levels below read positions under n only */
    uint64_t *next = forb + c->W;
    for (int i = 0; i <= (n - 1) >> 6; i++)
        next[i] = forb[i] | c->rows[(long)n * c->W + i];
    return 1;
}

/* Has the time run out? One thread at a time calls tick, and none once it
   has fired. */
static int out_of_time(const struct ctx *c)
{
    struct shared *s = c->s;
    pthread_mutex_lock(&s->lock);
    if (!atomic_load(&s->stop) && c->tick())
        atomic_store(&s->stop, 1);
    int r = atomic_load(&s->stop);
    pthread_mutex_unlock(&s->lock);
    return r;
}

static int dfs(struct ctx *c, int n, int need, uint64_t *forb)
{
    c->nodes++;
    if (c->tick && c->nodes % c->every == 0 && out_of_time(c))
        return -1;
    if (need == 0)
        return 1;
    if (!branch(c, &n, need, forb))
        return 0;
    int r = dfs(c, n - 1, need - 1, forb + c->W);
    if (r > 0)
        c->out[n >> 6] |= 1ULL << (n & 63);
    return r ? r : dfs(c, n - 1, need, forb);
}

/* The prefix walk: dfs's nodes above `left` more levels, in its order and
   with its cuts, counted in *prefix; path holds the positions taken. */
static void split(const struct ctx *c, int n, int need, uint64_t *forb, uint64_t *path, int left, long *prefix)
{
    struct shared *s = c->s;
    if (left == 0 || need == 0) {
        struct job *j = &s->jobs[s->njobs++];
        j->n = n;
        j->need = need;
        j->before = *prefix;
        memcpy(j->forb, forb, c->W * sizeof *forb);
        memcpy(j->out, path, c->W * sizeof *path);
        return;
    }
    ++*prefix;
    if (!branch(c, &n, need, forb))
        return;
    path[n >> 6] ^= 1ULL << (n & 63);
    split(c, n - 1, need - 1, forb + c->W, path, left - 1, prefix);
    path[n >> 6] ^= 1ULL << (n & 63);
    split(c, n - 1, need, forb, path, left - 1, prefix);
}

/* Run jobs in index order until none is left below the winner. */
static void *run_jobs(void *arg)
{
    struct ctx *c = arg;
    struct shared *s = c->s;
    for (;;) {
        int i = atomic_fetch_add(&s->next, 1);
        if (i >= s->njobs || i > atomic_load(&s->winner) || atomic_load(&s->stop))
            return NULL;
        struct job *j = &s->jobs[i];
        memcpy(c->levels, j->forb, c->W * sizeof *c->levels);
        c->out = j->out;
        long before = c->nodes;
        int r = dfs(c, j->n, j->need, c->levels);
        j->nodes = c->nodes - before;
        if (r < 0)
            return NULL;
        int w = atomic_load(&s->winner);
        while (r > 0 && i < w && !atomic_compare_exchange_weak(&s->winner, &w, i))
            ;
    }
}

/* masks holds target levels of W words; out holds W words; T is the window
   table of 2^16 entries. depth is the prefix walk's depth, at most 20. */
int anchor_decide(int X, int target, int W, const int *D, const uint64_t *rows, const uint8_t *T,
                  uint64_t *masks, uint64_t *out, int (*tick)(void), long every, long *nodes, int depth)
{
    const uint64_t *top = rows + (long)X * W;
    int low = X >= 2;
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
            masks[n >> 6] |= (rows[(long)n * W] >> 1 & 1) << (n & 63);
    }
    long most = 1L << depth;  /* the walk leaves at most 2^depth jobs */
    /* each job's mask and path, the walk's path, and the thread's levels */
    long words = (2 * most + 1 + (depth ? (long)target : 0)) * W;
    char *buf = malloc(most * sizeof(struct job) + words * sizeof(uint64_t));
    if (!buf)
        return -2;
    struct shared s = {(struct job *)buf, 0, 0, 0, 0, PTHREAD_MUTEX_INITIALIZER};
    uint64_t *words_at = (uint64_t *)(buf + most * sizeof(struct job));
    for (long i = 0; i < most; i++) {
        s.jobs[i].nodes = 0;
        s.jobs[i].forb = words_at + 2 * i * W;
        s.jobs[i].out = words_at + (2 * i + 1) * W;
    }
    uint64_t *path = words_at + 2 * most * W;
    memset(path, 0, W * sizeof *path);
    struct ctx mine = {W, low, D, rows, T, masks, NULL, tick, every, 0, &s};
    long prefix = 0;
    split(&mine, X - 1, target - 1 - low, masks, path, depth, &prefix);
    atomic_store(&s.winner, s.njobs);
    struct ctx theirs = mine;
    theirs.levels = path + W;
    pthread_t thread;
    int threaded = s.njobs > 1 && pthread_create(&thread, NULL, run_jobs, &theirs) == 0;
    run_jobs(&mine);
    if (threaded)
        pthread_join(thread, NULL);
    int w = atomic_load(&s.winner);
    *nodes = w < s.njobs ? s.jobs[w].before : prefix;
    for (int i = 0; i < s.njobs && i <= w; i++)
        *nodes += s.jobs[i].nodes;
    int r = atomic_load(&s.stop) ? -1 : w < s.njobs;
    if (r > 0) {
        memcpy(out, s.jobs[w].out, W * sizeof *out);
        out[X >> 6] |= 1ULL << (X & 63);
        out[0] |= (uint64_t)low << 1;
    }
    free(buf);
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
