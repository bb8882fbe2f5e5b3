/* The compiled twin of zerosum.search._scan_from.

   A Scan holds one scan's constants: the group's invariant factors, the
   forbidden mask, the per-rank weights, for a cut scan the states of the
   cut met so far, and the walk's rule: one of four modes (the MODE_*
   values below) and two numbers, as an accumulator's kernel_rule() in
   search.py gives them. Its walk method runs one root task: it
   starts from an empty result, walks exactly the nodes that _scan_from
   walks, in the same order, and returns the task's nodes and its result
   in one shape for every mode, numbers and paths as bytes of ranks (the
   table at Scan_walk). Only search.py maps these to and from the
   accumulators; this file reads and writes no Python attribute. The
   nodes are counted, budgeted and timed as _scan_from does them, from
   the seconds left that both are handed.

   The walk releases the GIL for its loop and takes it back only to fetch
   a state of the cut it meets for the first time and, on the main thread
   alone, to check for signals at every 2048th node. The paths it keeps
   go to a buffer from the raw allocator, like its other buffers. So Scans
   on several threads walk at once, one task at a time each. At every
   2048th node a walk also ends if its Scan's stop() was called, as when
   its seconds run out.

   A rank mask is little-endian 64-bit words. Translating a mask by an
   element is one rotation per nonzero coordinate of the element, inside
   every block of n*s ranks, as in groups.GroupTables: the two masks of
   each (coordinate, shift) are built when first needed, so they take at
   most sum(n_i - 1)*|G|/4 bytes.

   The cut is a state machine that only Python (search._PathCut) knows:
   each level of the walk holds one int32 state, 0 where every candidate
   is entered. A level in state s > 0 enters only the candidates in s's
   class mask, and its child for rank h is in state row(s)[h]. The first
   time a Scan meets a state it fetches that mask and row from Python and
   keeps them, indexed by the state: a scan meets few states, at most 22
   on the 300 cut scans measured (README). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef uint64_t word;

enum { MODE_COUNT = 0, MODE_EXTREMA = 1, MODE_MINMAX = 2, MODE_VIOLATION = 3 };

typedef struct {
    PyObject_HEAD
    Py_ssize_t size, words, rank;
    Py_ssize_t *factors, *strides, *rot_base;
    word **rot;            /* low then high mask of each (coordinate, shift) */
    word *forbidden;
    int32_t *weights;
    int mode;              /* the walk's rule: a MODE_* and its (a, b) */
    int64_t a, b;
    /* the cut: fetch(state) -> (class mask, row), NULL without a cut; each
       state met so far holds its mask, W words, then its row, |G| int32 */
    PyObject *fetch;
    int32_t root_state;
    Py_ssize_t state_cap;
    word **states;
    /* per level of the walk, kept between walks */
    Py_ssize_t level_cap;
    word *cand, *blocked, *tmp;
    int64_t *total;
    int32_t *state, *path, *best_a, *best_b;
    /* the ranks of the paths a walk keeps, path after path; the buffer
       outlives the walk, as the levels do */
    Py_ssize_t kept_cap;
    int32_t *kept;
    int busy;              /* a walk is running; set and read under the GIL */
    int stop;              /* set by stop(), read by the walk without the GIL */
} Scan;

/* -- helpers ------------------------------------------------------------- */

/* Every buffer a Scan owns comes from the raw allocator, which needs no
   GIL, and ends with 64 spare bytes, so that the buffers of two Scans
   walked on two threads never share a cache line. NULL on failure, with
   no exception set: the walk raises MemoryError once it holds the GIL. */
static void *raw_alloc(size_t n, size_t size)
{
    return PyMem_RawCalloc(1, n * size + 64);
}

static void *raw_grow(void *p, size_t n, size_t size)
{
    return PyMem_RawRealloc(p, n * size + 64);
}

static int no_memory(void)
{
    PyErr_NoMemory();
    return -1;
}

static void load_words(word *dst, const unsigned char *src, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        word w = 0;
        for (int b = 7; b >= 0; b--)
            w = (w << 8) | src[8 * i + b];
        dst[i] = w;
    }
}

static void set_range(word *w, Py_ssize_t lo, Py_ssize_t hi)
{
    for (Py_ssize_t r = lo; r < hi; r++)
        w[r >> 6] |= (word)1 << (r & 63);
}

/* A Python int, saturated to +-2^62: exact for every comparison the walk
   makes, as no path length or weight sum gets near it. */
static int as_i64(PyObject *value, int64_t *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    const int64_t cap = (int64_t)1 << 62;
    *out = overflow > 0 || v > cap ? cap : overflow < 0 || v < -cap ? -cap : v;
    return 0;
}

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + ts.tv_nsec * 1e-9;
}

/* -- translate ------------------------------------------------------------ */

/* The (low, high) masks adding c to coordinate i, built on first use;
   NULL when out of memory. */
static word *rotation(Scan *s, Py_ssize_t i, Py_ssize_t c)
{
    word **slot = &s->rot[s->rot_base[i] + c];
    if (*slot == NULL) {
        Py_ssize_t W = s->words, st = s->strides[i];
        Py_ssize_t block = s->factors[i] * st, down = (s->factors[i] - c) * st;
        word *m = raw_alloc(2 * W, sizeof(word));
        if (m == NULL)
            return NULL;
        for (Py_ssize_t b = 0; b < s->size; b += block) {
            set_range(m, b, b + down);
            set_range(m + W, b + down, b + block);
        }
        *slot = m;
    }
    return *slot;
}

/* dst = ((src & low) << up) | ((src & high) >> down); dst != src. */
static void rotate(word *dst, const word *src, const word *m, Py_ssize_t W,
                   Py_ssize_t up, Py_ssize_t down)
{
    const word *low = m, *high = m + W;
    Py_ssize_t uq = up >> 6, dq = down >> 6;
    int ur = up & 63, dr = down & 63;
    for (Py_ssize_t j = 0; j < W; j++) {
        word v = 0;
        Py_ssize_t a = j - uq;
        if (a >= 0) {
            v = (src[a] & low[a]) << ur;
            if (ur && a > 0)
                v |= (src[a - 1] & low[a - 1]) >> (64 - ur);
        }
        a = j + dq;
        if (a < W) {
            v |= (src[a] & high[a]) >> dr;
            if (dr && a + 1 < W)
                v |= (src[a + 1] & high[a + 1]) << (64 - dr);
        }
        dst[j] = v;
    }
}

/* dst = src | translate(src, -h); 0, or -1 when out of memory. */
static int block_child(Scan *s, word *dst, const word *src, Py_ssize_t h)
{
    Py_ssize_t W = s->words;
    const word *x = src;
    word *bufs[2] = {s->tmp, s->tmp + W};
    int flip = 0;
    for (Py_ssize_t i = 0; i < s->rank; i++) {
        Py_ssize_t n = s->factors[i], c = (h / s->strides[i]) % n;
        if (c == 0)
            continue;
        const word *m = rotation(s, i, n - c);
        if (m == NULL)
            return -1;
        Py_ssize_t st = s->strides[i];
        rotate(bufs[flip], x, m, W, (n - c) * st, c * st);
        x = bufs[flip];
        flip ^= 1;
    }
    for (Py_ssize_t j = 0; j < W; j++)
        dst[j] = src[j] | x[j];
    return 0;
}

/* -- the cut's states ----------------------------------------------------- */

/* Fetch state ``state`` from Python and keep it, with the GIL held; -1
   with an exception set. */
static int fetch_state(Scan *s, int32_t state)
{
    Py_ssize_t W = s->words, size = s->size;
    PyObject *got = PyObject_CallFunction(s->fetch, "i", (int)state), *mask, *row;
    if (got == NULL)
        return -1;
    if (!PyTuple_Check(got) || PyTuple_GET_SIZE(got) != 2
        || !PyBytes_Check(mask = PyTuple_GET_ITEM(got, 0)) || PyBytes_GET_SIZE(mask) != W * 8
        || !PyBytes_Check(row = PyTuple_GET_ITEM(got, 1)) || PyBytes_GET_SIZE(row) != 4 * size) {
        Py_DECREF(got);
        PyErr_SetString(PyExc_ValueError, "fetch must return a mask of the mask width "
                        "and a row of 4 bytes per rank");
        return -1;
    }
    word *block = raw_alloc(W * 8 + 4 * size, 1);
    if (block == NULL) {
        Py_DECREF(got);
        return no_memory();
    }
    load_words(block, (const unsigned char *)PyBytes_AS_STRING(mask), W);
    memcpy(block + W, PyBytes_AS_STRING(row), 4 * size);
    Py_DECREF(got);
    for (Py_ssize_t h = 0; h < size; h++)
        if (((const int32_t *)(block + W))[h] < 0) {
            PyMem_RawFree(block);
            PyErr_SetString(PyExc_ValueError, "a state must not be negative");
            return -1;
        }
    if (state >= s->state_cap) {
        Py_ssize_t cap = 2 * (Py_ssize_t)state + 16;
        word **states = raw_grow(s->states, cap, sizeof(word *));
        if (states == NULL) {
            PyMem_RawFree(block);
            return no_memory();
        }
        memset(states + s->state_cap, 0, (cap - s->state_cap) * sizeof(word *));
        s->states = states;
        s->state_cap = cap;
    }
    s->states[state] = block;
    return 0;
}

/* Meet ``state`` in a walk that does not hold the GIL: one not met
   before, and not 0, is fetched with the GIL taken back through *ts. -1
   with an exception set. */
static int meet(Scan *s, int32_t state, PyThreadState **ts)
{
    if (state == 0 || (state < s->state_cap && s->states[state] != NULL))
        return 0;
    PyEval_RestoreThread(*ts);
    int rc = fetch_state(s, state);
    *ts = PyEval_SaveThread();
    return rc;
}

/* -- the walk's levels ---------------------------------------------------- */

/* Room for levels 0 .. need; -1 when out of memory. */
static int grow_levels(Scan *s, Py_ssize_t need)
{
    if (need < s->level_cap)
        return 0;
    Py_ssize_t cap = s->level_cap ? s->level_cap : 16;
    while (cap <= need)
        cap *= 2;
    Py_ssize_t W = s->words;
#define GROW(field, type, per)                                          \
    do {                                                                \
        type *p = raw_grow(s->field, (size_t)cap * (per), sizeof(type)); \
        if (p == NULL)                                                  \
            return -1;                                                  \
        s->field = p;                                                   \
    } while (0)
    GROW(cand, word, W);
    GROW(blocked, word, W);
    GROW(total, int64_t, 1);
    GROW(state, int32_t, 1);
    GROW(path, int32_t, 1);
    GROW(best_a, int32_t, 1);
    GROW(best_b, int32_t, 1);
#undef GROW
    s->level_cap = cap;
    return 0;
}

/* Append the path's first ``len`` ranks to the kept paths, ``*used``
   ranks so far; -1 when out of memory. */
static int keep_path(Scan *s, Py_ssize_t *used, Py_ssize_t len)
{
    if (*used + len > s->kept_cap) {
        Py_ssize_t cap = s->kept_cap ? s->kept_cap : 1024;
        while (cap < *used + len)
            cap *= 2;
        int32_t *p = raw_grow(s->kept, cap, sizeof(int32_t));
        if (p == NULL)
            return -1;
        s->kept = p;
        s->kept_cap = cap;
    }
    memcpy(s->kept + *used, s->path, len * sizeof(int32_t));
    *used += len;
    return 0;
}

/* -- Scan ----------------------------------------------------------------- */

static void Scan_dealloc(Scan *s)
{
    if (s->rot != NULL && s->rot_base != NULL) {
        Py_ssize_t n = s->rot_base[s->rank];
        for (Py_ssize_t i = 0; i < n; i++)
            PyMem_RawFree(s->rot[i]);
    }
    for (Py_ssize_t i = 0; i < s->state_cap; i++)
        PyMem_RawFree(s->states[i]);
    void *blocks[] = {s->factors, s->strides, s->rot_base, s->rot, s->forbidden,
                      s->weights, s->states, s->cand, s->blocked, s->tmp, s->total,
                      s->state, s->path, s->best_a, s->best_b, s->kept};
    for (size_t i = 0; i < sizeof(blocks) / sizeof(blocks[0]); i++)
        PyMem_RawFree(blocks[i]);
    Py_XDECREF(s->fetch);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static int read_mask(PyObject *bytes, word *dst, Py_ssize_t words, const char *what)
{
    if (!PyBytes_Check(bytes) || PyBytes_GET_SIZE(bytes) != words * 8) {
        PyErr_Format(PyExc_ValueError, "%s must be bytes of %zd words", what, words);
        return -1;
    }
    load_words(dst, (const unsigned char *)PyBytes_AS_STRING(bytes), words);
    return 0;
}

/* Scan(factors, forbidden, weights, cut, mode, a, b): ``forbidden`` the
   mask as little-endian bytes of whole 64-bit words; ``weights`` each
   rank's weight as a native int32, 4 bytes per rank; ``cut`` None or
   (root_state, fetch): the state of the empty path, and the callable
   that maps a state to its class mask, bytes of whole words, and its
   row, bytes of a native int32 state per rank; ``mode`` a MODE_* and
   (a, b) its rule, the same for every walk (Scan_walk). */
static int Scan_init(Scan *s, PyObject *args, PyObject *kwds)
{
    PyObject *factors, *forbidden, *weights, *cut, *a, *b;
    int mode;
    static char *kwlist[] = {"factors", "forbidden", "weights", "cut", "mode", "a", "b", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!SSOiOO:Scan", kwlist, &PyTuple_Type,
                                     &factors, &forbidden, &weights, &cut, &mode, &a, &b))
        return -1;
    if (s->factors != NULL) {
        PyErr_SetString(PyExc_TypeError, "a Scan is initialised once");
        return -1;
    }
    if (mode < MODE_COUNT || mode > MODE_VIOLATION) {
        PyErr_SetString(PyExc_ValueError, "unknown mode");
        return -1;
    }
    s->mode = mode;
    if (as_i64(a, &s->a) < 0 || as_i64(b, &s->b) < 0)
        return -1;
    Py_ssize_t rank = PyTuple_GET_SIZE(factors), size = 1, shifts = 0;
    if (rank == 0) {
        PyErr_SetString(PyExc_ValueError, "a group needs a factor");
        return -1;
    }
    s->rank = rank;
    s->factors = raw_alloc(rank, sizeof(Py_ssize_t));
    s->strides = raw_alloc(rank, sizeof(Py_ssize_t));
    s->rot_base = raw_alloc(rank + 1, sizeof(Py_ssize_t));
    if (!s->factors || !s->strides || !s->rot_base)
        return no_memory();
    for (Py_ssize_t i = 0; i < rank; i++) {
        Py_ssize_t n = PyLong_AsSsize_t(PyTuple_GET_ITEM(factors, i));
        if (n == -1 && PyErr_Occurred())
            return -1;
        if (n < 2 || size > (Py_ssize_t)INT32_MAX / n) {
            PyErr_SetString(PyExc_ValueError, "factors must be at least 2, |G| below 2^31");
            return -1;
        }
        s->factors[i] = n;
        s->strides[i] = size;
        s->rot_base[i] = shifts;
        size *= n;
        shifts += n;
    }
    s->rot_base[rank] = shifts;
    s->size = size;
    s->words = (size + 63) / 64;
    Py_ssize_t W = s->words;
    s->rot = raw_alloc(shifts, sizeof(word *));
    s->forbidden = raw_alloc(W, sizeof(word));
    s->tmp = raw_alloc(2 * W, sizeof(word));
    if (!s->rot || !s->forbidden || !s->tmp)
        return no_memory();
    if (read_mask(forbidden, s->forbidden, W, "forbidden") < 0)
        return -1;
    if (PyBytes_GET_SIZE(weights) != 4 * size) {
        PyErr_SetString(PyExc_ValueError, "weights must be 4 bytes per rank");
        return -1;
    }
    s->weights = raw_alloc(size, sizeof(int32_t));
    if (s->weights == NULL)
        return no_memory();
    memcpy(s->weights, PyBytes_AS_STRING(weights), 4 * size);
    if (cut != Py_None) {
        if (!PyArg_ParseTuple(cut, "iO:cut", &s->root_state, &s->fetch))
            return -1;
        Py_INCREF(s->fetch);
        if (s->root_state < 0 || !PyCallable_Check(s->fetch)) {
            PyErr_SetString(PyExc_ValueError, "a cut needs a state and a callable");
            return -1;
        }
    }
    return grow_levels(s, 0) < 0 ? no_memory() : 0;
}

/* walk(root, max_nodes, seconds) -> (nodes, value_a, value_b, path_a,
   path_b, kept) of root's task, in the Scan's mode with its rule (a, b):

     mode       the walk                           value_a, path_a   value_b, path_b
     COUNT      to length a, where it stops,       the number of     0, empty
                keeping those paths if b != 0      paths of length a
     EXTREMA    every path                         the longest path  the largest total
     MINMAX     to length a, where it stops,       the least total   0, empty
                pruning every path whose total     of length a
                reaches the least so far
     VIOLATION  until the first path of length at  0, that path      0, empty
                least a and total above b, then
                pruning every node

   Each path is the first one entered with its value, as native int32
   ranks in bytes, empty where none was found (a found path never is,
   and its value is 0 then). kept is the ranks of COUNT's kept paths,
   path after path, in the same form; empty in every other mode. A walk
   starts with no path found, and one stopped by its allowance, its
   deadline or stop() returns what it found so far. */
static PyObject *Scan_walk(Scan *s, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t v[2];
    double seconds;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "walk takes 3 arguments");
        return NULL;
    }
    for (int i = 0; i < 2; i++)
        if (as_i64(args[i], &v[i]) < 0)
            return NULL;
    if ((seconds = PyFloat_AsDouble(args[2])) == -1.0 && PyErr_Occurred())
        return NULL;
    const int64_t root = v[0], max_nodes = v[1];
    if (s->level_cap == 0) {
        PyErr_SetString(PyExc_TypeError, "a Scan must be initialised before it walks");
        return NULL;
    }
    if (s->busy) {
        PyErr_SetString(PyExc_RuntimeError, "a Scan walks one task at a time");
        return NULL;
    }
    if (root < 0 || root >= s->size) {
        PyErr_SetString(PyExc_ValueError, "root out of range");
        return NULL;
    }
    const int mode = s->mode;
    const int64_t a = s->a, b = s->b;
    /* the values found, and the lengths of their paths in best_a and best_b,
       0 until one is found; MODE_COUNT keeps its paths' ranks in kept */
    long long va = 0, vb = 0;
    Py_ssize_t len_a = 0, len_b = 0, kept = 0;

    /* only the main thread handles signals; elsewhere the check is no use */
    const int signals = _PyOS_IsMainThread();
    const Py_ssize_t W = s->words;
    const double deadline = now() + seconds;
    int64_t nodes = 0;
    Py_ssize_t k = 0;
    int rc;
    s->busy = 1;
    PyThreadState *ts = PyEval_SaveThread();
    /* level 0, above the root: every rank from the root on */
    memset(s->cand, 0, W * sizeof(word));
    s->cand[root >> 6] = ~(word)0 << (root & 63);
    for (Py_ssize_t j = (root >> 6) + 1; j < W; j++)
        s->cand[j] = ~(word)0;
    if (s->size & 63)
        s->cand[W - 1] &= ((word)1 << (s->size & 63)) - 1;
    memcpy(s->blocked, s->forbidden, W * sizeof(word));
    s->total[0] = 0;
    s->state[0] = s->root_state;
    if (meet(s, s->root_state, &ts) < 0)
        goto error;
    for (;;) {
        word *cand = s->cand + k * W;
        if (s->state[k]) {
            /* keep the candidates from the least selected one on */
            const word *sel = s->states[s->state[k]];
            Py_ssize_t j = 0;
            while (j < W && !(cand[j] & sel[j]))
                j++;
            for (Py_ssize_t i = 0; i < j && i < W; i++)
                cand[i] = 0;
            if (j < W) {
                word low = cand[j] & sel[j];
                cand[j] &= ~((low & (~low + 1)) - 1);
            }
        }
        Py_ssize_t j = 0;
        while (j < W && !cand[j])
            j++;
        if (j == W) {
            if (k == 0 || --k == 0)
                goto done;
            continue;
        }
        word bit = cand[j] & (~cand[j] + 1);
        Py_ssize_t h = (j << 6) + __builtin_ctzll(cand[j]);
        nodes++;
        if (nodes > max_nodes)
            goto done;
        if (!(nodes & 2047)) {
            if (now() > deadline || __atomic_load_n(&s->stop, __ATOMIC_RELAXED))
                goto done;
            if (signals) {
                PyEval_RestoreThread(ts);
                rc = PyErr_CheckSignals();
                ts = PyEval_SaveThread();
                if (rc < 0)
                    goto error;
            }
        }
        s->path[k] = (int32_t)h;
        const int64_t len = k + 1;
        const int64_t t = s->total[k] + s->weights[h];
        int down;
        switch (mode) {
        case MODE_COUNT:
            if (len == a) {
                va++;
                if (b && keep_path(s, &kept, len) < 0)
                    goto error;
            }
            down = len < a;
            break;
        case MODE_EXTREMA:
            if (len > va) {
                va = len_a = len;
                memcpy(s->best_a, s->path, len * sizeof(int32_t));
            }
            if (t > vb) {
                vb = t;
                len_b = len;
                memcpy(s->best_b, s->path, len * sizeof(int32_t));
            }
            down = 1;
            break;
        case MODE_MINMAX:
            if (len_a && t >= va)
                down = 0;
            else if (len == a) {
                va = t;
                len_a = len;
                memcpy(s->best_a, s->path, len * sizeof(int32_t));
                down = 0;
            }
            else
                down = 1;
            break;
        default: /* MODE_VIOLATION */
            if (!len_a && len >= a && t > b) {
                len_a = len;
                memcpy(s->best_a, s->path, len * sizeof(int32_t));
            }
            down = !len_a;
            break;
        }
        cand[j] ^= bit;
        if (!down) {
            if (k == 0)
                goto done;
            continue;
        }
        if (grow_levels(s, k + 1) < 0)
            goto error;
        cand = s->cand + k * W;  /* the levels may have moved */
        word *child = s->cand + (k + 1) * W, *blocked = s->blocked + (k + 1) * W;
        if (block_child(s, blocked, s->blocked + k * W, h) < 0)
            goto error;
        for (Py_ssize_t i = 0; i < W; i++)
            child[i] = cand[i] & ~blocked[i];
        child[j] |= bit & ~blocked[j];
        s->total[k + 1] = t;
        const int32_t state = s->state[k];  /* its row follows its mask */
        s->state[k + 1] = state ? ((const int32_t *)(s->states[state] + W))[h] : 0;
        if (meet(s, s->state[k + 1], &ts) < 0)
            goto error;
        k++;
    }

done:
    PyEval_RestoreThread(ts);
    s->busy = 0;
    /* "y#" makes None of a NULL pointer: kept is NULL until a path is kept */
    return Py_BuildValue("(LLLy#y#y#)", (long long)nodes, va, vb,
                         (const char *)s->best_a, len_a * 4, (const char *)s->best_b, len_b * 4,
                         s->kept ? (const char *)s->kept : "", kept * 4);

error:  /* reached without the GIL; a failure with no exception is memory's */
    PyEval_RestoreThread(ts);
    s->busy = 0;
    if (!PyErr_Occurred())
        PyErr_NoMemory();
    return NULL;
}

/* stop(): end this Scan's walks, the one running and every later one, at
   their next 2048th node. Callable from any thread. */
static PyObject *Scan_stop(Scan *s, PyObject *Py_UNUSED(ignored))
{
    __atomic_store_n(&s->stop, 1, __ATOMIC_RELAXED);
    Py_RETURN_NONE;
}

static PyMethodDef Scan_methods[] = {
    {"walk", (PyCFunction)(void (*)(void))Scan_walk, METH_FASTCALL,
     "walk(root, max_nodes, seconds) -> (nodes, value_a, value_b, path_a, path_b, "
     "kept): one root task in the Scan's mode and rule, as search._scan_from "
     "walks it, with seconds left until the deadline."},
    {"stop", (PyCFunction)Scan_stop, METH_NOARGS,
     "stop(): end every walk of this Scan, running or later, at its next "
     "2048th node."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ScanType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "zerosum._ckernel.Scan",
    .tp_basicsize = sizeof(Scan),
    .tp_dealloc = (destructor)Scan_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "One scan's constants and the walk of its root tasks.",
    .tp_methods = Scan_methods,
    .tp_init = (initproc)Scan_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernel",
    .m_doc = "The compiled twin of zerosum.search._scan_from.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    if (PyType_Ready(&ScanType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&ScanType);
    if (PyModule_AddObject(m, "Scan", (PyObject *)&ScanType) < 0) {
        Py_DECREF(&ScanType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
