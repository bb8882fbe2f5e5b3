/* The compiled twin of zerosum.search._scan_from.

   A Scan holds one scan's constants: the group's invariant factors, the
   forbidden mask, the per-rank weights and, for a cut scan, each rank's
   mask of fixing generators and the classes asked for so far. Its walk
   method runs one root task for one of the four accumulators the package
   compiles (the MODE_* values below, each an accumulator class's
   ``kernel_mode``): it reads the accumulator's fields, walks exactly the
   nodes that _scan_from walks, in the same order, and writes the fields
   back. It returns the task's nodes, counted, budgeted and checked
   against the deadline as _scan_from does them; the deadline comes as
   seconds left, so no clock is shared with Python.

   The walk releases the GIL for its loop and takes it back only to touch
   a Python object: on a class-mask miss of the cut, for each path that
   _CountAcc(keep=True) keeps and, on the main thread alone, to check for
   signals at every 2048th node. So Scans on several threads walk at
   once, one task at a time each. At every 2048th node a walk also ends
   if its Scan's stop() was called, as at the deadline.

   A rank mask is little-endian 64-bit words. Translating a mask by an
   element is one rotation per nonzero coordinate of the element, inside
   every block of n*s ranks, as in groups.GroupTables: the two masks of
   each (coordinate, shift) are built when first needed, so they take at
   most sum(n_i - 1)*|G|/4 bytes. A class mask is fetched from Python
   (the cut's ``__missing__``) the first time a scan meets its generator
   mask and kept in a list, searched in order: a walk asks for few of them,
   at most 20 on the groups measured. */

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
    int32_t *weights;      /* NULL: every weight is 0 */
    /* the cut: gwords words per generator mask, 0 without a cut */
    Py_ssize_t gwords;
    word *fixes, *full;
    PyObject *classes;     /* fix bytes -> class-minima bytes */
    Py_ssize_t nclasses, class_cap;
    word *keys, *masks;    /* the generator masks met so far, and their classes */
    /* per level of the walk, kept between walks */
    Py_ssize_t level_cap;
    word *cand, *blocked, *fix, *tmp;
    Py_ssize_t *select;
    int64_t *total;
    int32_t *path, *best_a, *best_b;
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

static void store_words(unsigned char *dst, const word *src, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        for (int b = 0; b < 8; b++)
            dst[8 * i + b] = (unsigned char)(src[i] >> (8 * b));
}

static int any_bit(const word *w, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        if (w[i])
            return 1;
    return 0;
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

static int get_i64(PyObject *acc, const char *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttrString(acc, name);
    if (v == NULL)
        return -1;
    int rc = as_i64(v, out);
    Py_DECREF(v);
    return rc;
}

/* An attribute that is None (*has = 0) or an int. */
static int get_opt_i64(PyObject *acc, const char *name, int64_t *out, int *has)
{
    PyObject *v = PyObject_GetAttrString(acc, name);
    if (v == NULL)
        return -1;
    int rc = 0;
    *has = v != Py_None;
    if (*has)
        rc = as_i64(v, out);
    Py_DECREF(v);
    return rc;
}

static PyObject *ranks_tuple(const int32_t *ranks, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *r = PyLong_FromLong(ranks[i]);
        if (r == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, r);
    }
    return t;
}

static int set_i64(PyObject *acc, const char *name, int64_t value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttrString(acc, name, v);
    Py_DECREF(v);
    return rc;
}

static int set_ranks(PyObject *acc, const char *name, const int32_t *ranks, Py_ssize_t n)
{
    PyObject *v = ranks_tuple(ranks, n);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttrString(acc, name, v);
    Py_DECREF(v);
    return rc;
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

/* -- the cut's classes ---------------------------------------------------- */

/* Room for twice the classes kept, 16 at first; -1 when out of memory. */
static int grow_classes(Scan *s)
{
    Py_ssize_t cap = s->class_cap ? 2 * s->class_cap : 16;
    word *keys = raw_grow(s->keys, cap * s->gwords, sizeof(word));
    if (keys != NULL)
        s->keys = keys;
    word *masks = keys ? raw_grow(s->masks, cap * s->words, sizeof(word)) : NULL;
    if (masks == NULL)
        return -1;
    s->masks = masks;
    s->class_cap = cap;
    return 0;
}

/* Index of the new class-minima mask of generator mask ``fix``, fetched
   from Python with the GIL held; -1 with an exception set. */
static Py_ssize_t fetch_class(Scan *s, const word *fix)
{
    Py_ssize_t GW = s->gwords, W = s->words;
    PyObject *key = PyBytes_FromStringAndSize(NULL, GW * 8);
    if (key == NULL)
        return -1;
    store_words((unsigned char *)PyBytes_AS_STRING(key), fix, GW);
    PyObject *got = PyObject_CallOneArg(s->classes, key);
    Py_DECREF(key);
    if (got == NULL)
        return -1;
    if (!PyBytes_Check(got) || PyBytes_GET_SIZE(got) != W * 8) {
        Py_DECREF(got);
        PyErr_SetString(PyExc_ValueError, "a class mask must be bytes of the mask width");
        return -1;
    }
    if (s->nclasses == s->class_cap && grow_classes(s) < 0) {
        Py_DECREF(got);
        return no_memory();
    }
    Py_ssize_t k = s->nclasses++;
    memcpy(s->keys + k * GW, fix, GW * sizeof(word));
    load_words(s->masks + k * W, (const unsigned char *)PyBytes_AS_STRING(got), W);
    Py_DECREF(got);
    return k;
}

/* Index of the class-minima mask of generator mask ``fix``. Called
   without the GIL: the masks kept are searched as they are, and only a
   miss takes the GIL back, through *ts, to fetch one. -1 with an
   exception set. */
static Py_ssize_t class_of(Scan *s, const word *fix, PyThreadState **ts)
{
    Py_ssize_t GW = s->gwords;
    for (Py_ssize_t k = 0; k < s->nclasses; k++)
        if (memcmp(s->keys + k * GW, fix, GW * sizeof(word)) == 0)
            return k;
    PyEval_RestoreThread(*ts);
    Py_ssize_t k = fetch_class(s, fix);
    *ts = PyEval_SaveThread();
    return k;
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
    Py_ssize_t W = s->words, GW = s->gwords ? s->gwords : 1;
#define GROW(field, type, per)                                          \
    do {                                                                \
        type *p = raw_grow(s->field, (size_t)cap * (per), sizeof(type)); \
        if (p == NULL)                                                  \
            return -1;                                                  \
        s->field = p;                                                   \
    } while (0)
    GROW(cand, word, W);
    GROW(blocked, word, W);
    GROW(fix, word, GW);
    GROW(select, Py_ssize_t, 1);
    GROW(total, int64_t, 1);
    GROW(path, int32_t, 1);
    GROW(best_a, int32_t, 1);
    GROW(best_b, int32_t, 1);
#undef GROW
    s->level_cap = cap;
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
    void *blocks[] = {s->factors, s->strides, s->rot_base, s->rot, s->forbidden,
                      s->weights, s->fixes, s->full, s->keys, s->masks,
                      s->cand, s->blocked, s->fix, s->tmp, s->select, s->total,
                      s->path, s->best_a, s->best_b};
    for (size_t i = 0; i < sizeof(blocks) / sizeof(blocks[0]); i++)
        PyMem_RawFree(blocks[i]);
    Py_XDECREF(s->classes);
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

/* Scan(factors, forbidden, weights, cut): ``forbidden`` the mask as
   little-endian bytes of whole 64-bit words; ``weights`` None or one int
   per rank, each within 32 bits (OverflowError otherwise); ``cut`` None
   or (fixes, full, classes): each rank's generator mask and the mask of
   every generator, bytes of whole words, and the callable that maps a
   generator mask to its class-minima mask. */
static int Scan_init(Scan *s, PyObject *args, PyObject *kwds)
{
    PyObject *factors, *forbidden, *weights, *cut;
    static char *kwlist[] = {"factors", "forbidden", "weights", "cut", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!SOO:Scan", kwlist, &PyTuple_Type,
                                     &factors, &forbidden, &weights, &cut))
        return -1;
    if (s->factors != NULL) {
        PyErr_SetString(PyExc_TypeError, "a Scan is initialised once");
        return -1;
    }
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
    if (weights != Py_None) {
        PyObject *seq = PySequence_Fast(weights, "weights must be a sequence");
        if (seq == NULL)
            return -1;
        if (PySequence_Fast_GET_SIZE(seq) != size) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError, "weights must have one entry per rank");
            return -1;
        }
        s->weights = raw_alloc(size, sizeof(int32_t));
        if (s->weights == NULL) {
            Py_DECREF(seq);
            return no_memory();
        }
        for (Py_ssize_t r = 0; r < size; r++) {
            long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, r));
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(seq);
                return -1;
            }
            if (v < INT32_MIN || v > INT32_MAX) {
                Py_DECREF(seq);
                PyErr_SetString(PyExc_OverflowError, "a weight does not fit in 32 bits");
                return -1;
            }
            s->weights[r] = (int32_t)v;
        }
        Py_DECREF(seq);
    }
    if (cut != Py_None) {
        PyObject *fixes, *full, *classes;
        if (!PyArg_ParseTuple(cut, "SSO:cut", &fixes, &full, &classes))
            return -1;
        Py_ssize_t GW = PyBytes_GET_SIZE(full) / 8;
        if (GW == 0 || !PyCallable_Check(classes)) {
            PyErr_SetString(PyExc_ValueError, "a cut needs generators and a callable");
            return -1;
        }
        s->gwords = GW;
        s->full = raw_alloc(GW, sizeof(word));
        s->fixes = raw_alloc(size * GW, sizeof(word));
        if (!s->full || !s->fixes || grow_classes(s) < 0)
            return no_memory();
        if (read_mask(full, s->full, GW, "full") < 0
            || read_mask(fixes, s->fixes, size * GW, "fixes") < 0)
            return -1;
        Py_INCREF(classes);
        s->classes = classes;
    }
    return grow_levels(s, 0) < 0 ? no_memory() : 0;
}

/* walk(root, acc, mode, max_nodes, seconds) -> nodes of root's task. */
static PyObject *Scan_walk(Scan *s, PyObject *args)
{
    Py_ssize_t root;
    PyObject *acc, *max_obj, *hits = NULL;
    int mode;
    double seconds;
    if (!PyArg_ParseTuple(args, "nOiOd:walk", &root, &acc, &mode, &max_obj, &seconds))
        return NULL;
    if (s->factors == NULL) {
        PyErr_SetString(PyExc_TypeError, "a Scan must be initialised before it walks");
        return NULL;
    }
    if (s->busy) {
        PyErr_SetString(PyExc_RuntimeError, "a Scan walks one task at a time");
        return NULL;
    }
    if (root < 0 || root >= s->size || mode < MODE_COUNT || mode > MODE_VIOLATION) {
        PyErr_SetString(PyExc_ValueError, "root out of range or unknown mode");
        return NULL;
    }
    int64_t max_nodes, target = 0, count = 0, best_len = 0, best_scaled = 0;
    int64_t best_count = 0, min_length = 0, bound = 0, stop = 0;
    int has = 0, got_a = 0, got_b = 0, rc;
    Py_ssize_t len_a = 0, len_b = 0;
    if (as_i64(max_obj, &max_nodes) < 0)
        return NULL;
    switch (mode) {
    case MODE_COUNT:
        if (get_i64(acc, "target", &target) < 0 || get_i64(acc, "count", &count) < 0)
            return NULL;
        hits = PyObject_GetAttrString(acc, "hits");
        if (hits == NULL)
            return NULL;
        if (hits != Py_None && !PyList_Check(hits)) {
            Py_DECREF(hits);
            PyErr_SetString(PyExc_TypeError, "hits must be None or a list");
            return NULL;
        }
        break;
    case MODE_EXTREMA:
        if (get_i64(acc, "best_len", &best_len) < 0
            || get_i64(acc, "best_scaled", &best_scaled) < 0)
            return NULL;
        break;
    case MODE_MINMAX:
        if (get_i64(acc, "target", &target) < 0
            || get_opt_i64(acc, "best_count", &best_count, &has) < 0)
            return NULL;
        break;
    case MODE_VIOLATION:
        if (get_i64(acc, "min_length", &min_length) < 0 || get_i64(acc, "bound", &bound) < 0
            || get_i64(acc, "stop", &stop) < 0)
            return NULL;
        PyObject *cex = PyObject_GetAttrString(acc, "counterexample");
        if (cex == NULL)
            return NULL;
        has = cex != Py_None;
        Py_DECREF(cex);
        break;
    }

    /* only the main thread handles signals; elsewhere the check is no use */
    const int signals = _PyOS_IsMainThread();
    const Py_ssize_t W = s->words, GW = s->gwords;
    const double deadline = now() + seconds;
    int64_t nodes = 0;
    Py_ssize_t k = 0;
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
    if (GW) {
        memcpy(s->fix, s->full, GW * sizeof(word));
        if ((s->select[0] = class_of(s, s->full, &ts)) < 0)
            goto error;
    }
    for (;;) {
        word *cand = s->cand + k * W;
        if (GW && any_bit(s->fix + k * GW, GW)) {
            /* keep the candidates from the least selected one on */
            const word *sel = s->masks + s->select[k] * W;
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
        const int64_t t = s->total[k] + (s->weights ? s->weights[h] : 0);
        int down;
        switch (mode) {
        case MODE_COUNT:
            if (len == target) {
                count++;
                if (hits != Py_None) {
                    PyEval_RestoreThread(ts);
                    PyObject *tup = ranks_tuple(s->path, len);
                    rc = tup == NULL ? -1 : PyList_Append(hits, tup);
                    Py_XDECREF(tup);
                    ts = PyEval_SaveThread();
                    if (rc < 0)
                        goto error;
                }
            }
            down = len < target;
            break;
        case MODE_EXTREMA:
            if (len > best_len) {
                best_len = len;
                memcpy(s->best_a, s->path, len * sizeof(int32_t));
                len_a = len;
                got_a = 1;
            }
            if (t > best_scaled) {
                best_scaled = t;
                memcpy(s->best_b, s->path, len * sizeof(int32_t));
                len_b = len;
                got_b = 1;
            }
            down = 1;
            break;
        case MODE_MINMAX:
            if (has && t >= best_count)
                down = 0;
            else if (len == target) {
                has = got_a = 1;
                best_count = t;
                memcpy(s->best_a, s->path, len * sizeof(int32_t));
                len_a = len;
                down = 0;
            }
            else
                down = 1;
            break;
        default: /* MODE_VIOLATION */
            if (has)
                down = 0;
            else if (len >= min_length && t > bound) {
                has = got_a = 1;
                memcpy(s->best_a, s->path, len * sizeof(int32_t));
                len_a = len;
                down = 0;
            }
            else
                down = len < stop;
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
        if (GW) {
            const word *fix = s->fix + k * GW, *fixes = s->fixes + h * GW;
            word *next = s->fix + (k + 1) * GW;
            int same = 1, nonzero = 0;
            for (Py_ssize_t i = 0; i < GW; i++) {
                next[i] = fix[i] & fixes[i];
                same &= next[i] == fix[i];
                nonzero |= next[i] != 0;
            }
            if (same)
                s->select[k + 1] = s->select[k];
            else if (nonzero && (s->select[k + 1] = class_of(s, next, &ts)) < 0)
                goto error;
        }
        k++;
    }

done:
    PyEval_RestoreThread(ts);
    s->busy = 0;
    switch (mode) {
    case MODE_COUNT:
        if (set_i64(acc, "count", count) < 0)
            goto fail;
        break;
    case MODE_EXTREMA:
        if (got_a && (set_i64(acc, "best_len", best_len) < 0
                      || set_ranks(acc, "best", s->best_a, len_a) < 0))
            goto fail;
        if (got_b && (set_i64(acc, "best_scaled", best_scaled) < 0
                      || set_ranks(acc, "best_cross", s->best_b, len_b) < 0))
            goto fail;
        break;
    case MODE_MINMAX:
        if (got_a && (set_i64(acc, "best_count", best_count) < 0
                      || set_ranks(acc, "best", s->best_a, len_a) < 0))
            goto fail;
        break;
    default:
        if (got_a && set_ranks(acc, "counterexample", s->best_a, len_a) < 0)
            goto fail;
        break;
    }
    Py_XDECREF(hits);
    return PyLong_FromLongLong(nodes);

error:  /* reached without the GIL; a failure with no exception is memory's */
    PyEval_RestoreThread(ts);
    s->busy = 0;
    if (!PyErr_Occurred())
        PyErr_NoMemory();
fail:
    Py_XDECREF(hits);
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
    {"walk", (PyCFunction)Scan_walk, METH_VARARGS,
     "walk(root, acc, mode, max_nodes, seconds) -> nodes: one root task, as "
     "search._scan_from walks it, with seconds left until the deadline."},
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
