/* Compiled fixpoint kernel: the C twin of ``pure.py``, routine for routine.
 *
 * One attractor, ``attract_run`` (a BFS in discovery order), serves both
 * ``attract`` and Zielonka's recursion, which runs on an explicit frame
 * stack over a pool of states that ``set_alive`` removes and restores by
 * flipping their ``alive`` flags; no count is kept across attractor runs.
 * A winning choice on a minimum-priority state is its smallest alive
 * successor.  Probabilistic states and leaks: see ``pure.solve_parity``.
 * Any semantic change here must be mirrored in ``pure.py``.
 *
 * The games arrive in CSR form (see ``graph._flatten``): the successors of
 * state s are succ[succ_ptr[s] .. succ_ptr[s+1]), its predecessors likewise
 * in pred/pred_ptr.  Every input is copied into a C buffer and checked
 * against n first, so a malformed call raises instead of reading out of
 * bounds.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

/* The buffers of one call (at most 16), freed together on every exit path. */
typedef struct {
    void *buf[20];
    int k;
} Bufs;

static void
free_all(Bufs *b)
{
    while (b->k > 0)
        PyMem_Free(b->buf[--b->k]);
}

/* ``count`` zeroed items of ``size`` bytes, at least one. */
static void *
grab(Bufs *b, Py_ssize_t count, size_t size)
{
    void *p = PyMem_Calloc(count > 0 ? (size_t)count : 1, size);
    if (p == NULL)
        return PyErr_NoMemory();
    b->buf[b->k++] = p;
    return p;
}

static int *
filled(Bufs *b, Py_ssize_t count, int value)
{
    int *p = grab(b, count, sizeof(int));
    for (Py_ssize_t i = 0; p != NULL && i < count; i++)
        p[i] = value;
    return p;
}

/* The C ints of the int sequence ``obj``: at least ``need`` of them, each
 * in [0, hi) unless hi < 0.  Stores the count in ``*len`` if given.  A
 * non-sequence or non-int raises TypeError, an int beyond C int range
 * OverflowError, a short sequence or an out-of-range value ValueError. */
static int *
read_ints(Bufs *b, PyObject *obj, const char *name, Py_ssize_t need, long hi,
          Py_ssize_t *len)
{
    char msg[64];
    PyOS_snprintf(msg, sizeof msg, "%s must be a sequence of ints", name);
    PyObject *seq = PySequence_Fast(obj, msg);
    if (seq == NULL)
        return NULL;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    int *p = NULL;
    if (k < need) {
        PyErr_Format(PyExc_ValueError, "%s: %zd values, expected %zd", name, k, need);
        goto done;
    }
    if ((p = grab(b, k, sizeof(int))) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < k; i++) {
        long v = PyLong_AsLong(items[i]);
        if (v == -1 && PyErr_Occurred()) {
            p = NULL;
            goto done;
        }
        if (v < INT_MIN || v > INT_MAX) {
            PyErr_Format(PyExc_OverflowError, "%s: %ld does not fit in a C int", name, v);
            p = NULL;
            goto done;
        }
        if (hi >= 0 && (v < 0 || v >= hi)) {
            PyErr_Format(PyExc_ValueError, "%s: %ld out of range [0, %ld)", name, v, hi);
            p = NULL;
            goto done;
        }
        p[i] = (int)v;
    }
    if (len != NULL)
        *len = k;
done:
    Py_DECREF(seq);
    return p;
}

static PyObject *
to_list(const int *v, Py_ssize_t k)
{
    PyObject *list = PyList_New(k);
    for (Py_ssize_t i = 0; list != NULL && i < k; i++) {
        PyObject *x = PyLong_FromLong(v[i]);
        if (x == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, x);
    }
    return list;
}

/* Backward attractor run number ``run`` over the alive subgraph.  A state
 * of owner class o (0, 1, probabilistic) joins on its first attracted
 * successor when exist[o], recording that successor in choice; otherwise
 * once all its alive successors are attracted.  Those are counted from
 * its succ row into cnt the first time the run reaches it.  The alive
 * targets not yet marked in this run seed the queue in their given order.
 * Writes the attracted states to ``queue`` in BFS order and returns their
 * count.  mark and stamp hold run numbers, so no per-run clearing is
 * needed. */
static int
attract_run(const int *owners, const int *succ_ptr, const int *succ,
            const int *pred_ptr, const int *pred,
            const int *alive, const int exist[3],
            const int *targets, Py_ssize_t tlen, int run,
            int *mark, int *cnt, int *stamp, int *choice, int *queue)
{
    int qlen = 0, qi = 0;
    for (Py_ssize_t j = 0; j < tlen; j++) {
        int t = targets[j];
        if (alive[t] && mark[t] != run) {
            mark[t] = run;
            queue[qlen++] = t;
        }
    }
    while (qi < qlen) {
        int t = queue[qi++];
        for (int j = pred_ptr[t]; j < pred_ptr[t + 1]; j++) {
            int s = pred[j], o = owners[s];
            if (!alive[s] || mark[s] == run)
                continue;
            if (o >= 0 && o <= 2 && exist[o]) {
                mark[s] = run;
                choice[s] = t;
                queue[qlen++] = s;
            } else {
                if (stamp[s] != run) {
                    stamp[s] = run;
                    cnt[s] = 0;
                    for (int e = succ_ptr[s]; e < succ_ptr[s + 1]; e++)
                        cnt[s] += alive[succ[e]];
                }
                if (--cnt[s] == 0) {
                    mark[s] = run;
                    queue[qlen++] = s;
                }
            }
        }
    }
    return qlen;
}

static PyObject *
attract(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "owners", "succ_ptr", "succ", "pred_ptr", "pred",
                             "targets", "exist", NULL};
    int n;
    PyObject *o_owners, *o_succ_ptr, *o_succ, *o_pred_ptr, *o_pred, *o_targets, *o_exist;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOOOOOO", kwlist, &n, &o_owners,
                                     &o_succ_ptr, &o_succ, &o_pred_ptr, &o_pred, &o_targets,
                                     &o_exist))
        return NULL;
    if (n < 0)
        return PyErr_Format(PyExc_ValueError, "n must be non-negative, got %d", n);
    Bufs b = {.k = 0};
    PyObject *result = NULL, *order = NULL, *choices = NULL;
    Py_ssize_t m_succ, m_pred, tlen;
    int *owners, *succ_ptr, *succ, *pred_ptr, *pred, *alive, *targets, *exist;
    int *mark, *cnt, *stamp, *choice, *queue;
    if (!(owners = read_ints(&b, o_owners, "owners", n, -1, NULL))
        || !(succ = read_ints(&b, o_succ, "succ", 0, n, &m_succ))
        || !(succ_ptr = read_ints(&b, o_succ_ptr, "succ_ptr", n + 1L, m_succ + 1, NULL))
        || !(pred = read_ints(&b, o_pred, "pred", 0, n, &m_pred))
        || !(pred_ptr = read_ints(&b, o_pred_ptr, "pred_ptr", n + 1L, m_pred + 1, NULL))
        || !(targets = read_ints(&b, o_targets, "targets", 0, n, &tlen))
        || !(exist = read_ints(&b, o_exist, "exist", 3, -1, NULL))
        || !(alive = filled(&b, n, 1)) || !(mark = filled(&b, n, 0))
        || !(cnt = filled(&b, n, 0)) || !(stamp = filled(&b, n, 0))
        || !(choice = filled(&b, n, -1)) || !(queue = filled(&b, n, 0)))
        goto done;
    int qlen = attract_run(owners, succ_ptr, succ, pred_ptr, pred, alive, exist,
                           targets, tlen, 1, mark, cnt, stamp, choice, queue);
    if ((order = to_list(queue, qlen)) && (choices = to_list(choice, n)))
        result = PyTuple_Pack(2, order, choices);
done:
    Py_XDECREF(order);
    Py_XDECREF(choices);
    free_all(&b);
    return result;
}

/* Mark ``states`` dead (on = 0) or alive again (on = 1). */
static void
set_alive(int *alive, const int *states, int k, int on)
{
    for (int i = 0; i < k; i++)
        alive[states[i]] = on;
}

/* One frame of Zielonka's recursion: phase 0 removes the attractor of the
 * leaks, or else of the minimum priority, and recurses; phase 1 either
 * awards the frame's segment to ``player`` or removes the opponent's trap
 * and recurses; phase 2 restores the trap.  [start, start + len) is the
 * frame's segment of the removed-state pool. */
typedef struct {
    int phase, player, prio, start, len;
} Frame;

static PyObject *
solve_parity(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "owners", "priorities", "succ_ptr", "succ",
                             "pred_ptr", "pred", NULL};
    int n;
    PyObject *o_owners, *o_prio, *o_succ_ptr, *o_succ, *o_pred_ptr, *o_pred;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOOOOO", kwlist, &n, &o_owners,
                                     &o_prio, &o_succ_ptr, &o_succ, &o_pred_ptr, &o_pred))
        return NULL;
    if (n < 0)
        return PyErr_Format(PyExc_ValueError, "n must be non-negative, got %d", n);
    Bufs b = {.k = 0};
    PyObject *result = NULL, *o_winner = NULL, *o_ch0 = NULL, *o_ch1 = NULL;
    Py_ssize_t m_succ, m_pred;
    int *owners, *prio, *succ_ptr, *succ, *pred_ptr, *pred;
    int *alive, *winner, *ch[2], *mark, *cnt, *stamp, *targets, *pool;
    Frame *frames;
    if (!(owners = read_ints(&b, o_owners, "owners", n, -1, NULL))
        || !(prio = read_ints(&b, o_prio, "priorities", n, -1, NULL))
        || !(succ = read_ints(&b, o_succ, "succ", 0, n, &m_succ))
        || !(succ_ptr = read_ints(&b, o_succ_ptr, "succ_ptr", n + 1L, m_succ + 1, NULL))
        || !(pred = read_ints(&b, o_pred, "pred", 0, n, &m_pred))
        || !(pred_ptr = read_ints(&b, o_pred_ptr, "pred_ptr", n + 1L, m_pred + 1, NULL))
        || !(alive = filled(&b, n, 1)) || !(winner = filled(&b, n, -1))
        || !(ch[0] = filled(&b, n, -1))
        || !(ch[1] = filled(&b, n, -1)) || !(mark = filled(&b, n, 0))
        || !(cnt = filled(&b, n, 0)) || !(stamp = filled(&b, n, 0))
        || !(targets = filled(&b, n, 0)) || !(pool = filled(&b, n, 0))
        /* every pushed frame removes at least one state */
        || !(frames = grab(&b, n + 2L, sizeof(Frame))))
        goto done;

    /* The pool holds every removed state, one segment per active frame, and
     * its top is the number of removed states.  So the alive states, and
     * with them the next attractor, fit in the free part of the pool. */
    int run = 0, pool_top = 0, depth = 1;
    frames[0].phase = 0;
    while (depth > 0) {
        Frame *f = &frames[depth - 1];
        if (f->phase == 0) {
            int mp = -1, tlen = 0;
            for (int s = 0; s < n; s++)
                if (alive[s] && (mp < 0 || prio[s] < mp))
                    mp = prio[s];
            if (mp < 0) {
                depth--;
                continue;
            }
            /* leaks first: they make a frame of player 0 below every priority */
            for (int s = 0; s < n; s++)
                for (int e = succ_ptr[s]; alive[s] && owners[s] == 2 && e < succ_ptr[s + 1]; e++)
                    if (!alive[succ[e]] && (tlen == 0 || targets[tlen - 1] != s))
                        targets[tlen++] = s;
            mp = tlen > 0 ? -1 : mp;
            for (int s = 0; mp >= 0 && s < n; s++)
                if (alive[s] && prio[s] == mp)
                    targets[tlen++] = s;
            int i = mp < 0 ? 0 : mp & 1, exist[3] = {i == 0, i == 1, i == 1};
            int seg = attract_run(owners, succ_ptr, succ, pred_ptr, pred, alive, exist,
                                  targets, tlen, ++run, mark, cnt, stamp, ch[i],
                                  pool + pool_top);
            set_alive(alive, pool + pool_top, seg, 0);
            *f = (Frame){1, i, mp, pool_top, seg};
            pool_top += seg;
            frames[depth++].phase = 0;
        } else if (f->phase == 1) {
            int i = f->player, opp = 1 - i, tlen = 0;
            int *segment = pool + f->start;
            for (int s = 0; s < n; s++)
                if (alive[s] && winner[s] == opp)
                    targets[tlen++] = s;
            set_alive(alive, segment, f->len, 1);
            pool_top = f->start;
            if (tlen == 0) {
                /* award the whole segment to player i */
                for (int j = 0; j < f->len; j++) {
                    int s = segment[j];
                    winner[s] = i;
                    if (owners[s] == i && prio[s] == f->prio) {
                        int best = -1;
                        for (int e = succ_ptr[s]; e < succ_ptr[s + 1]; e++)
                            if (alive[succ[e]] && (best < 0 || succ[e] < best))
                                best = succ[e];
                        ch[i][s] = best;
                    }
                }
                depth--;
            } else {
                int exist[3] = {opp == 0, opp == 1, opp == 1};
                int seg = attract_run(owners, succ_ptr, succ, pred_ptr, pred, alive, exist,
                                      targets, tlen, ++run, mark, cnt, stamp, ch[opp],
                                      segment);
                for (int j = 0; j < seg; j++)
                    winner[segment[j]] = opp;
                set_alive(alive, segment, seg, 0);
                f->phase = 2;
                f->len = seg;
                pool_top += seg;
                frames[depth++].phase = 0;
            }
        } else {
            set_alive(alive, pool + f->start, f->len, 1);
            pool_top = f->start;
            depth--;
        }
    }
    if ((o_winner = to_list(winner, n)) && (o_ch0 = to_list(ch[0], n))
        && (o_ch1 = to_list(ch[1], n)))
        result = PyTuple_Pack(3, o_winner, o_ch0, o_ch1);
done:
    Py_XDECREF(o_winner);
    Py_XDECREF(o_ch0);
    Py_XDECREF(o_ch1);
    free_all(&b);
    return result;
}

static PyMethodDef methods[] = {
    {"attract", (PyCFunction)(void (*)(void))attract, METH_VARARGS | METH_KEYWORDS,
     "attract(n, owners, succ_ptr, succ, pred_ptr, pred, targets, exist)\n"
     "--\n\nBackward attractor of ``targets``; contract as ``pure.attract``."},
    {"solve_parity", (PyCFunction)(void (*)(void))solve_parity, METH_VARARGS | METH_KEYWORDS,
     "solve_parity(n, owners, priorities, succ_ptr, succ, pred_ptr, pred)\n"
     "--\n\nZielonka's recursion; contract as ``pure.solve_parity``."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled fixpoint kernel: the C twin of ``pure.py``, with identical outputs.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "NAME", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
