/* Compiled hot kernel: clamped bicubic interpolation on a periodic grid.

   Cubic Lagrange interpolation on the 4x4 stencil, with the result clamped
   to the min/max of the inner 2x2 nodes so transported bounds are preserved
   exactly.  A (k, n1, n2) stack of planes is sampled at m points into a
   (k, m) array the caller allocates, each point's stencil found once for all
   k planes.  The arithmetic is the numpy twin's (_semilag_np.py), in its
   order.  Arrays arrive through the buffer protocol, so a build needs only
   Python's headers and a C compiler. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

static void weights(double t, double *w)
{
    w[0] = -t * (t - 1.0) * (t - 2.0) / 6.0;
    w[1] = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0;
    w[2] = -(t + 1.0) * t * (t - 2.0) / 2.0;
    w[3] = (t + 1.0) * t * (t - 1.0) / 6.0;
}

/* The nodes at offsets -1..2 from cell f = floor(s) of an axis of n >= 2
   nodes, times `stride`.  One reduction takes f into [0, n), by fmod where f
   is too large to cast, with no branch on its sign, which is as random as the
   points; only stencils across the edge wrap, a branch predicted well. */
static void stencil(double f, Py_ssize_t n, Py_ssize_t stride, Py_ssize_t *idx)
{
    Py_ssize_t i = fabs(f) < 0x1p62 ? (Py_ssize_t)f % n : (Py_ssize_t)fmod(f, (double)n);
    i += n & -(Py_ssize_t)(i < 0);
    for (int a = 0; a < 4; a++) {
        Py_ssize_t j = i + a - 1;
        if (j < 0)
            j += n;
        else if (j >= n)
            j -= n;
        idx[a] = j * stride;
    }
}

/* A C-contiguous float64 buffer of `ndim` axes, or an exception. */
static int get_array(PyObject *obj, Py_buffer *buf, int ndim, int flags,
                     const char *name)
{
    if (PyObject_GetBuffer(obj, buf, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return -1;
    if (buf->ndim != ndim || strcmp(buf->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a %d-d float64 array", name, ndim);
        PyBuffer_Release(buf);
        return -1;
    }
    return 0;
}

/* Sample the (k, n1, n2) planes `vals` at the m points (x1, x2) into the
   (k, m) array `out`. */
static void sample(const double *vals, const Py_ssize_t *shape,
                   const double *x1, const double *x2, Py_ssize_t m,
                   double h1, double h2, int clamp, double *out)
{
    const Py_ssize_t k = shape[0], n1 = shape[1], n2 = shape[2];
    for (Py_ssize_t p = 0; p < m; p++) {
        const double s1 = x1[p] / h1, s2 = x2[p] / h2;
        if (!isfinite(s1) || !isfinite(s2)) {
            /* the twin's t = inf - inf; there is no node to gather */
            for (Py_ssize_t q = 0; q < k; q++)
                out[q * m + p] = NAN;
            continue;
        }
        const double f1 = floor(s1), f2 = floor(s2);
        double w1[4], w2[4];
        Py_ssize_t r[4], c[4];
        weights(s1 - f1, w1);
        weights(s2 - f2, w2);
        stencil(f1, n1, n2, r);
        stencil(f2, n2, 1, c);
        for (Py_ssize_t q = 0; q < k; q++) {
            const double *plane = vals + q * n1 * n2;
            double acc = 0.0, lo = INFINITY, hi = -INFINITY;
            for (int a = 0; a < 4; a++) {
                double row = 0.0;
                for (int b = 0; b < 4; b++) {
                    const double v = plane[r[a] + c[b]];
                    row += w2[b] * v;
                    if (1 <= a && a <= 2 && 1 <= b && b <= 2) {
                        lo = v < lo ? v : lo;
                        hi = v > hi ? v : hi;
                    }
                }
                acc += w1[a] * row;
            }
            out[q * m + p] = !clamp ? acc : acc < lo ? lo : acc > hi ? hi : acc;
        }
    }
}

static PyObject *bicubic_periodic(PyObject *self, PyObject *args)
{
    PyObject *ov, *o1, *o2, *oo, *result = NULL;
    double h1, h2;
    int clamp;
    Py_buffer bv, b1, b2, bo;

    if (!PyArg_ParseTuple(args, "OOOddpO:bicubic_periodic",
                          &ov, &o1, &o2, &h1, &h2, &clamp, &oo))
        return NULL;
    if (get_array(ov, &bv, 3, 0, "values") < 0)
        return NULL;
    if (get_array(o1, &b1, 1, 0, "x1") < 0)
        goto release_v;
    if (get_array(o2, &b2, 1, 0, "x2") < 0)
        goto release_1;
    if (get_array(oo, &bo, 2, PyBUF_WRITABLE, "out") < 0)
        goto release_2;
    if (b2.shape[0] != b1.shape[0])
        PyErr_SetString(PyExc_ValueError, "x1 and x2 differ in length");
    else if (bo.shape[0] != bv.shape[0] || bo.shape[1] != b1.shape[0])
        PyErr_SetString(PyExc_ValueError, "out must have shape (k, len(x1))");
    else if (bv.shape[1] < 4 || bv.shape[2] < 4)
        PyErr_SetString(PyExc_ValueError, "each plane axis needs at least 4 nodes");
    else {
        sample(bv.buf, bv.shape, b1.buf, b2.buf, b1.shape[0], h1, h2, clamp, bo.buf);
        result = Py_None;
        Py_INCREF(result);
    }
    PyBuffer_Release(&bo);
release_2:
    PyBuffer_Release(&b2);
release_1:
    PyBuffer_Release(&b1);
release_v:
    PyBuffer_Release(&bv);
    return result;
}

static PyMethodDef methods[] = {
    {"bicubic_periodic", bicubic_periodic, METH_VARARGS,
     "bicubic_periodic(values, x1, x2, h1, h2, clamp, out): sample the (k, n1, n2)\n"
     "stack `values` at the points (x1, x2) into `out`, shape (k, len(x1))."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_semilag_c", NULL, -1, methods};

PyMODINIT_FUNC PyInit__semilag_c(void)
{
    return PyModule_Create(&module);
}
