/* Compiled kernels: Sturm sign count and RK4 stepping.

   Same arithmetic, same operation order as kernels/pykernels.py. Built with
   -ffp-contract=off (no fused multiply-add), the results are bit-identical.
   sturm_rows forms the Sturm rows as float64 arrays, the form sturm_count
   reads here; pykernels forms them as Python float lists. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <errno.h>
#include <math.h>

static PyObject *np_empty;

/* View of a 1-D C-contiguous float64 buffer; 0 on success, -1 with an error set. */
static int doubles(PyObject *obj, Py_buffer *buf, int flags)
{
    if (PyObject_GetBuffer(obj, buf, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (buf->ndim == 1 && strcmp(buf->format, "d") == 0)
        return 0;
    PyBuffer_Release(buf);
    PyErr_SetString(PyExc_TypeError, "expected a 1-D contiguous float64 buffer");
    return -1;
}

/* A new float64 numpy array of n items; *data points at its items. */
static PyObject *new_array(Py_ssize_t n, double **data)
{
    Py_buffer buf;
    PyObject *arr = PyObject_CallFunction(np_empty, "n", n);
    if (arr == NULL || doubles(arr, &buf, PyBUF_WRITABLE) < 0) {
        Py_XDECREF(arr);
        return NULL;
    }
    *data = buf.buf;  /* stays valid while arr lives: nothing else can resize it */
    PyBuffer_Release(&buf);
    return arr;
}

/* The diagonal is a row as it stands; b2 is a new array. */
static PyObject *sturm_rows(PyObject *self, PyObject *args)
{
    PyObject *diag, *off, *b2_arr;
    Py_buffer d, e;
    double *b2;
    Py_ssize_t i;
    if (!PyArg_ParseTuple(args, "OO", &diag, &off) || doubles(diag, &d, 0) < 0)
        return NULL;
    PyBuffer_Release(&d);
    if (doubles(off, &e, 0) < 0)
        return NULL;
    const double *b = e.buf;
    if ((b2_arr = new_array(e.shape[0] + 1, &b2)) != NULL) {
        b2[0] = 0.0;
        for (i = 0; i < e.shape[0]; i++)
            b2[i + 1] = b[i] * b[i];
    }
    PyBuffer_Release(&e);
    return b2_arr == NULL ? NULL : Py_BuildValue("ON", diag, b2_arr);
}

static PyObject *sturm_count(PyObject *self, PyObject *args)
{
    PyObject *a_obj, *b2_obj;
    Py_buffer d, e;
    double shift, q = 1.0;
    Py_ssize_t i, n, count = 0;
    if (!PyArg_ParseTuple(args, "OOd", &a_obj, &b2_obj, &shift) || doubles(a_obj, &d, 0) < 0)
        return NULL;
    if (doubles(b2_obj, &e, 0) < 0) {
        PyBuffer_Release(&d);
        return NULL;
    }
    n = d.shape[0];
    const double *a = d.buf, *b2 = e.buf;
    if (e.shape[0] < n)
        PyErr_SetString(PyExc_IndexError, "squared off-diagonal rows shorter than diagonal");
    else
        for (i = 0; i < n; i++) {
            q = (a[i] - shift) - b2[i] / q;
            if (q == 0.0)
                q = -1e-300;  /* pivot floor, as _PIVOT_FLOOR */
            if (q < 0.0)
                count++;
        }
    PyBuffer_Release(&d);
    PyBuffer_Release(&e);
    return PyErr_Occurred() ? NULL : PyLong_FromSsize_t(count);
}

/* Python's x ** 3: libm pow, flagging an overflow that Python raises as OverflowError. */
static double cube(double x, int *overflow)
{
    double c = pow(x, 3.0);
    if (isinf(c) && isfinite(x))
        *overflow = 1;
    return c;
}

static PyObject *rk4_lienard(PyObject *self, PyObject *args)
{
    double k, omega, x, v, h, a1, a2, a3, a4, x2, v2, x3, v3, x4, v4, *xs, *vs;
    Py_ssize_t i, n;
    int overflow = 0;
    if (!PyArg_ParseTuple(args, "dddddn", &k, &omega, &x, &v, &h, &n))
        return NULL;
    if (n < 0)
        return PyErr_Format(PyExc_ValueError, "n_steps must be >= 0, got %zd", n);
    double kk9 = k * k / 9.0, w2 = omega * omega;
    PyObject *xs_arr = new_array(n + 1, &xs), *vs_arr = NULL;
    if (xs_arr == NULL || (vs_arr = new_array(n + 1, &vs)) == NULL) {
        Py_XDECREF(xs_arr);
        return NULL;
    }
    xs[0] = x;
    vs[0] = v;
    for (i = 1; i <= n && !overflow; i++) {
        a1 = -k * x * v - kk9 * cube(x, &overflow) - w2 * x;
        x2 = x + 0.5 * h * v;
        v2 = v + 0.5 * h * a1;
        a2 = -k * x2 * v2 - kk9 * cube(x2, &overflow) - w2 * x2;
        x3 = x + 0.5 * h * v2;
        v3 = v + 0.5 * h * a2;
        a3 = -k * x3 * v3 - kk9 * cube(x3, &overflow) - w2 * x3;
        x4 = x + h * v3;
        v4 = v + h * a3;
        a4 = -k * x4 * v4 - kk9 * cube(x4, &overflow) - w2 * x4;
        x = x + h / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4);
        v = v + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4);
        xs[i] = x;
        vs[i] = v;
    }
    if (overflow) {
        Py_DECREF(xs_arr);
        Py_DECREF(vs_arr);
        errno = ERANGE;
        return PyErr_SetFromErrno(PyExc_OverflowError);
    }
    return Py_BuildValue("NN", xs_arr, vs_arr);
}

static PyMethodDef methods[] = {
    {"sturm_rows", sturm_rows, METH_VARARGS,
     "sturm_rows(diag, off): the rows sturm_count reads, (diag, b2) with b2 = [0, off**2] as a float64 array."},
    {"sturm_count", sturm_count, METH_VARARGS,
     "sturm_count(a, b2, shift): number of eigenvalues of a symmetric tridiagonal matrix below shift."},
    {"rk4_lienard", rk4_lienard, METH_VARARGS,
     "rk4_lienard(k, omega, x0, v0, step, n_steps): fixed-step RK4 for x'' + k x x' + (k^2/9) x^3 + omega^2 x = 0."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_ckernels", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy"), *m;
    if (numpy == NULL)
        return NULL;
    Py_XSETREF(np_empty, PyObject_GetAttrString(numpy, "empty"));
    Py_DECREF(numpy);
    if (np_empty == NULL || (m = PyModule_Create(&module)) == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND_NAME", "c") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
