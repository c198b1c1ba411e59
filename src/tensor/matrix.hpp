/**
 * @file
 * Dense row-major matrix of doubles plus the handful of kernels the neural
 * network substrate needs (GEMM in NN/NT/TN layouts, broadcasting adds,
 * elementwise maps, reductions). Deliberately minimal: this is the linear
 * algebra that backs the NeuSight predictor MLPs, not a general BLAS.
 */

#ifndef NEUSIGHT_TENSOR_MATRIX_HPP
#define NEUSIGHT_TENSOR_MATRIX_HPP

#include <cstddef>
#include <functional>
#include <vector>

/** Strict-aliasing hint for hot inner loops (GCC/Clang/MSVC). */
#if defined(__GNUC__) || defined(__clang__)
#define NEUSIGHT_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define NEUSIGHT_RESTRICT __restrict
#else
#define NEUSIGHT_RESTRICT
#endif

namespace neusight {

/** Dense row-major matrix. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** Zero-initialized matrix of the given shape. */
    Matrix(size_t rows, size_t cols);

    /** Matrix of the given shape filled with @p fill. */
    Matrix(size_t rows, size_t cols, double fill);

    /** Build from nested initializer-style data (row major). */
    static Matrix fromRows(const std::vector<std::vector<double>> &rows);

    /** Number of rows. */
    size_t rows() const { return nRows; }

    /** Number of columns. */
    size_t cols() const { return nCols; }

    /** Total number of elements. */
    size_t size() const { return data.size(); }

    /** Element access (row, col). */
    double &at(size_t r, size_t c) { return data[r * nCols + c]; }

    /** Element access (row, col), const. */
    double at(size_t r, size_t c) const { return data[r * nCols + c]; }

    /** Raw storage pointer (row major). */
    double *raw() { return data.data(); }

    /** Raw storage pointer (row major), const. */
    const double *raw() const { return data.data(); }

    /** Set every element to zero. */
    void setZero();

    /** Set every element to @p value. */
    void fill(double value);

    /** Elementwise in-place map. */
    void apply(const std::function<double(double)> &fn);

    /** Sum of all elements. */
    double sum() const;

    /** True when shapes match and all elements are within @p tol. */
    bool allClose(const Matrix &other, double tol = 1e-9) const;

  private:
    size_t nRows = 0;
    size_t nCols = 0;
    std::vector<double> data;
};

/**
 * Dense row-major matrix of floats: the storage for the fp32 SIMD
 * inference lane. Carries only what that lane needs — conversion to and
 * from the double Matrix plus raw contiguous access for the fused
 * kernels below.
 */
class MatrixF32
{
  public:
    /** Empty 0x0 matrix. */
    MatrixF32() = default;

    /** Zero-initialized matrix of the given shape. */
    MatrixF32(size_t rows, size_t cols);

    /** Narrowing copy of a double matrix. */
    static MatrixF32 fromMatrix(const Matrix &m);

    /** Widening copy back to the double world. */
    Matrix toMatrix() const;

    /** Number of rows. */
    size_t rows() const { return nRows; }

    /** Number of columns. */
    size_t cols() const { return nCols; }

    /** Total number of elements. */
    size_t size() const { return data.size(); }

    /** Element access (row, col). */
    float &at(size_t r, size_t c) { return data[r * nCols + c]; }

    /** Element access (row, col), const. */
    float at(size_t r, size_t c) const { return data[r * nCols + c]; }

    /** Raw storage pointer (row major). */
    float *raw() { return data.data(); }

    /** Raw storage pointer (row major), const. */
    const float *raw() const { return data.data(); }

  private:
    size_t nRows = 0;
    size_t nCols = 0;
    std::vector<float> data;
};

/**
 * Fused fp32 linear layer: Y = X(m,k) * W(k,n) + bias(1,n), optionally
 * followed by ReLU. The inner loops are written for vectorization —
 * restrict-qualified contiguous rows, unit stride on W and Y, no
 * branches — so the compiler can emit packed SIMD at -O2.
 */
MatrixF32 linearF32(const MatrixF32 &x, const MatrixF32 &w,
                    const MatrixF32 &bias, bool applyRelu);

/** C = A(m,k) * B(k,n). */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A(m,k) * B(n,k)^T -> (m,n). */
Matrix matmulNT(const Matrix &a, const Matrix &b);

/** C = A(k,m)^T * B(k,n) -> (m,n). */
Matrix matmulTN(const Matrix &a, const Matrix &b);

/** Elementwise sum; shapes must match. */
Matrix add(const Matrix &a, const Matrix &b);

/** Elementwise difference; shapes must match. */
Matrix sub(const Matrix &a, const Matrix &b);

/** Elementwise (Hadamard) product; shapes must match. */
Matrix mul(const Matrix &a, const Matrix &b);

/** Scalar multiple. */
Matrix scale(const Matrix &a, double s);

/** Add a 1-row bias to every row of @p a. */
Matrix addRowBroadcast(const Matrix &a, const Matrix &bias);

/** Column-wise sum producing a 1-row matrix. */
Matrix colSum(const Matrix &a);

/** Transposed copy. */
Matrix transpose(const Matrix &a);

/** a += b (elementwise, shapes must match). */
void addInPlace(Matrix &a, const Matrix &b);

/** a += s * b (elementwise axpy, shapes must match). */
void axpyInPlace(Matrix &a, double s, const Matrix &b);

} // namespace neusight

#endif // NEUSIGHT_TENSOR_MATRIX_HPP
