/**
 * @file
 * Device-independent description of a DNN kernel: operator class, output
 * dimensions, total FLOPs and DRAM traffic. This is the metadata the paper
 * extracts per kernel with Torch.fx / PyTorch Profiler (operator type and
 * input/output tensor dimensions, Section 5) and the unit of prediction
 * for both the simulator and every predictor.
 */

#ifndef NEUSIGHT_GPUSIM_KERNEL_DESC_HPP
#define NEUSIGHT_GPUSIM_KERNEL_DESC_HPP

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace neusight::gpusim {

/**
 * Inline fixed-capacity dimension vector. Kernel output ranks never
 * exceed 3 ({batch, m, n} for BMM), so storing the dims inline removes
 * the per-KernelDesc heap allocation that dominated arena-backed graph
 * construction (every node carries a KernelDesc). Capacity overflow is
 * a fatal error, surfaced by the out-of-line grow handler.
 */
class DimVector
{
  public:
    static constexpr size_t kMaxRank = 4;

    DimVector() = default;

    DimVector(std::initializer_list<uint64_t> init)
    {
        for (uint64_t d : init)
            push_back(d);
    }

    /** Number of dimensions. */
    size_t size() const { return count; }

    /** True when no dimensions are stored. */
    bool empty() const { return count == 0; }

    /** Dimension access. */
    uint64_t &operator[](size_t i) { return dims[i]; }

    /** Dimension access, const. */
    uint64_t operator[](size_t i) const { return dims[i]; }

    uint64_t *begin() { return dims; }
    uint64_t *end() { return dims + count; }
    const uint64_t *begin() const { return dims; }
    const uint64_t *end() const { return dims + count; }

    /** Append a dimension; ranks beyond kMaxRank are fatal. */
    void push_back(uint64_t d)
    {
        if (count == kMaxRank)
            overflow();
        dims[count++] = d;
    }

    /** Drop all dimensions. */
    void clear() { count = 0; }

    /** Widening copy for std::vector-typed consumers (tile records). */
    std::vector<uint64_t> toVector() const
    {
        return std::vector<uint64_t>(begin(), end());
    }

  private:
    [[noreturn]] void overflow() const;

    uint64_t dims[kMaxRank] = {0, 0, 0, 0};
    size_t count = 0;
};

inline bool
operator==(const DimVector &a, const DimVector &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

inline bool
operator!=(const DimVector &a, const DimVector &b)
{
    return !(a == b);
}

inline bool
operator==(const DimVector &a, const std::vector<uint64_t> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

inline bool
operator==(const std::vector<uint64_t> &a, const DimVector &b)
{
    return b == a;
}

inline bool
operator!=(const DimVector &a, const std::vector<uint64_t> &b)
{
    return !(a == b);
}

inline bool
operator!=(const std::vector<uint64_t> &a, const DimVector &b)
{
    return !(b == a);
}

/** Operator families with dedicated NeuSight predictors (Section 4.3). */
enum class OpType
{
    BatchedMatmul,
    FullyConnected,
    Elementwise,
    Softmax,
    LayerNorm,
    /** Anything else (embedding, reshape...): memory-bound fallback. */
    Memory,
};

/** Numeric precision of a kernel's operands. */
enum class DataType
{
    Fp32,
    Fp16,
};

/** Bytes per element of a DataType. */
size_t dtypeBytes(DataType dtype);

/** Human-readable operator family name. */
const char *opTypeName(OpType type);

/**
 * Metadata of one GPU kernel. A new field must also join
 * graph::sameKernel and its hash (graph/kernel_index.cpp), or the
 * kernel index could merge kernels that differ in it.
 */
struct KernelDesc
{
    OpType type = OpType::Memory;
    /** Concrete op name, e.g. "bmm", "linear", "add", "gelu", "softmax". */
    std::string opName;
    /**
     * Output tensor dimensions; the tile decomposition (Eq. 2) runs over
     * these. BMM: {batch, m, n}; FC: {rows, out}; elementwise: {numel};
     * softmax/layernorm: {rows, cols}; memory ops: {numel}. Stored
     * inline (see DimVector) so a KernelDesc costs no heap allocation
     * beyond its strings.
     */
    DimVector outDims;
    /**
     * Reduction dimension for GEMM-family ops (K for BMM, input width for
     * fully-connected); 0 for pointwise/memory ops.
     */
    uint64_t reduceDim = 0;
    /** Total floating point operations. */
    double flops = 0.0;
    /** Total DRAM traffic in bytes (inputs + outputs). */
    double memBytes = 0.0;
    DataType dtype = DataType::Fp32;
    /** True when the kernel uses the matrix/tensor-core datapath. */
    bool usesTensorCore = false;

    /** Arithmetic intensity K = flops / memBytes (Eq. 1). */
    double intensity() const { return memBytes > 0.0 ? flops / memBytes : 0.0; }

    /** Number of output elements. */
    uint64_t numOutputElements() const;

    /** Short human-readable summary for logs and error messages. */
    std::string summary() const;
};

/// @name Kernel factories (FLOPs / traffic accounting in one place).
/// @{

/**
 * Batched matrix multiplication (B,M,K) x (B,K,N) -> (B,M,N).
 * FLOPs = 2*B*M*N*K; traffic = B*(MK + KN + MN) elements.
 */
KernelDesc makeBmm(uint64_t b, uint64_t m, uint64_t n, uint64_t k,
                   DataType dtype = DataType::Fp32,
                   bool tensor_core = false);

/**
 * Fully-connected layer (rows,in) x (in,out) + bias -> (rows,out).
 * The weight is shared across the batch, unlike BMM.
 */
KernelDesc makeLinear(uint64_t rows, uint64_t in, uint64_t out,
                      DataType dtype = DataType::Fp32,
                      bool tensor_core = false);

/**
 * Pointwise operator over @p numel elements.
 * @param op_name        one of add/sub/mul/div/relu/gelu/tanh/...
 * @param arity          number of input tensors (1 or 2).
 * @param flops_per_elem cost model per element (1 for arithmetic,
 *                       higher for transcendental activations).
 */
KernelDesc makeElementwise(const std::string &op_name, uint64_t numel,
                           int arity = 2, double flops_per_elem = 1.0,
                           DataType dtype = DataType::Fp32);

/** Row-wise softmax on a (rows, cols) tensor. */
KernelDesc makeSoftmax(uint64_t rows, uint64_t cols,
                       DataType dtype = DataType::Fp32);

/** Row-wise layer normalization on a (rows, cols) tensor. */
KernelDesc makeLayerNorm(uint64_t rows, uint64_t cols,
                         DataType dtype = DataType::Fp32);

/**
 * Memory-bound fallback op moving @p bytes (embedding lookups, copies,
 * reshapes). FLOPs are negligible by construction.
 */
KernelDesc makeMemoryOp(const std::string &op_name, double bytes,
                        DataType dtype = DataType::Fp32);

/** Per-element FLOPs cost used for common activation functions. */
double elementwiseFlopsPerElem(const std::string &op_name);
/// @}

} // namespace neusight::gpusim

#endif // NEUSIGHT_GPUSIM_KERNEL_DESC_HPP
