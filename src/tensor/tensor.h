/**
 * @file
 * Minimal deterministic fp32 tensor.
 *
 * The reproducibility experiments (Tables 3 and 4, appendix
 * experiment 1) compare trained parameters *bitwise*, so every
 * numeric operation in this library is specified down to evaluation
 * order: reductions go through the fixed-shape pairwise trees in
 * tensor/kernels/reduce.h (never an ad-hoc sequential loop — the
 * float-reduce-outside-kernels lint enforces this), elementwise ops
 * iterate in index order, and nothing depends on the platform's math
 * library: the one transcendental, tanh, is the library's own kernel
 * (tensor/kernels/tanh.h), built from IEEE-754 basic operations. The
 * bits are therefore a function of IEEE-754 binary32 arithmetic and
 * -ffp-contract=off alone, not of the host libm (the counterpart of
 * the paper's reliance on deterministic CUDA kernels). Storage
 * precision is a run-level mode (tensor/kernels/precision.h): fp32,
 * or fp16_rne half-rounded storage with fp32 compute.
 *
 * Tensor owns its buffer; the non-owning view over arena-backed
 * parameter memory is TensorView (tensor/tensor_view.h).
 */

#ifndef NASPIPE_TENSOR_TENSOR_H
#define NASPIPE_TENSOR_TENSOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace naspipe {

/**
 * Dense fp32 tensor of rank 1 or 2 (row-major).
 */
class Tensor
{
  public:
    Tensor() = default;

    /** Rank-1 tensor of @p size zeros. */
    explicit Tensor(std::size_t size);

    /** Rank-2 tensor of @p rows x @p cols zeros. */
    Tensor(std::size_t rows, std::size_t cols);

    /** Rank-1 tensor wrapping @p values. */
    explicit Tensor(std::vector<float> values);

    std::size_t size() const { return _data.size(); }
    std::size_t rows() const { return _rows; }
    std::size_t cols() const { return _cols; }
    bool empty() const { return _data.empty(); }

    /** Rank-1 element access. */
    float operator[](std::size_t i) const;
    float &operator[](std::size_t i);

    /** Rank-2 element access. */
    float at(std::size_t r, std::size_t c) const;
    float &at(std::size_t r, std::size_t c);

    const std::vector<float> &data() const { return _data; }
    std::vector<float> &data() { return _data; }

    /** Set every element to @p value. */
    void fill(float value);

    /** Bitwise equality (what Definition 1 requires). */
    bool bitwiseEqual(const Tensor &other) const;

    /** FNV-1a hash over the raw bytes; stable fingerprint. */
    std::uint64_t contentHash() const;

    /** Short debug string ("Tensor[4]{0.1, ...}"). */
    std::string toString(std::size_t maxElems = 8) const;

  private:
    std::vector<float> _data;
    std::size_t _rows = 0;
    std::size_t _cols = 0;
};

} // namespace naspipe

#endif // NASPIPE_TENSOR_TENSOR_H
