// Minimal dense tensors for the Transformer substrate. Two storage kinds:
//   Tensor  — float32 values (reference path, weights)
//   QTensor — int32 codes with per-tensor QuantParams (integer-only path;
//             activations are INT8-range codes, accumulators INT32-range)
// Shapes are row-major; feature maps use {C, H, W}, token matrices {N, D}.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "quant/quant_params.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace gqa::tfm {

/// Dimensions stored inline (no tensor in the substrate exceeds rank 4: conv
/// weights are {out, in, k, k}), so building a shape never allocates.
struct Shape {
  static constexpr std::size_t kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<int> d) : rank_(d.size()) {
    GQA_EXPECTS_MSG(d.size() <= kMaxRank, "tensor rank exceeds Shape::kMaxRank");
    std::copy(d.begin(), d.end(), dims_.begin());
  }

  [[nodiscard]] int rank() const { return static_cast<int>(rank_); }
  [[nodiscard]] std::int64_t numel() const {
    std::int64_t n = 1;
    for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }
  [[nodiscard]] int operator[](int i) const {
    return dims_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::string to_string() const;

  // Unused trailing dims stay zero, so member-wise equality is shape
  // equality.
  friend bool operator==(const Shape&, const Shape&) = default;

 private:
  std::array<int, kMaxRank> dims_{};
  std::size_t rank_ = 0;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(shape_.numel()), 0.0F) {}
  /// Adopts pre-sized storage (workspace reuse); `storage` must already
  /// hold exactly numel() elements.
  Tensor(Shape shape, std::vector<float>&& storage)
      : shape_(std::move(shape)), data_(std::move(storage)) {
    GQA_EXPECTS(static_cast<std::int64_t>(data_.size()) == shape_.numel());
  }

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  /// He/Xavier-style normal init with the given stddev.
  [[nodiscard]] static Tensor randn(Shape shape, Rng& rng, double stddev);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return shape_.numel(); }
  [[nodiscard]] std::vector<float>& data() { return data_; }
  [[nodiscard]] const std::vector<float>& data() const { return data_; }

  // Rank-specific accessors (contract-checked in debug paths).
  [[nodiscard]] float& at(int i) { return data_[idx1(i)]; }
  [[nodiscard]] float at(int i) const { return data_[idx1(i)]; }
  [[nodiscard]] float& at(int i, int j) { return data_[idx2(i, j)]; }
  [[nodiscard]] float at(int i, int j) const { return data_[idx2(i, j)]; }
  [[nodiscard]] float& at(int i, int j, int k) { return data_[idx3(i, j, k)]; }
  [[nodiscard]] float at(int i, int j, int k) const { return data_[idx3(i, j, k)]; }
  [[nodiscard]] float& at(int i, int j, int k, int l) { return data_[idx4(i, j, k, l)]; }
  [[nodiscard]] float at(int i, int j, int k, int l) const { return data_[idx4(i, j, k, l)]; }

  /// Largest absolute value (calibration helper).
  [[nodiscard]] double amax() const;

  /// Moves the storage out for workspace recycling; the tensor is left
  /// empty (rank-0, no data).
  [[nodiscard]] std::vector<float> take_storage() && {
    shape_ = Shape{};
    return std::move(data_);
  }

 private:
  [[nodiscard]] std::size_t idx1(int i) const {
    GQA_ASSERT(shape_.rank() == 1);
    return static_cast<std::size_t>(i);
  }
  [[nodiscard]] std::size_t idx2(int i, int j) const {
    GQA_ASSERT(shape_.rank() == 2);
    return static_cast<std::size_t>(i) * shape_[1] + j;
  }
  [[nodiscard]] std::size_t idx3(int i, int j, int k) const {
    GQA_ASSERT(shape_.rank() == 3);
    return (static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k;
  }
  [[nodiscard]] std::size_t idx4(int i, int j, int k, int l) const {
    GQA_ASSERT(shape_.rank() == 4);
    return ((static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k) *
               shape_[3] + l;
  }

  Shape shape_;
  std::vector<float> data_;
};

/// Integer-code tensor with per-tensor quantization parameters.
class QTensor {
 public:
  QTensor() = default;
  QTensor(Shape shape, QuantParams qp)
      : shape_(std::move(shape)),
        qp_(qp),
        data_(static_cast<std::size_t>(shape_.numel()), 0) {}
  /// Adopts pre-sized storage (workspace reuse); `storage` must already
  /// hold exactly numel() elements.
  QTensor(Shape shape, QuantParams qp, std::vector<std::int32_t>&& storage)
      : shape_(std::move(shape)), qp_(qp), data_(std::move(storage)) {
    GQA_EXPECTS(static_cast<std::int64_t>(data_.size()) == shape_.numel());
  }

  /// Quantizes a float tensor (Eq. 2).
  [[nodiscard]] static QTensor quantize(const Tensor& values,
                                        const QuantParams& qp);

  /// Dequantizes to float.
  [[nodiscard]] Tensor dequantize() const;

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] const QuantParams& params() const { return qp_; }
  [[nodiscard]] std::vector<std::int32_t>& data() { return data_; }
  [[nodiscard]] const std::vector<std::int32_t>& data() const { return data_; }

  [[nodiscard]] std::int32_t& at(int i, int j) {
    GQA_ASSERT(shape_.rank() == 2);
    return data_[static_cast<std::size_t>(i) * shape_[1] + j];
  }
  [[nodiscard]] std::int32_t at(int i, int j) const {
    GQA_ASSERT(shape_.rank() == 2);
    return data_[static_cast<std::size_t>(i) * shape_[1] + j];
  }
  [[nodiscard]] std::int32_t& at(int i, int j, int k) {
    GQA_ASSERT(shape_.rank() == 3);
    return data_[(static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k];
  }
  [[nodiscard]] std::int32_t at(int i, int j, int k) const {
    GQA_ASSERT(shape_.rank() == 3);
    return data_[(static_cast<std::size_t>(i) * shape_[1] + j) * shape_[2] + k];
  }

  /// Moves the storage out for workspace recycling; the tensor is left
  /// empty (rank-0, no data).
  [[nodiscard]] std::vector<std::int32_t> take_storage() && {
    shape_ = Shape{};
    return std::move(data_);
  }

 private:
  Shape shape_;
  QuantParams qp_;
  std::vector<std::int32_t> data_;
};

class Workspace;

/// Per-pixel argmax labels of a logits map {C, h, w} (ties keep the lowest
/// class id). Shared by the model-specific `ModelT::argmax_labels` statics.
[[nodiscard]] std::vector<int> argmax_label_map(const Tensor& logits);
[[nodiscard]] std::vector<int> argmax_label_map(const QTensor& logits);

/// {C,H,W} feature map <-> {H*W, C} token matrix. A non-null Workspace
/// backs the result with pooled storage (results are bit-identical).
[[nodiscard]] Tensor to_tokens(const Tensor& chw, Workspace* ws = nullptr);
[[nodiscard]] Tensor from_tokens(const Tensor& tokens, int h, int w,
                                 Workspace* ws = nullptr);
[[nodiscard]] QTensor to_tokens(const QTensor& chw, Workspace* ws = nullptr);
[[nodiscard]] QTensor from_tokens(const QTensor& tokens, int h, int w,
                                  Workspace* ws = nullptr);

}  // namespace gqa::tfm
