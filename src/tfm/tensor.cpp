#include "tfm/tensor.h"

#include <algorithm>
#include <cmath>

#include "tfm/workspace.h"
#include "util/strings.h"

namespace gqa::tfm {

std::string Shape::to_string() const {
  std::string out = "{";
  for (int i = 0; i < rank(); ++i) {
    if (i != 0) out += ", ";
    out += format("%d", (*this)[i]);
  }
  return out + "}";
}

Tensor Tensor::randn(Shape shape, Rng& rng, double stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

double Tensor::amax() const {
  double peak = 0.0;
  for (float v : data_) peak = std::max(peak, std::abs(static_cast<double>(v)));
  return peak;
}

QTensor QTensor::quantize(const Tensor& values, const QuantParams& qp) {
  QTensor q(values.shape(), qp);
  for (std::size_t i = 0; i < values.data().size(); ++i) {
    q.data_[i] = static_cast<std::int32_t>(
        qp.quantize(static_cast<double>(values.data()[i])));
  }
  return q;
}

Tensor QTensor::dequantize() const {
  Tensor t(shape_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    t.data()[i] = static_cast<float>(qp_.dequantize(data_[i]));
  }
  return t;
}

namespace {

template <typename T>
T tokens_impl(const T& chw, Workspace* ws) {
  GQA_EXPECTS(chw.shape().rank() == 3);
  const int c = chw.shape()[0];
  const int h = chw.shape()[1];
  const int w = chw.shape()[2];
  T out = [&] {
    if constexpr (std::is_same_v<T, QTensor>) {
      return ws_qtensor(ws, Shape{h * w, c}, chw.params());
    } else {
      return ws_tensor(ws, Shape{h * w, c});
    }
  }();
  for (int ch = 0; ch < c; ++ch) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        out.at(y * w + x, ch) = chw.at(ch, y, x);
      }
    }
  }
  return out;
}

template <typename T>
T from_tokens_impl(const T& tokens, int h, int w, Workspace* ws) {
  GQA_EXPECTS(tokens.shape().rank() == 2);
  GQA_EXPECTS(tokens.shape()[0] == h * w);
  const int c = tokens.shape()[1];
  T out = [&] {
    if constexpr (std::is_same_v<T, QTensor>) {
      return ws_qtensor(ws, Shape{c, h, w}, tokens.params());
    } else {
      return ws_tensor(ws, Shape{c, h, w});
    }
  }();
  for (int ch = 0; ch < c; ++ch) {
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        out.at(ch, y, x) = tokens.at(y * w + x, ch);
      }
    }
  }
  return out;
}

template <typename T>
std::vector<int> argmax_impl(const T& logits) {
  GQA_EXPECTS(logits.shape().rank() == 3);
  const int c = logits.shape()[0];
  const int h = logits.shape()[1];
  const int w = logits.shape()[2];
  std::vector<int> labels(static_cast<std::size_t>(h) * w);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int best = 0;
      for (int ch = 1; ch < c; ++ch) {
        if (logits.at(ch, y, x) > logits.at(best, y, x)) best = ch;
      }
      labels[static_cast<std::size_t>(y) * w + x] = best;
    }
  }
  return labels;
}

}  // namespace

std::vector<int> argmax_label_map(const Tensor& logits) {
  return argmax_impl(logits);
}

std::vector<int> argmax_label_map(const QTensor& logits) {
  return argmax_impl(logits);
}

Tensor to_tokens(const Tensor& chw, Workspace* ws) {
  return tokens_impl(chw, ws);
}
Tensor from_tokens(const Tensor& tokens, int h, int w, Workspace* ws) {
  return from_tokens_impl(tokens, h, w, ws);
}
QTensor to_tokens(const QTensor& chw, Workspace* ws) {
  return tokens_impl(chw, ws);
}
QTensor from_tokens(const QTensor& tokens, int h, int w, Workspace* ws) {
  return from_tokens_impl(tokens, h, w, ws);
}

}  // namespace gqa::tfm
