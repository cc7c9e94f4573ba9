// Fold state containers: small inline vectors and matrices.
//
// A fold function's accumulator is a short vector of state variables (the
// paper's examples use one or two; we support up to kMaxStateDims). The
// linear-in-state machinery (§3.2) views an update as S' = A·S + B with A a
// d×d matrix and B a d-vector whose entries depend only on the packet, so we
// need exactly these two small linear-algebra types.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/error.hpp"

namespace perfq::kv {

inline constexpr std::size_t kMaxStateDims = 8;

/// Fixed-capacity vector of state variables.
class StateVector {
 public:
  StateVector() = default;
  explicit StateVector(std::size_t dims, double fill = 0.0) : dims_(check_dims(dims)) {
    for (std::size_t i = 0; i < dims_; ++i) v_[i] = fill;
  }
  explicit StateVector(std::span<const double> values)
      : dims_(check_dims(values.size())) {
    for (std::size_t i = 0; i < dims_; ++i) v_[i] = values[i];
  }

  [[nodiscard]] std::size_t dims() const { return dims_; }
  [[nodiscard]] double operator[](std::size_t i) const { return v_[i]; }
  [[nodiscard]] double& operator[](std::size_t i) { return v_[i]; }
  [[nodiscard]] std::span<double> span() { return {v_.data(), dims_}; }
  [[nodiscard]] std::span<const double> span() const { return {v_.data(), dims_}; }

  friend bool operator==(const StateVector& a, const StateVector& b) {
    if (a.dims_ != b.dims_) return false;
    for (std::size_t i = 0; i < a.dims_; ++i) {
      if (a.v_[i] != b.v_[i]) return false;
    }
    return true;
  }

  StateVector& operator+=(const StateVector& o) {
    check(dims_ == o.dims_, "StateVector +=: dims mismatch");
    for (std::size_t i = 0; i < dims_; ++i) v_[i] += o.v_[i];
    return *this;
  }
  StateVector& operator-=(const StateVector& o) {
    check(dims_ == o.dims_, "StateVector -=: dims mismatch");
    for (std::size_t i = 0; i < dims_; ++i) v_[i] -= o.v_[i];
    return *this;
  }
  friend StateVector operator+(StateVector a, const StateVector& b) { return a += b; }
  friend StateVector operator-(StateVector a, const StateVector& b) { return a -= b; }

 private:
  static std::size_t check_dims(std::size_t d) {
    if (d > kMaxStateDims) throw ConfigError{"StateVector: too many state dims"};
    return d;
  }
  std::size_t dims_ = 0;
  std::array<double, kMaxStateDims> v_{};
};

/// Small dense row-major square matrix (the per-packet transform A).
class SmallMatrix {
 public:
  SmallMatrix() = default;
  explicit SmallMatrix(std::size_t dims) : dims_(dims) {
    if (dims > kMaxStateDims) throw ConfigError{"SmallMatrix: too many dims"};
  }

  [[nodiscard]] static SmallMatrix identity(std::size_t dims) {
    SmallMatrix m(dims);
    for (std::size_t i = 0; i < dims; ++i) m.at(i, i) = 1.0;
    return m;
  }

  [[nodiscard]] std::size_t dims() const { return dims_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return m_[r * kMaxStateDims + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return m_[r * kMaxStateDims + c];
  }

  /// this ← other · this (compose a new per-packet transform on the left,
  /// maintaining the running product P = A_N ··· A_1). Reads and writes the
  /// dims×dims block only; the rest of the storage stays zero.
  void left_multiply(const SmallMatrix& other) {
    check(dims_ == other.dims_, "SmallMatrix: dims mismatch");
    // Only the dims×dims block of `out` is written, and only it is read.
    std::array<double, kMaxStateDims * kMaxStateDims> out;
    for (std::size_t r = 0; r < dims_; ++r) {
      double* row = &out[r * kMaxStateDims];
      for (std::size_t c = 0; c < dims_; ++c) row[c] = 0.0;
      for (std::size_t k = 0; k < dims_; ++k) {
        const double a = other.at(r, k);
        if (a == 0.0) continue;
        for (std::size_t c = 0; c < dims_; ++c) row[c] += a * at(k, c);
      }
    }
    for (std::size_t r = 0; r < dims_; ++r) {
      for (std::size_t c = 0; c < dims_; ++c) at(r, c) = out[r * kMaxStateDims + c];
    }
  }

  /// this · v. Zero coefficients are skipped, as in left_multiply(): a zero
  /// entry contributes nothing, even against an infinite component of v
  /// (0 × ∞ would be NaN and poison every other column of the row).
  [[nodiscard]] StateVector apply(const StateVector& v) const {
    check(dims_ == v.dims(), "SmallMatrix::apply: dims mismatch");
    StateVector out(dims_);
    for (std::size_t r = 0; r < dims_; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < dims_; ++c) {
        const double a = at(r, c);
        if (a != 0.0) acc += a * v[c];
      }
      out[r] = acc;
    }
    return out;
  }

  /// Matrix power by repeated squaring; used when A is packet-independent and
  /// the hardware only tracked the packet count N (P = A^N).
  [[nodiscard]] SmallMatrix power(std::uint64_t n) const {
    SmallMatrix result = identity(dims_);
    SmallMatrix base = *this;
    while (n > 0) {
      if (n & 1) result.left_multiply(base);  // result ← base · result
      n >>= 1;
      if (n > 0) base.left_multiply(base);    // base ← base · base
    }
    return result;
  }

  friend bool operator==(const SmallMatrix& a, const SmallMatrix& b) {
    if (a.dims_ != b.dims_) return false;
    for (std::size_t r = 0; r < a.dims_; ++r) {
      for (std::size_t c = 0; c < a.dims_; ++c) {
        if (a.at(r, c) != b.at(r, c)) return false;
      }
    }
    return true;
  }

 private:
  std::size_t dims_ = 0;
  std::array<double, kMaxStateDims * kMaxStateDims> m_{};
};

}  // namespace perfq::kv
