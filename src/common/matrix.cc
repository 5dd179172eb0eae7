#include "common/matrix.h"

#include <algorithm>

namespace subex {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    SUBEX_CHECK_MSG(row.size() == cols_, "ragged initializer rows");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

std::vector<double> Matrix::Column(std::size_t c) const {
  SUBEX_CHECK(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::AppendRow(std::span<const double> row) {
  if (data_.empty() && rows_ == 0) {
    cols_ = row.size();
  }
  SUBEX_CHECK_MSG(row.size() == cols_, "row width mismatch");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

Matrix Matrix::SelectRows(std::span<const int> rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SUBEX_DCHECK(rows[i] >= 0 && static_cast<std::size_t>(rows[i]) < rows_);
    std::copy_n(data_.data() + static_cast<std::size_t>(rows[i]) * cols_,
                cols_, out.MutableRow(i).data());
  }
  return out;
}

}  // namespace subex
