#include "tensor/tensor.h"

#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"

namespace naspipe {

Tensor::Tensor(std::size_t size)
    : _data(size, 0.0f), _rows(size), _cols(1)
{
}

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : _data(rows * cols, 0.0f), _rows(rows), _cols(cols)
{
}

Tensor::Tensor(std::vector<float> values)
    : _data(std::move(values)), _rows(_data.size()), _cols(1)
{
}

float
Tensor::operator[](std::size_t i) const
{
    NASPIPE_ASSERT(i < _data.size(), "tensor index out of range");
    return _data[i];
}

float &
Tensor::operator[](std::size_t i)
{
    NASPIPE_ASSERT(i < _data.size(), "tensor index out of range");
    return _data[i];
}

float
Tensor::at(std::size_t r, std::size_t c) const
{
    NASPIPE_ASSERT(r < _rows && c < _cols,
                   "tensor 2-D index out of range");
    return _data[r * _cols + c];
}

float &
Tensor::at(std::size_t r, std::size_t c)
{
    NASPIPE_ASSERT(r < _rows && c < _cols,
                   "tensor 2-D index out of range");
    return _data[r * _cols + c];
}

void
Tensor::fill(float value)
{
    for (auto &v : _data)
        v = value;
}

bool
Tensor::bitwiseEqual(const Tensor &other) const
{
    if (_data.size() != other._data.size())
        return false;
    if (_data.empty())
        return true;
    return std::memcmp(_data.data(), other._data.data(),
                       _data.size() * sizeof(float)) == 0;
}

std::uint64_t
Tensor::contentHash() const
{
    return hashBytes(_data.data(), _data.size() * sizeof(float));
}

std::string
Tensor::toString(std::size_t maxElems) const
{
    std::ostringstream oss;
    oss << "Tensor[" << _data.size() << "]{";
    for (std::size_t i = 0; i < _data.size() && i < maxElems; i++) {
        if (i)
            oss << ", ";
        oss << _data[i];
    }
    if (_data.size() > maxElems)
        oss << ", ...";
    oss << "}";
    return oss.str();
}

} // namespace naspipe
