// Little-endian POD encoding shared by the on-disk byte formats: parameter
// blobs (nn/serialize), training checkpoints (train/checkpoint) and the
// in-RAM batcher's cursor state (data/pipeline).

#ifndef ELDA_UTIL_BYTE_IO_H_
#define ELDA_UTIL_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace elda {
namespace util {

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Bounds-checked reader over an in-memory blob. A read that would run past
// the end returns false and consumes nothing; the checks compare against
// the bytes left, so a huge length from a corrupt file cannot wrap them.
class BlobReader {
 public:
  explicit BlobReader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  bool Pod(T* value) {
    if (sizeof(T) > bytes_.size() - pos_) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool String(size_t length, std::string* out) {
    if (length > bytes_.size() - pos_) return false;
    out->assign(bytes_, pos_, length);
    pos_ += length;
    return true;
  }

  bool Floats(float* dst, int64_t count) {
    const size_t n = static_cast<size_t>(count) * sizeof(float);
    if (n > bytes_.size() - pos_) return false;
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool Done() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

}  // namespace util
}  // namespace elda

#endif  // ELDA_UTIL_BYTE_IO_H_
