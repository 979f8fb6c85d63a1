#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <map>

#include "health/ckpt_io.h"
#include "util/byte_io.h"

namespace elda {
namespace nn {
namespace {

using util::AppendPod;
using util::BlobReader;

constexpr char kMagic[4] = {'E', 'L', 'D', 'A'};
constexpr uint32_t kLegacyVersion = 1;
constexpr char kParamsSection[] = "params";

// Corrupt files must not drive allocation: per-tensor volume is capped (2^28
// floats = 1 GiB) on top of the positive-dims check.
constexpr int64_t kMaxTensorElements = int64_t{1} << 28;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Validates dims read from an untrusted file and returns the volume, or -1
// when the shape is rejected (non-positive dim, overflow, or over the cap).
int64_t CheckedVolume(const std::vector<int64_t>& shape) {
  int64_t volume = 1;
  for (int64_t d : shape) {
    if (d <= 0) return -1;
    if (volume > kMaxTensorElements / d) return -1;
    volume *= d;
  }
  return volume;
}

}  // namespace

std::string EncodeParameters(const Module& module) {
  std::string blob;
  const auto named = module.NamedParameters();
  AppendPod(&blob, static_cast<uint64_t>(named.size()));
  for (const auto& [name, var] : named) {
    AppendPod(&blob, static_cast<uint32_t>(name.size()));
    blob.append(name);
    const Tensor& value = var.value();
    AppendPod(&blob, static_cast<uint32_t>(value.dim()));
    for (int64_t d : value.shape()) AppendPod(&blob, d);
    blob.append(reinterpret_cast<const char*>(value.data()),
                static_cast<size_t>(value.size()) * sizeof(float));
  }
  return blob;
}

bool DecodeParameters(Module* module, const std::string& blob,
                      std::string* error) {
  ELDA_CHECK(module != nullptr);
  BlobReader reader(blob);
  uint64_t count = 0;
  if (!reader.Pod(&count)) return Fail(error, "truncated checkpoint");

  std::map<std::string, ag::Variable> targets;
  for (const auto& [name, var] : module->NamedParameters()) {
    targets.emplace(name, var);
  }
  if (count != targets.size()) {
    return Fail(error, "checkpoint holds " + std::to_string(count) +
                           " parameters, module declares " +
                           std::to_string(targets.size()));
  }
  // Decode into staging tensors first so a failure partway through leaves
  // the module untouched.
  std::vector<std::pair<ag::Variable, Tensor>> staged;
  staged.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!reader.Pod(&name_len) || name_len > 4096) {
      return Fail(error, "corrupt parameter name");
    }
    std::string name;
    if (!reader.String(name_len, &name)) {
      return Fail(error, "truncated parameter name");
    }
    uint32_t rank = 0;
    if (!reader.Pod(&rank) || rank > 8) {
      return Fail(error, "corrupt parameter header for " + name);
    }
    std::vector<int64_t> shape(rank);
    for (uint32_t d = 0; d < rank; ++d) {
      if (!reader.Pod(&shape[d])) return Fail(error, "truncated shape");
    }
    const int64_t volume = CheckedVolume(shape);
    if (volume < 0) {
      return Fail(error, "rejected dimensions for " + name +
                             " (non-positive or oversized)");
    }
    auto it = targets.find(name);
    if (it == targets.end()) {
      return Fail(error, "checkpoint parameter " + name +
                             " not declared by the module");
    }
    if (it->second.value().shape() != shape) {
      return Fail(error, "shape mismatch for " + name);
    }
    Tensor loaded(shape);
    if (!reader.Floats(loaded.data(), volume)) {
      return Fail(error, "truncated data for " + name);
    }
    staged.emplace_back(it->second, std::move(loaded));
  }
  for (auto& [var, tensor] : staged) {
    *var.mutable_value() = tensor;
  }
  return true;
}

bool SaveParameters(const Module& module, const std::string& path,
                    std::string* error) {
  std::vector<health::Section> sections;
  sections.push_back({kParamsSection, EncodeParameters(module)});
  return health::WriteSectionedFile(path, sections, error);
}

bool LoadParameters(Module* module, const std::string& path,
                    std::string* error) {
  ELDA_CHECK(module != nullptr);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, path + " is not an ELDA checkpoint");
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) return Fail(error, path + " is truncated in the header");

  if (version == kLegacyVersion) {
    // v1: the rest of the file is the raw parameter blob, unchecksummed.
    std::string blob((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return DecodeParameters(module, blob, error);
  }
  in.close();

  std::vector<health::Section> sections;
  if (!health::ReadSectionedFile(path, &sections, error)) return false;
  const health::Section* params =
      health::FindSection(sections, kParamsSection);
  if (params == nullptr) {
    return Fail(error, path + " has no '" + kParamsSection + "' section");
  }
  return DecodeParameters(module, params->payload, error);
}

}  // namespace nn
}  // namespace elda
