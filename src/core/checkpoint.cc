#include "core/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace demsort::core {
namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr uint64_t kManifestMagic = 0x444D53434B505431ull;  // "DMSCKPT1"
// 2: the phase-1 image's sample table holds {key, pos} entries, not
// {record, pos}.
constexpr uint32_t kManifestVersion = 2;

Status Errno(const std::string& op, const std::string& path) {
  return Status::IoError(op + "(" + path + "): " + std::strerror(errno));
}

/// fsync the directory containing `path` so the rename itself is durable.
Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync", dir);
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string CheckpointManifest::PathFor(const std::string& dir, int rank) {
  return dir + "/manifest_rank" + std::to_string(rank) + ".ckpt";
}

StatusOr<uint64_t> CheckpointManifest::WriteAtomic(const std::string& dir,
                                                   int rank) const {
  ByteWriter payload;
  payload.Pod<uint64_t>(config_fingerprint);
  payload.Pod<int32_t>(completed_phase);
  payload.Pod<uint32_t>(restarts);
  payload.PodVec<uint64_t>(durable_disk_bytes);
  for (int p = 1; p <= kNumPhases; ++p) {
    payload.Pod<uint64_t>(sections[p].size());
    payload.Bytes(sections[p].data(), sections[p].size());
  }

  ByteWriter file;
  file.Pod<uint64_t>(kManifestMagic);
  file.Pod<uint32_t>(kManifestVersion);
  file.Pod<uint32_t>(Crc32(payload.str().data(), payload.str().size()));
  file.Pod<uint64_t>(static_cast<uint64_t>(payload.str().size()));
  file.Bytes(payload.str().data(), payload.str().size());
  const std::string& bytes = file.str();

  std::string path = PathFor(dir, rank);
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("write", tmp);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Errno("fsync", tmp);
  }
  if (::close(fd) != 0) return Errno("close", tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) return Errno("rename", tmp);
  DEMSORT_RETURN_IF_ERROR(SyncParentDir(path));
  return static_cast<uint64_t>(bytes.size());
}

StatusOr<CheckpointManifest> CheckpointManifest::Load(const std::string& dir,
                                                      int rank) {
  std::string path = PathFor(dir, rank);
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no manifest at " + path);
    }
    return Errno("open", path);
  }
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read", path);
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  ByteReader header(bytes);
  uint64_t magic = 0;
  uint32_t version = 0, crc = 0;
  uint64_t payload_len = 0;
  if (!header.Pod(&magic).ok() || magic != kManifestMagic) {
    return Status::InvalidArgument("manifest " + path + ": bad magic");
  }
  if (!header.Pod(&version).ok() || version != kManifestVersion) {
    return Status::InvalidArgument("manifest " + path + ": bad version");
  }
  if (!header.Pod(&crc).ok() || !header.Pod(&payload_len).ok()) {
    return Status::InvalidArgument("manifest " + path + ": short header");
  }
  constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8;
  if (bytes.size() != kHeaderBytes + payload_len) {
    return Status::InvalidArgument("manifest " + path + ": torn payload");
  }
  const char* payload = bytes.data() + kHeaderBytes;
  if (Crc32(payload, static_cast<size_t>(payload_len)) != crc) {
    return Status::InvalidArgument("manifest " + path + ": CRC mismatch");
  }

  std::string body(payload, static_cast<size_t>(payload_len));
  ByteReader r(body);
  CheckpointManifest m;
  DEMSORT_RETURN_IF_ERROR(r.Pod(&m.config_fingerprint));
  DEMSORT_RETURN_IF_ERROR(r.Pod(&m.completed_phase));
  DEMSORT_RETURN_IF_ERROR(r.Pod(&m.restarts));
  DEMSORT_RETURN_IF_ERROR(r.PodVec(&m.durable_disk_bytes));
  if (m.completed_phase < 0 || m.completed_phase > kNumPhases) {
    return Status::InvalidArgument("manifest " + path +
                                   ": completed_phase out of range");
  }
  for (int p = 1; p <= kNumPhases; ++p) {
    uint64_t len = 0;
    DEMSORT_RETURN_IF_ERROR(r.Pod(&len));
    m.sections[p].resize(static_cast<size_t>(len));
    DEMSORT_RETURN_IF_ERROR(r.Bytes(m.sections[p].data(), m.sections[p].size()));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("manifest " + path + ": trailing bytes");
  }
  return m;
}

}  // namespace demsort::core
