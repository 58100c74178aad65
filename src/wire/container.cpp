#include "wire/container.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace fedtrip::wire {

bool is_container(const std::uint8_t* data, std::size_t size) {
  return size >= sizeof(kMagic) &&
         std::memcmp(data, kMagic, sizeof(kMagic)) == 0;
}

std::vector<std::uint8_t> write_container(const std::vector<Record>& records) {
  WireWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u16(kVersion);
  for (const auto& rec : records) {
    w.u32(static_cast<std::uint32_t>(rec.type));
    w.u32(rec.aux);
    w.u64(rec.bytes.size());
    w.bytes(rec.bytes.data(), rec.bytes.size());
  }
  return w.take();
}

void write_container_file(const std::string& path,
                          const std::vector<Record>& records) {
  const auto buf = write_container(records);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::vector<Record> read_container(const std::uint8_t* data,
                                   std::size_t size) {
  if (!is_container(data, size)) {
    throw WireError("bad container magic (not an FTWIRE file)");
  }
  WireReader r(data, size);
  r.skip(sizeof(kMagic));
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    throw WireError("unsupported container version " +
                    std::to_string(version) + " (reader supports " +
                    std::to_string(kVersion) + ")");
  }
  std::vector<Record> records;
  while (r.remaining() > 0) {
    Record rec;
    rec.type = static_cast<RecordType>(r.u32());
    rec.aux = r.u32();
    const std::uint64_t length = r.u64();
    // Bounds before allocation: a corrupt length must throw, not OOM.
    r.require(static_cast<std::size_t>(length));
    rec.bytes.resize(static_cast<std::size_t>(length));
    if (length > 0) r.bytes(rec.bytes.data(), rec.bytes.size());
    records.push_back(std::move(rec));
  }
  return records;
}

std::vector<std::uint8_t> serialize_params(const std::vector<float>& params) {
  WireWriter w;
  w.u64(params.size());
  for (float v : params) w.f32(v);
  return w.take();
}

std::vector<float> deserialize_params(const std::uint8_t* data,
                                      std::size_t size) {
  WireReader r(data, size);
  const std::uint64_t n = r.u64();
  // Compare without computing 4*n (a hostile count must not overflow).
  if (r.remaining() % 4 != 0 || n != r.remaining() / 4) {
    throw WireError("checkpoint record size disagrees with parameter count " +
                    std::to_string(n));
  }
  std::vector<float> params(static_cast<std::size_t>(n));
  for (auto& v : params) v = r.f32();
  r.expect_end();
  return params;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(buf.data()), size);
  }
  if (!in) throw std::runtime_error("read failed: " + path);
  return buf;
}

}  // namespace fedtrip::wire
