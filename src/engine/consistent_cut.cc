#include "engine/consistent_cut.h"

#include <string>
#include <vector>

#include "engine/paths.h"
#include "util/crc32.h"
#include "util/io.h"

namespace tickpoint {
namespace {

constexpr uint64_t kManifestMagic = 0x544B505443555431ULL;  // "TKPTCUT1"

struct ManifestHeader {
  uint64_t magic = 0;
  uint32_t version = 1;
  uint32_t num_shards = 0;
  uint64_t cut_tick = 0;
};
static_assert(sizeof(ManifestHeader) == 24);

}  // namespace

std::string CutManifestPath(const std::string& root) {
  return paths::CutManifestPath(root);
}

Status WriteCutManifest(const std::string& root, const CutManifest& manifest,
                        bool fsync) {
  ManifestHeader header;
  header.magic = kManifestMagic;
  header.num_shards = static_cast<uint32_t>(manifest.shards.size());
  header.cut_tick = manifest.cut_tick;
  std::string bytes(reinterpret_cast<const char*>(&header), sizeof(header));
  bytes.append(reinterpret_cast<const char*>(manifest.shards.data()),
               manifest.shards.size() * sizeof(CutShardRecord));
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return PublishFile(CutManifestPath(root), bytes, fsync, "cut manifest");
}

StatusOr<CutManifest> ReadCutManifest(const std::string& root) {
  const std::string path = CutManifestPath(root);
  if (!FileExists(path)) {
    return Status::NotFound("no committed cut manifest at " + path);
  }
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(path));
  TP_ASSIGN_OR_RETURN(const uint64_t size, reader.Size());
  ManifestHeader header;
  if (size < sizeof(header) + sizeof(uint32_t)) {
    return Status::Corruption("cut manifest " + path + " is truncated");
  }
  TP_RETURN_NOT_OK(reader.ReadExact(&header, sizeof(header)));
  if (header.magic != kManifestMagic || header.version != 1) {
    return Status::Corruption("cut manifest " + path + " has a bad header");
  }
  const uint64_t expected = sizeof(header) +
                            header.num_shards * sizeof(CutShardRecord) +
                            sizeof(uint32_t);
  if (size < expected) {
    return Status::Corruption("cut manifest " + path + " is truncated");
  }
  uint32_t crc = Crc32(&header, sizeof(header));
  CutManifest manifest;
  manifest.cut_tick = header.cut_tick;
  manifest.shards.resize(header.num_shards);
  for (CutShardRecord& shard : manifest.shards) {
    TP_RETURN_NOT_OK(reader.ReadExact(&shard, sizeof(shard)));
    crc = Crc32(&shard, sizeof(shard), crc);
  }
  uint32_t stored;
  TP_RETURN_NOT_OK(reader.ReadExact(&stored, sizeof(stored)));
  if (stored != crc) {
    return Status::Corruption("cut manifest " + path + " fails its CRC");
  }
  return manifest;
}

}  // namespace tickpoint
